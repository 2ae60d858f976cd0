"""Unit tests for the Surface container."""

import numpy as np
import pytest

from repro.core.grid import Grid2D
from repro.core.surface import Surface


@pytest.fixture
def surface(rng):
    grid = Grid2D(nx=32, ny=16, lx=64.0, ly=64.0)
    return Surface(heights=rng.standard_normal(grid.shape), grid=grid)


class TestConstruction:
    def test_shape_mismatch_rejected(self):
        grid = Grid2D(nx=8, ny=8, lx=8.0, ly=8.0)
        with pytest.raises(ValueError):
            Surface(heights=np.zeros((4, 4)), grid=grid)

    def test_non_finite_rejected(self):
        grid = Grid2D(nx=4, ny=4, lx=4.0, ly=4.0)
        h = np.zeros((4, 4))
        h[1, 1] = np.nan
        with pytest.raises(ValueError):
            Surface(heights=h, grid=grid)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_any_non_finite_value_rejected(self, dtype, bad):
        grid = Grid2D(nx=4, ny=5, lx=4.0, ly=5.0)
        h = np.zeros((4, 5), dtype=dtype)
        h[3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Surface(heights=h, grid=grid)

    def test_1d_rejected(self):
        grid = Grid2D(nx=4, ny=4, lx=4.0, ly=4.0)
        with pytest.raises(ValueError):
            Surface(heights=np.zeros(16), grid=grid)


class TestStatistics:
    def test_summary_keys(self, surface):
        s = surface.summary()
        for key in ("mean", "std", "min", "max", "rms_slope_x", "rms_slope_y",
                    "skewness", "kurtosis_excess"):
            assert key in s

    def test_std_matches_numpy(self, surface):
        assert surface.height_std() == pytest.approx(surface.heights.std())

    def test_flat_surface_moments(self):
        grid = Grid2D(nx=4, ny=4, lx=4.0, ly=4.0)
        s = Surface(heights=np.full((4, 4), 2.5), grid=grid)
        assert s.height_std() == 0.0
        assert s.skewness() == 0.0
        assert s.kurtosis_excess() == 0.0

    def test_rms_slope_of_plane(self):
        grid = Grid2D(nx=16, ny=16, lx=16.0, ly=16.0)
        X, _ = grid.meshgrid()
        s = Surface(heights=3.0 * X, grid=grid)
        sx, sy = s.rms_slope()
        assert sx == pytest.approx(3.0)
        assert sy == pytest.approx(0.0, abs=1e-12)

    def test_demean(self, surface):
        d = surface.demean()
        assert abs(d.height_mean()) < 1e-12
        assert d.height_std() == pytest.approx(surface.height_std())


class TestGeometry:
    def test_coordinates_include_origin(self):
        grid = Grid2D(nx=4, ny=4, lx=8.0, ly=8.0)
        s = Surface(heights=np.zeros((4, 4)), grid=grid, origin=(10.0, -4.0))
        assert s.x[0] == pytest.approx(10.0)
        assert s.y[0] == pytest.approx(-4.0)

    def test_window(self, surface):
        w = surface.window(slice(4, 12), slice(2, 10))
        assert w.shape == (8, 8)
        assert np.array_equal(w.heights, surface.heights[4:12, 2:10])
        assert w.origin[0] == pytest.approx(4 * surface.grid.dx)
        assert w.grid.dx == pytest.approx(surface.grid.dx)

    def test_window_rejects_strided(self, surface):
        with pytest.raises(ValueError):
            surface.window(slice(0, 8, 2), slice(0, 8))

    def test_window_rejects_empty(self, surface):
        with pytest.raises(ValueError):
            surface.window(slice(4, 4), slice(0, 8))

    def test_window_is_copy(self, surface):
        w = surface.window(slice(0, 4), slice(0, 4))
        w.heights[0, 0] = 999.0
        assert surface.heights[0, 0] != 999.0

    def test_profiles(self, surface):
        p = surface.profile_x(3)
        assert p.shape == (surface.shape[0],)
        assert np.array_equal(p, surface.heights[:, 3])
        q = surface.profile_y(5)
        assert np.array_equal(q, surface.heights[5, :])
