"""Unit tests for weighting arrays and kernels (eqns 14-17, 34-35)."""

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import weights
from repro.core.convolution import ConvolutionGenerator, resolve_kernel
from repro.core.grid import Grid2D
from repro.core.inhomogeneous import InhomogeneousGenerator, kernel_stack
from repro.core.spec import GenerationSpec
from repro.core.spectra import (
    ExponentialSpectrum,
    GaussianSpectrum,
    PowerLawSpectrum,
    spectrum_from_dict,
)
from repro.core.spectra_ext import SelfAffineSpectrum
from repro.fields.continuous import ContinuousGenerator
from repro.fields.parameter_map import PlateLattice
from tests.tolerances import variance_rtol
from repro.core.weights import (
    Kernel,
    amplitude_array,
    build_kernel,
    coerce_support,
    kernel_half_width,
    truncate_kernel,
    truncate_kernel_energy,
    weight_array,
    weight_autocorrelation,
)


class TestWeightArray:
    def test_shape_and_positivity(self, any_spectrum, grid):
        w = weight_array(any_spectrum, grid)
        assert w.shape == grid.shape
        assert np.all(w >= 0)

    def test_sum_approximates_variance(self, any_spectrum, grid):
        # eqn 1 discretised: sum w ~ h^2
        w = weight_array(any_spectrum, grid)
        assert w.sum() == pytest.approx(any_spectrum.variance,
                                        rel=variance_rtol(any_spectrum))

    def test_even_symmetry_under_folding(self, gaussian, grid):
        # w[m] == w[N - m] for m in 1..N-1 (eqn 16)
        w = weight_array(gaussian, grid)
        assert np.allclose(w[1:, :], w[1:, :][::-1, :])
        assert np.allclose(w[:, 1:], w[:, 1:][:, ::-1])

    def test_dc_bin_is_peak_for_lowpass(self, gaussian, grid):
        w = weight_array(gaussian, grid)
        assert w[0, 0] == w.max()

    def test_amplitude_is_sqrt(self, gaussian, grid):
        w = weight_array(gaussian, grid)
        v = amplitude_array(gaussian, grid)
        assert np.allclose(v * v, w)

    def test_anisotropic_orientation(self, grid):
        # longer clx -> narrower spectrum along Kx -> w falls faster in x
        s = GaussianSpectrum(h=1.0, clx=40.0, cly=10.0)
        w = weight_array(s, grid)
        assert w[4, 0] < w[0, 4]


class TestWeightAutocorrelation:
    def test_zero_lag_is_variance(self, any_spectrum, grid):
        acf = weight_autocorrelation(any_spectrum, grid)
        assert acf[0, 0] == pytest.approx(any_spectrum.variance,
                                          rel=variance_rtol(any_spectrum))

    def test_matches_analytic_acf_gaussian(self, grid):
        # the paper's accuracy check: DFT(w) ~ rho(r)
        s = GaussianSpectrum(h=1.0, clx=20.0, cly=20.0)
        acf = weight_autocorrelation(s, grid)
        x = grid.x_centered[:, None]
        y = grid.y_centered[None, :]
        expected = s.autocorrelation(x, y)
        assert np.max(np.abs(acf - expected)) < 1e-6

    def test_even_in_lag(self, any_spectrum, grid):
        acf = weight_autocorrelation(any_spectrum, grid)
        assert np.allclose(acf[1:, :], acf[1:, :][::-1, :], atol=1e-12)


class TestKernel:
    def test_kernel_centre_is_peak(self, any_spectrum, grid):
        k = build_kernel(any_spectrum, grid)
        assert k.shape == grid.shape
        assert (k.cx, k.cy) == (grid.mx, grid.my)
        assert k.values[k.cx, k.cy] == pytest.approx(k.values.max())

    def test_kernel_energy_is_variance(self, any_spectrum, grid):
        k = build_kernel(any_spectrum, grid)
        assert k.energy == pytest.approx(any_spectrum.variance,
                                         rel=variance_rtol(any_spectrum))

    def test_kernel_symmetric(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        v = k.values
        # symmetric about the centre along both axes (even spectrum)
        assert np.allclose(v[1:, :], v[1:, :][::-1, :], atol=1e-12)
        assert np.allclose(v[:, 1:], v[:, 1:][:, ::-1], atol=1e-12)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel(values=np.zeros(3), cx=0, cy=0, dx=1.0, dy=1.0)
        with pytest.raises(ValueError):
            Kernel(values=np.zeros((3, 3)), cx=5, cy=0, dx=1.0, dy=1.0)

    def test_half_widths(self):
        k = Kernel(values=np.zeros((5, 7)), cx=2, cy=3, dx=1.0, dy=1.0)
        assert k.half_width_x == 2
        assert k.half_width_y == 3
        k2 = Kernel(values=np.zeros((5, 7)), cx=1, cy=6, dx=1.0, dy=1.0)
        assert k2.half_width_x == 3
        assert k2.half_width_y == 6


class TestTruncation:
    def test_truncate_shape_and_centre(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        t = truncate_kernel(k, 5, 3)
        assert t.shape == (11, 7)
        assert (t.cx, t.cy) == (5, 3)
        # centre value preserved
        assert t.values[5, 3] == k.values[k.cx, k.cy]

    def test_truncate_clips_at_edges(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        t = truncate_kernel(k, 10_000, 10_000)
        assert t.shape == k.shape

    def test_truncate_rejects_negative(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        with pytest.raises(ValueError):
            truncate_kernel(k, -1, 0)

    def test_energy_truncation_keeps_fraction(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        t = truncate_kernel_energy(k, 0.99, renormalise=False)
        assert t.energy >= 0.99 * k.energy
        assert t.shape[0] < k.shape[0]  # actually truncates

    def test_energy_truncation_renormalises(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        t = truncate_kernel_energy(k, 0.99, renormalise=True)
        assert t.energy == pytest.approx(k.energy, rel=1e-12)

    def test_kernel_half_width_monotone_in_fraction(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        hx1, _ = kernel_half_width(k, 0.90)
        hx2, _ = kernel_half_width(k, 0.9999)
        assert hx2 >= hx1

    def test_kernel_half_width_full_energy(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        hx, hy = kernel_half_width(k, 1.0)
        t = truncate_kernel(k, hx, hy)
        assert t.energy == pytest.approx(k.energy, rel=1e-9)

    def test_kernel_half_width_validation(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        with pytest.raises(ValueError):
            kernel_half_width(k, 0.0)
        with pytest.raises(ValueError):
            kernel_half_width(k, 1.5)

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0000001, 2.0,
                                     float("nan"), float("inf")])
    def test_energy_fraction_validated_everywhere(self, gaussian, grid, bad):
        # regression: truncate_kernel_energy used to accept out-of-range
        # fractions silently (>1 kept the full kernel, <=0 kept 1 sample)
        k = build_kernel(gaussian, grid)
        with pytest.raises(ValueError, match="energy_fraction"):
            kernel_half_width(k, bad)
        with pytest.raises(ValueError, match="energy_fraction"):
            truncate_kernel_energy(k, bad)

    def test_energy_fraction_one_keeps_full_kernel(self, gaussian, grid):
        # 1.0 is the inclusive upper bound and must stay legal
        k = build_kernel(gaussian, grid)
        t = truncate_kernel_energy(k, 1.0, renormalise=False)
        assert t.energy == pytest.approx(k.energy, rel=1e-9)

    def test_smaller_cl_gives_smaller_support(self, grid):
        # the paper's claim: kernel support scales with correlation length
        k_small = build_kernel(GaussianSpectrum(h=1.0, clx=5.0, cly=5.0), grid)
        k_large = build_kernel(GaussianSpectrum(h=1.0, clx=20.0, cly=20.0), grid)
        hs, _ = kernel_half_width(k_small, 0.999)
        hl, _ = kernel_half_width(k_large, 0.999)
        assert hs < hl


# ---------------------------------------------------------------------------
# Windowed build: build_kernel(..., support=...) against the full transform
# ---------------------------------------------------------------------------
_SPECTRA = [
    GaussianSpectrum(h=1.3, clx=5.0, cly=5.0),
    GaussianSpectrum(h=0.7, clx=2.0, cly=9.0),          # anisotropic
    ExponentialSpectrum(h=0.5, clx=3.0, cly=6.0),
    PowerLawSpectrum(h=2.0, clx=4.0, cly=4.0, order=2.0),
    SelfAffineSpectrum(sigma=1.0, hurst=0.8, qr=0.4),
    SelfAffineSpectrum(sigma=2.0, hurst=0.3),           # no roll-off
]


def _same_kernel(a: Kernel, b: Kernel) -> bool:
    return (a.shape == b.shape and (a.cx, a.cy) == (b.cx, b.cy)
            and (a.dx, a.dy) == (b.dx, b.dy)
            and a.values.tobytes() == b.values.tobytes())


class _NotEvenInY(GaussianSpectrum):
    """Breaks the pointwise contract on purpose: the weights repeat with
    period 4 along the column index, so they are not even along y, and
    their odd part sits only in the Ky bins +-ny/4."""

    def spectrum(self, kx, ky):
        kx, ky = np.broadcast_arrays(kx, ky)
        column = np.arange(kx.shape[-1])
        return np.exp(-kx ** 2) * (1.0 + 0.5 * np.sin(0.5 * np.pi * column))


@dataclass(frozen=True)
class _BadValue(GaussianSpectrum):
    """Puts ``bad`` into one weight bin."""

    bad: float = float("nan")

    def spectrum(self, kx, ky):
        out = np.array(super().spectrum(kx, ky))
        out[0, -1] = self.bad
        return out


class TestWindowedBuild:
    @settings(max_examples=80, deadline=None)
    @given(
        spectrum=st.sampled_from(_SPECTRA),
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        dx=st.sampled_from([0.5, 1.0, 3.0]),
        dy=st.sampled_from([0.5, 1.0, 2.0]),
        hx=st.integers(0, 25),
        hy=st.integers(0, 25),
    )
    def test_equals_truncated_full_kernel(self, spectrum, nx, ny, dx, dy,
                                          hx, hy):
        grid = Grid2D(nx=nx, ny=ny, lx=nx * dx, ly=ny * dy)
        windowed = build_kernel(spectrum, grid, support=(hx, hy))
        full = truncate_kernel(build_kernel(spectrum, grid), hx, hy)
        assert _same_kernel(windowed, full)

    @pytest.mark.parametrize("chunk_bytes", [1, 16 * 37, 1 << 30])
    def test_bytes_do_not_depend_on_chunking(self, monkeypatch, chunk_bytes):
        grid = Grid2D(nx=90, ny=37, lx=180.0, ly=37.0)
        spectrum = _SPECTRA[1]
        ref = truncate_kernel(build_kernel(spectrum, grid), 11, 30)
        monkeypatch.setattr(weights, "_ROW_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(weights, "_COLUMN_CHUNK", 3)
        assert _same_kernel(build_kernel(spectrum, grid, support=(11, 30)),
                            ref)

    # sha256 of the 129^2 reference kernels (perfbench tiled_homog and
    # store_verify specs), recorded from the full-transform build with
    # numpy 2.4.6 on an x86-64 AVX-512 host.
    PINS = {
        "tiled_homog": (
            {"kind": "gaussian", "h": 1.0, "clx": 24.0, "cly": 24.0},
            "cfe8fab404e29ce4ce54137e2f5e0a19098ec10a74e08c344e974a39bd3f26b0",
        ),
        "store_verify": (
            {"kind": "self_affine", "sigma": 1.0, "hurst": 0.8, "qr": 0.4},
            "b0dc1fc4c19362d033ce2373698462c9a4a7d15b48887ac2c471b35ca9b648d4",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_reference_kernels_are_pinned(self, name):
        spectrum, pin = self.PINS[name]
        doc = json.dumps({"generator": {
            "kind": "convolution", "spectrum": spectrum,
            "grid": {"nx": 4096, "ny": 4096, "lx": 4096.0, "ly": 4096.0},
            "truncation": [64, 64], "engine": "auto", "dtype": "float64",
        }})
        kernel = GenerationSpec.from_json(doc).build_generator().kernel
        assert kernel.shape == (129, 129) and (kernel.cx, kernel.cy) == (64, 64)
        digest = hashlib.sha256(kernel.values.tobytes()).hexdigest()
        if digest != pin:
            # Different floating-point libraries may round exp or the FFT
            # differently; the windowed build must still match the full one.
            grid = Grid2D(nx=4096, ny=4096, lx=4096.0, ly=4096.0)
            full = truncate_kernel(
                build_kernel(spectrum_from_dict(spectrum), grid), 64, 64)
            assert kernel.values.tobytes() == full.values.tobytes()
            pytest.skip(f"{name}: this host's full build differs from the "
                        "pinned bytes; checked windowed == full instead")

    def test_tuple_truncation_never_calls_fft2(self, monkeypatch):
        def no_fft2(*args, **kwargs):
            raise AssertionError("np.fft.fft2 called for a tuple truncation")

        monkeypatch.setattr(np.fft, "fft2", no_fft2)
        grid = Grid2D(nx=64, ny=48, lx=128.0, ly=96.0)
        spectrum = _SPECTRA[0]
        build_kernel(spectrum, grid, support=(5, 7))
        resolve_kernel(spectrum, grid, (5, 7))
        ConvolutionGenerator(spectrum, grid, truncation=(5, 7))
        kernel_stack(_SPECTRA[:3], grid, 4, 4)
        with pytest.raises(AssertionError):
            build_kernel(spectrum, grid)

    # (3, 3) keeps no column the odd part reaches, so only the check
    # on the first pass can see it
    @pytest.mark.parametrize("support", [None, (3, 3), (100, 100)])
    def test_realness_check_still_raises(self, support):
        grid = Grid2D(nx=32, ny=64, lx=64.0, ly=64.0)
        spectrum = _NotEvenInY(h=1.0, clx=6.0, cly=6.0)
        with pytest.raises(ValueError, match="not real"):
            build_kernel(spectrum, grid, support=support)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("support", [None, (3, 3)])
    def test_non_finite_weights_are_rejected(self, bad, support):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        spectrum = _BadValue(h=1.0, clx=20.0, cly=20.0, bad=bad)
        with pytest.raises(ValueError, match="non-finite"):
            build_kernel(spectrum, grid, support=support)
        with pytest.raises(ValueError, match="non-finite"):
            weight_array(spectrum, grid)

    @pytest.mark.parametrize("support", [None, (3, 3)])
    def test_negative_weights_are_rejected(self, support):
        grid = Grid2D(nx=16, ny=16, lx=64.0, ly=64.0)
        spectrum = _BadValue(h=1.0, clx=20.0, cly=20.0, bad=-1.0)
        with pytest.raises(ValueError, match="negative"):
            build_kernel(spectrum, grid, support=support)

    def test_generators_keep_their_kernels(self):
        grid = Grid2D(nx=32, ny=32, lx=64.0, ly=64.0)
        a, b = _SPECTRA[0], _SPECTRA[2]

        def expected(s, hx=6, hy=5):
            return truncate_kernel(build_kernel(s, grid), hx, hy)

        for got, s in zip(kernel_stack([a, b], grid, 6, 5), [a, b]):
            assert _same_kernel(got, expected(s))

        layout = PlateLattice.quadrants(64.0, 64.0, a, b, a, b,
                                        half_width=4.0)
        gen = InhomogeneousGenerator(layout, grid, truncation=(6, 5))
        spectra = gen.weight_map.spectra
        assert set(spectra) == {a, b}
        for got, s in zip(gen.kernels, spectra):
            assert _same_kernel(got, expected(s))
            assert got.identity is not None

        cgen = ContinuousGenerator(
            lambda cl: GaussianSpectrum(h=1.0, clx=cl, cly=cl),
            h_field=lambda x, y: 1.0 + 0 * np.asarray(x),
            cl_field=lambda x, y: 3.0 + np.asarray(x) / 32.0,
            grid=grid, levels=3, truncation=(6, 5),
        )
        for got, s in zip(cgen._kernels, cgen._spectra):
            assert _same_kernel(got, expected(s))


class TestSupportCoercion:
    def test_integral_floats_become_ints(self):
        assert coerce_support((64.0, np.int64(3))) == (64, 3)
        assert all(type(v) is int for v in coerce_support([64.0, 2]))

    @pytest.mark.parametrize("bad", [(8.5, 8), (True, 2), (-1, 2), (1, 2, 3),
                                     (3,), "ab", 4, (float("nan"), 1)])
    def test_rejects_with_the_truncation_named(self, bad):
        with pytest.raises(ValueError, match="truncation"):
            coerce_support(bad)

    def test_truncate_kernel_accepts_integral_floats(self, gaussian, grid):
        k = build_kernel(gaussian, grid)
        assert _same_kernel(truncate_kernel(k, 4.0, 3), truncate_kernel(k, 4, 3))
