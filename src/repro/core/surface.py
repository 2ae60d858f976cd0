"""Surface container: heights + grid + provenance.

Everything user-facing in the library produces or consumes a
:class:`Surface`: a real 2D height field bound to the :class:`Grid2D`
it was sampled on, together with a provenance dictionary recording how it
was generated (spectrum family and parameters, method, seed, truncation)
so that results are auditable and serialisable
(:mod:`repro.io.npzio`).

Convenience accessors expose the global statistics the paper
parameterises surfaces by (``h`` via :meth:`Surface.height_std`) plus the
standard roughness descriptors (RMS slope, skewness, kurtosis) used in
the scattering literature the paper builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .grid import Grid2D

__all__ = ["Surface"]


@dataclass
class Surface:
    """A sampled rough surface.

    Parameters
    ----------
    heights:
        Real ``(nx, ny)`` array of surface heights; axis 0 is x.
    grid:
        The sampling grid (physical lengths and spacings).
    origin:
        Physical coordinates of sample ``(0, 0)``; nonzero for windows cut
        from a larger/streamed surface.
    provenance:
        Free-form generation metadata (JSON-serialisable).
    """

    heights: np.ndarray
    grid: Grid2D
    origin: Tuple[float, float] = (0.0, 0.0)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        h = self.heights
        if isinstance(h, np.memmap) and h.dtype == np.float64:
            # Out-of-core heights (repro.io.store / mmap_mode loads):
            # keep the memmap and skip the eager finite scan — paging a
            # larger-than-RAM file through RAM here would defeat the
            # point of the disk-backed sink.  Statistics accessors
            # still work; they fault pages in as touched.
            if h.ndim != 2:
                raise ValueError(f"heights must be 2D, got ndim={h.ndim}")
            if h.shape != self.grid.shape:
                raise ValueError(
                    f"heights shape {h.shape} does not match grid shape "
                    f"{self.grid.shape}"
                )
            return
        h = np.asarray(h)
        if h.dtype != np.float32:
            # float32 is the engine's opt-in precision and is preserved;
            # every other input (lists, ints, float16...) normalises to
            # the historical float64.
            h = np.asarray(h, dtype=float)
        if h.ndim != 2:
            raise ValueError(f"heights must be 2D, got ndim={h.ndim}")
        if h.shape != self.grid.shape:
            raise ValueError(
                f"heights shape {h.shape} does not match grid shape {self.grid.shape}"
            )
        # two reductions (min/max propagate NaN) instead of a boolean
        # mask the size of the surface: no output-sized transient
        if not (np.isfinite(h.min()) and np.isfinite(h.max())):
            raise ValueError("heights contain non-finite values")
        self.heights = h

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.heights.shape

    @property
    def x(self) -> np.ndarray:
        """Physical x coordinates of the samples (includes origin)."""
        return self.grid.x + self.origin[0]

    @property
    def y(self) -> np.ndarray:
        """Physical y coordinates of the samples (includes origin)."""
        return self.grid.y + self.origin[1]

    # ------------------------------------------------------------------
    # Statistics (global; for spatially-resolved maps see repro.stats.local)
    # ------------------------------------------------------------------
    def height_mean(self) -> float:
        """Sample mean of the heights (zero in expectation)."""
        return float(self.heights.mean())

    def height_std(self, ddof: int = 0) -> float:
        """Sample standard deviation — the estimator of the parameter ``h``."""
        return float(self.heights.std(ddof=ddof))

    def height_range(self) -> Tuple[float, float]:
        """(min, max) heights."""
        return (float(self.heights.min()), float(self.heights.max()))

    def rms_slope(self) -> Tuple[float, float]:
        """RMS of the centred finite-difference slopes ``(s_x, s_y)``."""
        gx, gy = np.gradient(self.heights, self.grid.dx, self.grid.dy)
        return (float(np.sqrt(np.mean(gx * gx))), float(np.sqrt(np.mean(gy * gy))))

    def skewness(self) -> float:
        """Sample skewness of the height distribution (0 for Gaussian)."""
        h = self.heights - self.heights.mean()
        s = h.std()
        if s == 0:
            return 0.0
        return float(np.mean(h**3) / s**3)

    def kurtosis_excess(self) -> float:
        """Excess kurtosis of the height distribution (0 for Gaussian)."""
        h = self.heights - self.heights.mean()
        s = h.std()
        if s == 0:
            return 0.0
        return float(np.mean(h**4) / s**4 - 3.0)

    def summary(self) -> Dict[str, float]:
        """Scalar statistics bundle (used by the CLI and benches)."""
        sx, sy = self.rms_slope()
        lo, hi = self.height_range()
        return {
            "mean": self.height_mean(),
            "std": self.height_std(),
            "min": lo,
            "max": hi,
            "rms_slope_x": sx,
            "rms_slope_y": sy,
            "skewness": self.skewness(),
            "kurtosis_excess": self.kurtosis_excess(),
        }

    # ------------------------------------------------------------------
    # Slicing / assembly
    # ------------------------------------------------------------------
    def window(self, x_slice: slice, y_slice: slice) -> "Surface":
        """Cut a sub-surface (view copied; origin adjusted)."""
        sub = self.heights[x_slice, y_slice]
        if sub.size == 0:
            raise ValueError("empty window")
        xs = range(self.shape[0])[x_slice]
        ys = range(self.shape[1])[y_slice]
        if (x_slice.step or 1) != 1 or (y_slice.step or 1) != 1:
            raise ValueError("window slices must have unit step")
        new_grid = self.grid.with_shape(len(xs), len(ys))
        new_origin = (
            self.origin[0] + xs[0] * self.grid.dx,
            self.origin[1] + ys[0] * self.grid.dy,
        )
        return Surface(
            heights=sub.copy(),
            grid=new_grid,
            origin=new_origin,
            provenance={**self.provenance, "window_of": self.provenance.get("id")},
        )

    def profile_x(self, iy: int) -> np.ndarray:
        """1D profile along x at row index ``iy`` (for propagation studies)."""
        return self.heights[:, iy].copy()

    def profile_y(self, ix: int) -> np.ndarray:
        """1D profile along y at column index ``ix``."""
        return self.heights[ix, :].copy()

    def demean(self) -> "Surface":
        """A copy with the sample mean removed."""
        return Surface(
            heights=self.heights - self.heights.mean(),
            grid=self.grid,
            origin=self.origin,
            provenance=dict(self.provenance),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Surface(shape={self.shape}, dx={self.grid.dx:g}, dy={self.grid.dy:g}, "
            f"std={self.height_std():.4g})"
        )
