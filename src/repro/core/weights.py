"""Discrete spectral weighting arrays and convolution kernels.

Implements Section 2.2 and the kernel construction of Section 2.4 of
Uchida, Honda & Yoon.

Given a grid (``Nx x Ny`` samples over ``Lx x Ly``) and a spectral
density ``W(K)``, the *weighting array* is (paper eqn 15)

.. math::

    w_{m_x m_y} = \\frac{4\\pi^2}{L_x L_y}\\,
        W(K_{\\bar m_x}, K_{\\bar m_y}),

where the bar denotes the frequency folding of eqn (16).  Its square root
``v = sqrt(w)`` (eqn 17) is the amplitude weighting used by both the
direct DFT method and the convolution method.

Two DFT identities make this array useful:

* ``DFT(w)[n] ~ rho(r_n)`` — the inverse-transform consistency check the
  paper states below eqn (16); exposed as :func:`weight_autocorrelation`
  and exercised by :mod:`repro.validation.checks`.
* ``kernel = fftshift(DFT(v)) / sqrt(Nx*Ny)`` is the real-space
  convolution kernel of eqns (34)-(35) normalised so that convolving an
  i.i.d. ``N(0,1)`` noise field with it yields a surface of variance
  ``sum(w) ~ h^2`` (Parseval; see DESIGN.md "Key numerical conventions").

The kernel returned here is centred (index ``(Mx, My)`` is the peak) so
that eqn (36) becomes an ordinary centred convolution.  Kernel truncation
— the paper's second advantage of the convolution method — is provided by
:func:`truncate_kernel` (explicit half-width) and
:func:`truncate_kernel_energy` (retain a target energy fraction).  An
explicit half-width can also be handed to :func:`build_kernel` as
``support=``: it then transforms only what that window needs and returns
the same bytes as truncating the full kernel (DESIGN.md "Kernel
construction").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Optional, Tuple

import numpy as np

from .. import obs
from .grid import Grid2D, folded_frequency_index
from .spectra import Spectrum

__all__ = [
    "weight_array",
    "amplitude_array",
    "weight_autocorrelation",
    "build_kernel",
    "coerce_support",
    "truncate_kernel",
    "truncate_kernel_energy",
    "kernel_half_width",
    "Kernel",
]


def weight_array(spectrum: Spectrum, grid: Grid2D) -> np.ndarray:
    """Weighting array ``w`` of paper eqns (14)-(16).

    Returns a ``(nx, ny)`` float array in FFT bin order (bin 0 = DC),
    with ``w[m] = (4*pi^2/(Lx*Ly)) * W(|K_mx|, |K_my|)``.

    The sum of the array approximates the height variance:
    ``w.sum() ~ integral of W = h**2`` (eqn 1); the approximation error is
    the spectral truncation+discretisation error and shrinks as the grid
    is refined/enlarged.
    """
    kx = grid.kx_folded[:, None]
    ky = grid.ky_folded[None, :]
    w = grid.spectral_cell * spectrum.spectrum(kx, ky)
    _check_weights(w)
    return w


def _check_weights(w: np.ndarray) -> None:
    """Reject negative or non-finite weights (shared by both kernel builds).

    Two reductions instead of a full-size boolean mask; ``min``/``max``
    propagate NaN, so a NaN anywhere fails the finiteness test.
    """
    lo, hi = w.min(), w.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(
            "spectral density produced non-finite values (NaN or inf); "
            "W(K) must be finite"
        )
    if lo < 0:
        raise ValueError(
            "spectral density produced negative values; W(K) must be >= 0"
        )


def amplitude_array(spectrum: Spectrum, grid: Grid2D) -> np.ndarray:
    """Amplitude weighting ``v = sqrt(w)`` of paper eqn (17)."""
    return np.sqrt(weight_array(spectrum, grid))


def weight_autocorrelation(spectrum: Spectrum, grid: Grid2D) -> np.ndarray:
    """Discrete autocorrelation implied by the weights: ``DFT(w)``.

    The paper notes (below eqn 16) that the DFT of the weighting array
    corresponds to the autocorrelation function, ``DFT(w) ~ rho(r)``, and
    recommends it as an accuracy check.  The returned array is real, in
    wrap (FFT) lag order matching ``grid.x_centered`` / ``grid.y_centered``.

    Notes
    -----
    With the paper's unnormalised forward DFT (eqn 11) applied to ``w``,
    the DC lag equals ``sum(w) ~ h^2 = rho(0)``: the forward transform of
    the *sampled spectrum times the spectral cell* is a Riemann sum for
    the Fourier integral of eqn (4).  Because ``w`` is even under the
    folding, the imaginary part vanishes identically (up to rounding).
    """
    w = weight_array(spectrum, grid)
    acf = np.fft.fft2(w)
    return np.ascontiguousarray(acf.real)


def _half_width(value) -> Optional[int]:
    """``value`` as a non-negative int, or ``None`` if it is not one."""
    if isinstance(value, (bool, np.bool_)):
        return None
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if isinstance(value, (int, np.integer)) and value >= 0:
        return int(value)
    return None


def coerce_support(support) -> Tuple[int, int]:
    """An explicit kernel support ``(half_x, half_y)`` as two plain ints.

    Integral floats (``64.0``, as JSON may hand them back) become ints;
    anything else that is not a non-negative integer — ``8.5``, a bool,
    ``-1``, the wrong number of entries — raises a ``ValueError`` that
    names the truncation.
    """
    entries = support if isinstance(support, (tuple, list)) else ()
    out = [_half_width(v) for v in entries]
    if len(out) != 2 or None in out:
        raise ValueError(
            f"truncation {support!r}: expected two non-negative integer "
            "half widths (half_x, half_y)"
        )
    return (out[0], out[1])


def _validate_energy_fraction(energy_fraction: float) -> None:
    """Reject energy fractions outside (0, 1] (incl. NaN) with a clear error."""
    ef = float(energy_fraction)
    if not (0.0 < ef <= 1.0):  # NaN fails every comparison -> rejected too
        raise ValueError(
            f"energy_fraction must be in (0, 1], got {energy_fraction!r}; "
            "1.0 keeps the full kernel, values near 1 truncate mildly"
        )


# ---------------------------------------------------------------------------
# Convolution kernel (paper eqns 34-35)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """A centred real-space convolution kernel for RRS synthesis.

    Attributes
    ----------
    values:
        2D float array, centred: element ``(cx, cy)`` multiplies the noise
        sample aligned with the output point.
    cx, cy:
        Index of the kernel centre.
    dx, dy:
        Sample spacings the kernel was built for.  A kernel is only valid
        for noise/surfaces sampled at the same spacing.
    energy:
        ``sum(values**2)``; equals the variance of the surface the kernel
        generates from unit white noise.
    identity:
        Optional hashable provenance token for the FFT plan cache
        (:mod:`repro.core.engine`).  Kernels sharing an identity must be
        exact scalar multiples of each other with ratio ``scale``;
        :func:`repro.core.convolution.resolve_kernel` sets it to the
        unit-``h`` spectrum parameters + grid spacing + truncation spec.
        Anything that changes the values (truncation, arithmetic) must
        drop it — hence plain constructors leave it ``None`` and the
        cache falls back to a content :attr:`fingerprint`.
    scale:
        Linear amplitude relative to the ``identity``'s unit kernel
        (``h`` for spectrum-built kernels); only meaningful when
        ``identity`` is set.
    """

    values: np.ndarray
    cx: int
    cy: int
    dx: float
    dy: float
    identity: Optional[Hashable] = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2:
            raise ValueError(f"kernel must be 2D, got ndim={v.ndim}")
        if not (0 <= self.cx < v.shape[0] and 0 <= self.cy < v.shape[1]):
            raise ValueError("kernel centre outside kernel array")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape

    @property
    def energy(self) -> float:
        return float(np.sum(self.values * self.values))

    @property
    def half_width_x(self) -> int:
        """Max one-sided support in x (samples)."""
        return max(self.cx, self.shape[0] - 1 - self.cx)

    @property
    def half_width_y(self) -> int:
        """Max one-sided support in y (samples)."""
        return max(self.cy, self.shape[1] - 1 - self.cy)

    # -- plan-cache identity -------------------------------------------
    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the kernel (geometry, spacing, and values).

        Exact (byte-level) and therefore safe as a cache key for any
        kernel, including hand-built ones; computed lazily and cached on
        the instance (the dataclass is frozen, so values never change).
        """
        meta = np.array(
            [self.shape[0], self.shape[1], self.cx, self.cy], dtype=np.int64
        )
        digest = hashlib.sha1()
        digest.update(meta.tobytes())
        digest.update(np.array([self.dx, self.dy], dtype=float).tobytes())
        digest.update(np.ascontiguousarray(self.values).tobytes())
        return digest.hexdigest()

    @property
    def plan_key(self) -> Hashable:
        """Key under which the FFT plan cache files this kernel.

        Identity-carrying kernels share plans across amplitude scalings
        (``h`` variants); zero-scale (``h = 0``) kernels must not poison
        the shared entry with an unnormalisable plan, so they fall back
        to the exact fingerprint, as do anonymous kernels.
        """
        if self.identity is not None and self.scale != 0.0:
            return ("id", self.identity)
        return ("fp", self.fingerprint)

    @property
    def plan_scale(self) -> float:
        """Normalisation the plan cache applies for this kernel's key."""
        if self.identity is not None and self.scale != 0.0:
            return float(self.scale)
        return 1.0


#: Bytes of complex first-pass output the windowed build transforms at
#: once, and the kept columns it sends through the second pass together.
#: Both only bound the build's transient memory; the bytes do not depend
#: on them.
_ROW_CHUNK_BYTES = 1 << 21
_COLUMN_CHUNK = 8


def build_kernel(spectrum: Spectrum, grid: Grid2D,
                 support: Optional[Tuple[int, int]] = None) -> Kernel:
    """Centred convolution kernel ``w-bar`` of paper eqns (34)-(35).

    Computes ``DFT(v)``, permutes it to centred order (the paper's index
    shift ``k -> k +/- M`` of eqn (35) is exactly ``fftshift``), and
    normalises by ``sqrt(Nx*Ny)`` so that

    .. math:: f = \\bar w \\ast X, \\qquad X_{ij} \\sim N(0, 1)

    (eqn 36) yields ``Var f = sum(w) ~ h^2``.

    The kernel is real and, for the even spectra of Section 2.1,
    symmetric about its centre; tiny imaginary residue from the FFT is
    discarded after a sanity check.

    ``support=(half_x, half_y)`` builds only that centred window: the
    result is byte-identical to
    ``truncate_kernel(build_kernel(spectrum, grid), half_x, half_y)``
    but transforms only the distinct rows of ``v`` and the kept columns
    (see DESIGN.md "Kernel construction").
    """
    hx_hy = None if support is None else coerce_support(support)
    with obs.trace("weights.build_kernel", {
        "grid": (grid.nx, grid.ny), "support": hx_hy,
        "pruned": hx_hy is not None,
    } if obs.enabled() else None):
        if hx_hy is None:
            return _full_kernel(spectrum, grid)
        return _windowed_kernel(spectrum, grid, *hx_hy)


def _abs_max(a: np.ndarray) -> float:
    """``max(|a|)`` by two reductions, without a full-size temporary."""
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _check_real(imag_max: float, real_max: float) -> None:
    scale = real_max or 1.0
    if imag_max > 1e-8 * scale:
        raise ValueError(
            "kernel transform is not real; spectrum must be even in Kx and Ky "
            f"(max |imag| = {imag_max:g})"
        )


def _full_kernel(spectrum: Spectrum, grid: Grid2D) -> Kernel:
    v = amplitude_array(spectrum, grid)
    big_v = np.fft.fft2(v)
    _check_real(_abs_max(big_v.imag), _abs_max(big_v.real))
    kern = np.fft.fftshift(big_v.real) / np.sqrt(grid.size)
    return Kernel(
        values=np.ascontiguousarray(kern),
        cx=grid.mx,
        cy=grid.my,
        dx=grid.dx,
        dy=grid.dy,
    )


def _windowed_kernel(spectrum: Spectrum, grid: Grid2D,
                     half_x: int, half_y: int) -> Kernel:
    """The ``(half_x, half_y)`` window of :func:`_full_kernel`, same bytes.

    ``fft2`` is ``fft`` along y, then along x, one independent line at a
    time.  Folding makes row ``i`` of ``v`` equal row ``nx - i``, so the
    first pass transforms rows ``0..nx//2`` only (in chunks, keeping the
    window's columns), and the second pass transforms only the window's
    columns, each gathered back to all ``nx`` rows by mirroring.  The
    realness check covers every value either pass produces.
    """
    nx, ny = grid.nx, grid.ny
    x0, x1 = max(0, grid.mx - half_x), min(nx, grid.mx + half_x + 1)
    y0, y1 = max(0, grid.my - half_y), min(ny, grid.my + half_y + 1)
    # centred index c holds transform bin (c - n//2) mod n (fftshift)
    rows = (np.arange(x0, x1) - grid.mx) % nx
    cols = (np.arange(y0, y1) - grid.my) % ny
    distinct = nx // 2 + 1
    kx = grid.kx_folded[:distinct, None]
    ky = grid.ky_folded[None, :]
    step = max(1, _ROW_CHUNK_BYTES // (16 * ny))
    first = np.empty((distinct, cols.size), dtype=complex)
    imag_max = 0.0
    for r0 in range(0, distinct, step):
        w = grid.spectral_cell * spectrum.spectrum(kx[r0:r0 + step], ky)
        _check_weights(w)
        line = np.fft.fft(np.sqrt(w, out=w), axis=1)
        imag_max = max(imag_max, _abs_max(line.imag))
        first[r0:r0 + step] = line[:, cols]
    mirror = folded_frequency_index(nx)
    kern = np.empty((x1 - x0, y1 - y0))
    real_max = 0.0
    for c0 in range(0, cols.size, _COLUMN_CHUNK):
        big_v = np.fft.fft(first[mirror, c0:c0 + _COLUMN_CHUNK], axis=0)
        imag_max = max(imag_max, _abs_max(big_v.imag))
        real_max = max(real_max, _abs_max(big_v.real))
        kern[:, c0:c0 + _COLUMN_CHUNK] = big_v.real[rows]
    # the DC bin, the largest |real| of the full transform, is always kept
    _check_real(imag_max, real_max)
    kern /= np.sqrt(grid.size)
    return Kernel(
        values=kern, cx=grid.mx - x0, cy=grid.my - y0,
        dx=grid.dx, dy=grid.dy,
    )


def truncate_kernel(kernel: Kernel, half_x: int, half_y: int) -> Kernel:
    """Truncate to an explicit one-sided support (paper Section 2.4).

    Keeps indices ``[cx-half_x, cx+half_x] x [cy-half_y, cy+half_y]``
    (clipped to the kernel extent).  This is the paper's advantage (b):
    when the correlation length is small the kernel support is compact
    and computation shrinks proportionally.
    """
    half_x, half_y = coerce_support((half_x, half_y))
    x0 = max(0, kernel.cx - half_x)
    x1 = min(kernel.shape[0], kernel.cx + half_x + 1)
    y0 = max(0, kernel.cy - half_y)
    y1 = min(kernel.shape[1], kernel.cy + half_y + 1)
    vals = np.ascontiguousarray(kernel.values[x0:x1, y0:y1])
    return Kernel(
        values=vals, cx=kernel.cx - x0, cy=kernel.cy - y0,
        dx=kernel.dx, dy=kernel.dy,
    )


def kernel_half_width(kernel: Kernel, energy_fraction: float = 0.999) -> Tuple[int, int]:
    """Smallest symmetric half-widths retaining ``energy_fraction`` energy.

    Searches square-ish windows grown outwards from the centre; returns
    ``(half_x, half_y)`` scaled by the kernel aspect ratio.  Used by
    :func:`truncate_kernel_energy` and by the kernel-scaling bench (C2).
    """
    _validate_energy_fraction(energy_fraction)
    total = kernel.energy
    if total == 0.0:
        return (0, 0)
    max_hx = kernel.half_width_x
    max_hy = kernel.half_width_y
    aspect = (max_hy + 1) / (max_hx + 1)
    for hx in range(max_hx + 1):
        hy = min(max_hy, int(round(aspect * hx)))
        sub = truncate_kernel(kernel, hx, hy)
        if sub.energy >= energy_fraction * total:
            return (hx, hy)
    return (max_hx, max_hy)


def truncate_kernel_energy(kernel: Kernel, energy_fraction: float = 0.999,
                           renormalise: bool = True) -> Kernel:
    """Truncate to the smallest window holding ``energy_fraction`` energy.

    Parameters
    ----------
    energy_fraction:
        Fraction of ``sum(kernel**2)`` (i.e. of the surface variance) that
        the truncated kernel must retain.
    renormalise:
        If true (default), rescale the truncated kernel so its energy
        equals the original: truncation then changes the correlation
        *shape* slightly but preserves the height variance exactly.

    Raises
    ------
    ValueError
        If ``energy_fraction`` lies outside ``(0, 1]`` (or is NaN).
    """
    _validate_energy_fraction(energy_fraction)
    hx, hy = kernel_half_width(kernel, energy_fraction)
    sub = truncate_kernel(kernel, hx, hy)
    if renormalise and sub.energy > 0.0:
        factor = np.sqrt(kernel.energy / sub.energy)
        sub = Kernel(values=sub.values * factor, cx=sub.cx, cy=sub.cy,
                     dx=sub.dx, dy=sub.dy)
    return sub
