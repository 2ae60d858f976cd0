"""Out-of-core surface export: stream strips straight to disk.

Closes the loop on the paper's advantage (a): surfaces of *arbitrary*
extent can not only be generated strip by strip but written strip by
strip — the full array never exists in RAM.  The on-disk format is a
standard ``.npy`` (little-endian float64, C order) created with
``numpy.lib.format.open_memmap``, so any NumPy stack reads the result
with ``np.load(path, mmap_mode="r")`` — no custom reader required.

A sidecar JSON (``<path>.meta.json``) records the grid geometry and
provenance so :func:`load_streamed_surface` can rebuild windows of the
surface as proper :class:`~repro.core.surface.Surface` objects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..core.api import split_result
from ..core.rng import BlockNoise
from ..core.surface import Surface
from ..parallel.executor import WindowedGenerator
from .atomic import atomic_write_json

__all__ = ["stream_to_npy", "load_streamed_surface"]


def stream_to_npy(
    path: Union[str, Path],
    generator: WindowedGenerator,
    noise: BlockNoise,
    total_nx: int,
    ny: int,
    strip_nx: int = 1024,
    x0: int = 0,
    y0: int = 0,
) -> Path:
    """Generate ``total_nx x ny`` samples directly into a ``.npy`` file.

    Memory use is one strip plus the memmap page cache; determinism is
    inherited from the windowed generator (same ``(generator, noise)``
    => identical file, byte for byte, regardless of ``strip_nx``* ).

    *to FFT rounding across different strip widths, exactly as for
    in-memory streaming.
    """
    if total_nx <= 0 or ny <= 0 or strip_nx <= 0:
        raise ValueError("extents must be positive")
    path = Path(path)
    if path.suffix != ".npy":
        path = path.with_suffix(path.suffix + ".npy")
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float64, shape=(total_nx, ny)
    )
    written = 0
    while written < total_nx:
        nx = min(strip_nx, total_nx - written)
        strip = generator.generate_window(noise, x0 + written, y0, nx, ny)
        out[written : written + nx, :] = split_result(strip)[0]
        written += nx
    out.flush()
    del out

    grid = generator.grid  # type: ignore[attr-defined]
    meta = {
        "dx": grid.dx,
        "dy": grid.dy,
        "x0": x0,
        "y0": y0,
        "total_nx": total_nx,
        "ny": ny,
        "noise_seed": noise.seed,
        "noise_block": noise.block,
        "method": "streamed-npy",
    }
    # Atomic (tmp sibling + rename): a crash mid-write must never leave
    # a truncated-but-parseable sidecar next to a valid heights file.
    atomic_write_json(Path(str(path) + ".meta.json"), meta)
    return path


def load_streamed_surface(
    path: Union[str, Path],
    x_slice: Optional[slice] = None,
    y_slice: Optional[slice] = None,
) -> Surface:
    """Load a window of a streamed file as a :class:`Surface`.

    The file is memory-mapped; only the requested window is copied into
    RAM, so kilometre-scale exports can be sliced cheaply.
    """
    path = Path(path)
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    data = np.load(path, mmap_mode="r")
    xs = range(data.shape[0])[x_slice] if x_slice else range(data.shape[0])
    ys = range(data.shape[1])[y_slice] if y_slice else range(data.shape[1])
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("empty window")
    if (xs.step if isinstance(xs, range) else 1) != 1 or ys.step != 1:
        raise ValueError("window slices must have unit step")
    heights = np.array(data[xs.start : xs.stop, ys.start : ys.stop],
                       dtype=float)
    from ..core.grid import Grid2D

    grid = Grid2D(
        nx=heights.shape[0],
        ny=heights.shape[1],
        lx=heights.shape[0] * meta["dx"],
        ly=heights.shape[1] * meta["dy"],
    )
    origin = (
        (meta["x0"] + xs.start) * meta["dx"],
        (meta["y0"] + ys.start) * meta["dy"],
    )
    return Surface(
        heights=heights, grid=grid, origin=origin,
        provenance={"source": str(path), **meta},
    )
