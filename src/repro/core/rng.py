"""Gaussian random number generation for RRS synthesis.

Section 2.3 of the paper builds its random surfaces from standard normal
deviates produced by the Box-Muller transform over C ``rand()`` uniforms
(eqn 18):

.. math::

    u_1 = \\mathrm{rand}(2\\pi),\\quad u_2 = \\mathrm{rand}(1),\\quad
    X = \\sqrt{-2 \\log u_2}\\, \\cos u_1 .

This module provides:

* :func:`box_muller` — the exact transform of eqn (18) over caller-chosen
  uniforms (property-tested for normality);
* :class:`Lcg` — a classic linear congruential ``rand()`` in the style of
  the C standard library the paper cites [Johnsonbaugh & Kalin], for
  recipe-faithful reproduction;
* :func:`standard_normal_field` — the production path: `numpy` PCG64
  Generator normals (statistically identical, orders of magnitude
  faster);
* :class:`BlockNoise` — deterministic, location-addressable noise: the
  value of the noise field at any global index is a pure function of
  ``(seed, block coordinates)``.  This is what makes streaming strips and
  parallel tiles *exactly* reproduce the one-shot surface (paper
  advantage (a), DESIGN.md S3/S9/S10): any worker can materialise any
  window of the infinite noise plane without communication;
* :class:`SweepNoise` — the same plane for one planned sweep of windows
  (a serial tile run): each block is drawn once, kept only while later
  windows still read it, and drawn row-prefix-wise as far as the current
  window needs (DESIGN.md, "Noise reuse in the serial sweep").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .. import obs

__all__ = [
    "box_muller",
    "Lcg",
    "standard_normal_field",
    "normal_pair_from_uniform",
    "BlockNoise",
    "SweepNoise",
    "SWEEP_CACHE_CAP_BYTES",
    "as_generator",
]

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

#: Most bytes of noise a :class:`SweepNoise` keeps between windows.  A
#: 4096^2 sweep of 640^2 windows over 256^2 blocks peaks at 5.9 MB;
#: past the cap the block needed farthest ahead is dropped and redrawn.
SWEEP_CACHE_CAP_BYTES = 8 * 2**20


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer, a ``SeedSequence``, or
    an existing ``Generator`` (returned as-is).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def normal_pair_from_uniform(u1: np.ndarray, u2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Full Box-Muller: two independent normals from two uniforms.

    ``u1`` is uniform on ``[0, 2*pi)`` (the angle) and ``u2`` uniform on
    ``(0, 1]`` (the radius driver), exactly as in paper eqn (18); the
    second output uses the sine branch.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if np.any(u2 <= 0.0) or np.any(u2 > 1.0):
        raise ValueError("u2 must lie in (0, 1]")
    r = np.sqrt(-2.0 * np.log(u2))
    return r * np.cos(u1), r * np.sin(u1)


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The cosine-branch Box-Muller transform of paper eqn (18)."""
    return normal_pair_from_uniform(u1, u2)[0]


@dataclass
class Lcg:
    """Minimal linear congruential uniform generator (C-``rand()`` style).

    Implements the ubiquitous ANSI-C parameters
    ``state = (1103515245*state + 12345) mod 2**31`` as printed in the
    reference the paper cites for ``rand(a)``.  Provided for
    recipe-faithful reproduction and for demonstrating *why* the library
    defaults to PCG64: the LCG's low-order bits fail even casual
    independence tests (see tests/test_rng.py).

    Not suitable for production surface generation; use
    :func:`standard_normal_field`.
    """

    state: int = 1

    _A = 1103515245
    _C = 12345
    _M = 2**31

    def rand(self, a: float = 1.0, size: Optional[int] = None) -> Union[float, np.ndarray]:
        """Uniform deviate(s) on ``[0, a]`` — the paper's ``rand(a)``."""
        if size is None:
            self.state = (self._A * self.state + self._C) % self._M
            return a * self.state / (self._M - 1)
        out = np.empty(size, dtype=float)
        s = self.state
        for i in range(size):
            s = (self._A * s + self._C) % self._M
            out[i] = s
        self.state = s
        out *= a / (self._M - 1)
        return out

    def normal(self, size: Optional[int] = None) -> Union[float, np.ndarray]:
        """Standard normal deviate(s) via paper eqn (18).

        ``u2 = 0`` (a possible LCG output) is nudged to the smallest
        positive uniform to keep the log finite.
        """
        n = 1 if size is None else size
        u1 = np.atleast_1d(np.asarray(self.rand(2.0 * np.pi, n)))
        u2 = np.atleast_1d(np.asarray(self.rand(1.0, n)))
        np.clip(u2, 1.0 / self._M, 1.0, out=u2)
        x = box_muller(u1, u2)
        return float(x[0]) if size is None else x


def standard_normal_field(shape: Tuple[int, ...], seed: SeedLike = None) -> np.ndarray:
    """I.i.d. ``N(0,1)`` field of the requested shape (production path).

    Statistically equivalent to looping paper eqn (18); uses numpy's
    ziggurat sampler on PCG64 for speed (guides: vectorise, avoid Python
    loops on grids).
    """
    return as_generator(seed).standard_normal(shape)


def _block_reads(block: int, x0: int, y0: int, nx: int, ny: int
                 ) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """The blocks a window reads, and the part of each it reads.

    Yields ``(bx, by, r0, r1, c0, c1)`` for every block the window
    ``[x0, x0+nx) x [y0, y0+ny)`` overlaps: it reads rows ``[r0, r1)``
    and columns ``[c0, c1)`` of block ``(bx, by)``, in block-local
    samples, in row-major block order.
    """
    if nx <= 0 or ny <= 0:
        return
    for bx in range(x0 // block, (x0 + nx - 1) // block + 1):
        r0 = max(x0 - bx * block, 0)
        r1 = min(x0 + nx - bx * block, block)
        for by in range(y0 // block, (y0 + ny - 1) // block + 1):
            c0 = max(y0 - by * block, 0)
            c1 = min(y0 + ny - by * block, block)
            yield bx, by, r0, r1, c0, c1


class BlockNoise:
    """Deterministic, location-addressable white-noise plane.

    The infinite integer plane is partitioned into ``block x block``
    squares; the noise in the square with block coordinates ``(bx, by)``
    is drawn from a Philox generator keyed by ``(seed, bx, by)``.  Thus:

    * any window of the plane can be materialised independently by any
      process (no noise needs to be shipped between workers);
    * overlapping windows agree exactly on their overlap — the property
      that makes tiled/streamed convolution *bit-identical* to the
      one-shot computation.

    Negative block coordinates are supported (the plane is genuinely
    unbounded), enabling convolution halos that extend left/below the
    origin.

    Parameters
    ----------
    seed:
        Non-negative integer root key.
    block:
        Block edge length in samples (default 256).  Must be positive.
        The choice trades per-block generator setup cost against wasted
        samples at window edges; it does not affect values *within* a
        fixed (seed, block) configuration.

    Notes
    -----
    Philox is counter-based, so keying it per block is sound (streams for
    distinct keys are independent by construction); this mirrors how
    GPU/MPI codes key counter-based RNGs by lattice coordinates.
    """

    def __init__(self, seed: int, block: int = 256):
        if block <= 0:
            raise ValueError(f"block must be positive, got {block}")
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.seed = int(seed)
        self.block = int(block)

    # -- internal ------------------------------------------------------
    def _block_generator(self, bx: int, by: int) -> np.random.Generator:
        """The Philox generator that draws block ``(bx, by)``, row by row."""
        # Zigzag-encode signed block coords into the non-negative key words
        # Philox expects; distinct (bx, by) always map to distinct keys.
        kx = 2 * bx if bx >= 0 else -2 * bx - 1
        ky = 2 * by if by >= 0 else -2 * by - 1
        ss = np.random.SeedSequence(entropy=[self.seed, kx, ky])
        return np.random.Generator(np.random.Philox(seed=ss))

    def _block_values(self, bx: int, by: int, rows: Optional[int] = None,
                      gen: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw block ``(bx, by)``: all of it, or its next ``rows`` rows.

        Every draw of the plane passes through here.  With ``gen`` (a
        generator from :meth:`_block_generator` that has already drawn
        some leading rows) the draw continues where that one stopped:
        ``standard_normal`` fills C order, so drawing ``(a, b)`` then
        ``(c, b)`` gives the same bytes as one ``(a + c, b)`` draw.
        """
        if gen is None:
            gen = self._block_generator(bx, by)
        rows = self.block if rows is None else rows
        obs.add("rng.block_draws")
        obs.add("rng.rows_drawn", rows)
        return gen.standard_normal((rows, self.block))

    def _read_block(self, bx: int, by: int, r0: int, r1: int, c0: int,
                    c1: int) -> np.ndarray:
        """Rows ``[r0, r1)`` x columns ``[c0, c1)`` of block ``(bx, by)``."""
        return self._block_values(bx, by)[r0:r1, c0:c1]

    # -- public --------------------------------------------------------
    def window(self, x0: int, y0: int, nx: int, ny: int) -> np.ndarray:
        """Materialise the noise window ``[x0, x0+nx) x [y0, y0+ny)``.

        Coordinates are global sample indices and may be negative.
        Returns a C-contiguous ``(nx, ny)`` float array.
        """
        if nx < 0 or ny < 0:
            raise ValueError("window dimensions must be >= 0")
        out = np.empty((nx, ny), dtype=float)
        b = self.block
        for bx, by, r0, r1, c0, c1 in _block_reads(b, x0, y0, nx, ny):
            ox = bx * b + r0 - x0
            oy = by * b + c0 - y0
            out[ox : ox + r1 - r0, oy : oy + c1 - c0] = self._read_block(
                bx, by, r0, r1, c0, c1
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockNoise(seed={self.seed}, block={self.block})"


@dataclass
class _Held:
    """What a :class:`SweepNoise` keeps of one block.

    ``values`` holds rows ``[r0, drawn)`` x columns ``[c0, c0 + width)``
    of the block; ``gen`` is the block's generator positioned at row
    ``drawn`` (``None`` once the whole block is drawn).
    """

    values: np.ndarray
    r0: int
    c0: int
    drawn: int
    gen: Optional[np.random.Generator]

    def covers(self, r0: int, c0: int, c1: int) -> bool:
        return (self.r0 <= r0 and self.c0 <= c0
                and c1 <= self.c0 + self.values.shape[1])


class SweepNoise(BlockNoise):
    """A :class:`BlockNoise` that draws each block once for a known sweep.

    Built from the windows a sweep will read, in order.  Each block
    keeps the list of its future reads, and the plane serves them as
    follows:

    * a block is dropped after its last read;
    * between reads it keeps only the rows and columns later reads
      still need;
    * it is drawn as a row prefix, only as far as the current read needs,
      and its Philox generator is kept to draw the rest on first use;
    * at most :data:`SWEEP_CACHE_CAP_BYTES` are kept; past that, the
      block whose next read is farthest ahead is dropped (and redrawn
      when read).

    A read that is not in the plan (a retried window, say) is served by
    a fresh whole-block draw, exactly as :class:`BlockNoise` serves it.
    Each value is still a pure function of ``(seed, block, bx, by)``,
    so every window is byte-identical to the plain plane's.  The plan
    belongs to one sweep in one thread: pickled, the object arrives as
    a plain :class:`BlockNoise`.

    ``stats`` counts ``draws`` (calls to :meth:`_block_values`, prefix
    continuations included), ``rows_drawn``, ``hits`` (planned reads
    served from kept rows), ``fallbacks`` (reads outside the plan) and
    ``peak_bytes`` (the most bytes kept at once).
    """

    def __init__(self, noise: BlockNoise,
                 windows: Iterable[Tuple[int, int, int, int]]) -> None:
        super().__init__(noise.seed, noise.block)
        self.cap_bytes = SWEEP_CACHE_CAP_BYTES
        self._reads: Dict[Tuple[int, int],
                          Deque[Tuple[int, int, int, int, int]]] = {}
        for step, (x0, y0, nx, ny) in enumerate(windows):
            for bx, by, *part in _block_reads(self.block, x0, y0, nx, ny):
                self._reads.setdefault((bx, by), deque()).append(
                    (step, *part))
        self._held: Dict[Tuple[int, int], _Held] = {}
        self.held_bytes = 0
        self.stats = {"draws": 0, "rows_drawn": 0, "hits": 0,
                      "fallbacks": 0, "peak_bytes": 0}

    def __reduce__(self):
        return BlockNoise, (self.seed, self.block)

    def _take(self, key: Tuple[int, int], part: Tuple[int, ...]) -> bool:
        """Strike the planned read ``part`` of block ``key``, if planned."""
        pending = self._reads.get(key)
        for i, read in enumerate(pending or ()):
            if read[1:] == part:
                del pending[i]
                return True
        return False

    def _draw(self, bx: int, by: int, rows: int,
              gen: Optional[np.random.Generator]) -> np.ndarray:
        self.stats["draws"] += 1
        self.stats["rows_drawn"] += rows
        return self._block_values(bx, by, rows, gen)

    def _read_block(self, bx: int, by: int, r0: int, r1: int, c0: int,
                    c1: int) -> np.ndarray:
        key = (bx, by)
        if not self._take(key, (r0, r1, c0, c1)):
            self.stats["fallbacks"] += 1
            return self._draw(bx, by, self.block, None)[r0:r1, c0:c1]
        held = self._held.pop(key, None)
        if held is not None:
            self.held_bytes -= held.values.nbytes
        if held is not None and held.covers(r0, c0, c1):
            self.stats["hits"] += 1
            obs.add("rng.cache_hits")
        else:
            held = _Held(np.empty((0, self.block)), 0, 0, 0,
                         self._block_generator(bx, by))
        if r1 > held.drawn:
            rows = self._draw(bx, by, r1 - held.drawn, held.gen)
            width = held.values.shape[1]
            if width < self.block:  # only the columns later reads need
                rows = rows[:, held.c0 : held.c0 + width].copy()
            held.values = (np.concatenate((held.values, rows))
                           if len(held.values) else rows)
            held.drawn = r1
            if r1 == self.block:
                held.gen = None
        out = held.values[r0 - held.r0 : r1 - held.r0,
                          c0 - held.c0 : c1 - held.c0]
        self._keep(key, held)
        return out

    def _keep(self, key: Tuple[int, int], held: _Held) -> None:
        """Keep what later reads of ``key`` need, within the byte cap."""
        pending = self._reads.get(key)
        if not pending:
            self._reads.pop(key, None)
            return
        width = held.values.shape[1]
        r0 = min(max(min(p[1] for p in pending), held.r0), held.drawn)
        c0 = max(min(p[3] for p in pending), held.c0)
        c1 = min(max(p[4] for p in pending), held.c0 + width)
        if c1 <= c0 or (r0 == held.drawn and held.gen is None):
            return  # nothing left that a later read could use
        if (r0, c0, c1) != (held.r0, held.c0, held.c0 + width):
            held.values = held.values[r0 - held.r0 :,
                                      c0 - held.c0 : c1 - held.c0].copy()
            held.r0, held.c0 = r0, c0
        self._held[key] = held
        self.held_bytes += held.values.nbytes
        while self.held_bytes > self.cap_bytes:
            far = max(self._held, key=lambda k: self._reads[k][0][0])
            self.held_bytes -= self._held.pop(far).values.nbytes
        self.stats["peak_bytes"] = max(self.stats["peak_bytes"],
                                       self.held_bytes)
