"""Host-speed probe: the reported times are in reference-host seconds.

The benchmark runs on a few cores of a shared host whose throughput
drifts by 15-30 % over tens of seconds to minutes, as other tenants
contend for memory bandwidth and cache.  The VM reports almost no
steal time and CPU time drifts with wall time, so no in-run median
removes it.  Around each timed operation (each generation operation,
each ``serve_small`` segment of requests, each batch of set-ups) the
benchmark therefore times
:func:`probe`, a fixed numpy/scipy computation of the same kinds of
work the generator does (Philox normals, real 2-D FFT pairs at the
plan's block shape, a streaming pass over memory), once just before
and once just after, and scales the operation's wall time by
``REFERENCE_PROBE_S`` over the mean of the two.  The probe calls no
``repro`` code, so a change to the program moves the scaled times and
a change in the host's speed mostly does not.  ``perfbench/README.md``
gives the spreads with and without the scaling.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import fft as sfft

#: The probe's typical time between operations on the reference host
#: (2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
#: Scaled times are what the operation would take on that host at that
#: speed.
REFERENCE_PROBE_S = 0.15

FFT_SHAPE = (640, 640)
FFT_PAIRS = 6
RNG_SHAPE = (1024, 1024)
RNG_DRAWS = 2
STREAM_SHAPE = (2048, 2048)
STREAM_PASSES = 3


def probe() -> float:
    """Run the fixed calibration computation once; its wall time in s."""
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(20090101))
    for _ in range(RNG_DRAWS):
        gen.standard_normal(RNG_SHAPE)
    a = gen.standard_normal(FFT_SHAPE)
    for _ in range(FFT_PAIRS):
        sfft.irfft2(sfft.rfft2(a), s=FFT_SHAPE)
    x = np.ones(STREAM_SHAPE)
    for _ in range(STREAM_PASSES):
        np.multiply(x, 1.0000001, out=x)
    del x
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """The factor that turns wall seconds into reference-host seconds."""
    return REFERENCE_PROBE_S / probe_s
