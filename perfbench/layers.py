"""The layers of ``repro`` the traced run measures, and their metrics.

:func:`install` wraps one or more public calls per layer (the table in
``perfbench/README.md``) in spans; :func:`op_metrics` turns the spans
of one operation into its per-layer figures; :func:`floors` times the
hardware floors the ``x_floor`` metrics are multiples of.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .stats import median
from .tracing import Patches, Span, Tracer, self_times, spanned

#: Per-layer metrics in the order they are reported, with their units.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("weights.build_kernel_s", "s"),
    ("rng.window_s", "s"),
    ("rng.block_draws", "count"),
    ("rng.distinct_blocks", "count"),
    ("rng.x_floor", "x"),
    ("engine.plan_lookups", "count"),
    ("engine.plan_hit_ratio", "ratio"),
    ("engine.plan_build_s", "s"),
    ("conv.apply_s", "s"),
    ("conv.fft_s", "s"),
    ("conv.rfft2_calls", "count"),
    ("conv.irfft2_calls", "count"),
    ("conv.gflop_computed", "GFLOP"),
    ("conv.x_floor", "x"),
    ("fields.weight_map_s", "s"),
    ("inhomo.blend_s", "s"),
    ("inhomo.regions_active_ratio", "ratio"),
    ("gen.window_s", "s"),
    ("executor.self_s", "s"),
    ("executor.tiles", "count"),
    ("executor.halo_ratio", "ratio"),
    ("store.submit_wait_s", "s"),
    ("store.write_s", "s"),
    ("store.drain_s", "s"),
    ("store.bytes_written", "B"),
    ("jobs.checkpoint_writes", "count"),
    ("jobs.checkpoint_s", "s"),
    ("verify.s", "s"),
    ("verify.read_s", "s"),
    ("verify.bytes_read", "B"),
    ("verify.windows", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.polls_per_request", "count"),
    ("serve.result_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.pass_s", "s"),
    ("serve.requests_per_pass", "count"),
    ("trace.overhead", "x"),
    ("trace.unattributed_frac", "ratio"),
)

#: Counts that must repeat exactly from one warm operation to the next
#: (and from run to run: they depend on the workload geometry, not on
#: the seed).
EXACT_COUNTS = (
    "rng.block_draws", "rng.distinct_blocks", "conv.rfft2_calls",
    "conv.irfft2_calls", "engine.plan_builds", "executor.tiles",
    "store.bytes_written", "verify.bytes_read", "verify.windows",
)

#: Span name -> layer name, for the self-time table.
LAYER_OF = {
    "weights.build_kernel": "core.weights",
    "rng.window": "core.rng",
    "rng.block": "core.rng",
    "engine.get_plan": "core.engine",
    "conv.apply": "core.convolution",
    "conv.rfft2": "core.convolution",
    "conv.irfft2": "core.convolution",
    "fields.weight_map": "fields",
    "inhomo.blend": "core.inhomogeneous",
    "gen.window": "generators",
    "executor.generate_tiled": "parallel.executor",
    "store.submit": "io.store",
    "store.close": "io.store",
    "store.write": "io.store",
    "jobs.checkpoint_write": "jobs",
    "verify.store": "verify",
    "verify.read": "verify",
    "serve.submit": "serve",
    "serve.result_npy": "serve",
    "serve.pass": "serve",
    "serve.client.post": "serve",
    "serve.client.poll": "serve",
    "serve.client.result": "serve",
}


def _fft_shape(args: tuple, kwargs: dict) -> Tuple[int, int]:
    """Real-space shape of a backend ``rfft2``/``irfft2`` call."""
    s = kwargs.get("s", args[2] if len(args) > 2 else None)
    if s is not None:
        return (int(s[0]), int(s[1]))
    a = args[1]
    return (int(a.shape[-2]), int(a.shape[-1]))


def _fft_attrs(args: tuple, kwargs: dict, _result: Any) -> Dict[str, Any]:
    shape = _fft_shape(args, kwargs)
    n = shape[0] * shape[1]
    # the usual real-FFT estimate: half of 5 N log2 N
    return {"shape": shape, "flop": 2.5 * n * math.log2(n)}


def _window_attrs(args: tuple, _kwargs: dict, _result: Any) -> Dict[str, Any]:
    return {"area": args[3] * args[4]}


def _block_attrs(args: tuple, _kwargs: dict, _result: Any) -> Dict[str, Any]:
    noise, bx, by = args[:3]
    return {"key": (noise.seed, noise.block, bx, by)}


def _gen_window_attrs(args: tuple, _kwargs: dict, result: Any
                      ) -> Dict[str, Any]:
    nx, ny = args[4], args[5]
    prov = getattr(result, "provenance", None) or {}
    active = prov.get("regions_active", 1)
    skipped = prov.get("regions_skipped", 0)
    return {"area": nx * ny, "active": active, "listed": active + skipped}


class ServeLinks:
    """Causal links across the serve batcher's queue.

    ``SurfaceService.submit`` hands small requests to the batcher thread
    through a queue; the spans that thread opens keep the oldest pending
    submit span as their cause.  A request's queue wait runs from its
    enqueue to the noise draw that starts the batcher's work on its
    group (the draw just before the engine pass that served it).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pending: Deque[Span] = deque()
        self.queue_waits: List[float] = []

    def oldest_cause(self) -> Optional[Span]:
        return self.pending[0] if self.pending else None

    def wrap_batcher_submit(self, fn: Any) -> Any:
        links, tracer = self, self.tracer

        def submit(batcher: Any, item: Any) -> None:
            cause = tracer.current()
            enqueued = tracer.clock()
            on_done = item.on_done

            def done(heights: Any, meta: Dict[str, Any]) -> None:
                started = tracer.last("rng.window")
                if started is not None:
                    links.queue_waits.append(started.start - enqueued)
                if cause is not None and cause in links.pending:
                    links.pending.remove(cause)
                on_done(heights, meta)

            item.on_done = done
            if cause is not None:
                links.pending.append(cause)
            return fn(batcher, item)
        submit._perfbench_wrapper = True  # type: ignore[attr-defined]
        return submit


def install(tracer: Tracer) -> Tuple[Patches, ServeLinks]:
    """Wrap every measured call; the caller restores the returned patches."""
    from repro.core import backend, convolution, engine, inhomogeneous, rng
    from repro.core import weights
    from repro.fields import continuous, parameter_map
    from repro.io import store
    from repro.jobs import checkpoint
    from repro.parallel import executor
    from repro.serve import batch, service
    from repro import verify

    p = Patches()
    links = ServeLinks(tracer)

    def sp(name: str, **kw: Any) -> Any:
        return spanned(tracer, name, **kw)

    p.everywhere(weights, "build_kernel", sp("weights.build_kernel"))
    p.attr(rng.BlockNoise, "window", sp("rng.window", attrs=_window_attrs))
    # the draws themselves, so a window that reuses blocks counts fewer
    p.attr(rng.BlockNoise, "_block_values",
           sp("rng.block", attrs=_block_attrs))

    def plan_wrap(fn: Any) -> Any:
        def get_plan(cache: Any, *args: Any, **kwargs: Any) -> Any:
            misses = cache.stats().misses
            span = tracer.begin("engine.get_plan")
            try:
                return fn(cache, *args, **kwargs)
            finally:
                tracer.end(span)
                span.attrs["miss"] = cache.stats().misses > misses
        get_plan._perfbench_wrapper = True  # type: ignore[attr-defined]
        return get_plan

    p.attr(engine.KernelPlanCache, "get_plan", plan_wrap)
    p.everywhere(convolution, "apply_kernel_valid", sp("conv.apply"))
    p.everywhere(convolution, "apply_kernels_valid", sp("conv.apply"))
    p.attr(backend.NumpyBackend, "rfft2", sp("conv.rfft2", attrs=_fft_attrs))
    p.attr(backend.NumpyBackend, "irfft2",
           sp("conv.irfft2", attrs=_fft_attrs))
    for layout in (parameter_map.PlateLattice, parameter_map.LayeredLayout,
                   inhomogeneous.PointOrientedLayout):
        p.attr(layout, "weight_map", sp("fields.weight_map"))
    p.everywhere(inhomogeneous, "blend_fields", sp("inhomo.blend"))
    for gen in (convolution.ConvolutionGenerator,
                inhomogeneous.InhomogeneousGenerator,
                continuous.ContinuousGenerator):
        p.attr(gen, "generate_window",
               sp("gen.window", attrs=_gen_window_attrs))
    p.everywhere(executor, "generate_tiled", sp("executor.generate_tiled"))

    # store writeback: the writer thread's write keeps the submit span
    # that queued its window as its cause
    causes: Dict[int, Span] = {}

    def submit_wrap(fn: Any) -> Any:
        def submit(writer: Any, index: Any, x0: int, y0: int,
                   values: Any) -> None:
            span = tracer.begin("store.submit")
            causes[id(values)] = span
            try:
                return fn(writer, index, x0, y0, values)
            finally:
                tracer.end(span)
        submit._perfbench_wrapper = True  # type: ignore[attr-defined]
        return submit

    p.attr(store.StoreWriter, "submit", submit_wrap)
    p.attr(store.StoreWriter, "close", sp("store.close"))
    p.attr(store.SurfaceStore, "write_window", sp(
        "store.write",
        parent=lambda a, k: causes.pop(id(a[3]), None),
        attrs=lambda a, k, r: {"bytes": int(r)},
    ))
    p.attr(checkpoint.JobCheckpoint, "write", sp("jobs.checkpoint_write"))
    p.everywhere(verify, "verify_store", sp("verify.store"))
    p.attr(store.SurfaceStore, "read_window", sp(
        "verify.read", attrs=lambda a, k, r: {"bytes": int(r.nbytes)},
    ))

    p.attr(service.SurfaceService, "submit", sp("serve.submit"))
    p.attr(service.SurfaceService, "result_npy", sp("serve.result_npy"))
    p.attr(batch.Batcher, "submit", links.wrap_batcher_submit)

    p.attr(batch, "apply_kernels_valid", sp("serve.pass"))
    tracer.resolvers["serve-batcher"] = links.oldest_cause
    return p, links


def leftover_wrappers() -> List[str]:
    """Names of benchmark wrappers still installed anywhere in ``repro``."""
    found = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(mod).items()):
            if getattr(value, "_perfbench_wrapper", False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    if getattr(fn, "_perfbench_wrapper", False):
                        found.append(f"{name}.{attr}.{meth}")
    return found


# -- metrics from spans ----------------------------------------------------

def _by_name(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def op_metrics(spans: Sequence[Span],
               selfs: Optional[Dict[Span, float]] = None) -> Dict[str, Any]:
    """Raw per-layer figures of one operation's spans."""
    if selfs is None:
        selfs = self_times(list(spans))
    by = _by_name(spans)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by.get(n, ()))

    def count(name: str) -> int:
        return len(by.get(name, ()))

    m: Dict[str, Any] = {}
    windows = by.get("rng.window", [])
    keys = [s.attrs["key"] for s in by.get("rng.block", ())]
    m["rng.window_s"] = total("rng.window")
    m["rng.block_draws"] = len(keys)
    m["rng.distinct_blocks"] = len(set(keys))
    plans = by.get("engine.get_plan", [])
    built = [s for s in plans if s.attrs.get("miss")]
    m["engine.plan_lookups"] = len(plans)
    m["engine.plan_builds"] = len(built)
    m["engine.plan_build_s"] = sum(s.duration for s in built)
    ffts = by.get("conv.rfft2", []) + by.get("conv.irfft2", [])
    m["conv.apply_s"] = total("conv.apply")
    m["conv.fft_s"] = total("conv.rfft2", "conv.irfft2")
    m["conv.rfft2_calls"] = count("conv.rfft2")
    m["conv.irfft2_calls"] = count("conv.irfft2")
    m["conv.gflop_computed"] = sum(s.attrs["flop"] for s in ffts) / 1e9
    m["fft_shapes"] = Counter((s.name, s.attrs["shape"]) for s in ffts)
    m["fields.weight_map_s"] = total("fields.weight_map")
    m["inhomo.blend_s"] = total("inhomo.blend")
    gens = by.get("gen.window", [])
    listed = sum(s.attrs["listed"] for s in gens)
    m["inhomo.regions_active_ratio"] = (
        sum(s.attrs["active"] for s in gens) / listed if listed else 0.0)
    m["gen.window_s"] = sum(selfs[s] for s in gens)
    execs = by.get("executor.generate_tiled", [])
    m["executor.self_s"] = sum(selfs[s] for s in execs)
    m["executor.tiles"] = len(gens) if execs else 0
    gen_area = sum(s.attrs["area"] for s in gens)
    m["executor.halo_ratio"] = (
        sum(s.attrs["area"] for s in windows) / gen_area - 1.0
        if execs and gen_area else 0.0)
    m["store.submit_wait_s"] = total("store.submit")
    m["store.write_s"] = total("store.write")
    m["store.drain_s"] = total("store.close")
    m["store.bytes_written"] = sum(
        s.attrs["bytes"] for s in by.get("store.write", ()))
    m["jobs.checkpoint_writes"] = count("jobs.checkpoint_write")
    m["jobs.checkpoint_s"] = total("jobs.checkpoint_write")
    m["verify.s"] = total("verify.store")
    m["verify.read_s"] = total("verify.read")
    m["verify.bytes_read"] = sum(
        s.attrs["bytes"] for s in by.get("verify.read", ()))
    m["verify.windows"] = count("verify.read")
    return m


def self_time_by_layer(spans: Sequence[Span], selfs: Dict[Span, float]
                       ) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for s in spans:
        layer = LAYER_OF.get(s.name)
        if layer is not None:
            out[layer] = out.get(layer, 0.0) + selfs[s]
    return out


# -- hardware floors -------------------------------------------------------

def floors(fft_shapes: Sequence[Tuple[int, int]], block: int,
           reps: int = 9) -> Dict[str, Any]:
    """Bare costs the ``x_floor`` metrics divide by, measured now.

    ``rng_block_s``: one ``block x block`` draw of raw Philox
    ``standard_normal`` from an already-seeded generator.  ``fft``:
    per real-space shape, one bare ``scipy.fft`` ``rfft2`` and one
    ``irfft2``, no multiply and no crop.
    """
    from scipy import fft as sfft

    clock = time.perf_counter
    gen = np.random.Generator(np.random.Philox(20090101))
    per_block = []
    for _ in range(reps):
        t0 = clock()
        for _ in range(8):
            gen.standard_normal((block, block))
        per_block.append((clock() - t0) / 8)
    fft: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for shape in set(fft_shapes):
        a = gen.standard_normal(shape)
        fwd, inv = [], []
        for _ in range(reps):
            t0 = clock()
            spec = sfft.rfft2(a, s=shape)
            t1 = clock()
            sfft.irfft2(spec, s=shape)
            fwd.append(t1 - t0)
            inv.append(clock() - t1)
        fft[shape] = (median(fwd), median(inv))
    return {"rng_block_s": median(per_block), "fft": fft}


def x_floors(m: Dict[str, Any], fl: Dict[str, Any]) -> Dict[str, float]:
    rng_floor = m["rng.distinct_blocks"] * fl["rng_block_s"]
    fft_floor = sum(
        n * fl["fft"][shape][0 if kind == "conv.rfft2" else 1]
        for (kind, shape), n in m["fft_shapes"].items()
    )
    return {
        "rng.x_floor": m["rng.window_s"] / rng_floor if rng_floor else 0.0,
        "conv.x_floor": m["conv.apply_s"] / fft_floor if fft_floor else 0.0,
    }
