"""Measurement loops: set-up, timed operations and traced operations.

An untraced run (``--trace 0``) times unpatched code only and reports
the end-to-end metrics.  A traced run (``--trace 1``) alternates
untraced and traced operations, so the tracing overhead is measured in
the same run, and reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import hostspeed, layers, workloads
from .stats import median, tail_percentile
from .tracing import Span, Tracer, covered, self_times

clock = time.perf_counter

#: Set-ups per serve run; each also binds and closes a server.
SERVE_SETUP_REPS = 16
#: Traced serve runs alternate traced and untraced phases in this order;
#: the first is traced so the service's cold plan builds show.
SERVE_TRACE_PHASES = (True, False, True, False)
#: A serve run makes this many requests per second of ``--seconds``,
#: about the reference host's rate, so it measures about ``--seconds``
#: there.  A fixed count keeps ``peak_rss_mb`` (the service never evicts
#: a result) from following the host's speed.
SERVE_REQUESTS_PER_S = 16
#: Requests per client in one segment of an untraced serve phase; each
#: segment is bracketed by host-speed probes.
SERVE_SEGMENT_REQUESTS = 12


@dataclasses.dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = dataclasses.field(
        default_factory=dict)
    notes: List[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)


# -- memory ------------------------------------------------------------------

def reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS mark, so set-up peaks do not mask
    the run's own (Linux ``clear_refs``); False where unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PeakRss:
    """Peak resident memory over the measured stretch, host probes left
    out: the peak mark is read before each probe and reset after it."""

    def __init__(self) -> None:
        self.reset_ok = reset_peak_rss()
        self.peak = 0.0

    def read(self) -> float:
        self.peak = max(self.peak, peak_rss_mb())
        return self.peak

    def probe(self) -> float:
        """Time one host-speed probe outside the peak."""
        self.read()
        probe_s = hostspeed.probe()
        self.reset_ok = reset_peak_rss() and self.reset_ok
        return probe_s


def bracketed(probes: List[float]) -> List[float]:
    """Per interval, the mean of the host probes timed at its two ends,
    from the probes timed before each interval and once after the last."""
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]


@dataclasses.dataclass
class Scaled:
    """Wall times, each with the host probe time that brackets it."""

    raw: List[float] = dataclasses.field(default_factory=list)
    probes: List[float] = dataclasses.field(default_factory=list)

    def add(self, seconds: float, probe_s: float) -> None:
        self.raw.append(seconds)
        self.probes.append(probe_s)

    @property
    def scaled(self) -> List[float]:
        """In reference-host seconds (see ``perfbench/hostspeed.py``)."""
        return [t * hostspeed.scale(p) for t, p in zip(self.raw, self.probes)]

    def note(self, name: str) -> str:
        """The samples (up to 40 of them) and the raw and probe medians."""
        shown = (" ".join(f"{t:.4f}" for t in self.scaled)
                 if len(self.raw) <= 40 else "...")
        return (f"{name} samples={len(self.raw)} scaled {shown}"
                + f"; raw median {median(self.raw):.4f} s, host probe "
                f"median {median(self.probes):.4f} s (reference "
                f"{hostspeed.REFERENCE_PROBE_S} s)")


# -- tracing switch ----------------------------------------------------------

class Tracing:
    """Installs the layer wrappers for a traced section, then removes them."""

    def __init__(self, enabled: bool) -> None:
        self.tracer = Tracer() if enabled else None
        self.links: List[layers.ServeLinks] = []

    @contextlib.contextmanager
    def section(self, on: bool) -> Iterator[Optional[Tracer]]:
        if not on or self.tracer is None:
            yield None
            return
        patches, links = layers.install(self.tracer)
        self.links.append(links)
        try:
            yield self.tracer
        finally:
            patches.restore()
            self.tracer.resolvers.clear()

    def mark(self) -> int:
        return len(self.tracer.spans) if self.tracer is not None else 0

    def since(self, mark: int) -> List[Span]:
        return self.tracer.spans[mark:] if self.tracer is not None else []


def _check_unpatched(result: Result) -> None:
    left = layers.leftover_wrappers()
    if left:
        result.fail(f"benchmark wrappers left installed: {left}")


def _sum(spans: List[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def timed_setups(tr: Tracing, documents: List[str],
                 build: Callable[[str], Any], setup_s: Scaled,
                 build_s: List[float],
                 release: Optional[Callable[[Any], None]] = None) -> Any:
    """Set up once per document, adding each set-up's time (scaled by
    host probes before and after the batch) and the kernel-build time
    inside it; returns the last one built."""
    ready = None
    raw: List[float] = []
    probe_before = hostspeed.probe()
    for document in documents:
        if ready is not None and release is not None:
            release(ready)
        ready = None  # release the previous one before timing
        mark = tr.mark()
        with tr.section(True):
            t0 = clock()
            ready = build(document)
            raw.append(clock() - t0)
        build_s.append(_sum(tr.since(mark), "weights.build_kernel"))
    probe_s = (probe_before + hostspeed.probe()) / 2
    for t in raw:
        setup_s.add(t, probe_s)
    return ready


def _end_to_end(result: Result, setup_s: Scaled, run_s: float,
                mpx_per_s: float, rss: PeakRss) -> None:
    if not rss.reset_ok:
        result.notes.append("peak_rss_mb includes set-up and host probes "
                            "(peak mark could not be reset)")
    result.metrics["setup_s"] = (median(setup_s.scaled), "s")
    result.metrics["run_s"] = (run_s, "s")
    result.metrics["mpx_per_s"] = (mpx_per_s, "Mpx/s")
    result.metrics["peak_rss_mb"] = (rss.peak, "MB")


def _plan_summary(values: Dict[str, float], spans: List[Span],
                  build_s: List[float]) -> None:
    """Plan-cache figures over every traced span of the run, set-ups
    included, and the median kernel-build time of one set-up."""
    whole = layers.op_metrics(spans)
    lookups = whole["engine.plan_lookups"]
    values["engine.plan_hit_ratio"] = (
        (lookups - whole["engine.plan_builds"]) / lookups if lookups else 0.0)
    values["engine.plan_build_s"] = whole["engine.plan_build_s"]
    values["weights.build_kernel_s"] = median(build_s)


def _with_floors(rec: Dict[str, Any], block: int) -> Dict[str, Any]:
    """Add the x_floor figures, timing the floors right after the
    operation so both see the same load on the host."""
    shapes = [shape for _, shape in rec["fft_shapes"]]
    rec.update(layers.x_floors(rec, layers.floors(shapes, block)))
    return rec


def _layer_summary(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over operations of every per-layer figure."""
    out: Dict[str, float] = {}
    keys = {k for rec in records for k, v in rec.items()
            if isinstance(v, (int, float))}
    for key in keys:
        out[key] = median([rec.get(key, 0.0) for rec in records])
    return out


def _finish_layers(result: Result, values: Dict[str, float]) -> None:
    for name, unit in layers.PER_LAYER:
        result.metrics[name] = (float(values.get(name, 0.0)), unit)


def _self_time_notes(result: Result, spans: List[Span], wall: float) -> None:
    selfs = self_times(spans)
    shares = layers.self_time_by_layer(spans, selfs)
    for layer, t in sorted(shares.items(), key=lambda kv: -kv[1]):
        result.notes.append(
            f"self time {layer:<20} {t:9.4f} s  {t / wall:6.1%} of traced "
            f"run time")


# -- generation workloads ------------------------------------------------------

def run_generation(wl: workloads.Generation, seed: int, seconds: float,
                   trace: bool, scratch: Path) -> Result:
    result = Result()
    rng = np.random.default_rng(seed)

    def next_seed() -> int:
        return int(rng.integers(0, 2**31 - 1))

    tr = Tracing(trace)
    setup_s = Scaled()
    build_s: List[float] = []
    # Half the set-ups run before the operations and half after them,
    # so their median spans the run's host conditions like run_s does.
    before = wl.setup_reps // 2
    ready = timed_setups(tr, [wl.document(next_seed()) for _ in range(before)],
                         wl.setup, setup_s, build_s)
    rss = PeakRss()

    plain_raw: List[float] = []
    plain_probes: List[float] = []
    traced_times: List[float] = []
    records: List[Dict[str, Any]] = []
    traced_spans: List[Span] = []
    traced_wall = 0.0

    def one(traced: bool, timed: bool) -> float:
        nonlocal traced_wall
        op_seed = next_seed()
        op_dir = scratch / f"op{result.attempted}"
        result.attempted += 1
        if trace and not traced:
            _check_unpatched(result)
        probe_s = rss.probe() if timed and not traced else 0.0
        mark = tr.mark()
        errors: List[str] = []
        out = None
        with tr.section(traced) as tracer:
            op_span = tracer.begin("op") if tracer is not None else None
            t0 = clock()
            try:
                out = wl.op(ready, op_seed, op_dir)
            except Exception as exc:  # counted in failed, never raised
                errors.append(f"operation raised {exc!r}")
            elapsed = clock() - t0
            if op_span is not None:
                tracer.end(op_span)
        if out is not None:
            try:
                errors += wl.check(
                    ready, op_seed, out, op_dir,
                    np.random.default_rng([seed, result.attempted]))
            except Exception as exc:  # a broken output fails its check
                errors.append(f"check raised {exc!r}")
        del out
        wl.cleanup(op_dir)
        if errors:
            result.failed += 1
            result.errors += errors
        if traced:
            spans = tr.since(mark)
            inner = [s for s in spans if s is not op_span]
            traced_spans.extend(spans)
            traced_wall += elapsed
            if timed:
                rec = layers.op_metrics(inner, self_times(spans))
                rec["trace.unattributed_frac"] = 1.0 - covered(
                    inner, op_span.start, op_span.end) / op_span.duration
                records.append(_with_floors(rec, ready.spec.noise().block))
                traced_times.append(elapsed)
        elif timed:
            plain_raw.append(elapsed)
            plain_probes.append(probe_s)
        return elapsed

    # One operation before timing: plans, page cache and lazy imports
    # warm up here.  Traced runs trace it, which is where the plan
    # builds show.
    one(traced=trace, timed=False)
    measured, i = 0.0, 0
    while measured < seconds or (trace and not records):
        measured += one(traced=trace and i % 2 == 1, timed=True)
        i += 1
    plain = Scaled(plain_raw, bracketed(plain_probes + [rss.probe()]))
    rss.read()
    pixels = wl.pixels(ready)
    ready = None
    timed_setups(tr, [wl.document(next_seed())
                      for _ in range(wl.setup_reps - before)],
                 wl.setup, setup_s, build_s)
    result.notes.append(setup_s.note("setup_s"))
    if not trace:
        run_s = plain.scaled
        result.notes.append(plain.note("run_s"))
        tail = tail_percentile(run_s)
        result.notes.append(
            "run_s tail: " + (f"p{tail[0]:g} = {tail[1]:.4f} s "
                              f"({tail[2]} samples beyond)" if tail else
                              "fewer than 10 samples beyond any percentile"))
        _end_to_end(result, setup_s, median(run_s),
                    pixels / statistics.fmean(run_s) / 1e6, rss)
        return result

    for key in layers.EXACT_COUNTS:
        seen = sorted({rec.get(key) for rec in records})
        if len(seen) > 1:
            result.fail(f"count {key} varies between operations: {seen}")
    values = _layer_summary(records)
    _plan_summary(values, tr.tracer.spans, build_s)
    values["trace.overhead"] = median(traced_times) / median(plain.raw)
    for key in layers.EXACT_COUNTS:
        result.notes.append(f"count {key} = {values.get(key, 0):g} per "
                            f"operation ({len(records)} traced operations)")
    _self_time_notes(result, traced_spans, traced_wall)
    _finish_layers(result, values)
    return result


# -- serve_small ---------------------------------------------------------------

def run_serve(seed: int, seconds: float, trace: bool, scratch: Path) -> Result:
    result = Result()
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1,
                                          size=workloads.SERVE_SEED_POOL)]
    tr = Tracing(trace)
    setup_s = Scaled()
    build_s: List[float] = []
    document = workloads.serve_document(workloads.SERVE_HEIGHTS[0], seeds[0])
    block = workloads.GenerationSpec.from_json(document).noise().block
    services = itertools.count()

    def serve_setup(doc: str) -> workloads.ServeHarness:
        workloads.GenerationSpec.from_json(doc).build_generator()
        return workloads.ServeHarness(scratch / f"service{next(services)}")

    # half the set-ups before the requests and half after, as in
    # run_generation
    before = SERVE_SETUP_REPS // 2
    harness = timed_setups(tr, [document] * before, serve_setup, setup_s,
                           build_s, workloads.ServeHarness.close)
    rss = PeakRss()

    def clients_run(rng_key: List[int], requests: int, tracer: Any
                    ) -> Tuple[List[workloads.Reply], float, float]:
        """Run the closed-loop clients for ``requests`` requests each."""
        replies: List[workloads.Reply] = []
        start = clock()
        clients = [
            threading.Thread(
                target=workloads.serve_client,
                args=(harness, np.random.default_rng(rng_key + [c]), seeds,
                      requests, tracer, replies),
                name=f"perfbench-client-{c}")
            for c in range(workloads.SERVE_CLIENTS)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        return replies, start, clock()

    phases = SERVE_TRACE_PHASES if trace else (False,)
    # requests per client and phase
    per_phase = max(1, round(seconds * SERVE_REQUESTS_PER_S
                             / (len(phases) * workloads.SERVE_CLIENTS)))
    plain: List[workloads.Reply] = []
    plain_latency = Scaled()
    served_wall = Scaled()
    traced: List[workloads.Reply] = []
    records: List[Dict[str, Any]] = []
    traced_spans: List[Span] = []
    traced_wall = 0.0
    try:
        for p, on in enumerate(phases):
            if not on:
                if trace:
                    _check_unpatched(result)
                segments = max(1, round(per_phase / SERVE_SEGMENT_REQUESTS))
                runs, probes = [], []
                for k in range(segments):
                    probes.append(rss.probe())
                    runs.append(clients_run([seed, p, k],
                                            SERVE_SEGMENT_REQUESTS, None))
                probes.append(rss.probe())
                for (replies, start, end), probe_s in zip(
                        runs, bracketed(probes)):
                    plain.extend(replies)
                    for reply in replies:
                        plain_latency.add(reply.latency, probe_s)
                    served_wall.add(end - start, probe_s)
                continue
            mark = tr.mark()
            with tr.section(True) as tracer:
                replies, start, end = clients_run([seed, p], per_phase,
                                                  tracer)
            traced.extend(replies)
            spans = tr.since(mark)
            traced_spans.extend(spans)
            traced_wall += end - start
            rec = layers.op_metrics(spans)
            n = max(1, len(replies))
            # per request, so phases of different lengths compare
            rec = {k: (v / n if isinstance(v, (int, float)) else v)
                   for k, v in rec.items()}
            rec["fft_shapes"] = {k: v / n
                                 for k, v in rec["fft_shapes"].items()}
            rec["trace.unattributed_frac"] = (
                1.0 - covered(spans, start, end) / (end - start))
            records.append(_with_floors(rec, block))
    finally:
        harness.close()
    rss.read()
    timed_setups(tr, [document] * (SERVE_SETUP_REPS - before), serve_setup,
                 setup_s, build_s, workloads.ServeHarness.close).close()

    result.attempted = len(plain) + len(traced)
    digests: Dict[Tuple[float, int], str] = {}
    for reply in plain + traced:
        if reply.error:
            result.failed += 1
            result.fail(f"request {reply.key} failed: {reply.error}")
            continue
        if reply.key not in digests:
            digests[reply.key] = workloads.solo_digest(*reply.key)
        if reply.digest != digests[reply.key]:
            result.failed += 1
            result.fail(f"reply for {reply.key} differs from a solo "
                        f"generation of its spec")

    latencies = plain_latency.scaled
    result.notes.append(setup_s.note("setup_s"))
    if not trace:
        ok = [r for r in plain if not r.error]
        rps = len(ok) / sum(served_wall.scaled)
        result.notes.append(plain_latency.note("run_s"))
        tail = tail_percentile(latencies)
        result.notes.append(f"serve requests={len(plain)} ok={len(ok)} "
                            f"clients={workloads.SERVE_CLIENTS}")
        result.notes.append(f"serve_rps = {rps:.3f} 1/s (raw "
                            f"{len(ok) / sum(served_wall.raw):.3f} 1/s)")
        result.notes.append(f"serve_p50_ms = {median(latencies) * 1e3:.3f} ms")
        result.notes.append(
            (f"serve_p{tail[0]:g}_ms = {tail[1] * 1e3:.3f} ms "
             f"({tail[2]} samples beyond, n={len(latencies)})")
            if tail else "serve tail: fewer than 10 samples beyond any "
                         "percentile")
        result.notes.append(
            f"serve polls per request = "
            f"{statistics.fmean([r.polls for r in plain]):.2f} "
            f"(one every {workloads.POLL_INTERVAL_S * 1e3:g} ms)")
        _end_to_end(result, setup_s, median(latencies),
                    rps * workloads.SERVE_N ** 2 / 1e6, rss)
        return result

    values = _layer_summary(records)
    _plan_summary(values, traced_spans, build_s)

    def ms(name: str) -> float:
        d = [s.duration for s in traced_spans if s.name == name]
        return median(d) * 1e3 if d else 0.0

    passes = [s.duration for s in traced_spans if s.name == "serve.pass"]
    waits = [w for links in tr.links for w in links.queue_waits]
    values["serve.submit_ms"] = ms("serve.client.post")
    values["serve.result_ms"] = ms("serve.client.result")
    values["serve.polls_per_request"] = (
        statistics.fmean([r.polls for r in traced]) if traced else 0.0)
    values["serve.queue_wait_ms"] = median(waits) * 1e3 if waits else 0.0
    values["serve.pass_s"] = median(passes) if passes else 0.0
    values["serve.requests_per_pass"] = (
        len([r for r in traced if not r.error]) / len(passes)
        if passes else 0.0)
    values["trace.overhead"] = (
        median([r.latency for r in traced]) / median(plain_latency.raw))
    _self_time_notes(result, traced_spans, traced_wall)
    _finish_layers(result, values)
    return result
