"""Tests for the ``repro.obs`` tracing & metrics layer.

Covers the null-recorder no-op contract, the metrics registry and its
commutative merge, sink formats (Chrome trace events, metrics JSON,
human summaries), the instrumentation's determinism guarantees (heights
bit-identical with tracing on vs off; counter totals identical across
executor backends for a fixed plan), and the CLI plumbing.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.inhomogeneous import InhomogeneousGenerator
from repro.core.rng import BlockNoise
from repro.core.spectra import GaussianSpectrum
from repro.fields.parameter_map import PlateLattice
from repro.io.npzio import load_surface
from repro.parallel.executor import generate_tiled
from repro.parallel.tiles import TilePlan


@pytest.fixture(autouse=True)
def _pristine_recorder():
    """Every test starts and ends with the null recorder installed."""
    obs.uninstall()
    yield
    obs.uninstall()


@pytest.fixture
def inhomo_gen():
    grid = Grid2D(nx=64, ny=64, lx=64.0, ly=64.0)
    layout = PlateLattice.quadrants(
        64.0, 64.0,
        GaussianSpectrum(h=1.0, clx=4.0, cly=4.0),
        GaussianSpectrum(h=0.5, clx=8.0, cly=8.0),
        GaussianSpectrum(h=2.0, clx=3.0, cly=3.0),
        GaussianSpectrum(h=1.5, clx=6.0, cly=6.0),
    )
    return InhomogeneousGenerator(layout, grid, truncation=(8, 8))


PLAN = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)


# ---------------------------------------------------------------------------
# Recorder / span API
# ---------------------------------------------------------------------------
class TestRecorder:
    def test_null_recorder_is_default_and_noop(self):
        assert not obs.enabled()
        assert obs.get_recorder() is obs.NULL_RECORDER
        # free functions must not record anywhere
        obs.add("x.count", 5)
        obs.observe("x.hist", 1.0)
        obs.set_gauge("x.gauge", 2.0)
        assert obs.NULL_RECORDER.metrics.as_dict()["counters"] == {}
        # and trace() must hand back the one shared null span
        s1 = obs.trace("x.span")
        s2 = obs.trace("y.span", {"k": 1})
        assert s1 is s2
        with s1:
            pass
        assert s1.duration_s == 0.0

    def test_span_nesting_and_duration(self):
        with obs.recording() as rec:
            with obs.trace("outer"):
                with obs.trace("inner") as inner:
                    pass
                assert inner.duration_s > 0.0
        names = [s[0] for s in rec.spans()]
        # inner closes first
        assert names == ["inner", "outer"]
        stats = rec.span_stats()
        assert stats["outer"]["count"] == 1
        assert stats["outer"]["total_s"] >= stats["inner"]["total_s"]

    def test_recording_restores_previous_recorder(self):
        with obs.recording() as rec:
            assert obs.get_recorder() is rec
            obs.add("a", 1)
        assert obs.get_recorder() is obs.NULL_RECORDER
        assert rec.metrics.counter("a") == 1

    def test_span_attrs_and_annotate(self):
        with obs.recording() as rec:
            with obs.trace("t", {"x0": 1}) as span:
                span.annotate(extra=2)
        (_, _, _, _, _, attrs), = rec.spans()
        assert attrs == {"x0": 1, "extra": 2}

    def test_max_spans_drop_is_counted(self):
        with obs.recording(obs.Recorder(max_spans=2)) as rec:
            for _ in range(5):
                with obs.trace("t"):
                    pass
        assert len(rec.spans()) == 2
        assert rec.metrics.counter("obs.spans_dropped") == 3
        assert rec.span_stats()["t"]["count"] == 5  # aggregates keep counting

    def test_drain_merge_roundtrip(self):
        worker = obs.Recorder()
        with obs.recording(worker):
            with obs.trace("w.span"):
                pass
            obs.add("w.count", 3)
            obs.observe("w.hist", 0.5)
        payload = worker.drain()
        assert worker.spans() == [] and worker.metrics.counters() == {}
        parent = obs.Recorder()
        parent.merge(payload)
        parent.merge({"metrics": {}, "spans": [], "span_stats": {}})
        assert parent.metrics.counter("w.count") == 3
        assert parent.span_stats()["w.span"]["count"] == 1
        assert len(parent.spans()) == 1


# ---------------------------------------------------------------------------
# wire merge edge cases (dist worker payloads after a JSON round-trip)
# ---------------------------------------------------------------------------
class TestMergeWire:
    def _wire(self, recorder):
        """A drain payload as it arrives off the dist socket."""
        return json.loads(json.dumps(recorder.drain()))

    def test_empty_payload_is_harmless(self):
        parent = obs.Recorder()
        parent.merge_wire({})
        assert parent.spans() == []
        assert parent.metrics.counters() == {}

    def test_non_dict_payload_is_rejected(self):
        parent = obs.Recorder()
        with pytest.raises(TypeError, match="dict"):
            parent.merge_wire(["not", "a", "payload"])

    def test_drain_carries_the_retention_bound(self):
        rec = obs.Recorder(max_spans=7)
        assert rec.drain()["max_spans"] == 7

    def test_worker_bound_becomes_a_max_merged_gauge(self):
        parent = obs.Recorder()
        small = obs.Recorder(max_spans=10)
        large = obs.Recorder(max_spans=500)
        parent.merge_wire(self._wire(small))
        parent.merge_wire(self._wire(large))
        parent.merge_wire(self._wire(obs.Recorder(max_spans=10)))
        assert parent.metrics.gauge("obs.worker_max_spans") == 500.0

    def test_toplevel_spans_dropped_folds_into_counter(self):
        parent = obs.Recorder()
        parent.merge_wire({"spans_dropped": 4})
        parent.merge_wire({"spans_dropped": 2})
        assert parent.metrics.counter("obs.spans_dropped") == 6
        # non-positive / non-numeric values are ignored, not summed
        parent.merge_wire({"spans_dropped": -3})
        parent.merge_wire({"spans_dropped": "many"})
        assert parent.metrics.counter("obs.spans_dropped") == 6

    def test_worker_drop_counter_rides_metrics_and_sums(self):
        """A worker that truncated its own span buffer reports it via
        its metrics counter; the run total sums both workers."""
        parent = obs.Recorder()
        for _ in range(2):
            w = obs.Recorder(max_spans=1)
            with obs.recording(w):
                for _ in range(3):
                    with obs.trace("t"):
                        pass
            parent.merge_wire(self._wire(w))
        assert parent.metrics.counter("obs.spans_dropped") == 4
        assert len(parent.spans()) == 2

    def test_overlapping_span_names_aggregate_across_workers(self):
        parent = obs.Recorder()
        for _ in range(2):
            w = obs.Recorder()
            with obs.recording(w):
                with obs.trace("executor.tile"):
                    pass
                with obs.trace("executor.tile"):
                    pass
            # the JSON round-trip turned tuples and aggregates to lists
            parent.merge_wire(self._wire(w))
        stats = parent.span_stats()["executor.tile"]
        assert stats["count"] == 4
        assert stats["min_s"] <= stats["mean_s"] <= stats["max_s"]
        assert len(parent.spans()) == 4

    def test_malformed_spans_and_stats_are_dropped_not_fatal(self):
        parent = obs.Recorder()
        parent.merge_wire({
            "spans": [
                ["good", 0, 10, 1, 1, None],       # valid 6-list
                ["short", 0, 10],                   # wrong arity: dropped
                "not-a-span",                       # wrong type: dropped
            ],
            "span_stats": {
                "good": [1, 10, 10, 10],
                "bad_arity": [1, 10],
                "bad_types": [1, "x", 10, 10],
            },
            "metrics": {"counters": {"w.count": 1}},
        })
        assert len(parent.spans()) == 1
        assert parent.metrics.counter("obs.spans_dropped") == 2
        assert list(parent.span_stats()) == ["good"]
        assert parent.metrics.counter("w.count") == 1

    def test_non_dict_span_stats_is_ignored(self):
        parent = obs.Recorder()
        parent.merge_wire({"span_stats": [1, 2, 3]})
        assert parent.span_stats() == {}


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_histogram_quantile_and_extremes(self):
        m = obs.Metrics()
        for v in (0.001, 0.002, 0.004, 1.0):
            m.observe("h", v)
        h = m.histogram("h")
        assert h.count == 4
        assert h.vmin == pytest.approx(0.001)
        assert h.vmax == pytest.approx(1.0)
        # bucket-resolution quantile: the median falls in a small bucket
        assert h.quantile(0.5) <= 0.01
        assert h.quantile(1.0) >= 0.5

    def test_merge_is_commutative(self):
        def build(values, counts):
            m = obs.Metrics()
            for v in values:
                m.observe("h", v)
            for name, n in counts.items():
                m.inc(name, n)
            return m

        a1 = build([0.001, 0.5], {"c": 2, "only_a": 1})
        b1 = build([0.2], {"c": 5})
        a2 = build([0.001, 0.5], {"c": 2, "only_a": 1})
        b2 = build([0.2], {"c": 5})
        a1.merge(b1.as_dict())
        b2.merge(a2.as_dict())
        assert a1.as_dict() == b2.as_dict()

    def test_gauges_merge_to_max(self):
        a = obs.Metrics()
        a.set_gauge("g", 1.0)
        b = obs.Metrics()
        b.set_gauge("g", 3.0)
        a.merge(b.as_dict())
        assert a.gauge("g") == 3.0

    def test_dict_roundtrip(self):
        m = obs.Metrics()
        m.inc("c", 7)
        m.set_gauge("g", 1.5)
        m.observe("h", 0.25)
        again = obs.Metrics.from_dict(m.as_dict())
        assert again.as_dict() == m.as_dict()

    def test_counters_prefix_filter(self):
        m = obs.Metrics()
        m.inc("engine.fft.blocks", 2)
        m.inc("executor.tiles", 4)
        assert m.counters("engine.") == {"engine.fft.blocks": 2}


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class TestSinks:
    def test_chrome_trace_events(self, tmp_path):
        with obs.recording() as rec:
            with obs.trace("engine.fft.forward", {"block": 0}):
                pass
        events = obs.chrome_trace_events(rec)
        assert len(events) == 1
        ev = events[0]
        assert ev["ph"] == "X"
        assert ev["name"] == "engine.fft.forward"
        assert ev["cat"] == "engine"
        assert ev["ts"] >= 0.0 and ev["dur"] > 0.0
        assert ev["args"] == {"block": 0}
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, rec, metadata={"command": "test"})
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] == events
        assert doc["otherData"] == {"command": "test"}

    def test_metrics_json_schema(self, tmp_path):
        with obs.recording() as rec:
            obs.add("engine.fft.blocks", 3)
            with obs.trace("executor.tile"):
                pass
        path = tmp_path / "metrics.json"
        obs.write_metrics_json(path, rec)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.obs/v1"
        assert doc["metrics"]["counters"]["engine.fft.blocks"] == 3
        assert doc["span_stats"]["executor.tile"]["count"] == 1

    def test_timings_summary_lists_spans_and_counters(self):
        with obs.recording() as rec:
            obs.add("engine.fft.blocks", 3)
            with obs.trace("executor.tile"):
                pass
        text = obs.timings_summary(rec)
        assert "executor.tile" in text
        assert "engine.fft.blocks" in text

    def test_provenance_timings_empty(self):
        assert "no timing" in obs.provenance_timings({})

    def test_serial_sweep_reports_noise_cache(self, inhomo_gen):
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=24, tile_ny=40)
        with obs.recording() as rec:
            s = generate_tiled(inhomo_gen, BlockNoise(seed=4, block=16), plan)
        cache = s.provenance["noise_cache"]
        assert rec.metrics.counter("rng.block_draws") == cache["draws"] > 0
        assert rec.metrics.counter("rng.rows_drawn") == cache["rows_drawn"]
        assert rec.metrics.counter("rng.cache_hits") == cache["hits"] > 0
        assert rec.metrics.gauge("rng.cache_peak_bytes") == cache["peak_bytes"]
        assert "noise_cache" in obs.provenance_timings(s.provenance)

    def test_kernel_build_span_says_whether_it_was_pruned(self):
        grid = Grid2D(nx=64, ny=48, lx=64.0, ly=48.0)
        spectrum = GaussianSpectrum(h=1.0, clx=4.0, cly=4.0)
        with obs.recording() as rec:
            ConvolutionGenerator(spectrum, grid, truncation=(7, 5))
            ConvolutionGenerator(spectrum, grid, truncation=0.99)
        builds = [attrs for name, *_, attrs in rec.spans()
                  if name == "weights.build_kernel"]
        assert builds == [
            {"grid": (64, 48), "support": (7, 5), "pruned": True},
            {"grid": (64, 48), "support": None, "pruned": False},
        ]
        events = obs.chrome_trace_events(rec)
        assert json.loads(json.dumps(events))  # attrs serialise


# ---------------------------------------------------------------------------
# Determinism contracts
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_heights_bit_identical_tracing_on_vs_off(self, inhomo_gen):
        noise = BlockNoise(seed=11)
        off = generate_tiled(inhomo_gen, noise, PLAN, backend="serial")
        with obs.recording():
            on = generate_tiled(inhomo_gen, noise, PLAN, backend="serial")
        assert np.array_equal(off.heights, on.heights)

    def test_counter_totals_identical_across_backends(self, inhomo_gen):
        """Serial/thread/process recorders aggregate to the same totals.

        Compared over the engine/batch/executor counters, which count
        convolution *work* — the plan-cache counters are excluded by
        construction since each process worker warms its own cache.
        """
        noise = BlockNoise(seed=11)
        totals = {}
        for backend in ("serial", "thread", "process"):
            with obs.recording() as rec:
                generate_tiled(inhomo_gen, noise, PLAN,
                               backend=backend, workers=2)
                totals[backend] = {
                    k: v for k, v in rec.metrics.counters().items()
                    if k.startswith(("engine.fft.", "batch.",
                                     "conv.", "executor.tiles"))
                }
        assert totals["serial"] == totals["thread"] == totals["process"]
        assert totals["serial"]["executor.tiles"] == len(PLAN)
        assert totals["serial"]["engine.fft.forward_ffts"] > 0

    def test_tile_spans_collected_from_process_workers(self, inhomo_gen):
        noise = BlockNoise(seed=11)
        with obs.recording() as rec:
            generate_tiled(inhomo_gen, noise, PLAN,
                           backend="process", workers=2)
        stats = rec.span_stats()
        assert stats["executor.tile"]["count"] == len(PLAN)
        # worker spans carry their own pid; at least one differs from ours
        import os
        pids = {s[3] for s in rec.spans() if s[0] == "executor.tile"}
        assert pids and all(pid != os.getpid() for pid in pids)

    def test_worker_utilization_gauge(self, inhomo_gen):
        noise = BlockNoise(seed=11)
        with obs.recording() as rec:
            generate_tiled(inhomo_gen, noise, PLAN, backend="serial")
        util = rec.metrics.gauge("executor.worker_utilization")
        assert 0.0 < util <= 1.0


class TestHaloGuard:
    def test_zero_output_samples_yields_zero_overhead(self):
        """A degenerate plan must not divide by zero (satellite fix)."""

        class _StubPlan:
            total_nx = 1
            total_ny = 1
            origin_x = 0
            origin_y = 0

            def tiles(self):
                return []

            def halo_samples(self, kernel_shape):
                return (5, 0)

        from repro.core.convolution import ConvolutionGenerator

        grid = Grid2D(nx=16, ny=16, lx=16.0, ly=16.0)
        gen = ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=2.0, cly=2.0), grid,
            truncation=(4, 4),
        )
        assert gen.footprint is not None
        surface = generate_tiled(gen, BlockNoise(seed=1), _StubPlan(),
                                 backend="serial")
        assert surface.provenance["halo_overhead"] == 0.0


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------
class TestCli:
    def test_metrics_and_trace_out(self, tmp_path, capsys):
        mpath = tmp_path / "metrics.json"
        tpath = tmp_path / "trace.json"
        npz = tmp_path / "s.npz"
        rc = main([
            "--metrics-out", str(mpath), "--trace-out", str(tpath),
            "generate", "--cl", "6", "--n", "32", "--domain", "32",
            "--seed", "3", "--tile", "16", "--npz", str(npz),
        ])
        assert rc == 0
        metrics = json.loads(mpath.read_text())
        assert metrics["schema"] == "repro.obs/v1"
        assert metrics["metrics"]["counters"]["executor.tiles"] == 4
        assert "cli.generate" in metrics["span_stats"]
        trace = json.loads(tpath.read_text())
        assert any(ev["name"] == "executor.run"
                   for ev in trace["traceEvents"])
        # the emitted surface carries the metrics snapshot
        surface = load_surface(npz)
        counters = surface.provenance["obs_metrics"]["counters"]
        assert counters["executor.tiles"] == 4

    def test_cli_restores_null_recorder(self, tmp_path, capsys):
        main([
            "--metrics-out", str(tmp_path / "m.json"),
            "generate", "--cl", "6", "--n", "16", "--domain", "16",
        ])
        assert not obs.enabled()

    def test_no_flags_means_no_tracing(self, tmp_path, capsys):
        npz = tmp_path / "s.npz"
        rc = main(["generate", "--cl", "6", "--n", "16", "--domain", "16",
                   "--npz", str(npz)])
        assert rc == 0
        assert "obs_metrics" not in load_surface(npz).provenance

    def test_inspect_timings(self, tmp_path, capsys):
        npz = tmp_path / "s.npz"
        main([
            "--metrics-out", str(tmp_path / "m.json"),
            "generate", "--cl", "6", "--n", "32", "--domain", "32",
            "--tile", "16", "--npz", str(npz),
        ])
        capsys.readouterr()
        rc = main(["inspect", str(npz), "--timings"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan_cache" in out
        assert "executor.tiles" in out

    def test_figure_tiled_backend(self, tmp_path, capsys):
        npz = tmp_path / "f.npz"
        rc = main([
            "figure", "fig1", "--n", "32", "--domain", "32",
            "--tile", "16", "--backend", "thread", "--workers", "2",
            "--npz", str(npz),
        ])
        assert rc == 0
        surface = load_surface(npz)
        assert surface.provenance["method"] == "tiled"
        assert surface.provenance["figure"] == "fig1"
        # tiled figure equals the serial tiled figure bit-for-bit
        rc = main([
            "figure", "fig1", "--n", "32", "--domain", "32",
            "--tile", "16", "--npz", str(tmp_path / "f2.npz"),
        ])
        assert rc == 0
        other = load_surface(tmp_path / "f2.npz")
        assert np.array_equal(surface.heights, other.heights)
