"""Wrappers record the layers, leave the bytes alone, and come off again."""

import numpy as np
import pytest

from perfbench import layers, measure
from perfbench.tracing import Tracer, self_times

from repro.core import backend, convolution, inhomogeneous, rng, weights
from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.spectra import GaussianSpectrum
from repro.jobs import runner
from repro.parallel import executor
from repro.parallel.tiles import TilePlan
from repro.serve import batch


def _bindings():
    return {
        "convolution.apply_kernel_valid": convolution.apply_kernel_valid,
        "convolution.apply_kernels_valid": convolution.apply_kernels_valid,
        "inhomogeneous.apply_kernels_valid":
            inhomogeneous.apply_kernels_valid,
        "batch.apply_kernels_valid": batch.apply_kernels_valid,
        "convolution.build_kernel": convolution.build_kernel,
        "weights.build_kernel": weights.build_kernel,
        "runner.generate_tiled": runner.generate_tiled,
        "executor.generate_tiled": executor.generate_tiled,
        "BlockNoise.window": rng.BlockNoise.__dict__["window"],
        "NumpyBackend.rfft2": backend.NumpyBackend.__dict__["rfft2"],
        "Generator.generate_window":
            ConvolutionGenerator.__dict__["generate_window"],
    }


def _surface():
    gen = ConvolutionGenerator(GaussianSpectrum(h=1.0, clx=4.0, cly=4.0),
                               Grid2D(nx=64, ny=64, lx=64.0, ly=64.0),
                               truncation=(8, 8), engine="fft")
    plan = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)
    return executor.generate_tiled(gen, rng.BlockNoise(seed=5, block=16),
                                   plan).heights.copy()


def test_wrappers_are_restored_so_untraced_runs_are_unpatched():
    before = _bindings()
    assert layers.leftover_wrappers() == []
    reference = _surface()

    tracer = Tracer()
    patches, _links = layers.install(tracer)
    try:
        patched = _bindings()
        assert all(patched[k] is not before[k] for k in before)
        # serve's engine pass wraps the already-wrapped batched engine
        assert batch.apply_kernels_valid is not convolution.apply_kernels_valid
        assert layers.leftover_wrappers()
        traced = _surface()
    finally:
        patches.restore()

    assert _bindings() == before
    assert layers.leftover_wrappers() == []
    assert traced.tobytes() == reference.tobytes()
    names = {s.name for s in tracer.spans}
    assert {"executor.generate_tiled", "gen.window", "rng.window",
            "conv.apply", "engine.get_plan", "conv.rfft2",
            "conv.irfft2"} <= names
    recorded = len(tracer.spans)
    _surface()
    assert len(tracer.spans) == recorded


def test_tracing_section_restores_after_an_error():
    tr = measure.Tracing(True)
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tr.section(True):
            1 / 0
    assert _bindings() == before
    assert layers.leftover_wrappers() == []


def test_op_metrics_count_blocks_tiles_and_ffts():
    tracer = Tracer()
    patches, _ = layers.install(tracer)
    try:
        _surface()
    finally:
        patches.restore()
    m = layers.op_metrics(tracer.spans, self_times(tracer.spans))
    # 2x2 tiles of 32 + 8-sample halo each side = 48^2 noise windows over
    # 16-sample blocks: 4x4 blocks per window when aligned at -8
    assert m["executor.tiles"] == 4
    assert m["rng.block_draws"] == 4 * 16
    assert m["rng.distinct_blocks"] == 36
    assert m["executor.halo_ratio"] == pytest.approx(48 ** 2 / 32 ** 2 - 1)
    assert m["conv.irfft2_calls"] == 4
    assert m["conv.rfft2_calls"] == 4 + m["engine.plan_builds"]
    assert m["gen.window_s"] >= 0.0 and m["executor.self_s"] >= 0.0


def test_block_draws_count_draws_not_the_blocks_windows_span(monkeypatch):
    # A noise plane that keeps every block it drew: the four tiles'
    # windows span 64 blocks, but only the 36 distinct ones are drawn.
    def cached_window(noise, x0, y0, nx, ny):
        cache = noise.__dict__.setdefault("_test_cache", {})
        b = noise.block
        out = np.empty((nx, ny))
        for bx in range(x0 // b, (x0 + nx - 1) // b + 1):
            for by in range(y0 // b, (y0 + ny - 1) // b + 1):
                if (bx, by) not in cache:
                    cache[bx, by] = noise._block_values(bx, by)
                gx0, gx1 = max(x0, bx * b), min(x0 + nx, (bx + 1) * b)
                gy0, gy1 = max(y0, by * b), min(y0 + ny, (by + 1) * b)
                out[gx0 - x0:gx1 - x0, gy0 - y0:gy1 - y0] = cache[bx, by][
                    gx0 - bx * b:gx1 - bx * b, gy0 - by * b:gy1 - by * b]
        return out

    reference = _surface()
    monkeypatch.setattr(rng.BlockNoise, "window", cached_window)
    tracer = Tracer()
    patches, _ = layers.install(tracer)
    try:
        cached = _surface()
    finally:
        patches.restore()
    assert cached.tobytes() == reference.tobytes()
    m = layers.op_metrics(tracer.spans)
    assert m["rng.block_draws"] == m["rng.distinct_blocks"] == 36


def test_x_floors_divide_by_the_measured_floor():
    m = {"rng.window_s": 3.0, "rng.distinct_blocks": 10,
         "conv.apply_s": 2.0,
         "fft_shapes": {("conv.rfft2", (8, 8)): 4,
                        ("conv.irfft2", (8, 8)): 4}}
    fl = {"rng_block_s": 0.1, "fft": {(8, 8): (0.2, 0.3)}}
    x = layers.x_floors(m, fl)
    assert x["rng.x_floor"] == pytest.approx(3.0)
    assert x["conv.x_floor"] == pytest.approx(1.0)


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    import json
    from pathlib import Path

    doc = json.loads((Path(__file__).resolve().parents[2]
                      / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(layers.PER_LAYER)
