"""Tests for tile plans, execution backends, and streaming strips."""

import numpy as np
import pytest

from repro.core.api import split_result
from repro.core.convolution import ConvolutionGenerator
from repro.core.grid import Grid2D
from repro.core.inhomogeneous import InhomogeneousGenerator
from repro.core.rng import BlockNoise, SweepNoise
from repro.core.spectra import ExponentialSpectrum, GaussianSpectrum
from repro.fields.parameter_map import PlateLattice
from repro.jobs import FaultPlan, FaultSpec, RetryPolicy
from repro.parallel.executor import (
    TileFailedError,
    default_workers,
    generate_tiled,
)
from repro.parallel.streaming import StripStream, assemble_strips, stream_strips
from repro.parallel.tiles import Tile, TilePlan


@pytest.fixture
def gen():
    grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
    return ConvolutionGenerator(
        GaussianSpectrum(h=1.0, clx=16.0, cly=16.0), grid, truncation=(8, 8)
    )


@pytest.fixture
def inhom_gen():
    grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
    lat = PlateLattice.quadrants(
        256.0, 256.0,
        GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
        ExponentialSpectrum(h=1.5, clx=12.0, cly=12.0),
        GaussianSpectrum(h=1.0, clx=20.0, cly=20.0),
        GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
        half_width=16.0,
    )
    return InhomogeneousGenerator(lat, grid, truncation=(8, 8))


class TestTilePlan:
    def test_tiles_partition_output(self):
        plan = TilePlan(total_nx=100, total_ny=70, tile_nx=32, tile_ny=33)
        cover = np.zeros((100, 70), dtype=int)
        for t in plan:
            cover[t.x0 : t.x1, t.y0 : t.y1] += 1
        assert np.all(cover == 1)

    def test_len_and_counts(self):
        plan = TilePlan(total_nx=100, total_ny=70, tile_nx=32, tile_ny=33)
        assert plan.n_tiles == (4, 3)
        assert len(plan) == 12

    def test_origin_offsets(self):
        plan = TilePlan(total_nx=10, total_ny=10, tile_nx=10, tile_ny=10,
                        origin_x=-5, origin_y=7)
        (t,) = plan.tiles()
        assert (t.x0, t.y0) == (-5, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            TilePlan(total_nx=0, total_ny=10, tile_nx=4, tile_ny=4)
        with pytest.raises(ValueError):
            TilePlan(total_nx=10, total_ny=10, tile_nx=0, tile_ny=4)
        with pytest.raises(ValueError):
            Tile(x0=0, y0=0, nx=0, ny=5)

    def test_halo_overhead_decreases_with_tile_size(self):
        small = TilePlan(total_nx=128, total_ny=128, tile_nx=16, tile_ny=16)
        large = TilePlan(total_nx=128, total_ny=128, tile_nx=64, tile_ny=64)
        k = (17, 17)
        assert small.halo_overhead(k) > large.halo_overhead(k)

    def test_halo_samples_accounting(self):
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)
        read, output = plan.halo_samples((9, 9))
        assert output == 64 * 64
        assert read == 4 * (32 + 8) * (32 + 8)
        assert plan.halo_overhead((9, 9)) == pytest.approx(read / output - 1.0)
        # a 1x1 kernel has no halo at all
        assert plan.halo_overhead((1, 1)) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            plan.halo_samples((0, 9))


def _solo_tiles(gen, noise, plan):
    """The plan's surface built outside the tile scheduler: one solo
    ``generate_window`` call per tile."""
    out = np.empty((plan.total_nx, plan.total_ny))
    for t in plan.tiles():
        out[t.x0 - plan.origin_x:t.x1 - plan.origin_x,
            t.y0 - plan.origin_y:t.y1 - plan.origin_y] = split_result(
                gen.generate_window(noise, t.x0, t.y0, t.nx, t.ny))[0]
    return out


class TestBackends:
    def test_serial_thread_process_identical(self, gen):
        bn = BlockNoise(seed=2, block=48)
        plan = TilePlan(total_nx=96, total_ny=80, tile_nx=40, tile_ny=30)
        ref = _solo_tiles(gen, bn, plan)
        for backend, workers in (("serial", None), ("thread", 3),
                                 ("process", 2)):
            s = generate_tiled(gen, bn, plan, backend=backend,
                               workers=workers)
            assert s.heights.tobytes() == ref.tobytes(), backend

    def test_different_plans_agree_to_rounding(self, gen):
        bn = BlockNoise(seed=3, block=32)
        a = generate_tiled(
            gen, bn, TilePlan(total_nx=64, total_ny=64, tile_nx=64, tile_ny=64)
        )
        b = generate_tiled(
            gen, bn, TilePlan(total_nx=64, total_ny=64, tile_nx=17, tile_ny=23)
        )
        assert np.allclose(a.heights, b.heights, atol=1e-10)

    def test_inhomogeneous_tiled_matches_window(self, inhom_gen):
        bn = BlockNoise(seed=5, block=40)
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=24, tile_ny=40)
        tiled = generate_tiled(inhom_gen, bn, plan, backend="serial")
        oneshot = inhom_gen.generate_window(bn, 0, 0, 64, 64)
        assert np.allclose(tiled.heights, oneshot.heights, atol=1e-10)

    def test_unknown_backend_rejected(self, gen):
        plan = TilePlan(total_nx=8, total_ny=8, tile_nx=8, tile_ny=8)
        with pytest.raises(ValueError):
            generate_tiled(gen, BlockNoise(seed=1), plan, backend="mpi")

    def test_negative_origin_plan(self, gen):
        bn = BlockNoise(seed=7)
        plan = TilePlan(total_nx=32, total_ny=32, tile_nx=16, tile_ny=16,
                        origin_x=-16, origin_y=-16)
        s = generate_tiled(gen, bn, plan)
        assert s.shape == (32, 32)
        assert s.origin == (-16 * gen.grid.dx, -16 * gen.grid.dy)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class _Wrapped:
    """A windowed generator that delegates to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.grid = inner.grid

    def noise_window(self, x0, y0, nx, ny):
        return self.inner.noise_window(x0, y0, nx, ny)

    def generate_window(self, noise, x0, y0, nx, ny):
        return self.inner.generate_window(noise, x0, y0, nx, ny)


class _FailsOnceAfterReading(_Wrapped):
    """The first attempt at the tile at ``at`` reads its noise, then
    fails: the retry reads a window the sweep has already served."""

    def __init__(self, inner, at):
        super().__init__(inner)
        self.at = at
        self.failed = False

    def generate_window(self, noise, x0, y0, nx, ny):
        out = self.inner.generate_window(noise, x0, y0, nx, ny)
        if (x0, y0) == self.at and not self.failed:
            self.failed = True
            raise RuntimeError("transient failure after the noise read")
        return out


class _NeedsPlainNoise(_Wrapped):
    def generate_window(self, noise, x0, y0, nx, ny):
        if type(noise) is not BlockNoise:
            raise TypeError(f"worker got {type(noise).__name__}")
        return self.inner.generate_window(noise, x0, y0, nx, ny)


class TestSweepNoiseInExecutor:
    """The serial sweep draws each noise block once; the bytes stay
    those of the plain noise plane on every path."""

    plan = TilePlan(total_nx=96, total_ny=80, tile_nx=28, tile_ny=36,
                    origin_x=-13, origin_y=5)

    def test_serial_sweep_reuses_blocks_bit_identical_to_pools(self, gen):
        bn = BlockNoise(seed=2, block=16)
        s = generate_tiled(gen, bn, self.plan)
        cache = s.provenance["noise_cache"]
        reads = sum(len(range(x0 // 16, (x0 + nx - 1) // 16 + 1))
                    * len(range(y0 // 16, (y0 + ny - 1) // 16 + 1))
                    for x0, y0, nx, ny in (
                        gen.noise_window(t.x0, t.y0, t.nx, t.ny)
                        for t in self.plan.tiles()))
        assert cache["draws"] < reads
        assert cache["hits"] > 0 and cache["fallbacks"] == 0
        assert 0 < cache["peak_bytes"] <= cache["cap_bytes"]
        for backend in ("thread", "process"):
            other = generate_tiled(gen, bn, self.plan, backend=backend,
                                   workers=2)
            assert other.heights.tobytes() == s.heights.tobytes()
            assert "noise_cache" not in other.provenance

    def test_inhomogeneous_sweep_matches_thread_backend(self, inhom_gen):
        bn = BlockNoise(seed=5, block=40)
        s = generate_tiled(inhom_gen, bn, self.plan)
        t = generate_tiled(inhom_gen, bn, self.plan, backend="thread",
                           workers=2)
        assert s.heights.tobytes() == t.heights.tobytes()
        assert s.provenance["noise_cache"]["fallbacks"] == 0

    def test_retry_after_the_read_falls_back_bit_identically(self, gen):
        bn = BlockNoise(seed=3, block=16)
        ref = generate_tiled(gen, bn, self.plan, backend="thread", workers=2)
        tile = self.plan.tiles()[4]
        flaky = _FailsOnceAfterReading(gen, (tile.x0, tile.y0))
        s = generate_tiled(flaky, bn, self.plan,
                           retry=RetryPolicy(backoff_base=0.0))
        assert s.provenance["resilience"]["retries"] == 1
        assert s.provenance["noise_cache"]["fallbacks"] > 0
        assert s.heights.tobytes() == ref.heights.tobytes()

    def test_fault_before_the_read_is_served_by_the_cache(self, gen):
        bn = BlockNoise(seed=3, block=16)
        ref = generate_tiled(gen, bn, self.plan, backend="thread", workers=2)
        s = generate_tiled(gen, bn, self.plan,
                           retry=RetryPolicy(backoff_base=0.0),
                           fault_plan=FaultPlan.of(FaultSpec(tile=4)))
        assert s.provenance["resilience"]["retries"] == 1
        assert s.provenance["noise_cache"]["fallbacks"] == 0
        assert s.heights.tobytes() == ref.heights.tobytes()

    def test_skip_resume_plans_only_pending_tiles(self, gen):
        bn = BlockNoise(seed=6, block=16)
        full = generate_tiled(gen, bn, self.plan)
        skip = [0, 1, 5, 7]
        out = np.zeros_like(full.heights)
        ox, oy = self.plan.origin_x, self.plan.origin_y
        for i in skip:
            t = self.plan.tiles()[i]
            window = (slice(t.x0 - ox, t.x1 - ox), slice(t.y0 - oy, t.y1 - oy))
            out[window] = full.heights[window]
        resumed = generate_tiled(gen, bn, self.plan, out=out, skip=skip)
        assert resumed.heights.tobytes() == full.heights.tobytes()
        cache = resumed.provenance["noise_cache"]
        assert cache["fallbacks"] == 0
        assert cache["draws"] < full.provenance["noise_cache"]["draws"]

    def test_sweep_noise_reaches_pool_workers_as_plain_noise(self, gen):
        bn = BlockNoise(seed=2, block=16)
        ref = generate_tiled(gen, bn, self.plan)
        sweep = SweepNoise(bn, [gen.noise_window(t.x0, t.y0, t.nx, t.ny)
                                for t in self.plan.tiles()])
        p = generate_tiled(_NeedsPlainNoise(gen), sweep, self.plan,
                           backend="process", workers=2)
        assert p.heights.tobytes() == ref.heights.tobytes()


class _AlwaysFailsAt(_Wrapped):
    def __init__(self, inner, at):
        super().__init__(inner)
        self.at = at

    def generate_window(self, noise, x0, y0, nx, ny):
        if (x0, y0) == self.at:
            raise ValueError("this tile never computes")
        return self.inner.generate_window(noise, x0, y0, nx, ny)


class TestOneScheduler:
    """Every single-host run goes through the one fault-tolerant
    scheduler, whatever keywords the caller passes."""

    plan = TilePlan(total_nx=96, total_ny=80, tile_nx=40, tile_ny=30)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_plain_call_retries_a_failing_tile(self, gen, backend):
        bn = BlockNoise(seed=4, block=16)
        tile = self.plan.tiles()[2]
        flaky = _FailsOnceAfterReading(gen, (tile.x0, tile.y0))
        s = generate_tiled(flaky, bn, self.plan, backend=backend, workers=2)
        assert s.provenance["resilience"]["retries"] == 1
        assert s.heights.tobytes() == _solo_tiles(gen, bn, self.plan).tobytes()

    def test_plain_call_chains_the_last_error(self, gen):
        tile = self.plan.tiles()[1]
        broken = _AlwaysFailsAt(gen, (tile.x0, tile.y0))
        with pytest.raises(TileFailedError) as info:
            generate_tiled(broken, BlockNoise(seed=4), self.plan)
        assert info.value.failures == RetryPolicy().max_attempts
        assert isinstance(info.value.__cause__, ValueError)

    def test_every_backend_reports_one_provenance_shape(self, inhom_gen):
        bn = BlockNoise(seed=5, block=40)
        keys = {}
        for backend in ("serial", "thread", "process"):
            prov = generate_tiled(inhom_gen, bn, self.plan, backend=backend,
                                  workers=2).provenance
            assert prov["resilience"] == {"retries": 0, "respawns": 0,
                                          "degraded_to": None,
                                          "tiles_skipped": 0}
            pc = prov["plan_cache"]
            assert pc["hits"] + pc["misses"] > 0
            # noise reuse is a serial-sweep feature (provenance
            # noise_cache); everything else is shared
            keys[backend] = set(prov) - {"noise_cache"}
        assert {"plan_cache", "resilience", "regions"} <= keys["serial"]
        assert keys["serial"] == keys["thread"] == keys["process"]


class TestBackendsFftEngine:
    """Satellite: backend determinism must survive the FFT engine."""

    @pytest.fixture
    def fft_gen(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        return ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=16.0, cly=16.0), grid,
            truncation=(8, 8), engine="fft",
        )

    def test_serial_thread_process_identical_fft(self, fft_gen):
        bn = BlockNoise(seed=2, block=48)
        plan = TilePlan(total_nx=96, total_ny=80, tile_nx=40, tile_ny=30)
        s = generate_tiled(fft_gen, bn, plan, backend="serial")
        t = generate_tiled(fft_gen, bn, plan, backend="thread", workers=3)
        assert np.array_equal(s.heights, t.heights)
        p = generate_tiled(fft_gen, bn, plan, backend="process", workers=2)
        assert np.array_equal(s.heights, p.heights)

    def test_fft_tiles_match_spatial_tiles(self, fft_gen):
        spatial_gen = ConvolutionGenerator(
            GaussianSpectrum(h=1.0, clx=16.0, cly=16.0), fft_gen.grid,
            truncation=(8, 8), engine="spatial",
        )
        bn = BlockNoise(seed=6, block=48)
        plan = TilePlan(total_nx=96, total_ny=80, tile_nx=40, tile_ny=30)
        fft = generate_tiled(fft_gen, bn, plan, backend="serial")
        spatial = generate_tiled(spatial_gen, bn, plan, backend="serial")
        assert np.max(np.abs(fft.heights - spatial.heights)) <= 1e-10

    def test_provenance_reports_engine_and_halo(self, fft_gen):
        bn = BlockNoise(seed=8)
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=32, tile_ny=32)
        s = generate_tiled(fft_gen, bn, plan, backend="serial")
        assert s.provenance["engine"] == "fft"
        assert s.provenance["halo_overhead"] == pytest.approx(
            plan.halo_overhead(fft_gen.footprint)
        )
        # every tile shares one kernel and one block shape: tiles - 1 hits
        # at most one miss (another test may have warmed the shared cache)
        pc = s.provenance["plan_cache"]
        assert pc["hits"] + pc["misses"] == len(plan)
        assert pc["misses"] <= 1

    def test_inhomogeneous_tiled_fft_matches_spatial(self):
        grid = Grid2D(nx=64, ny=64, lx=256.0, ly=256.0)
        lat = PlateLattice.quadrants(
            256.0, 256.0,
            GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
            ExponentialSpectrum(h=1.5, clx=12.0, cly=12.0),
            GaussianSpectrum(h=1.0, clx=20.0, cly=20.0),
            GaussianSpectrum(h=0.5, clx=16.0, cly=16.0),
            half_width=16.0,
        )
        bn = BlockNoise(seed=5, block=40)
        plan = TilePlan(total_nx=64, total_ny=64, tile_nx=24, tile_ny=40)
        outs = {}
        for engine in ("spatial", "fft"):
            g = InhomogeneousGenerator(lat, grid, truncation=(8, 8),
                                       engine=engine)
            outs[engine] = generate_tiled(g, bn, plan, backend="serial")
        assert np.max(
            np.abs(outs["fft"].heights - outs["spatial"].heights)
        ) <= 1e-10

    def test_streaming_fft_engine(self, fft_gen):
        from repro.parallel.streaming import assemble_strips, stream_strips

        bn = BlockNoise(seed=11)
        strips = list(
            stream_strips(fft_gen, bn, total_nx=60, width_ny=24, strip_nx=17)
        )
        assert all(s.provenance["engine"] == "fft" for s in strips)
        asm = assemble_strips(iter(strips))
        oneshot = fft_gen.generate_window(bn, 0, 0, 60, 24)
        assert np.allclose(asm.heights, oneshot, atol=1e-10)


class TestStreaming:
    def test_strip_stream_iterates(self, gen):
        bn = BlockNoise(seed=9)
        stream = StripStream(gen, bn, width_ny=32, strip_nx=16, n_strips=3)
        strips = list(stream)
        assert len(strips) == 3
        assert stream.emitted == 3
        assert strips[0].shape == (16, 32)
        # consecutive origins advance by strip_nx * dx
        assert strips[1].origin[0] == pytest.approx(16 * gen.grid.dx)

    def test_endless_stream_interface(self, gen):
        bn = BlockNoise(seed=9)
        stream = StripStream(gen, bn, width_ny=16, strip_nx=8)
        out = [next(stream) for _ in range(4)]
        assert len(out) == 4

    def test_stream_strips_clips_last(self, gen):
        bn = BlockNoise(seed=10)
        strips = list(stream_strips(gen, bn, total_nx=50, width_ny=16, strip_nx=20))
        assert [s.shape[0] for s in strips] == [20, 20, 10]

    def test_assembled_equals_oneshot(self, gen):
        bn = BlockNoise(seed=11)
        asm = assemble_strips(
            stream_strips(gen, bn, total_nx=60, width_ny=24, strip_nx=17)
        )
        oneshot = gen.generate_window(bn, 0, 0, 60, 24)
        assert np.allclose(asm.heights, oneshot, atol=1e-10)

    def test_assemble_rejects_gap(self, gen):
        bn = BlockNoise(seed=12)
        s1 = next(StripStream(gen, bn, width_ny=8, strip_nx=8, n_strips=1))
        s3 = next(StripStream(gen, bn, width_ny=8, strip_nx=8, x0=16, n_strips=1))
        with pytest.raises(ValueError, match="contiguous"):
            assemble_strips(iter([s1, s3]))

    def test_assemble_rejects_mismatched_width(self, gen):
        bn = BlockNoise(seed=12)
        s1 = next(StripStream(gen, bn, width_ny=8, strip_nx=8, n_strips=1))
        s2 = next(StripStream(gen, bn, width_ny=16, strip_nx=8, x0=8, n_strips=1))
        with pytest.raises(ValueError, match="y window"):
            assemble_strips(iter([s1, s2]))

    def test_assemble_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble_strips(iter([]))

    def test_validation(self, gen):
        with pytest.raises(ValueError):
            StripStream(gen, BlockNoise(seed=1), width_ny=0, strip_nx=4)
        with pytest.raises(ValueError):
            list(stream_strips(gen, BlockNoise(seed=1), total_nx=0,
                               width_ny=4, strip_nx=4))

    def test_inhomogeneous_streaming(self, inhom_gen):
        bn = BlockNoise(seed=13)
        asm = assemble_strips(
            stream_strips(inhom_gen, bn, total_nx=64, width_ny=64, strip_nx=20)
        )
        oneshot = inhom_gen.generate_window(bn, 0, 0, 64, 64)
        assert np.allclose(asm.heights, oneshot.heights, atol=1e-10)
