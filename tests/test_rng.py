"""Unit tests for Gaussian RNG machinery (eqn 18) and block noise."""

import hashlib
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rng
from repro.core.rng import (
    SWEEP_CACHE_CAP_BYTES,
    BlockNoise,
    Lcg,
    SweepNoise,
    as_generator,
    box_muller,
    normal_pair_from_uniform,
    standard_normal_field,
)
from repro.parallel.tiles import TilePlan


class TestBoxMuller:
    def test_known_values(self):
        # u1 = 0 (cos branch = 1): X = sqrt(-2 log u2)
        assert box_muller(0.0, np.exp(-0.5)) == pytest.approx(1.0)
        assert box_muller(0.0, 1.0) == pytest.approx(0.0)

    def test_pair_orthogonality(self):
        # cos and sin branches at u1 = pi/2 swap roles
        x, y = normal_pair_from_uniform(np.pi / 2.0, np.exp(-0.5))
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == pytest.approx(1.0)

    def test_rejects_bad_u2(self):
        with pytest.raises(ValueError):
            box_muller(0.0, 0.0)
        with pytest.raises(ValueError):
            box_muller(0.0, 1.5)

    def test_moments_from_uniform_grid(self):
        # deterministic check: push a dense uniform lattice through the
        # transform and verify near-normal moments
        rng = np.random.default_rng(7)
        u1 = rng.uniform(0.0, 2 * np.pi, 200_000)
        u2 = rng.uniform(1e-12, 1.0, 200_000)
        x = box_muller(u1, u2)
        assert abs(x.mean()) < 0.02
        assert x.std() == pytest.approx(1.0, abs=0.02)
        assert abs(np.mean(x**3)) < 0.05


class TestLcg:
    def test_deterministic_sequence(self):
        a = Lcg(state=1)
        b = Lcg(state=1)
        assert a.rand() == b.rand()
        assert a.rand(5.0) == b.rand(5.0)

    def test_range(self):
        g = Lcg(state=99)
        vals = g.rand(2.0 * np.pi, size=1000)
        assert np.all(vals >= 0.0) and np.all(vals <= 2.0 * np.pi)

    def test_normal_moments(self):
        g = Lcg(state=12345)
        x = g.normal(size=20000)
        assert abs(np.mean(x)) < 0.05
        assert np.std(x) == pytest.approx(1.0, abs=0.05)

    def test_normal_scalar(self):
        g = Lcg(state=3)
        assert isinstance(g.normal(), float)

    def test_low_bit_weakness_documented(self):
        # the classic LCG failure: low-order bits alternate with period 2
        g = Lcg(state=1)
        bits = []
        for _ in range(64):
            g.state = (g._A * g.state + g._C) % g._M
            bits.append(g.state & 1)
        assert bits == [bits[0], bits[1]] * 32  # period-2 low bit


class TestStandardNormalField:
    def test_shape_and_seeding(self):
        a = standard_normal_field((8, 8), seed=1)
        b = standard_normal_field((8, 8), seed=1)
        c = standard_normal_field((8, 8), seed=2)
        assert a.shape == (8, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_accepts_generator(self):
        gen = np.random.default_rng(5)
        a = standard_normal_field((4,), seed=gen)
        assert a.shape == (4,)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen


class TestBlockNoise:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockNoise(seed=-1)
        with pytest.raises(ValueError):
            BlockNoise(seed=1, block=0)

    def test_determinism(self):
        a = BlockNoise(seed=5, block=16).window(0, 0, 32, 32)
        b = BlockNoise(seed=5, block=16).window(0, 0, 32, 32)
        assert np.array_equal(a, b)

    def test_seed_sensitivity(self):
        a = BlockNoise(seed=5).window(0, 0, 16, 16)
        b = BlockNoise(seed=6).window(0, 0, 16, 16)
        assert not np.array_equal(a, b)

    def test_overlapping_windows_agree(self):
        bn = BlockNoise(seed=11, block=16)
        big = bn.window(-8, -8, 48, 48)
        small = bn.window(4, 0, 10, 20)
        assert np.array_equal(big[12:22, 8:28], small)

    def test_window_crossing_block_boundaries(self):
        bn = BlockNoise(seed=3, block=8)
        w = bn.window(5, 5, 10, 10)  # spans 2x2 blocks
        # consistency with single-sample windows
        for i in (0, 4, 9):
            for j in (0, 4, 9):
                assert bn.window(5 + i, 5 + j, 1, 1)[0, 0] == w[i, j]

    def test_negative_coordinates(self):
        bn = BlockNoise(seed=1, block=8)
        w = bn.window(-20, -20, 8, 8)
        assert w.shape == (8, 8)
        assert np.all(np.isfinite(w))

    def test_negative_positive_blocks_distinct(self):
        bn = BlockNoise(seed=1, block=8)
        a = bn.window(-8, 0, 8, 8)  # block (-1, 0)
        b = bn.window(8, 0, 8, 8)   # block (1, 0)
        assert not np.array_equal(a, b)

    def test_empty_window(self):
        bn = BlockNoise(seed=1)
        assert bn.window(0, 0, 0, 5).shape == (0, 5)

    def test_rejects_negative_extent(self):
        bn = BlockNoise(seed=1)
        with pytest.raises(ValueError):
            bn.window(0, 0, -1, 5)

    def test_marginals_are_standard_normal(self):
        bn = BlockNoise(seed=77, block=64)
        w = bn.window(0, 0, 256, 256)
        assert abs(w.mean()) < 0.02
        assert w.std() == pytest.approx(1.0, abs=0.02)

    def test_block_size_changes_values_but_not_statistics(self):
        # values are keyed by (seed, block, coords): different block size
        # gives a different (but equally valid) noise plane
        a = BlockNoise(seed=5, block=8).window(0, 0, 16, 16)
        b = BlockNoise(seed=5, block=16).window(0, 0, 16, 16)
        assert not np.array_equal(a, b)

    def test_values_are_pinned(self):
        # the bytes of the plane are part of the reproducibility contract
        w = BlockNoise(seed=5, block=16).window(-3, -7, 40, 33)
        assert hashlib.sha256(w.tobytes()).hexdigest() == (
            "ab77dfa829cb71ad267a3cba988386e3266333a116ca023b838fbe100fec6e97")


@st.composite
def _sweeps(draw):
    """A tile plan's noise windows, with clipped edge tiles, negative
    origins and asymmetric margins, over blocks of 1 to 300 samples."""
    block = draw(st.integers(1, 300))
    small = block < 6  # keeps the draw count of tiny blocks bounded
    total = [draw(st.integers(1, 12 if small else 48)) for _ in range(2)]
    tile = [draw(st.integers(max(1, n // 4), n)) for n in total]
    origin = [draw(st.integers(-60, 60)) for _ in range(2)]
    lx, rx, ly, ry = (draw(st.integers(0, 4 if small else 40))
                      for _ in range(4))
    plan = TilePlan(total_nx=total[0], total_ny=total[1], tile_nx=tile[0],
                    tile_ny=tile[1], origin_x=origin[0], origin_y=origin[1])
    windows = [(t.x0 - lx, t.y0 - ly, t.nx + lx + rx, t.ny + ly + ry)
               for t in plan.tiles()]
    return block, windows


def _draw_keys(monkeypatch):
    """Record the ``(bx, by)`` of every Philox draw of the plane."""
    keys = []
    real = BlockNoise._block_values

    def counted(noise, bx, by, *args, **kwargs):
        keys.append((bx, by))
        return real(noise, bx, by, *args, **kwargs)

    monkeypatch.setattr(BlockNoise, "_block_values", counted)
    return keys


class TestSweepNoise:
    @settings(max_examples=60, deadline=None)
    @given(sweep=_sweeps(), seed=st.integers(0, 2**32),
           cap=st.sampled_from([0, 1, 4096, 1 << 16, SWEEP_CACHE_CAP_BYTES]),
           again=st.integers(0, 100))
    def test_planned_windows_equal_plain_windows(self, sweep, seed, cap,
                                                 again):
        block, windows = sweep
        plain = BlockNoise(seed=seed, block=block)
        with mock.patch.object(rng, "SWEEP_CACHE_CAP_BYTES", cap):
            noise = SweepNoise(plain, windows)
        retried = again % len(windows)
        for i, w in enumerate(windows):
            assert noise.window(*w).tobytes() == plain.window(*w).tobytes()
            assert noise.held_bytes <= cap
            kept = [h.values for h in noise._held.values()]
            # the count is the memory held: no view pins a larger array
            assert sum(v.nbytes for v in kept) == noise.held_bytes
            assert all(v.base is None for v in kept)
            if i == retried:  # a retried tile reads its window twice
                assert noise.window(*w).tobytes() == plain.window(
                    *w).tobytes()
        assert noise.held_bytes == 0
        assert noise.stats["peak_bytes"] <= cap

    @pytest.mark.parametrize("rows", [0, 1, 37, 63, 64])
    def test_prefix_continuation_equals_whole_draw(self, rows):
        noise = BlockNoise(seed=9, block=64)
        gen = noise._block_generator(-2, 5)
        head = noise._block_values(-2, 5, rows, gen)
        tail = noise._block_values(-2, 5, 64 - rows, gen)
        whole = noise._block_values(-2, 5)
        assert np.concatenate((head, tail)).tobytes() == whole.tobytes()

    def test_reference_plan_draws_each_block_once_plus_continuations(
            self, monkeypatch):
        # 4096^2 output, 512^2 tiles, a 129^2 kernel (64-sample halo):
        # 640^2 windows span 4x4 of the 256^2 blocks, 1024 block reads
        # over 324 distinct blocks.  The sweep draws each block once and
        # continues the 7 x 18 blocks that straddle a tile-row boundary.
        plan = TilePlan(total_nx=4096, total_ny=4096, tile_nx=512,
                        tile_ny=512)
        windows = [(t.x0 - 64, t.y0 - 64, t.nx + 128, t.ny + 128)
                   for t in plan.tiles()]
        keys = _draw_keys(monkeypatch)
        noise = SweepNoise(BlockNoise(seed=3), windows)
        for w in windows:
            noise.window(*w)
        assert len(set(keys)) == 324
        assert len(keys) == noise.stats["draws"] == 450
        assert noise.stats["fallbacks"] == 0
        assert noise.held_bytes == 0
        assert 0 < noise.stats["peak_bytes"] <= SWEEP_CACHE_CAP_BYTES

    def test_continuation_keeps_only_needed_columns(self):
        # after the first window, later reads want rows 4..16 of columns
        # 8..16 only: the continuation must keep those bytes, not a view
        # pinning the full-width draw
        plain = BlockNoise(seed=6, block=16)
        windows = [(0, 0, 4, 16), (4, 8, 12, 8), (4, 8, 12, 8)]
        noise = SweepNoise(plain, windows)
        for w in windows[:2]:
            assert noise.window(*w).tobytes() == plain.window(*w).tobytes()
        (held,) = noise._held.values()
        assert held.values.base is None
        assert noise.held_bytes == held.values.nbytes == 12 * 8 * 8
        assert noise.stats["draws"] == 2  # one prefix, one continuation

    def test_plain_plane_draws_every_block_it_reads(self, monkeypatch):
        keys = _draw_keys(monkeypatch)
        BlockNoise(seed=3, block=16).window(-8, -8, 48, 48)
        assert len(keys) == 16

    def test_unplanned_read_falls_back_to_a_fresh_draw(self):
        plain = BlockNoise(seed=4, block=16)
        noise = SweepNoise(plain, [(0, 0, 20, 20)])
        assert noise.window(3, 3, 5, 5).tobytes() == plain.window(
            3, 3, 5, 5).tobytes()
        assert noise.stats["fallbacks"] == 1
        assert noise.held_bytes == 0

    def test_pickles_as_plain_noise(self):
        noise = SweepNoise(BlockNoise(seed=8, block=32), [(0, 0, 64, 64)])
        again = pickle.loads(pickle.dumps(noise))
        assert type(again) is BlockNoise
        assert (again.seed, again.block) == (8, 32)
