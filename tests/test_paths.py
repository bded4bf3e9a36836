import math
import os
import sys
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvsde import paths
from mvsde.paths import (
    GridError,
    LatticeError,
    NoiseStreams,
    coarsen,
    make_grid,
    sample_lattice,
)


class TestDyadicGrid:
    def test_level_zero_points(self):
        grid = make_grid(1.0, 0)
        assert np.array_equal(grid.points(), [0.0, 1.0])

    def test_endpoints_exact(self):
        for horizon in (1.0, 2.0, 0.7, 3.25):
            for level in (0, 1, 5, 11):
                pts = make_grid(horizon, level).points()
                assert pts[0] == 0.0
                assert pts[-1] == horizon
                assert (np.diff(pts) > 0).all()

    def test_level_bounds(self):
        with pytest.raises(GridError):
            make_grid(1.0, 63)
        with pytest.raises(GridError):
            make_grid(1.0, -1)
        with pytest.raises(GridError):
            make_grid(0.0, 3)

    def test_out_of_range_time(self):
        grid = make_grid(1.0, 2)
        assert grid.point(4) == 1.0
        with pytest.raises(GridError):
            grid.point(5)
        with pytest.raises(GridError):
            grid.point(-1)


class TestLatticeSampling:
    def test_deterministic(self):
        a = sample_lattice(NoiseStreams(42, 5), 2, 6, 1.0)
        b = sample_lattice(NoiseStreams(42, 5), 2, 6, 1.0)
        assert a.increments.tobytes() == b.increments.tobytes()

    def test_workers_do_not_change_bytes(self):
        a = sample_lattice(NoiseStreams(11, 37), 1, 8, 1.0, workers=1)
        b = sample_lattice(NoiseStreams(11, 37), 1, 8, 1.0, workers=4)
        c = sample_lattice(NoiseStreams(11, 37), 1, 8, 1.0, workers=8)
        assert a.increments.tobytes() == b.increments.tobytes() == c.increments.tobytes()

    def test_collision_smoke(self):
        base = sample_lattice(NoiseStreams(1, 3), 1, 4, 1.0)
        assert not np.array_equal(
            sample_lattice(NoiseStreams(2, 3), 1, 4, 1.0).increments, base.increments
        )
        assert not np.array_equal(
            sample_lattice(NoiseStreams(1, 3), 1, 4, 2.0).increments, base.increments
        )  # horizon rescales
        assert sample_lattice(NoiseStreams(1, 3), 1, 5, 1.0).increments.shape != base.increments.shape
        # extending the particle count preserves existing rows
        wider = sample_lattice(NoiseStreams(1, 4), 1, 4, 1.0)
        assert np.array_equal(wider.increments[:3], base.increments)

    def test_thread_pool_capped_at_cpu_count(self, monkeypatch):
        # an inline stand-in for the pool records its size and runs every
        # chunk on the calling thread, so no thread is started
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                done = Future()
                done.set_result(fn(*args))
                return done

        monkeypatch.setattr(paths, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        wide = sample_lattice(NoiseStreams(11, 37), 1, 6, 1.0, workers=10**6)
        assert sizes == [3]
        single = sample_lattice(NoiseStreams(11, 37), 1, 6, 1.0, workers=1)
        assert wide.increments.tobytes() == single.increments.tobytes()

    def test_new_streams_start_at_the_beginning(self):
        streams = NoiseStreams(7, 3)
        assert streams.counter.shape == (3, 4) and streams.buffer.shape == (3, 4)
        assert streams.buffer_pos.shape == (3,)
        # horizon 8 over 8 steps: unit variance, so rows are the raw draws
        lattice = sample_lattice(streams, 2, 3, 8.0)
        for p in range(3):
            fresh = np.random.Generator(np.random.Philox(key=np.array([7, p], dtype=np.uint64)))
            assert lattice.increments[p].tobytes() == fresh.standard_normal((8, 2)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        dim=st.integers(1, 3),
        level=st.integers(0, 8),
        data=st.data(),
        workers=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**64 - 1),
        horizon=st.floats(0.01, 100.0),
    )
    def test_blocks_concatenate_to_one_draw(self, n, dim, level, data, workers, seed, horizon):
        # 2^k consecutive blocks of level L - k over horizon T / 2^k are the
        # bytes of one level-L draw over T
        k = data.draw(st.integers(0, level), label="k")
        whole = sample_lattice(NoiseStreams(seed, n), dim, level, horizon)
        streams = NoiseStreams(seed, n)
        blocks = [
            sample_lattice(streams, dim, level - k, horizon / 2**k, workers=workers).increments
            for _ in range(2**k)
        ]
        assert np.concatenate(blocks, axis=1).tobytes() == whole.increments.tobytes()

    def test_blocks_under_fast_thread_switching(self, monkeypatch):
        # more threads than cores, switching every microsecond: every row and
        # every stream position must still land exactly once
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        whole = sample_lattice(NoiseStreams(21, 37), 2, 7, 1.0)
        streams = NoiseStreams(21, 37)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocks = [sample_lattice(streams, 2, 5, 0.25, workers=8).increments for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)
        assert np.concatenate(blocks, axis=1).tobytes() == whole.increments.tobytes()
        serial = NoiseStreams(21, 37)
        sample_lattice(serial, 2, 7, 1.0)
        for name in ("counter", "buffer", "buffer_pos"):
            assert np.array_equal(getattr(streams, name), getattr(serial, name))

    def test_memory_guard(self):
        # 4096 x 2^20 increments would take 32 GiB; the guard raises before
        # anything is allocated
        with pytest.raises(LatticeError, match="memory limit"):
            sample_lattice(NoiseStreams(0, 4096), 1, 20, 1.0)

    def test_level_guard(self):
        with pytest.raises(LatticeError, match="level limit"):
            sample_lattice(NoiseStreams(0, 1), 1, 31, 1.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_guard(self, horizon):
        with pytest.raises(LatticeError, match="horizon must be positive and finite"):
            sample_lattice(NoiseStreams(0, 2), 1, 3, horizon)

    def test_increments_read_only(self):
        lat = sample_lattice(NoiseStreams(0, 2), 1, 3, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            lat.increments[0, 0, 0] = 1.0

    def test_marginal_variance(self):
        # pooled sample variance of >= 1e6 increments within 3 standard errors
        # of horizon / 2^level (se of a normal sample variance: var*sqrt(2/M))
        lat = sample_lattice(NoiseStreams(3, 16), 1, 16, 1.0)
        pooled = lat.increments.ravel()
        m = pooled.size
        assert m >= 1_000_000
        var = pooled.var()
        target = 1.0 / 2.0**16
        assert abs(var - target) <= 3.0 * target * math.sqrt(2.0 / m)

    def test_kolmogorov_smirnov(self):
        lat = sample_lattice(NoiseStreams(4, 16), 1, 16, 1.0)
        pooled = lat.increments.ravel() / math.sqrt(1.0 / 2.0**16)
        result = stats.kstest(pooled, "norm")
        assert result.pvalue > 0.001

    def test_cross_particle_correlation(self):
        lat = sample_lattice(NoiseStreams(5, 8), 1, 14, 1.0)
        steps = lat.increments.shape[1]
        bound = 4.0 / math.sqrt(steps)
        for i in range(0, 8, 2):
            a = lat.increments[i, :, 0]
            b = lat.increments[i + 1, :, 0]
            r = float(np.corrcoef(a, b)[0, 1])
            assert abs(r) < bound


class TestCoarsen:
    def test_identity_at_finest(self):
        lat = sample_lattice(NoiseStreams(1, 2), 1, 3, 1.0)
        assert coarsen(lat.increments, 3) is lat.increments

    def test_pairwise_example(self):
        vals = np.array([[[1.5], [-0.25], [2.0], [4.0]]])
        lvl1 = coarsen(vals, 1)
        assert np.array_equal(lvl1[0, :, 0], [1.5 + -0.25, 2.0 + 4.0])
        lvl0 = coarsen(vals, 0)
        assert lvl0[0, 0, 0] == (1.5 + -0.25) + (2.0 + 4.0)

    def test_full_sum_matches_total(self):
        lat = sample_lattice(NoiseStreams(9, 3), 2, 10, 1.0)
        total = coarsen(lat.increments, 0)[:, 0, :]
        assert np.allclose(total, lat.increments.sum(axis=1), rtol=0, atol=1e-12)

    def test_telescoping_exact(self):
        # re-coarsening a coarse lattice reproduces the direct route bit for bit
        finest = sample_lattice(NoiseStreams(10, 4), 2, 9, 1.5).increments
        for mid in (0, 3, 6, 9):
            coarse = coarsen(finest, mid)
            for target in range(mid + 1):
                assert np.array_equal(coarsen(coarse, target), coarsen(finest, target))

    def test_cell_equals_child_sum(self):
        lat = sample_lattice(NoiseStreams(11, 2), 1, 6, 1.0)
        out = coarsen(lat.increments, 4)
        children = lat.increments.reshape(2, 16, 4, 1)
        # tree order: (a+b) + (c+d)
        tree = (children[:, :, 0] + children[:, :, 1]) + (children[:, :, 2] + children[:, :, 3])
        assert np.array_equal(out, tree)

    def test_target_above_finest(self):
        lat = sample_lattice(NoiseStreams(1, 1), 1, 3, 1.0)
        with pytest.raises(LatticeError):
            coarsen(lat.increments, 4)
