import math
import os
import struct
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvsde import paths
from mvsde.paths import (
    BrownianLattice,
    GridError,
    LatticeError,
    coarsen,
    dump_lattice,
    load_lattice,
    make_grid,
    particle_increments,
    sample_lattice,
)


class TestDyadicGrid:
    def test_level_zero_points(self):
        grid = make_grid(1.0, 0)
        assert np.array_equal(grid.points(), [0.0, 1.0])

    def test_floor_examples(self):
        assert make_grid(1.0, 3).floor_point(0.3) == 0.25  # floor(8*0.3)/8
        assert make_grid(2.0, 1).floor_point(1.7) == 1.0  # floor(2*1.7/2)*2/2

    def test_endpoints_exact(self):
        for horizon in (1.0, 2.0, 0.7, 3.25):
            for level in (0, 1, 5, 11):
                pts = make_grid(horizon, level).points()
                assert pts[0] == 0.0
                assert pts[-1] == horizon
                assert (np.diff(pts) > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(
        horizon=st.floats(0.01, 100.0),
        level=st.integers(0, 20),
        frac=st.floats(0.0, 1.0),
    )
    def test_floor_property(self, horizon, level, frac):
        grid = make_grid(horizon, level)
        t = frac * horizon
        floored = grid.floor_point(t)
        assert floored <= t or math.isclose(floored, t, rel_tol=1e-15)
        assert t - floored <= grid.step * (1 + 1e-12)
        idx = grid.cell_index(t)
        assert 0 <= idx < grid.num_cells

    def test_level_bounds(self):
        with pytest.raises(GridError):
            make_grid(1.0, 63)
        with pytest.raises(GridError):
            make_grid(1.0, -1)
        with pytest.raises(GridError):
            make_grid(0.0, 3)

    def test_out_of_range_time(self):
        grid = make_grid(1.0, 2)
        with pytest.raises(GridError):
            grid.floor_point(1.5)
        with pytest.raises(GridError):
            grid.cell_index(-0.1)


class TestLatticeSampling:
    def test_deterministic(self):
        a = sample_lattice(42, 5, 2, 6, 1.0)
        b = sample_lattice(42, 5, 2, 6, 1.0)
        assert a.increments.tobytes() == b.increments.tobytes()

    def test_particle_rows_regenerable(self):
        lat = sample_lattice(7, 6, 2, 5, 2.0)
        for p in (0, 3, 5):
            row = particle_increments(7, p, 2, 5, 2.0)
            assert np.array_equal(row, lat.increments[p])

    def test_workers_do_not_change_bytes(self):
        a = sample_lattice(11, 37, 1, 8, 1.0, workers=1)
        b = sample_lattice(11, 37, 1, 8, 1.0, workers=4)
        c = sample_lattice(11, 37, 1, 8, 1.0, workers=8)
        assert a.increments.tobytes() == b.increments.tobytes() == c.increments.tobytes()

    def test_collision_smoke(self):
        base = sample_lattice(1, 3, 1, 4, 1.0)
        assert not np.array_equal(sample_lattice(2, 3, 1, 4, 1.0).increments, base.increments)
        assert not np.array_equal(
            sample_lattice(1, 3, 1, 4, 2.0).increments, base.increments
        )  # horizon rescales
        assert sample_lattice(1, 3, 1, 5, 1.0).increments.shape != base.increments.shape
        # extending the particle count preserves existing rows
        wider = sample_lattice(1, 4, 1, 4, 1.0)
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
        wide = sample_lattice(11, 37, 1, 6, 1.0, workers=10**6)
        assert sizes == [3]
        assert wide.increments.tobytes() == sample_lattice(11, 37, 1, 6, 1.0, workers=1).increments.tobytes()

    def test_memory_cap_advises_streaming(self):
        with pytest.raises(LatticeError, match="particle_increments"):
            sample_lattice(0, 10, 1, 20, 1.0, memory_cap=1024)

    def test_level_guard(self):
        with pytest.raises(LatticeError, match="particle_increments"):
            sample_lattice(0, 1, 1, 31, 1.0)

    def test_marginal_variance(self):
        # pooled sample variance of >= 1e6 increments within 3 standard errors
        # of horizon / 2^level (se of a normal sample variance: var*sqrt(2/M))
        lat = sample_lattice(3, 16, 1, 16, 1.0)
        pooled = lat.increments.ravel()
        m = pooled.size
        assert m >= 1_000_000
        var = pooled.var()
        target = 1.0 / 2.0**16
        assert abs(var - target) <= 3.0 * target * math.sqrt(2.0 / m)

    def test_kolmogorov_smirnov(self):
        lat = sample_lattice(4, 16, 1, 16, 1.0)
        pooled = lat.increments.ravel() / math.sqrt(1.0 / 2.0**16)
        result = stats.kstest(pooled, "norm")
        assert result.pvalue > 0.001

    def test_cross_particle_correlation(self):
        lat = sample_lattice(5, 8, 1, 14, 1.0)
        steps = lat.increments.shape[1]
        bound = 4.0 / math.sqrt(steps)
        for i in range(0, 8, 2):
            a = lat.increments[i, :, 0]
            b = lat.increments[i + 1, :, 0]
            r = float(np.corrcoef(a, b)[0, 1])
            assert abs(r) < bound


class TestCoarsen:
    def test_identity_at_finest(self):
        lat = sample_lattice(1, 2, 1, 3, 1.0)
        out = coarsen(lat, 3)
        assert np.array_equal(out, lat.increments)
        assert out is not lat.increments

    def test_pairwise_example(self):
        vals = np.array([[[1.5], [-0.25], [2.0], [4.0]]])
        lat = BrownianLattice(seed=0, n_particles=1, dim=1, level=2, horizon=1.0, increments=vals)
        lvl1 = coarsen(lat, 1)
        assert np.array_equal(lvl1[0, :, 0], [1.5 + -0.25, 2.0 + 4.0])
        lvl0 = coarsen(lat, 0)
        assert lvl0[0, 0, 0] == (1.5 + -0.25) + (2.0 + 4.0)

    def test_full_sum_matches_total(self):
        lat = sample_lattice(9, 3, 2, 10, 1.0)
        total = coarsen(lat, 0)[:, 0, :]
        assert np.allclose(total, lat.increments.sum(axis=1), rtol=0, atol=1e-12)

    def test_telescoping_exact(self):
        # re-coarsening a coarse lattice reproduces the direct route bit for bit
        lat = sample_lattice(10, 4, 2, 9, 1.5)
        for mid in (0, 3, 6, 9):
            coarse = coarsen(lat, mid)
            relift = BrownianLattice(
                seed=lat.seed, n_particles=4, dim=2, level=mid, horizon=1.5, increments=coarse
            )
            for target in range(mid + 1):
                assert np.array_equal(coarsen(relift, target), coarsen(lat, target))

    def test_cell_equals_child_sum(self):
        lat = sample_lattice(11, 2, 1, 6, 1.0)
        out = coarsen(lat, 4)
        children = lat.increments.reshape(2, 16, 4, 1)
        # tree order: (a+b) + (c+d)
        tree = (children[:, :, 0] + children[:, :, 1]) + (children[:, :, 2] + children[:, :, 3])
        assert np.array_equal(out, tree)

    def test_target_above_finest(self):
        lat = sample_lattice(1, 1, 1, 3, 1.0)
        with pytest.raises(LatticeError):
            coarsen(lat, 4)


class TestDumpRestore:
    def test_roundtrip_exact(self, tmp_path):
        lat = sample_lattice(123456789, 5, 3, 7, 2.5)
        path = tmp_path / "lattice.bin"
        dump_lattice(lat, path)
        back = load_lattice(path)
        assert back.seed == lat.seed
        assert back.n_particles == lat.n_particles
        assert back.dim == lat.dim
        assert back.level == lat.level
        assert back.horizon == lat.horizon
        assert back.increments.tobytes() == lat.increments.tobytes()

    def test_header_layout(self, tmp_path):
        lat = sample_lattice(1, 1, 1, 0, 1.0)
        path = tmp_path / "lattice.bin"
        dump_lattice(lat, path)
        blob = path.read_bytes()
        assert blob[:5] == b"MVBL1"
        assert len(blob) == 5 + 5 * 8 + 1 * 1 * 1 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "not-a-lattice.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(LatticeError, match="magic"):
            load_lattice(path)

    def test_truncated(self, tmp_path):
        lat = sample_lattice(1, 2, 1, 3, 1.0)
        path = tmp_path / "lattice.bin"
        dump_lattice(lat, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(LatticeError, match="truncated lattice dump"):
            load_lattice(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "lattice.bin"
        dump_lattice(sample_lattice(1, 2, 1, 3, 1.0), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(LatticeError, match="trailing bytes"):
            load_lattice(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "lattice.bin"
        dump_lattice(sample_lattice(1, 2, 1, 3, 1.0), path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(LatticeError, match="header"):
            load_lattice(path)

    def test_header_level_bounded_before_allocation(self, tmp_path):
        # level 60 would ask for 2^60 steps; the header alone must be refused
        path = tmp_path / "lattice.bin"
        path.write_bytes(b"MVBL1" + struct.pack("<QQQQd", 0, 1, 1, 60, 1.0))
        with pytest.raises(LatticeError, match="level 60"):
            load_lattice(path)
