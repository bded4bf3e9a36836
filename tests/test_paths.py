import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvsde import solver
from mvsde.models import mf_ou
from mvsde.paths import (
    COARSEN_CHUNK,
    LatticeError,
    NoiseStreams,
    coarsen,
    sample_lattice,
)
from mvsde.solver import PointMass, SolverError, em_multilevel, run_single, sample_initial

from conftest import halving_loop, refuse_any_draw, stacked


class TestLatticeSampling:
    def test_deterministic(self):
        a = sample_lattice(NoiseStreams(42, 5), 2, 6, 1.0)
        b = sample_lattice(NoiseStreams(42, 5), 2, 6, 1.0)
        assert a.increments.tobytes() == b.increments.tobytes()

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
        seed=st.integers(0, 2**64 - 1),
        horizon=st.floats(0.01, 100.0),
    )
    def test_blocks_concatenate_to_one_draw(self, n, dim, level, data, seed, horizon):
        # 2^k consecutive blocks of level L - k over horizon T / 2^k are the
        # bytes of one level-L draw over T, and leave every stream where that
        # draw leaves it
        k = data.draw(st.integers(0, level), label="k")
        serial = NoiseStreams(seed, n)
        whole = sample_lattice(serial, dim, level, horizon)
        streams = NoiseStreams(seed, n)
        blocks = [
            sample_lattice(streams, dim, level - k, horizon / 2**k).increments
            for _ in range(2**k)
        ]
        assert np.concatenate(blocks, axis=1).tobytes() == whole.increments.tobytes()
        for name in ("counter", "buffer", "buffer_pos"):
            assert np.array_equal(getattr(streams, name), getattr(serial, name))

    # the lattice checks nothing itself: the block loop of the drivers refuses
    # every request below before any stream is built or any lattice drawn

    def test_memory_guard(self, monkeypatch):
        # recorded at level 0, 4096 x 2^20 increments are one block of 32 GiB
        refuse_any_draw(monkeypatch)
        with pytest.raises(SolverError, match="one block of increments would need 34359738368 bytes"):
            run_single(mf_ou(), PointMass(0.0), seed=0, level=20, n_particles=4096, record_level=0)

    def test_stream_positions_bounded_by_memory_cap(self, monkeypatch):
        # 72 bytes of position a particle: 277 particles fit in 20,000 bytes
        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 20_000)
        _, states = stacked(run_single(mf_ou(), PointMass(0.0), seed=0, level=0, n_particles=277))
        assert states.shape == (2, 277, 1)
        refuse_any_draw(monkeypatch)
        with pytest.raises(SolverError, match="stream positions would need 20016 bytes, "
                                              "above the memory limit of 20000 bytes"):
            run_single(mf_ou(), PointMass(0.0), seed=0, level=0, n_particles=278)

    def test_level_guard(self, monkeypatch):
        refuse_any_draw(monkeypatch)
        with pytest.raises(SolverError, match="level limit"):
            run_single(mf_ou(), PointMass(0.0), seed=0, level=31, n_particles=1)
        with pytest.raises(SolverError, match="level limit"):
            em_multilevel(mf_ou(), PointMass(0.0), seed=0, levels=[3], finest=31, n_particles=1, horizon=1.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_guard(self, monkeypatch, horizon):
        refuse_any_draw(monkeypatch)
        with pytest.raises(SolverError, match="horizon must be positive and finite"):
            run_single(mf_ou(), PointMass(0.0), seed=0, level=12, n_particles=2, horizon=horizon)

    def test_particle_and_dimension_guards(self, monkeypatch):
        refuse_any_draw(monkeypatch)
        with pytest.raises(SolverError, match=r"^need at least one particle and one dimension$"):
            run_single(mf_ou(), PointMass(0.0), seed=0, level=3, n_particles=0)
        with pytest.raises(SolverError, match=r"^need at least one particle and one dimension$"):
            sample_initial(PointMass(0.0), 4, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, monkeypatch, seed):
        refuse_any_draw(monkeypatch)
        with pytest.raises(SolverError, match=r"seed must lie in \[0, 2\^64\)"):
            em_multilevel(mf_ou(), PointMass(0.0), seed=seed, levels=[2], finest=4, n_particles=2, horizon=1.0)

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


def _positions(streams):
    return [getattr(streams, name).copy() for name in ("counter", "buffer", "buffer_pos")]


def _same_positions(streams, before):
    return all(np.array_equal(a, b) for a, b in zip(_positions(streams), before))


class TestLeanDraw:
    def test_draw_after_last_draw_raises(self):
        streams = NoiseStreams(6, 3)
        sample_lattice(streams, 1, 3, 1.0, last=True)
        before = _positions(streams)
        with pytest.raises(LatticeError, match="spent"):
            sample_lattice(streams, 1, 3, 1.0)
        with pytest.raises(LatticeError, match="spent"):
            streams.draw(np.empty((3, 8, 1)), last=True)
        assert _same_positions(streams, before)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_last_draw_gives_the_same_bytes(self, seed, dim):
        # two level-1 blocks (2 * dim normals per row, not a multiple of 4
        # words for odd dim), then a third drawn with and without ``last``
        lean, full = NoiseStreams(seed, 5), NoiseStreams(seed, 5)
        for _ in range(2):
            a = sample_lattice(lean, dim, 1, 0.5).increments
            b = sample_lattice(full, dim, 1, 0.5).increments
            assert a.tobytes() == b.tobytes()
        a = sample_lattice(lean, dim, 1, 0.5, last=True).increments
        b = sample_lattice(full, dim, 1, 0.5).increments
        assert a.tobytes() == b.tobytes()
        assert lean.spent and not full.spent

    @pytest.mark.parametrize("last", [False, True])
    def test_draw_memory_is_per_particle(self, last):
        # the lawgap-wide shape: converting one particle's rows at a time
        # keeps the peak far below one list per array (about 2 MB at N = 10^4)
        # the first Philox built in a process imports modules; do that untraced
        NoiseStreams(0, 1).draw(np.empty((1, 1)))
        streams = NoiseStreams(0, 10**4)
        out = np.empty((10**4, 128, 1))
        tracemalloc.start()
        try:
            streams.draw(out, last)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


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

    @pytest.mark.parametrize(
        "n, dim, level, chunk_rows",
        [
            # 2^10 elements a row: two chunks of 32 rows and a remainder of 3
            (67, 2, 9, 32),
            # a row of 2^16 elements is larger than a chunk: one row a chunk
            (3, 1, 16, 1),
        ],
    )
    def test_chunks_equal_the_whole_array_halvings(self, n, dim, level, chunk_rows):
        assert max(1, COARSEN_CHUNK // (2**level * dim)) == chunk_rows
        finest = sample_lattice(NoiseStreams(12, n), dim, level, 1.0).increments
        for target in range(level, -1, -1):
            assert coarsen(finest, target).tobytes() == halving_loop(finest, target).tobytes()

    @pytest.mark.parametrize("target", [0, 5, 11])
    def test_allocates_only_the_target_level(self, target):
        # N = 200, 2^12 steps: a 6.6 MB input; halving it whole to level 10
        # or below holds a 3.3 MB level-11 array besides the result, a chunk
        # at most one chunk
        finest = sample_lattice(NoiseStreams(13, 200), 1, 12, 1.0).increments
        tracemalloc.start()
        try:
            out = coarsen(finest, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + COARSEN_CHUNK * 8
