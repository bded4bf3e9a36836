import math
import tracemalloc

import numpy as np
import pytest

from mvsde import solver
from mvsde.analysis import strong_error
from mvsde.measure import uniform_measure
from mvsde.models import CoefficientModel, mf_ou, mf_ou_oracles, osgood
from mvsde.paths import NoiseStreams, coarsen, sample_lattice
from mvsde.solver import (
    BlowUpError,
    GaussianLaw,
    PointMass,
    SolverError,
    UniformBox,
    em_multilevel,
    run_single,
    sample_initial,
)

from conftest import em_path, halving_loop, refuse_any_draw, stacked


class TestSampleInitial:
    def test_point_mass(self):
        initial = sample_initial(PointMass([1.0, -2.0]), 64, 2, seed=0)
        assert np.array_equal(initial, np.tile([1.0, -2.0], (64, 1)))

    def test_gaussian_mean_clt(self):
        n = 100_000
        initial = sample_initial(GaussianLaw(0.0, 1.0), n, 2, seed=1)
        assert np.abs(initial.mean(axis=0)).max() <= 4.0 / math.sqrt(n)

    def test_uniform_second_moment(self):
        # Var of U(-1, 1) is 1/3; se of the sample variance ~ sqrt(2/n)*...
        # use the generous 3-sigma CLT bound on the mean of x^2 (4th moment 1/5)
        n = 100_000
        initial = sample_initial(UniformBox(-1.0, 1.0), n, 1, seed=2)
        second = float((initial**2).mean())
        se = math.sqrt((1.0 / 5.0 - 1.0 / 9.0) / n)
        assert abs(second - 1.0 / 3.0) <= 3.0 * se

    def test_deterministic_in_seed(self):
        a = sample_initial(GaussianLaw(0.0, 1.0), 100, 3, seed=9)
        b = sample_initial(GaussianLaw(0.0, 1.0), 100, 3, seed=9)
        c = sample_initial(GaussianLaw(0.0, 1.0), 100, 3, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_initial_stream_disjoint_from_noise(self):
        # same seed: the initial draw must not replay particle 0's noise row
        lat = sample_lattice(NoiseStreams(5, 4), 1, 4, 1.0)
        initial = sample_initial(GaussianLaw(0.0, 1.0), 4, 1, seed=5)
        assert not np.allclose(initial[:, 0], lat.increments[0, :4, 0])

    def test_covariance_matrix_rejected(self):
        # config covariances are a number or a diagonal; a matrix is refused
        with pytest.raises(SolverError, match="number or a diagonal"):
            GaussianLaw([0.0, 0.0], np.eye(2))

    @pytest.mark.parametrize("cov, dim", [(-1.0, 1), ([1.0, -1.0], 2), ([1.0, 2.0, 3.0], 2), ([1.0, 2.0], 1)])
    def test_covariance_sign_and_length_rejected(self, cov, dim):
        # the sign is refused when the law is built, the length when d is known
        with pytest.raises(SolverError, match=r"covariance must be nonnegative|cov has \d components"):
            sample_initial(GaussianLaw(0.0, cov), 4, dim, seed=0)

    @pytest.mark.parametrize(
        "law, name",
        [
            (PointMass([1.0, 2.0, 3.0]), "x0"),
            (GaussianLaw([1.0, 2.0, 3.0], 1.0), "mean_vec"),
            (GaussianLaw(0.0, [1.0, 2.0, 3.0]), "cov"),
            (UniformBox([-1.0, -2.0, -3.0], 1.0), "lo"),
            (UniformBox(-1.0, [1.0, 2.0, 3.0]), "hi"),
        ],
    )
    def test_wrong_length_vector_names_the_parameter(self, law, name):
        # three components for d = 2: not numpy's broadcast error, from
        # either use that reads every parameter
        for use in (lambda: sample_initial(law, 4, 2, seed=0), lambda: law.second_moment(2)):
            with pytest.raises(SolverError, match=f"^{name} has 3 components, expected 1 or d = 2$"):
                use()

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: GaussianLaw(0.0, -1.0), "covariance must be nonnegative", id="negative-cov"),
            pytest.param(lambda: UniformBox(1.0, 0.0), "lo < hi", id="lo-above-hi"),
            pytest.param(lambda: UniformBox([0.0, 1.0], [2.0, 3.0, 4.0]), "lo has 2 components and hi 3",
                         id="lo-hi-lengths"),
            pytest.param(lambda: PointMass(math.nan), "^x0 must be finite, got nan$", id="x0-nan"),
            pytest.param(lambda: PointMass([0.0, math.inf]), "^x0 must be finite", id="x0-inf"),
            pytest.param(lambda: GaussianLaw(math.nan, 1.0), "^mean_vec must be finite", id="mean-nan"),
            pytest.param(lambda: GaussianLaw([0.0, -math.inf], 1.0), "^mean_vec must be finite", id="mean-inf"),
            pytest.param(lambda: GaussianLaw(0.0, math.nan), "^cov must be finite", id="cov-nan"),
            pytest.param(lambda: GaussianLaw(0.0, math.inf), "^cov must be finite", id="cov-inf"),
            pytest.param(lambda: UniformBox(math.nan, 1.0), "^lo must be finite", id="lo-nan"),
            pytest.param(lambda: UniformBox(0.0, math.nan), "^hi must be finite", id="hi-nan"),
            pytest.param(lambda: UniformBox(-math.inf, 0.0), "^lo must be finite", id="lo-inf"),
            pytest.param(lambda: UniformBox(0.0, math.inf), "^hi must be finite", id="hi-inf"),
        ],
    )
    def test_bad_law_refused_when_built(self, build, message):
        # before any sample, mean or second moment is asked for; a non-finite
        # parameter is named, not reported as a blow-up or numpy's range error
        with pytest.raises(SolverError, match=message):
            build()

    def test_scalar_covariance_is_the_equal_diagonal(self):
        scalar = sample_initial(GaussianLaw([1.0, -1.0], 2.0), 50, 2, seed=3)
        diagonal = sample_initial(GaussianLaw([1.0, -1.0], [2.0, 2.0]), 50, 2, seed=3)
        assert scalar.tobytes() == diagonal.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_gaussian_sample_equals_the_matmul_formula(self, dim):
        # elementwise scaling gives the floats of the diagonal matmul it
        # replaced, including -0.0 means with zero variance and subnormal variances
        rng = np.random.default_rng(dim)
        for case in range(200):
            mean = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4, dim)
            cov = rng.exponential(size=dim) * 10.0 ** rng.integers(-3, 4, dim)
            special = rng.random(dim) < 0.5
            mean[special] = rng.choice([0.0, -0.0], special.sum())
            special = rng.random(dim) < 0.5
            cov[special] = rng.choice([0.0, 5e-324, 1e-310], special.sum())
            if case % 10 == 0:
                mean, cov = mean[0], cov[0]
            got = GaussianLaw(mean, cov).sample(np.random.default_rng(case), 7, dim)
            factor = np.diag(np.sqrt(np.broadcast_to(cov, (dim,))))
            want = np.broadcast_to(mean, (dim,)) + np.random.default_rng(case).standard_normal((7, dim)) @ factor.T
            assert got.tobytes() == want.tobytes(), (mean, cov)

    @pytest.mark.parametrize("lo, hi, dim", [(1.0, 0.0, 1), (0.5, 0.5, 1), ([0.0, 1.0], 1.0, 2)])
    def test_uniform_box_needs_lo_below_hi(self, lo, hi, dim):
        with pytest.raises(SolverError, match="lo < hi"):
            sample_initial(UniformBox(lo, hi), 4, dim, seed=0)

    def test_oracle_helpers(self):
        law = GaussianLaw([1.0, 0.0], 2.0)
        assert law.second_moment(2) == pytest.approx(1.0 + 4.0)
        # a one-entry diagonal stands for all d variances, as a number does
        assert GaussianLaw(0.0, [2.0]).second_moment(3) == GaussianLaw(0.0, 2.0).second_moment(3) == 6.0
        box = UniformBox(-1.0, 1.0)
        assert box.second_moment(1) == pytest.approx(1.0 / 3.0)
        assert PointMass(2.0).second_moment(1) == pytest.approx(4.0)


class TestToMeasure:
    def test_single_particle(self):
        mu = uniform_measure(np.array([[3.0]]))
        assert mu.num_atoms == 1 and mu.support[0, 0] == 3.0 and mu.lambda2 == 16.0

    def test_mean(self):
        mu = uniform_measure(np.array([[0.0], [2.0]]))
        assert mu.mean[0] == 1.0

    def test_lambda2_definition_chase(self):
        states = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        mu = uniform_measure(states)
        expected = np.mean((1.0 + np.linalg.norm(states, axis=1)) ** 2)
        assert mu.lambda2 == pytest.approx(expected, rel=1e-14)

    def test_snapshot_is_decoupled(self):
        states = np.array([[1.0]])
        mu = uniform_measure(states)
        states[0, 0] = 99.0
        assert mu.support[0, 0] == 1.0
        assert not mu.support.flags.writeable


class TestEmRun:
    def test_degenerate_coefficients_constant(self):
        model = mf_ou(theta=0.0, alpha=0.0, s=0.0, dim=2)
        lat = sample_lattice(NoiseStreams(0, 8), 2, 5, 1.0)
        initial = sample_initial(GaussianLaw(0.0, 1.0), 8, 2, seed=0)
        _, states = em_path(model, initial, 5, lat.increments, 1.0)
        assert np.array_equal(states, np.broadcast_to(initial, states.shape))

    def test_exponential_decay_oracle(self):
        # b = -x, sigma = 0, x0 = 1: the explicit product (1 - 2^-10)^1024
        model = mf_ou(theta=1.0, alpha=0.0, s=0.0)
        _, states = stacked(run_single(model, PointMass(1.0), seed=0, level=10, n_particles=1, horizon=1.0))
        euler_product = (1.0 - 2.0**-10) ** 1024
        final = states[-1, 0, 0]
        assert final == pytest.approx(euler_product, rel=1e-12)
        assert abs(final - math.exp(-1.0)) < 1e-3

    def test_mean_path_tracks_oracle(self):
        # empirical mean within 3 standard errors of m0*exp((alpha-theta) t)
        n = 10_000
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4)
        mean_fn, _ = mf_ou_oracles(**model.parameters, dim=1, m0=1.0, u0=1.0)
        times, rows = run_single(model, PointMass(1.0), seed=7, level=10, n_particles=n,
                                 horizon=1.0, record_level=4)
        for t, row in zip(times, rows):
            emp = row[:, 0].mean()
            se = row[:, 0].std(ddof=1) / math.sqrt(n)
            assert abs(emp - mean_fn(t)[0]) <= max(3.0 * se, 1e-12)

    def test_replay_matches_scalar_recursion(self):
        # independent per-particle replay of the frozen-coefficient recursion
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=2)
        n, level = 6, 4
        lat = sample_lattice(NoiseStreams(3, n), 2, level, 1.0)
        initial = sample_initial(GaussianLaw(0.0, 1.0), n, 2, seed=3)
        _, recorded = em_path(model, initial, level, lat.increments, 1.0)

        theta, alpha, s = 1.0, 0.5, 0.4
        states = initial.copy()
        h = 1.0 / 2**level
        replay = [states.copy()]
        for i in range(2**level):
            mean = np.array([math.fsum(states[:, k].tolist()) / n for k in range(2)])
            new = np.empty_like(states)
            for p in range(n):
                drift = -theta * states[p] + alpha * mean
                new[p] = states[p] + h * drift + s * lat.increments[p, i]
            states = new
            replay.append(states.copy())
        assert np.asarray(replay).tobytes() == recorded.tobytes()

    def test_replay_matches_matrix_route(self):
        # generic matrix diffusion, applied with the replay's einsum
        mat = np.array([[0.3, 0.1], [0.0, 0.2]])
        model = CoefficientModel(
            model_id="matrix-fixture",
            dim=2,
            drift=lambda states, mu: -states,
            diffusion_apply=lambda states, mu, dw: np.einsum("ij,nj->ni", mat, dw),
        )
        n, level = 4, 3
        lat = sample_lattice(NoiseStreams(8, n), 2, level, 1.0)
        initial = sample_initial(GaussianLaw(0.0, 1.0), n, 2, seed=8)
        _, recorded = em_path(model, initial, level, lat.increments, 1.0)
        states = initial.copy()
        h = 1.0 / 2**level
        replay = [states.copy()]
        for i in range(2**level):
            new = np.empty_like(states)
            for p in range(n):
                new[p] = states[p] + h * (-states[p]) + np.einsum("ij,j->i", mat, lat.increments[p, i])
            states = new
            replay.append(states.copy())
        assert np.asarray(replay).tobytes() == recorded.tobytes()

    def test_permutation_equivariance(self):
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4)
        n, level = 16, 5
        lat = sample_lattice(NoiseStreams(4, n), 1, level, 1.0)
        initial = sample_initial(GaussianLaw(0.0, 1.0), n, 1, seed=4)
        _, states = em_path(model, initial, level, lat.increments, 1.0)

        perm = np.random.default_rng(0).permutation(n)
        _, permuted = em_path(model, initial[perm], level, lat.increments[perm], 1.0)
        assert permuted.tobytes() == states[:, perm, :].tobytes()

    def test_blowup_diagnostics(self):
        model = osgood(c=100.0)
        with pytest.raises(BlowUpError) as err:
            stacked(run_single(model, PointMass(1.0), seed=0, level=3, n_particles=4, horizon=8.0))
        assert err.value.level == 3
        assert err.value.step >= 0
        assert 0 <= err.value.particle < 4
        assert np.abs(err.value.state).max() > 1e8 or not np.isfinite(err.value.state).all()

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_guard(self, monkeypatch, horizon):
        # each driver refuses the horizon at the call, before any stream is
        # built, any lattice drawn or any step taken
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(solver, "em_run", no_step)
        refuse_any_draw(monkeypatch)
        for level in (3, 12):
            with pytest.raises(SolverError, match="horizon must be positive and finite"):
                run_single(mf_ou(), PointMass(0.0), seed=0, level=level, n_particles=4, horizon=horizon)
        with pytest.raises(SolverError, match="horizon must be positive and finite"):
            em_multilevel(mf_ou(), PointMass(0.0), seed=0, levels=[1, 2], finest=3, n_particles=4,
                          horizon=horizon)


class TestGuard:
    LIMIT = solver.BLOWUP_LIMIT

    def test_limit_itself_passes(self):
        solver._guard(np.array([[self.LIMIT, -self.LIMIT], [0.0, -0.0]]), level=2, step=0, time=0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.nextafter(LIMIT, math.inf),
                                     -np.nextafter(LIMIT, math.inf)])
    def test_beyond_the_limit_raises(self, bad):
        states = np.zeros((4, 2))
        states[2, 1] = bad
        with pytest.raises(BlowUpError) as err:
            solver._guard(states, level=3, step=5, time=0.75)
        assert (err.value.level, err.value.step, err.value.time, err.value.particle) == (3, 5, 0.75, 2)
        assert err.value.state.tobytes() == states[2].tobytes()

    def test_names_first_nonfinite_else_largest(self):
        states = np.zeros((6, 2))
        states[1, 0] = -5e8
        states[3, 1] = 2e8
        with pytest.raises(BlowUpError) as err:
            solver._guard(states, level=0, step=0, time=1.0)
        assert err.value.particle == 1
        states[4, 0] = math.inf
        states[5, 1] = math.nan
        with pytest.raises(BlowUpError) as err:
            solver._guard(states, level=0, step=0, time=1.0)
        assert err.value.particle == 4


class TestGridTimes:
    """Recorded times are t_i = i * (T / 2^level), the same floats on every route."""

    def test_level_zero_points(self):
        times, _ = stacked(run_single(mf_ou(), PointMass(0.0), seed=0, level=0, n_particles=1, horizon=1.0))
        assert np.array_equal(times, [0.0, 1.0])

    def test_endpoints_exact(self):
        for horizon in (1.0, 2.0, 0.7, 3.25):
            for level in range(12):
                pts, _ = stacked(run_single(mf_ou(), PointMass(0.0), seed=0, level=level, n_particles=1,
                                            horizon=horizon))
                assert pts.tobytes() == (np.arange(2**level + 1) * (horizon / 2**level)).tobytes()
                assert pts[0] == 0.0
                assert pts[-1] == horizon
                assert (np.diff(pts) > 0).all()


def _peak_bytes(fn):
    """``fn()`` and the peak bytes Python allocated while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def _whole_path_multilevel(model, law, seed, levels, finest, n_particles, horizon, record_level=None):
    """The unblocked route: one lattice over [0, T], coarsened whole by
    ``halving_loop``, then each level stepped whole; returned as
    ``em_multilevel`` returns its run."""
    record_level = min(levels) if record_level is None else record_level
    lattice = sample_lattice(NoiseStreams(seed, n_particles), model.dim, finest, horizon)
    initial = sample_initial(law, n_particles, model.dim, seed)
    runs = {
        lvl: em_path(model, initial, lvl, halving_loop(lattice.increments, lvl), horizon, record_level)
        for lvl in [*sorted(levels), finest]
    }
    return runs[finest][0], {lvl: states for lvl, (_, states) in runs.items()}


def _count_draws(monkeypatch):
    drawn = []

    def recording(*args, **kwargs):
        lattice = sample_lattice(*args, **kwargs)
        drawn.append(lattice.increments.nbytes)
        return lattice

    monkeypatch.setattr(solver, "sample_lattice", recording)
    return drawn


def _record_last(monkeypatch):
    flags = []

    def recording(*args, last=False, **kwargs):
        flags.append(last)
        return sample_lattice(*args, last=last, **kwargs)

    monkeypatch.setattr(solver, "sample_lattice", recording)
    return flags


class TestLastBlock:
    def test_run_single_marks_only_its_last_block(self, monkeypatch):
        # level 12: 8 blocks of 512 steps
        flags = _record_last(monkeypatch)
        stacked(run_single(mf_ou(), PointMass(0.0), seed=1, level=12, n_particles=4, horizon=1.0))
        assert flags == [False] * 7 + [True]

    def test_em_multilevel_marks_only_its_last_block(self, monkeypatch):
        # finest 11, record level 3: 4 blocks of level 9
        flags = _record_last(monkeypatch)
        stacked(em_multilevel(mf_ou(), PointMass(0.0), seed=1, levels=[3, 4], finest=11,
                              n_particles=4, horizon=1.0))
        assert flags == [False] * 3 + [True]

    def test_one_block_is_the_last(self, monkeypatch):
        flags = _record_last(monkeypatch)
        stacked(run_single(mf_ou(), PointMass(0.0), seed=1, level=7, n_particles=4, horizon=1.0))
        assert flags == [True]


class TestRunSingleBlocks:
    @pytest.mark.parametrize(
        "model, level, finest, record_level",
        [
            # every step recorded: 8 blocks of 512 steps
            (mf_ou(dim=2), 12, None, 12),
            # a level-5 run driven by a level-12 path: 8 blocks of 512 finest steps
            (osgood(), 5, 12, None),
        ],
    )
    def test_blocks_equal_whole_path_route(self, monkeypatch, model, level, finest, record_level):
        law = GaussianLaw(0.0, 1.0)
        drawn = _count_draws(monkeypatch)
        times, blocked = stacked(run_single(model, law, 13, level, finest=finest, n_particles=8, horizon=1.0,
                                            record_level=record_level))
        assert len(drawn) == 8
        whole_times, whole = _whole_path_multilevel(model, law, 13, [level], finest or level, 8, 1.0,
                                                    record_level)
        assert blocked.tobytes() == whole[level].tobytes()
        assert times.tobytes() == whole_times.tobytes()

    @pytest.mark.parametrize("level, finest", [(12, None), (10, 12)])
    def test_blowup_after_first_block_names_global_grid(self, level, finest):
        # x' = 30 x passes the limit near t = 0.6, in block 4 of 8
        model = mf_ou(theta=-30.0, alpha=0.0, s=0.4)
        law = GaussianLaw(0.0, 1.0)
        with pytest.raises(BlowUpError) as err:
            stacked(run_single(model, law, seed=3, level=level, finest=finest, n_particles=4, horizon=1.0))
        lattice = sample_lattice(NoiseStreams(3, 4), 1, finest or level, 1.0)
        with pytest.raises(BlowUpError) as ref:
            em_path(model, sample_initial(law, 4, 1, seed=3), level, halving_loop(lattice.increments, level),
                    1.0, record_level=0)
        got, want = err.value, ref.value
        assert got.level == want.level == level
        assert got.step >= 2 ** (level - 3)  # after the first block
        assert got.step == want.step
        assert got.time == want.time == (got.step + 1) * (1.0 / 2**level)
        assert got.particle == want.particle
        assert got.state.tobytes() == want.state.tobytes()

    def test_whole_lattice_above_memory_cap_runs(self, monkeypatch):
        # N = 8, level 12: one block of 512 steps is 32 KB, the whole path 256 KB
        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 8 * 2**9 * 8 + 1)
        args = dict(seed=1, level=12, n_particles=8, horizon=1.0)
        # recorded at level 0, the whole path is one block
        with pytest.raises(SolverError, match="one block of increments would need 262144 bytes"):
            run_single(mf_ou(), GaussianLaw(0.0, 1.0), record_level=0, **args)
        _, states = stacked(run_single(mf_ou(), GaussianLaw(0.0, 1.0), record_level=3, **args))
        assert states.shape == (2**3 + 1, 8, 1)

    def test_block_above_memory_cap_refused_before_the_initial_draw(self, monkeypatch):
        # level 10 recorded at level 0 for N = 8: one 64 KiB block above a
        # 32 KiB cap, while the trajectories (128 bytes) and the stream
        # positions (576 bytes) fit
        def no_draw(*args):
            raise AssertionError("initial ensemble drawn")

        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 32 * 1024)
        monkeypatch.setattr(solver, "sample_initial", no_draw)
        with pytest.raises(SolverError, match="one block of increments would need 65536 bytes"):
            run_single(mf_ou(), PointMass(0.0), 1, level=10, n_particles=8, record_level=0)

    def test_finest_below_level_refused(self):
        with pytest.raises(SolverError, match="finest level 3 below run level 5"):
            run_single(mf_ou(), PointMass(0.0), seed=0, level=5, finest=3, n_particles=2)

    def test_non_integer_seed_refused(self):
        # a key word would truncate 1.5 to seed 1
        with pytest.raises(SolverError, match="^seed must be an integer, got 1.5$"):
            run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1.5, level=4, n_particles=8)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, monkeypatch, seed):
        # a 64-bit key word would fold -1 onto 2^64 - 1 and 2^64 onto 0; each
        # driver refuses the seed before any stream is built or lattice drawn
        refuse_any_draw(monkeypatch)
        with pytest.raises(SolverError, match=r"seed must lie in \[0, 2\^64\)"):
            run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=seed, level=4, n_particles=8)
        with pytest.raises(SolverError, match=r"seed must lie in \[0, 2\^64\)"):
            em_multilevel(mf_ou(), PointMass(0.0), seed=seed, levels=[2], finest=4, n_particles=2, horizon=1.0)
        with pytest.raises(SolverError, match=r"seed must lie in \[0, 2\^64\)"):
            sample_initial(GaussianLaw(0.0, 1.0), 8, 1, seed=seed)

    @pytest.mark.parametrize(
        "model, level, finest, record_level",
        [
            # one block, every step recorded
            (mf_ou(), 7, None, None),
            # 8 blocks of 512 steps, every step recorded
            (mf_ou(dim=2), 12, None, 12),
            # a level-5 run driven by a level-12 path, recorded at level 3
            (osgood(), 5, 12, 3),
        ],
    )
    def test_stream_collected_equals_run_single(self, model, level, finest, record_level):
        # rows held past the block they were stepped in keep their bytes: the
        # collected rows equal copies taken as each row came
        law = GaussianLaw(0.0, 1.0)
        args = (model, law, 13, level, finest, 8, 1.0, record_level)
        times, rows = run_single(*args)
        copies = [row.copy() for row in rows]
        held_times, rows = run_single(*args)
        held = list(rows)
        assert not any(row.flags.writeable for row in held)
        assert times.tobytes() == held_times.tobytes()
        assert len(held) == len(times)
        assert np.stack(held).tobytes() == np.stack(copies).tobytes()


class TestEmMultilevel:
    @pytest.mark.parametrize(
        "model, levels, finest, record_level",
        [
            # d = 1, blocks of level 1 although levels[0] = 3: finest - 9 < levels[0]
            (osgood(), [3, 4], 10, None),
            # d = 1, record level below levels[0]: blocks of the record grid
            (osgood(), [3, 4], 12, 2),
            # d = 2, the canonical shape: 8 blocks of 512 finest steps
            (mf_ou(dim=2), [3, 5], 12, None),
            # d = 2, several record points per block (record 4, blocks of level 1)
            (mf_ou(dim=2), [4, 5], 10, None),
            # one block: finest below the block level
            (mf_ou(), [2], 6, None),
        ],
    )
    def test_blocks_equal_whole_path_route(self, model, levels, finest, record_level):
        law = GaussianLaw(0.0, 1.0)
        args = (model, law, 13, levels, finest, 8, 1.0, record_level)
        times, blocked = stacked(em_multilevel(*args))
        whole_times, whole = _whole_path_multilevel(*args)
        assert sorted(blocked) == sorted(whole)
        assert times.tobytes() == whole_times.tobytes()
        for lvl, states in whole.items():
            assert blocked[lvl].tobytes() == states.tobytes()

    def test_one_block_of_increments_at_a_time(self, monkeypatch):
        # N = 8, d = 2, finest 12, record level 3: 8 blocks of 2^9 finest steps
        drawn = _count_draws(monkeypatch)
        stacked(em_multilevel(mf_ou(dim=2), PointMass(0.0), seed=2, levels=[3, 4], finest=12,
                              n_particles=8, horizon=1.0))
        assert drawn == [8 * 2**9 * 2 * 8] * 8
        assert sum(drawn) == 8 * 2**12 * 2 * 8

    def test_each_level_coarsened_from_the_next_finer(self, monkeypatch):
        # finest 12, record level 3: 8 blocks of level 9; per block the ladder
        # 12 -> 5 -> 4 -> 3, as block-local levels 9 -> 2 -> 1 -> 0
        reduced = []

        def recording(increments, level):
            reduced.append((increments.shape[1], level))
            return coarsen(increments, level)

        monkeypatch.setattr(solver, "coarsen", recording)
        stacked(em_multilevel(mf_ou(), PointMass(0.0), seed=2, levels=[4, 3, 5], finest=12,
                              n_particles=4, horizon=1.0))
        assert reduced == [(2**9, 9), (2**9, 2), (2**2, 1), (2**1, 0)] * 8

    def test_blowup_after_first_block_names_global_grid(self):
        # x' = 30 x: level 12 passes the limit near t = 0.6 (block 4 of 8),
        # level 5 only near t = 0.85, so block order meets level 12 first
        model = mf_ou(theta=-30.0, alpha=0.0, s=0.4)
        law = GaussianLaw(0.0, 1.0)
        with pytest.raises(BlowUpError) as err:
            stacked(em_multilevel(model, law, seed=3, levels=[3, 5], finest=12, n_particles=4, horizon=1.0))
        lattice = sample_lattice(NoiseStreams(3, 4), 1, 12, 1.0)
        with pytest.raises(BlowUpError) as ref:
            em_path(model, sample_initial(law, 4, 1, seed=3), 12, lattice.increments, 1.0, record_level=0)
        got, want = err.value, ref.value
        assert got.level == 12
        assert got.step >= 2**9  # after the first block
        assert got.step == want.step
        assert got.time == want.time == (got.step + 1) * 1.0 / 2**12
        assert got.particle == want.particle
        assert got.state.tobytes() == want.state.tobytes()

    def test_record_level_and_finest_guards(self):
        model = mf_ou()
        with pytest.raises(SolverError, match=r"record level 3 outside \[0, 2\]"):
            em_multilevel(model, PointMass(0.0), seed=0, levels=[2, 3], finest=7,
                          n_particles=2, horizon=1.0, record_level=3)
        with pytest.raises(ValueError, match="level limit"):
            em_multilevel(model, PointMass(0.0), seed=0, levels=[22], finest=31,
                          n_particles=2, horizon=1.0)

    def test_recorded_trajectories_bounded_by_memory_cap(self, monkeypatch):
        # levels 1, 2 and reference 3 recorded at level 1 for N = 4, d = 2:
        # 3 * (2^1 + 1) * 4 * 2 * 8 = 576 bytes, above the one 512-byte block
        # and the 288 bytes of stream positions
        args = dict(seed=0, levels=[1, 2], finest=3, n_particles=4, horizon=1.0)
        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 576)
        _, runs = stacked(em_multilevel(mf_ou(dim=2), PointMass(0.0), **args))
        assert sum(states.nbytes for states in runs.values()) == 576
        drawn = _count_draws(monkeypatch)
        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 575)
        with pytest.raises(SolverError, match="recorded trajectories would need 576 bytes"):
            em_multilevel(mf_ou(dim=2), PointMass(0.0), **args)
        assert drawn == []

    def test_rate_ladder_reduced_as_it_comes_holds_one_block(self):
        # levels 5..7 and reference 13 recorded at 5 for N = 1000, d = 1: 16
        # blocks of 2^9 finest steps (4.1 MB), two record rows each.  The
        # running maxima take 3 x 1000 floats; holding the 33 rows of all
        # four levels would add 1.06 MB, and halving each block whole down
        # the ladder peaked at 1.74 blocks
        block, maxima = 1000 * 2**9 * 8, 3 * 1000 * 8

        def rate():
            _, rows = em_multilevel(osgood(), GaussianLaw(0.0, 1.0), seed=101, levels=[5, 6, 7], finest=13,
                                    n_particles=1000, horizon=1.0)
            return strong_error(rows, 13)

        errors, peak = _peak_bytes(rate)
        assert sorted(errors) == [5, 6, 7]
        assert peak < 1.2 * (block + maxima)

    def test_ladder_rows_can_be_held(self):
        # record level 4 under finest 10: two blocks of eight rows, so a held
        # row outlives the block it was stepped in
        args = (mf_ou(dim=2), GaussianLaw(0.0, 1.0), 13, [4, 5], 10, 8, 1.0, 4)
        _, rows = em_multilevel(*args)
        copies = [{lvl: states.copy() for lvl, states in row.items()} for row in rows]
        _, rows = em_multilevel(*args)
        held = list(rows)
        assert len(held) == len(copies) == 2**4 + 1
        for row, copy in zip(held, copies):
            assert sorted(row) == sorted(copy) == [4, 5, 10]
            assert all(row[lvl].tobytes() == copy[lvl].tobytes() for lvl in row)

    def test_ladder_recording_finer_than_its_block_holds_one_row(self):
        # levels 10, 11 and reference 12 recorded at 10 for N = 200: blocks of
        # 2^9 finest steps (0.8 MB), each 128 rows, read and dropped one by one
        def consume():
            _, rows = solver._stream(mf_ou(), PointMass(0.0), 1, [10, 11, 12], 12, 200, 1.0, 10)
            for _ in rows:
                pass

        _, peak = _peak_bytes(consume)
        assert peak < 1.3 * 200 * 2**9 * 8

    def test_additive_noise_zero_drift_exact_across_levels(self):
        # constant coefficients: every level reproduces x0 + s*W at shared
        # grid points up to float regrouping dust
        model = mf_ou(theta=0.0, alpha=0.0, s=0.7)
        _, runs = stacked(em_multilevel(model, PointMass(0.5), seed=6, levels=[2, 4], finest=6,
                                        n_particles=32, horizon=1.0))
        gaps = np.abs(runs[2] - runs[6])
        assert gaps.max() < 1e-14
        gaps = np.abs(runs[4] - runs[6])
        assert gaps.max() < 1e-14

    def test_shared_initials_and_common_grid(self):
        # one times array is the construction: every level is recorded on it
        model = mf_ou()
        times, runs = stacked(em_multilevel(model, GaussianLaw(0.0, 1.0), seed=1, levels=[2, 3], finest=6,
                                            n_particles=8, horizon=1.0))
        assert set(runs) == {2, 3, 6}
        assert times.tobytes() == (np.arange(2**2 + 1) * 0.25).tobytes()
        assert all(states.shape == (len(times), 8, 1) for states in runs.values())
        assert np.array_equal(runs[2][0], runs[6][0])

    def test_both_drivers_return_read_only_arrays(self):
        # the times and every row of every level
        times, rows = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, level=3, n_particles=4)
        shared, ladder = em_multilevel(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, levels=[2, 3], finest=6,
                                       n_particles=4, horizon=1.0)
        arrays = [times, *rows, shared, *(states for row in ladder for states in row.values())]
        assert len(arrays) == 2 + (2**3 + 1) + 3 * (2**2 + 1)
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[-1] = 0.0

    def test_deterministic_error_decay_for_ode(self):
        # sigma = 0 reduces to explicit Euler: halving the step halves the error
        model = mf_ou(theta=1.0, alpha=0.0, s=0.0)
        _, runs = stacked(em_multilevel(model, PointMass(1.0), seed=0, levels=[2, 3], finest=10,
                                        n_particles=1, horizon=1.0))
        err2 = np.abs(runs[2][-1] - runs[10][-1]).max()
        err3 = np.abs(runs[3][-1] - runs[10][-1]).max()
        assert err3 < err2
        assert err3 / err2 == pytest.approx(0.5, abs=0.1)

    @pytest.mark.parametrize(
        "driver, kwargs, name",
        [
            (em_multilevel, dict(levels=[2.7, 4], finest=6), "levels"),
            (em_multilevel, dict(levels=[2, 4], finest=6.5), "finest"),
            (run_single, dict(level=2.5), "level"),
            (run_single, dict(level=float("nan")), "level"),
            (run_single, dict(level=2, finest=4.5), "finest"),
            (run_single, dict(level=2, record_level=1.5), "record_level"),
            (run_single, dict(level=2, n_particles=2.5), "n_particles"),
            (run_single, dict(level="2"), "level"),
        ],
        ids=["levels", "multilevel-finest", "level", "nan-level", "finest", "record_level", "n_particles",
             "str-level"],
    )
    def test_non_integer_argument_refused_by_name(self, monkeypatch, driver, kwargs, name):
        def no_draw(*args):
            raise AssertionError("initial ensemble drawn")

        monkeypatch.setattr(solver, "sample_initial", no_draw)
        kwargs = {"n_particles": 4, "horizon": 1.0, **kwargs}
        with pytest.raises(SolverError, match=f"^{name} must be an integer"):
            driver(mf_ou(), PointMass(0.0), 0, **kwargs)

    def test_integral_floats_and_numpy_integers_accepted(self):
        law = GaussianLaw(0.0, 1.0)
        _, want = stacked(em_multilevel(mf_ou(), law, 3, levels=[2, 3], finest=6, n_particles=4, horizon=1.0))
        _, got = stacked(em_multilevel(mf_ou(), law, 3, levels=[np.int64(2), 3.0], finest=np.int32(6),
                                       n_particles=4.0, horizon=1.0, record_level=np.uint8(2)))
        assert sorted(got) == [2, 3, 6]
        assert all(type(lvl) is int and got[lvl].tobytes() == want[lvl].tobytes() for lvl in got)
        _, single = stacked(run_single(mf_ou(), law, 3, level=np.int64(3), finest=6.0, n_particles=np.int16(4)))
        assert single.shape == (2**3 + 1, 4, 1)

    def test_level_validation(self):
        model = mf_ou()
        with pytest.raises(SolverError, match="below the reference"):
            em_multilevel(model, PointMass(0.0), seed=0, levels=[4], finest=4,
                          n_particles=2, horizon=1.0)
        with pytest.raises(SolverError, match="at least one level"):
            em_multilevel(model, PointMass(0.0), seed=0, levels=[], finest=4,
                          n_particles=2, horizon=1.0)
