import math
import tracemalloc

import numpy as np
import pytest

from mvsde import paths, solver
from mvsde.measure import uniform_measure
from mvsde.models import CoefficientModel, mf_ou, mf_ou_oracles, osgood
from mvsde.paths import LatticeError, NoiseStreams, coarsen, sample_lattice
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

from conftest import em_path


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
        traj = em_path(model, initial, 5, lat.increments, 1.0)
        assert np.array_equal(traj.states, np.broadcast_to(initial, traj.states.shape))

    def test_exponential_decay_oracle(self):
        # b = -x, sigma = 0, x0 = 1: the explicit product (1 - 2^-10)^1024
        model = mf_ou(theta=1.0, alpha=0.0, s=0.0)
        traj = run_single(model, PointMass(1.0), seed=0, level=10, n_particles=1, horizon=1.0)
        euler_product = (1.0 - 2.0**-10) ** 1024
        final = traj.states[-1, 0, 0]
        assert final == pytest.approx(euler_product, rel=1e-12)
        assert abs(final - math.exp(-1.0)) < 1e-3

    def test_mean_path_tracks_oracle(self):
        # empirical mean within 3 standard errors of m0*exp((alpha-theta) t)
        n = 10_000
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4)
        mean_fn, _ = mf_ou_oracles(**model.parameters, dim=1, m0=1.0, u0=1.0)
        traj = run_single(model, PointMass(1.0), seed=7, level=10, n_particles=n,
                          horizon=1.0, record_level=4)
        for j, t in enumerate(traj.times):
            emp = traj.states[j, :, 0].mean()
            se = traj.states[j, :, 0].std(ddof=1) / math.sqrt(n)
            assert abs(emp - mean_fn(t)[0]) <= max(3.0 * se, 1e-12)

    def test_replay_matches_scalar_recursion(self):
        # independent per-particle replay of the frozen-coefficient recursion
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=2)
        n, level = 6, 4
        lat = sample_lattice(NoiseStreams(3, n), 2, level, 1.0)
        initial = sample_initial(GaussianLaw(0.0, 1.0), n, 2, seed=3)
        traj = em_path(model, initial, level, lat.increments, 1.0)

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
        assert np.asarray(replay).tobytes() == traj.states.tobytes()

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
        traj = em_path(model, initial, level, lat.increments, 1.0)
        states = initial.copy()
        h = 1.0 / 2**level
        replay = [states.copy()]
        for i in range(2**level):
            new = np.empty_like(states)
            for p in range(n):
                new[p] = states[p] + h * (-states[p]) + np.einsum("ij,j->i", mat, lat.increments[p, i])
            states = new
            replay.append(states.copy())
        assert np.asarray(replay).tobytes() == traj.states.tobytes()

    def test_permutation_equivariance(self):
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4)
        n, level = 16, 5
        lat = sample_lattice(NoiseStreams(4, n), 1, level, 1.0)
        initial = sample_initial(GaussianLaw(0.0, 1.0), n, 1, seed=4)
        traj = em_path(model, initial, level, lat.increments, 1.0)

        perm = np.random.default_rng(0).permutation(n)
        traj_perm = em_path(model, initial[perm], level, lat.increments[perm], 1.0)
        assert traj_perm.states.tobytes() == traj.states[:, perm, :].tobytes()

    def test_blowup_diagnostics(self):
        model = osgood(c=100.0)
        with pytest.raises(BlowUpError) as err:
            run_single(model, PointMass(1.0), seed=0, level=3, n_particles=4, horizon=8.0)
        assert err.value.level == 3
        assert err.value.step >= 0
        assert 0 <= err.value.particle < 4
        assert np.abs(err.value.state).max() > 1e8 or not np.isfinite(err.value.state).all()

    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
    def test_horizon_guard(self, monkeypatch, horizon):
        # each driver's first block draw refuses the horizon, before any step
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr(solver, "em_run", no_step)
        with pytest.raises(LatticeError, match="horizon must be positive and finite"):
            run_single(mf_ou(), PointMass(0.0), seed=0, level=3, n_particles=4, horizon=horizon)
        with pytest.raises(LatticeError, match="horizon must be positive and finite"):
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
        traj = run_single(mf_ou(), PointMass(0.0), seed=0, level=0, n_particles=1, horizon=1.0)
        assert np.array_equal(traj.times, [0.0, 1.0])

    def test_endpoints_exact(self):
        for horizon in (1.0, 2.0, 0.7, 3.25):
            for level in range(12):
                pts = run_single(mf_ou(), PointMass(0.0), seed=0, level=level, n_particles=1,
                                 horizon=horizon).times
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
    """The unblocked route: one lattice over [0, T], then each level stepped whole."""
    record_level = min(levels) if record_level is None else record_level
    lattice = sample_lattice(NoiseStreams(seed, n_particles), model.dim, finest, horizon)
    initial = sample_initial(law, n_particles, model.dim, seed)
    return {
        lvl: em_path(model, initial, lvl, coarsen(lattice.increments, lvl), horizon, record_level)
        for lvl in [*sorted(levels), finest]
    }


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
        run_single(mf_ou(), PointMass(0.0), seed=1, level=12, n_particles=4, horizon=1.0)
        assert flags == [False] * 7 + [True]

    def test_em_multilevel_marks_only_its_last_block(self, monkeypatch):
        # finest 11, record level 3: 4 blocks of level 9
        flags = _record_last(monkeypatch)
        em_multilevel(mf_ou(), PointMass(0.0), seed=1, levels=[3, 4], finest=11,
                      n_particles=4, horizon=1.0)
        assert flags == [False] * 3 + [True]

    def test_one_block_is_the_last(self, monkeypatch):
        flags = _record_last(monkeypatch)
        run_single(mf_ou(), PointMass(0.0), seed=1, level=7, n_particles=4, horizon=1.0)
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
        blocked = run_single(model, law, 13, level, finest=finest, n_particles=8, horizon=1.0,
                             record_level=record_level)
        assert len(drawn) == 8
        whole = _whole_path_multilevel(model, law, 13, [level], finest or level, 8, 1.0, record_level)[level]
        assert blocked.states.tobytes() == whole.states.tobytes()
        assert blocked.times.tobytes() == whole.times.tobytes()

    @pytest.mark.parametrize("level, finest", [(12, None), (10, 12)])
    def test_blowup_after_first_block_names_global_grid(self, level, finest):
        # x' = 30 x passes the limit near t = 0.6, in block 4 of 8
        model = mf_ou(theta=-30.0, alpha=0.0, s=0.4)
        law = GaussianLaw(0.0, 1.0)
        with pytest.raises(BlowUpError) as err:
            run_single(model, law, seed=3, level=level, finest=finest, n_particles=4, horizon=1.0)
        lattice = sample_lattice(NoiseStreams(3, 4), 1, finest or level, 1.0)
        with pytest.raises(BlowUpError) as ref:
            em_path(model, sample_initial(law, 4, 1, seed=3), level, coarsen(lattice.increments, level), 1.0)
        got, want = err.value, ref.value
        assert got.level == want.level == level
        assert got.step >= 2 ** (level - 3)  # after the first block
        assert got.step == want.step
        assert got.time == want.time == (got.step + 1) * (1.0 / 2**level)
        assert got.particle == want.particle
        assert got.state.tobytes() == want.state.tobytes()

    def test_whole_lattice_above_memory_cap_runs(self, monkeypatch):
        # N = 8, level 12: one block of 512 steps is 32 KB, the whole path 256 KB
        monkeypatch.setattr(paths, "DEFAULT_MEMORY_CAP", 8 * 2**9 * 8 + 1)
        with pytest.raises(LatticeError, match="memory limit"):
            sample_lattice(NoiseStreams(1, 8), 1, 12, 1.0)
        traj = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, level=12, n_particles=8, horizon=1.0)
        assert traj.states.shape == (2**12 + 1, 8, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        # a 64-bit key word would fold -1 onto 2^64 - 1 and 2^64 onto 0
        with pytest.raises(LatticeError, match="seed must lie"):
            run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=seed, level=4, n_particles=8)
        with pytest.raises(LatticeError, match="seed must lie"):
            sample_initial(GaussianLaw(0.0, 1.0), 8, 1, seed=seed)

    def test_peak_memory_is_the_trajectory_plus_one_block(self):
        # level 12, N = 200: 6.6 MB of states, blocks of 512 steps (0.8 MB)
        traj, peak = _peak_bytes(
            lambda: run_single(mf_ou(), PointMass(0.0), seed=1, level=12, n_particles=200)
        )
        assert peak < 1.5 * traj.states.nbytes


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
        blocked = em_multilevel(*args)
        whole = _whole_path_multilevel(*args)
        assert sorted(blocked) == sorted(whole)
        for lvl, traj in whole.items():
            assert blocked[lvl].states.tobytes() == traj.states.tobytes()
            assert blocked[lvl].times.tobytes() == traj.times.tobytes()

    def test_one_block_of_increments_at_a_time(self, monkeypatch):
        # N = 8, d = 2, finest 12, record level 3: 8 blocks of 2^9 finest steps
        drawn = _count_draws(monkeypatch)
        em_multilevel(mf_ou(dim=2), PointMass(0.0), seed=2, levels=[3, 4], finest=12,
                      n_particles=8, horizon=1.0)
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
        em_multilevel(mf_ou(), PointMass(0.0), seed=2, levels=[4, 3, 5], finest=12,
                      n_particles=4, horizon=1.0)
        assert reduced == [(2**9, 9), (2**9, 2), (2**2, 1), (2**1, 0)] * 8

    def test_blowup_after_first_block_names_global_grid(self):
        # x' = 30 x: level 12 passes the limit near t = 0.6 (block 4 of 8),
        # level 5 only near t = 0.85, so block order meets level 12 first
        model = mf_ou(theta=-30.0, alpha=0.0, s=0.4)
        law = GaussianLaw(0.0, 1.0)
        with pytest.raises(BlowUpError) as err:
            em_multilevel(model, law, seed=3, levels=[3, 5], finest=12, n_particles=4, horizon=1.0)
        lattice = sample_lattice(NoiseStreams(3, 4), 1, 12, 1.0)
        with pytest.raises(BlowUpError) as ref:
            em_path(model, sample_initial(law, 4, 1, seed=3), 12, lattice.increments, 1.0)
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
        # levels 3, 4 and reference 8 recorded at level 3 for N = 4, d = 2:
        # 3 * (2^3 + 1) * 4 * 2 * 8 = 1728 bytes
        args = dict(seed=0, levels=[3, 4], finest=8, n_particles=4, horizon=1.0)
        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 1728)
        runs = em_multilevel(mf_ou(dim=2), PointMass(0.0), **args)
        assert sum(traj.states.nbytes for traj in runs.values()) == 1728
        drawn = _count_draws(monkeypatch)
        monkeypatch.setattr(solver, "DEFAULT_MEMORY_CAP", 1727)
        with pytest.raises(SolverError, match="memory limit"):
            em_multilevel(mf_ou(dim=2), PointMass(0.0), **args)
        assert drawn == []

    def test_peak_memory_is_the_trajectories_plus_one_block(self):
        # levels 11 and reference 12 recorded at 11 for N = 200: 6.6 MB of
        # states, blocks of 512 finest steps (0.8 MB)
        runs, peak = _peak_bytes(
            lambda: em_multilevel(mf_ou(), PointMass(0.0), seed=1, levels=[11], finest=12,
                                  n_particles=200, horizon=1.0)
        )
        assert peak < 1.5 * sum(traj.states.nbytes for traj in runs.values())

    def test_additive_noise_zero_drift_exact_across_levels(self):
        # constant coefficients: every level reproduces x0 + s*W at shared
        # grid points up to float regrouping dust
        model = mf_ou(theta=0.0, alpha=0.0, s=0.7)
        runs = em_multilevel(model, PointMass(0.5), seed=6, levels=[2, 4], finest=6,
                             n_particles=32, horizon=1.0)
        gaps = np.abs(runs[2].states - runs[6].states)
        assert gaps.max() < 1e-14
        gaps = np.abs(runs[4].states - runs[6].states)
        assert gaps.max() < 1e-14

    def test_shared_initials_and_common_grid(self):
        model = mf_ou()
        runs = em_multilevel(model, GaussianLaw(0.0, 1.0), seed=1, levels=[2, 3], finest=6,
                             n_particles=8, horizon=1.0)
        assert set(runs) == {2, 3, 6}
        assert np.array_equal(runs[2].times, runs[3].times)
        assert np.array_equal(runs[2].times, runs[6].times)
        assert np.array_equal(runs[2].states[0], runs[6].states[0])

    def test_deterministic_error_decay_for_ode(self):
        # sigma = 0 reduces to explicit Euler: halving the step halves the error
        model = mf_ou(theta=1.0, alpha=0.0, s=0.0)
        runs = em_multilevel(model, PointMass(1.0), seed=0, levels=[2, 3], finest=10,
                             n_particles=1, horizon=1.0)
        err2 = np.abs(runs[2].states[-1] - runs[10].states[-1]).max()
        err3 = np.abs(runs[3].states[-1] - runs[10].states[-1]).max()
        assert err3 < err2
        assert err3 / err2 == pytest.approx(0.5, abs=0.1)

    def test_level_validation(self):
        model = mf_ou()
        with pytest.raises(SolverError, match="below the reference"):
            em_multilevel(model, PointMass(0.0), seed=0, levels=[4], finest=4,
                          n_particles=2, horizon=1.0)
        with pytest.raises(SolverError, match="at least one level"):
            em_multilevel(model, PointMass(0.0), seed=0, levels=[], finest=4,
                          n_particles=2, horizon=1.0)
