import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde.analysis import (
    AnalysisError,
    bihari_ode_check,
    fit_rate,
    increment_scaling,
    law_gap_curve,
    moment_curve,
    osgood_integral,
    strong_error,
)
from mvsde.measure import default_dictionary, rho_lower, rho_upper, uniform_measure
from mvsde.models import ModulusKappaEta, mf_ou, mf_ou_oracles
from mvsde.solver import (
    GaussianLaw,
    ParticleEnsemble,
    PointMass,
    NoiseStreams,
    TrajectorySet,
    em_multilevel,
    em_run,
    run_single,
    sample_initial,
    sample_lattice,
)

ETA = math.exp(-2.0)


def _make_traj(states, horizon=1.0):
    states = np.asarray(states, dtype=np.float64)
    times = np.linspace(0.0, horizon, states.shape[0])
    return TrajectorySet(times=times, states=states)


class TestFitRate:
    def test_exact_geometric(self):
        # log2 errors are (0, -1, -2) = -n + 1
        report = fit_rate([1, 2, 3], [1.0, 0.5, 0.25])
        assert abs(report.slope + 1.0) <= 1e-12
        assert abs(report.intercept - 1.0) <= 1e-12

    def test_flat(self):
        assert fit_rate([1, 2, 3], [1.0, 1.0, 1.0]).slope == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        slope=st.floats(-3.0, 3.0),
        intercept=st.floats(-5.0, 5.0),
        levels=st.lists(st.integers(0, 20), min_size=3, max_size=8, unique=True),
    )
    def test_recovers_synthetic_law(self, slope, intercept, levels):
        errors = [2.0 ** (slope * n + intercept) for n in levels]
        report = fit_rate(levels, errors)
        assert report.slope == pytest.approx(slope, abs=1e-9)
        assert report.intercept == pytest.approx(intercept, abs=1e-8)

    def test_validation(self):
        with pytest.raises(AnalysisError, match="3 levels"):
            fit_rate([1, 2], [1.0, 0.5])
        with pytest.raises(AnalysisError, match="positive"):
            fit_rate([1, 2, 3], [1.0, 0.0, 0.25])
        with pytest.raises(AnalysisError, match="distinct"):
            fit_rate([1, 1, 2], [1.0, 0.5, 0.25])


class TestStrongError:
    def test_zero_on_identical(self):
        traj = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=0, level=4, n_particles=16)
        est, se = strong_error(traj, traj)
        assert est == 0.0 and se == 0.0

    def test_additive_noise_zero_drift_is_exact(self):
        runs = em_multilevel(
            mf_ou(theta=0.0, alpha=0.0, s=0.5), PointMass(0.0), seed=1,
            levels=[3], finest=7, n_particles=64, horizon=1.0,
        )
        est, _ = strong_error(runs[7], runs[3])
        assert est < 1e-28  # float regrouping dust only

    def test_monotone_decrease_for_mf_ou(self):
        runs = em_multilevel(
            mf_ou(), GaussianLaw(0.0, 1.0), seed=2, levels=[4, 6], finest=12,
            n_particles=500, horizon=1.0,
        )
        e4, _ = strong_error(runs[12], runs[4])
        e6, _ = strong_error(runs[12], runs[6])
        assert 0.0 < e6 < e4

    def test_permutation_invariance(self):
        runs = em_multilevel(
            mf_ou(), GaussianLaw(0.0, 1.0), seed=3, levels=[3], finest=6,
            n_particles=32, horizon=1.0,
        )
        ref, coarse = runs[6], runs[3]
        perm = np.random.default_rng(0).permutation(32)
        ref_p = _make_traj(ref.states[:, perm, :])
        coarse_p = _make_traj(coarse.states[:, perm, :])
        assert strong_error(ref_p, coarse_p) == strong_error(ref, coarse)

    def test_grid_mismatch(self):
        a = _make_traj(np.zeros((5, 4, 1)))
        b = _make_traj(np.zeros((9, 4, 1)))
        with pytest.raises(AnalysisError):
            strong_error(a, b)


class TestMomentCurve:
    def test_constant_process(self):
        states = np.broadcast_to(np.array([[1.0], [2.0]]), (9, 2, 1)).copy()
        report = moment_curve(_make_traj(states), order=1)
        assert np.allclose(report.moments, 2.5, rtol=0, atol=1e-15)  # (1 + 4)/2
        assert report.dominated
        # C = 1 dominates a constant curve: 1 * (1 + m0) * e^t >= m0
        assert report.envelope_constant <= 1.0

    def test_envelope_is_smallest_up_to_bisection(self):
        report = moment_curve(
            _make_traj(np.broadcast_to(np.array([[1.0], [2.0]]), (9, 2, 1)).copy()), order=1
        )
        c = report.envelope_constant
        m0 = report.moments[0]
        shrunk = 0.99 * c
        assert (shrunk * (1 + m0) * np.exp(shrunk * report.times) < report.moments).any()

    def test_zero_process(self):
        report = moment_curve(_make_traj(np.zeros((5, 3, 1))), order=2)
        assert report.envelope_constant == 0.0
        assert report.dominated

    def test_mf_ou_matches_oracle(self):
        n = 10_000
        model = mf_ou()
        _, moment_fn = mf_ou_oracles(**model.parameters, dim=1, m0=0.0, u0=0.0)
        traj = run_single(model, PointMass(0.0), seed=5, level=10, n_particles=n,
                          horizon=1.0, record_level=5)
        report = moment_curve(traj, order=1)
        for j, t in enumerate(report.times):
            dev = abs(report.moments[j] - moment_fn(t))
            assert dev <= max(3.0 * report.stderrs[j], 1e-12)
        assert report.dominated

    def test_overflow_guidance(self):
        big = np.full((3, 2, 1), 1e200)
        with pytest.raises(AnalysisError, match="smaller"):
            moment_curve(_make_traj(big), order=2)


class TestIncrementScaling:
    def test_pure_brownian_exponent(self):
        model = mf_ou(theta=0.0, alpha=0.0, s=1.0)
        traj = run_single(model, PointMass(0.0), seed=6, level=10, n_particles=4000)
        report = increment_scaling(traj, order=1, lags=[1, 2, 4, 8, 16, 32, 64, 128])
        assert report.exponent == pytest.approx(1.0, abs=0.1)

    def test_permutation_invariance(self):
        traj = run_single(mf_ou(dim=2), GaussianLaw(0.0, 1.0), seed=4, level=8, n_particles=301)
        perm = np.random.default_rng(1).permutation(301)
        lags = [1, 3, 10, 100, 200]
        report = increment_scaling(_make_traj(traj.states), order=1, lags=lags)
        permuted = increment_scaling(_make_traj(traj.states[:, perm, :]), order=1, lags=lags)
        assert permuted.values.tobytes() == report.values.tobytes()
        assert permuted.exponent == report.exponent

    def test_degenerate_zero(self):
        traj = _make_traj(np.zeros((257, 4, 1)))
        report = increment_scaling(traj, order=1, lags=[1, 4, 16, 128])
        assert report.degenerate and report.exponent is None

    def test_lag_span_guard(self):
        traj = _make_traj(np.zeros((257, 4, 1)))
        with pytest.raises(AnalysisError, match="two decades"):
            increment_scaling(traj, order=1, lags=[1, 2, 4, 8])

    def test_nonuniform_grid_rejected(self):
        states = np.zeros((4, 2, 1))
        traj = TrajectorySet(times=np.array([0.0, 0.1, 0.5, 1.0]), states=states)
        with pytest.raises(AnalysisError, match="uniform"):
            increment_scaling(traj, order=1, lags=[1, 2, 3])


class TestOsgoodIntegral:
    def test_log_modulus_closed_form(self):
        # antiderivative of 1/(x log(1/x)) is -log log(1/x)
        kap = ModulusKappaEta(ETA)
        for eps in (1e-4, 1e-8, 1e-12):
            exact = math.log(math.log(1.0 / eps)) - math.log(math.log(1.0 / ETA))
            assert osgood_integral(kap, eps, ETA) == pytest.approx(exact, rel=1e-6)

    def test_linear_modulus_closed_form(self):
        assert osgood_integral(lambda x: x, 1e-8, 1.0) == pytest.approx(math.log(1e8), rel=1e-6)

    def test_divergence_ladder(self):
        kap = ModulusKappaEta(ETA)
        v4 = osgood_integral(kap, 1e-4, ETA)
        v8 = osgood_integral(kap, 1e-8, ETA)
        v16 = osgood_integral(kap, 1e-16, ETA)
        assert v16 > v8 > v4

    def test_crosses_knee(self):
        # piecewise integrand across the knee still integrates cleanly:
        # add the linear-branch part with its own antiderivative
        kap = ModulusKappaEta(ETA)
        a = math.log(1.0 / ETA) - 1.0
        exact_log = math.log(math.log(1.0 / 1e-6)) - math.log(math.log(1.0 / ETA))
        exact_lin = (1.0 / a) * math.log((a * 1.0 + ETA) / (a * ETA + ETA))
        assert osgood_integral(kap, 1e-6, 1.0) == pytest.approx(exact_log + exact_lin, rel=1e-6)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            osgood_integral(lambda x: x, 0.5, 0.5)
        with pytest.raises(AnalysisError, match="positive"):
            osgood_integral(lambda x: x - 1.0, 1e-3, 2.0)


class TestBihari:
    def test_zero_start_stays_zero(self):
        report = bihari_ode_check(ModulusKappaEta(ETA), scale=1.0, eps=0.0, horizon=5.0)
        assert np.all(report.path == 0.0)
        assert report.max_rel_gap == 0.0

    def test_log_modulus_closed_form(self):
        report = bihari_ode_check(ModulusKappaEta(ETA), scale=1.0, eps=1e-8, horizon=1.0)
        assert report.in_branch
        exact_final = 1e-8 ** math.exp(-1.0)
        assert report.path[-1] == pytest.approx(exact_final, rel=1e-6)
        assert report.max_rel_gap <= 1e-6

    def test_linear_modulus(self):
        report = bihari_ode_check(lambda z: z, scale=1.0, eps=1e-8, horizon=1.0)
        assert not report.in_branch
        assert report.path[-1] == pytest.approx(1e-8 * math.e, rel=1e-6)

    def test_branch_exit_flag(self):
        # starting near the knee with a long horizon leaves the log branch
        report = bihari_ode_check(ModulusKappaEta(ETA), scale=1.0, eps=0.1, horizon=10.0)
        assert not report.in_branch

    def test_validation(self):
        with pytest.raises(AnalysisError):
            bihari_ode_check(ModulusKappaEta(ETA), scale=1.0, eps=-1.0, horizon=1.0)


class TestLawGapCurve:
    def test_identical_trajectories_zero(self):
        traj = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=0, level=4, n_particles=32)
        report = law_gap_curve(traj, traj)
        assert np.all(report.upper == 0.0)
        assert np.all(report.lower == 0.0)

    def test_sandwich_everywhere(self):
        a = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, level=5, n_particles=64)
        b = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=2, level=5, n_particles=64)
        report = law_gap_curve(a, b)
        assert (report.lower <= report.upper + 1e-12).all()
        assert report.upper.max() > 0.0

    def test_fluctuation_shrinks_with_doubled_ensemble(self):
        # same law, independent seeds: the coupled gap between empirical laws
        # scales like 1/sqrt(N), so doubling N shrinks it by about 0.71
        def gap(n):
            a = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=11, level=5, n_particles=n)
            b = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=12, level=5, n_particles=n)
            return law_gap_curve(a, b).upper.mean()

        small = gap(4000)
        large = gap(8000)
        assert 0.0 < large < small
        assert 0.45 <= large / small <= 0.95

    def test_index_coupling_option(self):
        a = run_single(mf_ou(dim=2), GaussianLaw(0.0, 1.0), seed=1, level=3, n_particles=16)
        b = run_single(mf_ou(dim=2), GaussianLaw(0.0, 1.0), seed=2, level=3, n_particles=16)
        report = law_gap_curve(a, b)
        assert report.coupling == "index"

    @pytest.mark.parametrize("dim, coupling", [(1, "sorted"), (2, "index")])
    def test_equals_validated_measures(self, dim, coupling):
        # law_gap_curve skips validation; the curves are the bits of building
        # every measure with the validated uniform_measure
        a = run_single(mf_ou(dim=dim), GaussianLaw(0.0, 1.0), seed=5, level=4, n_particles=301)
        b = run_single(mf_ou(dim=dim), GaussianLaw(0.0, 1.0), seed=6, level=4, n_particles=301)
        dictionary = default_dictionary(dim)
        upper, lower = [], []
        for x, y in zip(a.states, b.states):
            mu, nu = uniform_measure(x), uniform_measure(y)
            if coupling == "sorted":
                upper.append(rho_upper(uniform_measure(np.sort(x, axis=0)), uniform_measure(np.sort(y, axis=0))))
            else:
                upper.append(rho_upper(mu, nu))
            lower.append(rho_lower(mu, nu, dictionary))
        report = law_gap_curve(a, b)
        assert report.coupling == coupling
        assert np.array_equal(report.upper, np.array(upper))
        assert np.array_equal(report.lower, np.array(lower))

    def test_shape_mismatch(self):
        a = run_single(mf_ou(), PointMass(0.0), seed=1, level=3, n_particles=8)
        b = run_single(mf_ou(), PointMass(0.0), seed=1, level=3, n_particles=16)
        with pytest.raises(AnalysisError):
            law_gap_curve(a, b)


class TestUniquenessReplay:
    def test_seed_perturbation_changes_output(self):
        base = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=3, level=4, n_particles=16)
        other = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=4, level=4, n_particles=16)
        assert base.states.tobytes() != other.states.tobytes()

    def test_initial_perturbation_controlled_by_gronwall(self):
        # one particle moved by delta: trajectories differ but the terminal
        # mean-square gap stays within the discrete Gronwall envelope
        theta, alpha, horizon, delta = 1.0, 0.5, 1.0, 1e-12
        model = mf_ou(theta=theta, alpha=alpha, s=0.4)
        n, level = 64, 6
        lat = sample_lattice(NoiseStreams(9, n), 1, level, horizon)
        ens = sample_initial(GaussianLaw(0.0, 1.0), n, 1, seed=9)
        base = em_run(model, ens, level, lat.increments, horizon)
        bumped_states = ens.states.copy()
        bumped_states[0, 0] += delta
        bumped = em_run(model, ParticleEnsemble(bumped_states), level, lat.increments, horizon)
        assert base.states.tobytes() != bumped.states.tobytes()
        gap_sq = float(np.max(np.abs(base.states[-1] - bumped.states[-1]) ** 2))
        assert gap_sq <= 10.0 * delta**2 * math.exp(2.0 * (theta + alpha) * horizon)
