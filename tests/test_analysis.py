import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import analysis
from mvsde.analysis import (
    AnalysisError,
    RateReport,
    _mean_se,
    bihari_ode_check,
    fit_rate,
    increment_scaling,
    law_gap_curve,
    moment_curve,
    osgood_integral,
    strong_error,
)
from mvsde.measure import default_dictionary, rho_lower, rho_upper, uniform_measure
from mvsde.models import ModulusKappaEta, mf_ou, mf_ou_oracles, osgood
from mvsde.solver import (
    GaussianLaw,
    PointMass,
    NoiseStreams,
    em_multilevel,
    run_single,
    sample_initial,
    sample_lattice,
)

from conftest import em_path, stacked

ETA = math.exp(-2.0)


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

    def test_unequal_lengths_refused(self):
        with pytest.raises(AnalysisError, match="equal length"):
            fit_rate([1, 2, 3], [1.0, 0.5])

    def test_non_finite_report_refused(self):
        # fit_rate refuses every input that would give one, so build it directly
        with pytest.raises(AnalysisError, match="non-finite coefficients"):
            RateReport(slope=math.nan, intercept=0.0)

    @pytest.mark.parametrize("bad", [1.5, math.inf, -math.inf, math.nan, 10**400, 2**60, -1])
    def test_level_not_a_finite_integer_refused(self, bad):
        with pytest.raises(AnalysisError, match=rf"finite integers in \[0, 30\], got {bad}$"):
            fit_rate([bad, 2, 3], [1.0, 0.5, 0.25])
        # an integral float or numpy integer is a level, and so are both ends
        assert fit_rate([1.0, np.int64(2), 3], [1.0, 0.5, 0.25]).slope == pytest.approx(-1.0, abs=1e-12)
        assert fit_rate([0, 1, 30], [1.0, 0.5, 2.0**-30]).slope == pytest.approx(-1.0, abs=1e-12)


class TestStrongError:
    def test_single_particle_has_zero_stderr(self):
        assert _mean_se(np.array([2.5])) == (2.5, 0.0)

    def test_zero_on_identical(self):
        _, rows = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=0, level=4, n_particles=16)
        assert strong_error(({4: row, 9: row} for row in rows), 9) == {4: (0.0, 0.0)}

    def test_additive_noise_zero_drift_is_exact(self):
        _, rows = em_multilevel(
            mf_ou(theta=0.0, alpha=0.0, s=0.5), PointMass(0.0), seed=1,
            levels=[3], finest=7, n_particles=64, horizon=1.0,
        )
        est, _ = strong_error(rows, 7)[3]
        assert est < 1e-28  # float regrouping dust only

    def test_monotone_decrease_for_mf_ou(self):
        _, rows = em_multilevel(
            mf_ou(), GaussianLaw(0.0, 1.0), seed=2, levels=[4, 6], finest=12,
            n_particles=500, horizon=1.0,
        )
        errors = strong_error(rows, 12)
        assert sorted(errors) == [4, 6]
        assert 0.0 < errors[6][0] < errors[4][0]

    def test_permutation_invariance(self):
        _, rows = em_multilevel(
            mf_ou(), GaussianLaw(0.0, 1.0), seed=3, levels=[3], finest=6,
            n_particles=32, horizon=1.0,
        )
        rows = list(rows)
        perm = np.random.default_rng(0).permutation(32)
        permuted = [{lvl: states[perm] for lvl, states in row.items()} for row in rows]
        assert strong_error(permuted, 6) == strong_error(rows, 6)

    @pytest.mark.parametrize("model", [osgood(), mf_ou(dim=2), mf_ou(dim=3)], ids=["d1", "d2", "d3"])
    def test_rows_equal_the_array_formula(self, model):
        # the running maxima give the bits of reducing the whole trajectories
        args = (model, GaussianLaw(0.0, 1.0), 7, [3, 4, 5], 9, 200, 1.0)
        _, runs = stacked(em_multilevel(*args))
        _, rows = em_multilevel(*args)
        got = strong_error(rows, 9)
        assert sorted(got) == [3, 4, 5]
        for lvl in (3, 4, 5):
            g = runs[lvl] - runs[9]
            sup_sq = np.max(np.sum(g * g, axis=2), axis=0)
            n = sup_sq.shape[0]
            mean = math.fsum(sup_sq.tolist()) / n
            se = math.sqrt(math.fsum(((sup_sq - mean) ** 2).tolist()) / (n - 1) / n)
            assert np.array(got[lvl]).tobytes() == np.array([mean, se]).tobytes()

    def test_grid_mismatch(self):
        with pytest.raises(AnalysisError, match="mismatched shapes"):
            strong_error([{3: np.zeros((5, 1)), 6: np.zeros((4, 1))}], 6)


class TestMomentCurve:
    def test_constant_process(self):
        states = np.broadcast_to(np.array([[1.0], [2.0]]), (9, 2, 1))
        report = moment_curve(np.linspace(0.0, 1.0, 9), states, order=1)
        assert np.allclose(report.moments, 2.5, rtol=0, atol=1e-15)  # (1 + 4)/2
        assert report.dominated
        # C = 1 dominates a constant curve: 1 * (1 + m0) * e^t >= m0
        assert report.envelope_constant <= 1.0

    def test_envelope_is_smallest_up_to_bisection(self):
        states = np.broadcast_to(np.array([[1.0], [2.0]]), (9, 2, 1))
        report = moment_curve(np.linspace(0.0, 1.0, 9), states, order=1)
        c = report.envelope_constant
        m0 = report.moments[0]
        shrunk = 0.99 * c
        assert (shrunk * (1 + m0) * np.exp(shrunk * report.times) < report.moments).any()

    def test_zero_process(self):
        report = moment_curve(np.linspace(0.0, 1.0, 5), np.zeros((5, 3, 1)), order=2)
        assert report.envelope_constant == 0.0
        assert report.dominated

    def test_mf_ou_matches_oracle(self):
        n = 10_000
        model = mf_ou()
        _, moment_fn = mf_ou_oracles(**model.parameters, dim=1, m0=0.0, u0=0.0)
        times, states = run_single(model, PointMass(0.0), seed=5, level=10, n_particles=n,
                                   horizon=1.0, record_level=5)
        report = moment_curve(times, states, order=1)
        for j, t in enumerate(report.times):
            dev = abs(report.moments[j] - moment_fn(t))
            assert dev <= max(3.0 * report.stderrs[j], 1e-12)
        assert report.dominated

    def test_order_below_one_refused(self):
        with pytest.raises(AnalysisError, match="at least 1, got 0"):
            moment_curve(np.linspace(0.0, 1.0, 3), np.ones((3, 2, 1)), order=0)

    def test_envelope_constant_above_one_is_bracketed(self):
        # m0 = 0 and m1 = 9, so C solves C e^C = 9; C = 1 does not dominate
        rows = np.array([[[0.0]], [[3.0]]])
        report = moment_curve(np.array([0.0, 1.0]), rows, order=1)
        c = report.envelope_constant
        assert c > 1.0 and c * math.exp(c) == pytest.approx(9.0, rel=1e-12)
        assert report.dominated

    def test_envelope_without_a_bracket_refused(self):
        # both points at t = 0: C must reach 1e100, beyond 200 doublings of 1
        rows = np.array([[[0.0]], [[1e50]]])
        with pytest.raises(AnalysisError, match="failed to bracket"):
            moment_curve(np.array([0.0, 0.0]), rows, order=1)

    def test_overflow_guidance(self):
        big = np.full((3, 2, 1), 1e200)
        with pytest.raises(AnalysisError, match="smaller"):
            moment_curve(np.linspace(0.0, 1.0, 3), big, order=2)

    def test_overflow_raised_after_the_rows(self):
        # an error that making a later row raises (a blow-up) comes first
        def failing_rows():
            yield np.full((2, 1), 1e200)
            raise RuntimeError("row 1 failed")

        with pytest.raises(RuntimeError, match="row 1 failed"):
            moment_curve(np.linspace(0.0, 1.0, 3), failing_rows(), order=2)

    def test_rows_as_they_come_equal_the_array(self):
        args = (mf_ou(dim=2), GaussianLaw(0.0, 1.0), 3, 6)
        times, states = stacked(run_single(*args, n_particles=300))
        _, rows = run_single(*args, n_particles=300)
        got, want = moment_curve(times, rows, order=2), moment_curve(times, states, order=2)
        for name in ("times", "moments", "stderrs", "envelope"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.envelope_constant == want.envelope_constant


class TestIncrementScaling:
    def test_pure_brownian_exponent(self):
        model = mf_ou(theta=0.0, alpha=0.0, s=1.0)
        _, rows = run_single(model, PointMass(0.0), seed=6, level=10, n_particles=4000)
        report = increment_scaling(rows, order=1, lags=[1, 2, 4, 8, 16, 32, 64, 128])
        assert report.exponent == pytest.approx(1.0, abs=0.1)

    def test_permutation_invariance(self):
        _, states = stacked(run_single(mf_ou(dim=2), GaussianLaw(0.0, 1.0), seed=4, level=8, n_particles=301))
        perm = np.random.default_rng(1).permutation(301)
        lags = [1, 3, 10, 100, 200]
        report = increment_scaling(states, order=1, lags=lags)
        permuted = increment_scaling(states[:, perm, :], order=1, lags=lags)
        assert permuted.values.tobytes() == report.values.tobytes()
        assert permuted.exponent == report.exponent

    def test_degenerate_zero(self):
        report = increment_scaling(np.zeros((257, 4, 1)), order=1, lags=[1, 4, 16, 128])
        assert report.degenerate and report.exponent is None

    def test_lag_span_guard(self):
        with pytest.raises(AnalysisError, match="two decades"):
            increment_scaling(np.zeros((257, 4, 1)), order=1, lags=[1, 2, 4, 8])

    @pytest.mark.parametrize(
        "lags, message",
        [([1, 128], "at least 3 distinct lags"), ([1, 1, 128], "at least 3 distinct lags"),
         ([1, 2, 257], r"lags must lie in \[1, 256\]"), ([0, 2, 128], r"lags must lie in \[1, 256\]")],
    )
    def test_lag_ladder_refused(self, lags, message):
        with pytest.raises(AnalysisError, match=message):
            increment_scaling(np.zeros((257, 4, 1)), order=1, lags=lags)

    def test_mean_increment_underflowing_to_zero_refused(self):
        # squared gaps of 1e-163 and 2e-163 underflow to 0; lag 128's does not
        states = (1e-163 * np.arange(129.0)).reshape(129, 1, 1)
        with pytest.raises(AnalysisError, match="zero mean increment"):
            increment_scaling(states, order=1, lags=[1, 2, 128])

    def test_lags_below_one_refused(self):
        # a ladder of lags below 1 passes the two-decade check and holds one
        # row; the range check refuses it
        with pytest.raises(AnalysisError, match=r"lags must lie in \[1, 256\]"):
            increment_scaling(np.zeros((257, 4, 1)), order=1, lags=[-300, -200, -2])

    @pytest.mark.parametrize("first, later", [(4, 1), (1, 4)])
    def test_rows_of_mismatched_shapes_refused(self, first, later):
        # one particle's row would broadcast against four
        rows = [np.full((first, 1), 0.0), *(np.full((later, 1), float(j)) for j in range(1, 200))]
        with pytest.raises(AnalysisError, match="mismatched shapes"):
            increment_scaling(rows, order=1, lags=[1, 2, 128])

    def test_no_rows_refused(self):
        with pytest.raises(AnalysisError, match=r"lags must lie in \[1, -1\]"):
            increment_scaling(iter(()), order=1, lags=[1, 2, 128])

    def test_error_making_a_row_comes_before_the_lag_range(self):
        # two rows are too few for lag 128, but making the third fails first
        def failing_rows():
            yield np.zeros((2, 1))
            yield np.ones((2, 1))
            raise RuntimeError("row 2 failed")

        with pytest.raises(RuntimeError, match="row 2 failed"):
            increment_scaling(failing_rows(), order=1, lags=[1, 2, 128])

    def test_rows_peak_below_the_trajectory(self):
        # level 10, N = 1,000: an 8.2 MB trajectory drawn in two 4.1 MB blocks;
        # the rows held are the last 129, about 1 MB
        tracemalloc.start()
        try:
            times, rows = run_single(mf_ou(), PointMass(0.0), seed=2, level=10, n_particles=1000)
            increment_scaling(rows, order=1, lags=[1, 2, 4, 8, 16, 32, 64, 128])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trajectory = len(times) * 1000 * 8
        lag_one_gaps = (len(times) - 1) * 1000 * 8
        assert peak < 0.5 * (trajectory + lag_one_gaps), peak

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_refused(self, order):
        # order 0 would fit the all-ones curve to exponent 0 without complaint
        _, states = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, level=8, n_particles=50)
        with pytest.raises(AnalysisError, match="at least 1"):
            increment_scaling(states, order=order, lags=[1, 2, 4, 128])


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

    @pytest.mark.parametrize("eps, upper", [
        (5e-324, 0.1),  # 1/eps overflows
        (1e-310, 0.1),
        (math.nan, 0.1),
        (1e-3, math.inf),
        (1e-3, math.nan),
    ])
    def test_outside_domain_refused(self, eps, upper):
        with pytest.raises(AnalysisError, match="need 0 < eps < upper"):
            osgood_integral(ModulusKappaEta(), eps, upper)


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

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_start_refused(self, eps):
        with pytest.raises(AnalysisError, match="initial value"):
            bihari_ode_check(ModulusKappaEta(ETA), scale=1.0, eps=eps, horizon=1.0)

    @pytest.mark.parametrize("scale, horizon", [
        (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, 0.0),
    ])
    def test_scale_or_horizon_outside_domain_refused(self, scale, horizon):
        with pytest.raises(AnalysisError, match="need finite horizon"):
            bihari_ode_check(ModulusKappaEta(ETA), scale=scale, eps=1e-8, horizon=horizon)


class TestLawGapCurve:
    def test_identical_trajectories_zero(self):
        times, states = stacked(run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=0, level=4, n_particles=32))
        report = law_gap_curve(times, states, states)
        assert np.all(report.upper == 0.0)
        assert np.all(report.lower == 0.0)

    def test_sandwich_everywhere(self):
        times, a = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, level=5, n_particles=64)
        _, b = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=2, level=5, n_particles=64)
        report = law_gap_curve(times, a, b)
        assert (report.lower <= report.upper + 1e-12).all()
        assert report.upper.max() > 0.0

    def test_fluctuation_shrinks_with_doubled_ensemble(self):
        # same law, independent seeds: the coupled gap between empirical laws
        # scales like 1/sqrt(N), so doubling N shrinks it by about 0.71
        def gap(n):
            times, a = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=11, level=5, n_particles=n)
            _, b = run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=12, level=5, n_particles=n)
            return law_gap_curve(times, a, b).upper.mean()

        small = gap(4000)
        large = gap(8000)
        assert 0.0 < large < small
        assert 0.45 <= large / small <= 0.95

    def test_index_coupling_option(self):
        times, a = run_single(mf_ou(dim=2), GaussianLaw(0.0, 1.0), seed=1, level=3, n_particles=16)
        _, b = run_single(mf_ou(dim=2), GaussianLaw(0.0, 1.0), seed=2, level=3, n_particles=16)
        report = law_gap_curve(times, a, b)
        assert report.coupling == "index"

    @pytest.mark.parametrize("dim, coupling", [(1, "sorted"), (2, "index")])
    def test_equals_validated_measures(self, dim, coupling):
        # law_gap_curve skips validation; the curves are the bits of building
        # every measure with the validated uniform_measure
        times, a = stacked(run_single(mf_ou(dim=dim), GaussianLaw(0.0, 1.0), seed=5, level=4, n_particles=301))
        _, b = stacked(run_single(mf_ou(dim=dim), GaussianLaw(0.0, 1.0), seed=6, level=4, n_particles=301))
        dictionary = default_dictionary(dim)
        upper, lower = [], []
        for x, y in zip(a, b):
            mu, nu = uniform_measure(x), uniform_measure(y)
            if coupling == "sorted":
                upper.append(rho_upper(uniform_measure(np.sort(x, axis=0)), uniform_measure(np.sort(y, axis=0))))
            else:
                upper.append(rho_upper(mu, nu))
            lower.append(rho_lower(mu, nu, dictionary))
        report = law_gap_curve(times, a, b)
        assert report.coupling == coupling
        assert np.array_equal(report.upper, np.array(upper))
        assert np.array_equal(report.lower, np.array(lower))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_as_they_come_equal_the_array(self, dim):
        def run(seed):
            return run_single(mf_ou(dim=dim), GaussianLaw(0.0, 1.0), seed=seed, level=4, n_particles=64)

        times, a = stacked(run(5))
        _, b = stacked(run(6))
        whole = law_gap_curve(times, a, b)
        for streamed in (law_gap_curve(times, iter(a), iter(b)), law_gap_curve(times, run(5)[1], run(6)[1])):
            assert streamed.upper.tobytes() == whole.upper.tobytes()
            assert streamed.lower.tobytes() == whole.lower.tobytes()
            assert streamed.coupling == whole.coupling

    def test_reads_a_and_b_in_lockstep(self):
        times, a = stacked(run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, level=2, n_particles=8))
        _, b = stacked(run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=2, level=2, n_particles=8))
        reads = []

        def rows(name, states):
            for j, row in enumerate(states):
                reads.append(f"{name}{j}")
                yield row

        law_gap_curve(times, rows("a", a), rows("b", b))
        assert reads == [f"{name}{j}" for j in range(2**2 + 1) for name in "ab"]

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_row_count_other_than_the_times_refused(self, extra):
        # a short or long a or b is refused, naming both counts
        times, a = stacked(run_single(mf_ou(), PointMass(0.0), seed=1, level=3, n_particles=8))
        rows = [*a, a[-1]] if extra > 0 else a[:-1]
        with pytest.raises(AnalysisError, match=f"^a has 9 rows and b has {9 + extra} for 9 record times$"):
            law_gap_curve(times, a, iter(rows))
        with pytest.raises(AnalysisError, match=f"^a has {9 + extra} rows and b has 9 for 9 record times$"):
            law_gap_curve(times, iter(rows), a)
        with pytest.raises(AnalysisError, match="^a has 9 rows and b has 8 for 8 record times$"):
            law_gap_curve(times[:-1], a, a[:-1])

    def test_sandwich_violation_raised_after_the_rows(self, monkeypatch):
        # a violation at t = 0 waits for the stream, so an error that making
        # a later row raises comes first
        times, a = stacked(run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=1, level=3, n_particles=8))
        monkeypatch.setattr(analysis, "rho_lower", lambda mu, nu, dictionary: 1e9)

        def failing_rows():
            yield from a[:4]
            raise RuntimeError("row 4 failed")

        with pytest.raises(RuntimeError, match="row 4 failed"):
            law_gap_curve(times, a, failing_rows())
        with pytest.raises(AnalysisError, match="metric sandwich violated at t=0:"):
            law_gap_curve(times, a, a)

    def test_shape_mismatch(self):
        times, a = run_single(mf_ou(), PointMass(0.0), seed=1, level=3, n_particles=8)
        _, b = run_single(mf_ou(), PointMass(0.0), seed=1, level=3, n_particles=16)
        with pytest.raises(AnalysisError, match="mismatched shapes"):
            law_gap_curve(times, a, b)


class TestUniquenessReplay:
    def test_seed_perturbation_changes_output(self):
        _, base = stacked(run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=3, level=4, n_particles=16))
        _, other = stacked(run_single(mf_ou(), GaussianLaw(0.0, 1.0), seed=4, level=4, n_particles=16))
        assert base.tobytes() != other.tobytes()

    def test_initial_perturbation_controlled_by_gronwall(self):
        # one particle moved by delta: trajectories differ but the terminal
        # mean-square gap stays within the discrete Gronwall envelope
        theta, alpha, horizon, delta = 1.0, 0.5, 1.0, 1e-12
        model = mf_ou(theta=theta, alpha=alpha, s=0.4)
        n, level = 64, 6
        lat = sample_lattice(NoiseStreams(9, n), 1, level, horizon)
        initial = sample_initial(GaussianLaw(0.0, 1.0), n, 1, seed=9)
        _, base = em_path(model, initial, level, lat.increments, horizon)
        bumped_states = initial.copy()
        bumped_states[0, 0] += delta
        _, bumped = em_path(model, bumped_states, level, lat.increments, horizon)
        assert base.tobytes() != bumped.tobytes()
        gap_sq = float(np.max(np.abs(base[-1] - bumped[-1]) ** 2))
        assert gap_sq <= 10.0 * delta**2 * math.exp(2.0 * (theta + alpha) * horizon)
