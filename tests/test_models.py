import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mvsde.measure import rho_upper, uniform_measure
from mvsde.models import (
    MEASURE_TERM,
    CoefficientModel,
    ModelError,
    ModulusKappaEta,
    _diffusion_matrix,
    check_h2prime,
    check_linear_growth,
    gamma_log,
    kappa_eta,
    make_model,
    mf_ou,
    mf_ou_oracles,
    osgood,
    quadratic_drift_fixture,
    sznitman,
)

from conftest import random_coupled_pair

ETA = math.exp(-2.0)


class TestKappaEta:
    def test_zero(self):
        assert kappa_eta(0.0, ETA) == 0.0

    def test_knee_value(self):
        # evaluate x*log(1/x) at the branch point x = e^-2
        assert kappa_eta(ETA, ETA) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)

    def test_linear_branch_value(self):
        # (log(1/eta) - 1)*1 + eta at eta = e^-2
        assert kappa_eta(1.0, ETA) == pytest.approx(1.0 + math.exp(-2.0), abs=1e-15)

    def test_branch_continuity_random_eta(self):
        rng = np.random.default_rng(1)
        etas = rng.uniform(0.001, 1.0 / math.e - 0.001, size=1000)
        for eta in etas:
            log_side = eta * math.log(1.0 / eta)
            lin_side = (math.log(1.0 / eta) - 1.0) * eta + eta
            assert abs(log_side - lin_side) <= 1e-12
            assert abs(kappa_eta(eta, eta) - lin_side) <= 1e-12

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(2)
        eta = rng.uniform(0.01, 1.0 / math.e - 0.01, size=10_000)
        a = rng.uniform(0.0, 3.0, size=10_000)
        b = rng.uniform(0.0, 3.0, size=10_000)
        for i in range(10_000):
            mid = kappa_eta(0.5 * (a[i] + b[i]), eta[i])
            avg = 0.5 * (kappa_eta(a[i], eta[i]) + kappa_eta(b[i], eta[i]))
            assert mid >= avg - 1e-12

    def test_strictly_increasing(self):
        xs = np.linspace(0.0, 2.0, 2001)
        vals = kappa_eta(xs, ETA)
        assert (np.diff(vals) > 0).all()

    def test_dominates_square_log(self):
        # x^2 log(1/x) <= kappa(x^2): equal to the log-branch formula below the
        # knee (kappa(x^2) = x^2 log(1/x^2) = 2 x^2 log(1/x)) and the linear
        # branch dominates beyond it
        xs = np.linspace(1e-6, 2.0, 4001)
        lhs = xs**2 * np.log(1.0 / xs)
        rhs = kappa_eta(xs**2, ETA)
        assert (lhs <= rhs + 1e-15).all()
        below = xs**2 <= ETA
        branch = xs[below] ** 2 * np.log(1.0 / xs[below] ** 2)
        assert np.allclose(rhs[below], branch, rtol=0, atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ModelError):
            kappa_eta(1.0, 0.5)  # eta >= 1/e
        with pytest.raises(ModelError):
            kappa_eta(1.0, 0.0)
        with pytest.raises(ModelError):
            kappa_eta(-1e-9, ETA)

    def test_nan_refused_inf_kept(self):
        # NaN is not a nonnegative argument: refused, not mapped to 0.0
        for bad in (math.nan, [math.nan, 0.1], np.array([[0.2], [math.nan]])):
            with pytest.raises(ModelError, match="nonnegative"):
                kappa_eta(bad, ETA)
        assert kappa_eta(math.inf, ETA) == math.inf
        assert kappa_eta([0.0, math.inf], ETA).tolist() == [0.0, math.inf]

    def test_callable_wrapper(self):
        kap = ModulusKappaEta(ETA)
        assert kap(0.01) == kappa_eta(0.01, ETA)
        with pytest.raises(ModelError):
            ModulusKappaEta(0.9)


class TestGammaLog:
    def test_values(self):
        assert gamma_log(math.exp(-3.0)) == pytest.approx(3.0)
        assert gamma_log(0.5) == 1.0  # bounded on [1/e, inf)
        assert gamma_log(10.0) == 1.0

    def test_domain(self):
        with pytest.raises(ModelError):
            gamma_log(0.0)


class TestCatalogEvaluation:
    def test_mf_ou_drift_examples(self):
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=1)
        assert model.drift(np.array([[0.0]]), uniform_measure([[0.0]]))[0] == pytest.approx(0.0)
        assert model.drift(np.array([[1.0]]), uniform_measure([[0.0]]))[0, 0] == pytest.approx(-1.0)
        assert model.drift(np.array([[0.0]]), uniform_measure([[2.0]]))[0, 0] == pytest.approx(1.0)

    def test_mf_ou_diffusion_constant(self):
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=1)
        assert np.array_equal(_diffusion_matrix(model, np.array([[3.0]]), uniform_measure([[0.0]]))[0], [[0.4]])
        degenerate = mf_ou(s=0.0)
        assert np.array_equal(_diffusion_matrix(degenerate, np.array([[3.0]]), uniform_measure([[0.0]]))[0], [[0.0]])

    def test_osgood_vanishes_at_origin(self):
        model = osgood()
        assert np.array_equal(_diffusion_matrix(model, np.array([[0.0]]), uniform_measure([[0.0]]))[0], [[0.0]])
        assert model.drift(np.array([[0.0]]), uniform_measure([[0.0]]))[0, 0] == 0.0

    def test_osgood_drift_closed_form(self):
        # independent statement of the drift: -c * sign(x) * kappa(|x|) + beta * mean
        model = osgood(c=1.3, beta=0.25, s=0.3, eta=ETA)
        mu = uniform_measure(np.array([[0.2], [0.8]]))
        for x in (-2.0, -0.1, 0.05, ETA, 0.9):
            expected = -1.3 * math.copysign(kappa_eta(abs(x), ETA), x) + 0.25 * 0.5
            assert model.drift(np.array([[x]]), mu)[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_osgood_diffusion_closed_form(self):
        model = osgood(c=1.0, beta=0.25, s=0.3, eta=ETA)
        mu = uniform_measure([[0.0]])
        for x in (1e-4, 0.05, ETA):
            expected = 0.3 * x * math.sqrt(math.log(1.0 / x))
            assert _diffusion_matrix(model, np.array([[x]]), mu)[0, 0, 0] == pytest.approx(expected, rel=1e-14)
            assert _diffusion_matrix(model, np.array([[-x]]), mu)[0, 0, 0] == pytest.approx(-expected, rel=1e-14)
        # constant-slope continuation beyond the knee
        log_eta = math.log(1.0 / ETA)
        slope = math.sqrt(log_eta) - 0.5 / math.sqrt(log_eta)
        expected = 0.3 * (ETA * math.sqrt(log_eta) + slope * (0.9 - ETA))
        assert _diffusion_matrix(model, np.array([[0.9]]), mu)[0, 0, 0] == pytest.approx(expected, rel=1e-14)

    def test_sznitman_drift(self):
        model = sznitman(s=0.4, dim=2)
        mu = uniform_measure(np.array([[1.0, 0.0], [3.0, 2.0]]))
        out = model.drift(np.array([[1.0, 1.0]]), mu)[0]
        assert out == pytest.approx([1.0, 0.0])


def _masked_kappa(r, eta):
    # reference: kappa_eta as a masked formula
    out = np.where(r > eta, (math.log(1.0 / eta) - 1.0) * r + eta, 0.0)
    inner = (r > 0) & (r <= eta)
    out[inner] = r[inner] * (-np.log(r[inner]))
    return out


def _masked_sqrtlog(r, eta):
    # reference: the osgood diffusion profile as a masked formula
    log_eta = math.log(1.0 / eta)
    knee_val = eta * math.sqrt(log_eta)
    knee_slope = math.sqrt(log_eta) - 0.5 / math.sqrt(log_eta)
    out = np.where(r > eta, knee_val + knee_slope * (r - eta), 0.0)
    inner = (r > 0) & (r <= eta)
    out[inner] = r[inner] * np.sqrt(-np.log(r[inner]))
    return out


class TestOsgoodKernels:
    # bytes, not values: np.array_equal would let -0.0 pass for 0.0
    def test_match_masked_formulas_bytewise(self, rng):
        for batch in range(200):
            c, beta, s = rng.uniform(0.1, 3.0, 3)
            eta = rng.uniform(0.001, 1.0 / math.e - 0.001)
            model = osgood(c=c, beta=beta, s=s, eta=eta)
            special = [0.0, -0.0, eta, -eta, np.nextafter(eta, 1.0), np.nextafter(eta, -1.0),
                       -np.nextafter(eta, 1.0), 5e-324, -5e-324]
            scale = 10.0 ** rng.uniform(-8.0, math.log10(30.0))
            x = np.concatenate([scale * rng.standard_normal(rng.integers(1, 300)), special])[:, None]
            dw = rng.standard_normal(x.shape)
            # every fourth law is symmetric, so its mean is exactly 0
            support = np.concatenate([x, -x]) if batch % 4 == 0 else x
            mu = uniform_measure(support)
            r = np.abs(x)
            want_drift = -c * (np.sign(x) * _masked_kappa(r, eta)) + beta * mu.mean[None, :]
            want_noise = s * np.sign(x) * _masked_sqrtlog(r, eta) * dw
            assert model.drift(x, mu).tobytes() == want_drift.tobytes()
            assert model.diffusion_apply(x, mu, dw).tobytes() == want_noise.tobytes()
            assert kappa_eta(r, eta).tobytes() == _masked_kappa(r, eta).tobytes()
            assert kappa_eta(-0.0, eta) == 0.0 and math.copysign(1.0, kappa_eta(-0.0, eta)) == 1.0


class TestMakeModel:
    def test_catalog_ids(self):
        assert make_model("mf-ou", dim=2, params={"theta": 2.0}).parameters["theta"] == 2.0
        assert make_model("osgood").model_id == "osgood"
        assert make_model("sznitman", dim=3).dim == 3
        assert make_model("x2-fixture").model_id == "x2-fixture"

    def test_unknown_id(self):
        with pytest.raises(ModelError, match="unknown model id"):
            make_model("nope")

    def test_unknown_parameter(self):
        with pytest.raises(ModelError, match="unknown parameter"):
            make_model("mf-ou", params={"gamma": 1.0})

    def test_fixed_dimension(self):
        with pytest.raises(ModelError, match="1-dimensional"):
            make_model("osgood", dim=2)


class TestOracles:
    def test_mean_curve(self):
        mean_fn, _ = mf_ou_oracles(theta=1.0, alpha=0.5, s=0.4, dim=1, m0=2.0, u0=4.0)
        for t in (0.0, 0.3, 1.0):
            assert mean_fn(t)[0] == pytest.approx(2.0 * math.exp(-0.5 * t), rel=1e-14)

    def test_second_moment_against_fine_ode(self):
        # dual route: closed form vs direct integration of
        # u' = -2 theta u + 2 alpha |m(t)|^2 + s^2 d
        theta, alpha, s, dim = 1.0, 0.5, 0.4, 2
        m0, u0 = np.array([0.5, -1.0]), 2.0
        mean_fn, moment_fn = mf_ou_oracles(theta, alpha, s, dim, m0, u0)

        def rhs(t, u):
            m = float(np.dot(mean_fn(t), mean_fn(t)))
            return -2.0 * theta * u + 2.0 * alpha * m + s * s * dim

        sol = solve_ivp(rhs, (0.0, 2.0), [u0], rtol=1e-11, atol=1e-13, dense_output=True)
        for t in (0.1, 0.5, 1.0, 2.0):
            assert moment_fn(t) == pytest.approx(float(sol.sol(t)[0]), rel=1e-8)

    def test_zero_theta_limit(self):
        _, moment_fn = mf_ou_oracles(theta=0.0, alpha=0.0, s=1.0, dim=1, m0=0.0, u0=0.0)
        assert moment_fn(2.0) == pytest.approx(2.0, rel=1e-14)


class TestPairwiseBounds:
    def test_mf_ou_global_lipschitz(self, rng):
        # |b(x1,mu1) - b(x2,mu2)| <= (theta + alpha) * (|dx| + coupled upper bound)
        theta, alpha = 1.0, 0.5
        model = mf_ou(theta=theta, alpha=alpha, s=0.4, dim=2)
        for _ in range(400):
            mu1, mu2 = random_coupled_pair(rng, int(rng.integers(1, 7)), 2)
            x1 = rng.uniform(-5, 5, size=2)
            x2 = rng.uniform(-5, 5, size=2)
            db = model.drift(x1[None], mu1)[0] - model.drift(x2[None], mu2)[0]
            bound = (theta + alpha) * (np.linalg.norm(x1 - x2) + rho_upper(mu1, mu2))
            assert np.linalg.norm(db) <= bound + 1e-12

    def test_osgood_one_sided_h2_bound(self, rng):
        # 2<dx, db> + |dsigma|^2 <= C * (kappa(|dx|^2) + kappa(rho_bar^2)),
        # with the coupled upper bound standing in for the law metric; the
        # fitted C must be stable between the two halves of the sample ladder
        model = osgood(c=1.0, beta=0.25, s=0.3, eta=ETA)
        kap = ModulusKappaEta(ETA)
        deltas = np.geomspace(1.0, 1e-8, 10_000)
        ratios = np.empty(deltas.size)
        for i, delta in enumerate(deltas):
            scale = 1.0 if i % 2 == 0 else delta
            x1 = scale * rng.uniform(-1, 1, size=1)
            x2 = x1 + delta * rng.choice([-1.0, 1.0])
            mu1, mu2 = random_coupled_pair(rng, 4, 1, scale=1.0)
            rho_bar = rho_upper(mu1, mu2)
            db = model.drift(x2[None], mu1)[0] - model.drift(x1[None], mu1)[0]
            dsig = _diffusion_matrix(model, x2[None], mu2)[0] - _diffusion_matrix(model, x1[None], mu1)[0]
            lhs = 2.0 * float(np.dot(x2 - x1, db)) + float(np.sum(dsig * dsig))
            den = kap(float(np.dot(x2 - x1, x2 - x1))) + kap(rho_bar * rho_bar)
            ratios[i] = max(lhs, 0.0) / den
        half = deltas.size // 2
        assert np.isfinite(ratios).all()
        assert ratios[half:].max() <= 2.0 * ratios[:half].max() + 1e-12


def _infinite_drift_fixture(where) -> CoefficientModel:
    """Drift inf on the states where ``where(|x|)`` holds, else 0; unit noise."""
    def drift(states, mu):
        return np.where(where(np.linalg.norm(states, axis=1, keepdims=True)), np.inf, 0.0)

    return CoefficientModel(model_id="inf-fixture", dim=1, drift=drift,
                            diffusion_apply=lambda states, mu, dw: dw, moduli=(gamma_log, gamma_log))


def test_model_dimension_below_one_refused():
    with pytest.raises(ModelError, match="dimension must be positive, got 0"):
        CoefficientModel(model_id="m", dim=0, drift=lambda x, mu: x, diffusion_apply=lambda x, mu, dw: dw)


class TestCheckLinearGrowth:
    def test_non_finite_ratio_fails_at_once(self):
        report = check_linear_growth(_infinite_drift_fixture(lambda r: r > 100.0), seed=0)
        assert not report.passed and report.fitted_l1 == math.inf
        assert report.failure.startswith("non-finite ratio at sample")

    def test_mf_ou_passes_within_symbolic_bound(self):
        # |b|^2 + |sigma|^2 <= 2 theta^2 |x|^2 + 2 alpha^2 lambda2 + s^2 d
        # gives the analytic constant max(2 theta^2, 2 alpha^2, s^2 d)
        model = mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=1)
        report = check_linear_growth(model, seed=0)
        assert report.passed
        assert report.fitted_l1 <= max(2.0 * 1.0**2, 2.0 * 0.5**2, 0.4**2) + 1e-9

    def test_osgood_and_sznitman_pass(self):
        assert check_linear_growth(osgood(), seed=1).passed
        assert check_linear_growth(sznitman(dim=2), seed=1).passed

    def test_quadratic_drift_fails(self):
        report = check_linear_growth(quadratic_drift_fixture(), seed=0)
        assert not report.passed
        second, first = map(float, re.search(r"max (\S+) on .* vs (\S+) on", report.failure).groups())
        assert second > 2.0 * first
        assert "scale ladder" in report.failure

    def test_zero_model_passes_with_tiny_constant(self):
        zero = mf_ou(theta=0.0, alpha=0.0, s=0.0)
        report = check_linear_growth(zero, seed=0)
        assert report.passed
        assert report.fitted_l1 == 0.0


class TestCheckH2Prime:
    def test_non_finite_ratio_fails_at_once(self):
        report = check_h2prime(_infinite_drift_fixture(lambda r: r < 1e-6), seed=0)
        assert not report.passed
        assert report.fitted_lambda1 == report.fitted_lambda2 == math.inf
        assert report.failure.startswith("non-finite ratio at sample")

    def test_osgood_passes(self):
        report = check_h2prime(osgood(), seed=0)
        assert report.passed
        assert MEASURE_TERM == "upper-bound surrogate"
        assert math.isfinite(report.fitted_lambda1) and math.isfinite(report.fitted_lambda2)

    def test_mf_ou_passes_with_unit_modulus(self):
        report = check_h2prime(mf_ou(), seed=0)
        assert report.passed
        # Lipschitz drift: fitted constant at most theta + alpha
        assert report.fitted_lambda1 <= 1.5 + 1e-9

    def test_sqrt_drift_fails_near_zero_separation(self):
        sqrt_model = CoefficientModel(
            model_id="sqrt-fixture",
            dim=1,
            drift=lambda states, mu: np.sqrt(np.abs(states)),
            diffusion_apply=lambda states, mu, dw: np.zeros_like(dw),
            moduli=(gamma_log, gamma_log),
        )
        report = check_h2prime(sqrt_model, seed=0)
        assert not report.passed
        first, second = map(float, re.search(r"drift (\S+) -> (\S+),", report.failure).groups())
        assert second > 2.0 * first

    def test_requires_declared_class(self):
        with pytest.raises(ModelError, match="continuity class"):
            check_h2prime(quadratic_drift_fixture())
