"""Acceptance gates for the whole toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s -v`` to see
them all).  The criteria are asserted exactly as gated, including the two
strong-rate windows on the fitted slope of log2(squared sup error) per level:

- mf-ou, ``[-2.4, -1.6]``: the diffusion is constant, so Euler-Maruyama
  coincides with Milstein and has strong order 1 (Kloeden & Platen 1992,
  ch. 10); the squared error falls like 2^(-2n), a slope of -2.
- osgood, ``[-1.5, -0.5]``: the diffusion is state-dependent and
  non-Lipschitz, the regime of the paper's O(2^-n) bound on the squared
  error, a slope of -1 (strong order 1/2).
"""

import math
from pathlib import Path

import numpy as np
import pytest

import mvsde as M
from mvsde.cli import EXIT_OK, main

SEEDS = (101, 202, 303)
LEVELS = (3, 4, 5, 6, 7, 8)
REFERENCE = 12
ETA = math.exp(-2.0)


def _verdict(name: str, passed: bool, detail: str = "") -> bool:
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {tag}{suffix}")
    return passed


def _rate_study(model):
    out = {}
    for seed in SEEDS:
        runs = M.em_multilevel(
            model,
            M.GaussianLaw(0.0, 1.0),
            seed,
            levels=list(LEVELS),
            finest=REFERENCE,
            n_particles=2000,
            horizon=1.0,
        )
        errors = [M.strong_error(runs[REFERENCE], runs[lvl])[0] for lvl in LEVELS]
        report = M.fit_rate(LEVELS, errors)
        out[seed] = (report, errors)
    return out


@pytest.fixture(scope="module")
def mf_ou_rates():
    return _rate_study(M.mf_ou(theta=1.0, alpha=0.5, s=0.4, dim=1))


@pytest.fixture(scope="module")
def osgood_rates():
    return _rate_study(M.osgood(c=1.0, beta=0.25, s=0.3, eta=ETA))


def test_criterion_1_strong_rate_lipschitz_model(mf_ou_rates):
    """mf-ou (theta=1, alpha=0.5, s=0.4, d=1, x0 ~ N(0,1)), T=1, N=2000,
    levels 3..8 vs reference 12: fitted slope within [-2.4, -1.6] per seed.

    Additive noise gives Euler-Maruyama strong order 1, so the squared sup
    error decays with slope -2 per level; the window is centred there.  A
    level coupling that decorrelates the paths (slope near 0) or a scheme at
    order 1/2 (slope near -1) falls outside it."""
    slopes = {seed: report.slope for seed, (report, _) in mf_ou_rates.items()}
    ok = all(-2.4 <= slope <= -1.6 for slope in slopes.values())
    detail = ", ".join(f"seed {s}: slope {v:+.3f}" for s, v in slopes.items())
    _verdict("criterion 1: mf-ou strong-rate slope in [-2.4, -1.6]", ok, detail)
    assert ok, (
        f"mf-ou coupled-error slopes {detail} fall outside the [-2.4, -1.6] gate: "
        "with constant diffusion Euler-Maruyama has strong order 1, so the "
        "squared sup error should contract with slope near -2 per level"
    )


def test_criterion_2_strong_rate_non_lipschitz_model(osgood_rates):
    """osgood (c=1, beta=0.25, s=0.3, eta=e^-2), same harness: errors strictly
    decreasing and fitted slope within [-1.5, -0.5] per seed."""
    ok = True
    details = []
    for seed, (report, errors) in osgood_rates.items():
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        in_window = -1.5 <= report.slope <= -0.5
        ok = ok and monotone and in_window
        details.append(f"seed {seed}: slope {report.slope:+.3f} monotone={monotone}")
    _verdict("criterion 2: osgood errors decreasing, slope in [-1.5, -0.5]", ok, "; ".join(details))
    assert ok, "; ".join(details)


def test_criterion_3_moment_oracle():
    """mf-ou, N=10^4, p=1, x0 = 0: empirical second moment within 3 standard
    errors of the closed-form oracle everywhere; fitted envelope dominates."""
    n = 10_000
    model = M.mf_ou()
    _, moment_fn = M.models.mf_ou_oracles(**model.parameters, dim=1, m0=0.0, u0=0.0)
    traj = M.run_single(model, M.PointMass(0.0), seed=1, level=10, n_particles=n,
                        horizon=1.0, record_level=5)
    report = M.moment_curve(traj, order=1)
    oracle = np.array([moment_fn(t) for t in report.times])
    dev = np.abs(report.moments - oracle)
    within = bool(np.all(dev <= np.maximum(3.0 * report.stderrs, 1e-12)))
    converged = math.isfinite(report.envelope_constant)
    ok = within and converged and report.dominated
    worst = float(np.max(np.where(report.stderrs > 0, dev / np.maximum(report.stderrs, 1e-300), 0.0)))
    _verdict(
        "criterion 3: mf-ou second moment tracks oracle within 3 se",
        ok,
        f"max deviation {worst:.2f} se, envelope C = {report.envelope_constant:.4f}",
    )
    assert ok


def test_criterion_4_increment_scaling():
    """Pure Brownian: fitted increment exponent in [0.9, 1.1];
    mf-ou: exponent in [0.8, 1.2] (order p = 1)."""
    lags = [1, 2, 4, 8, 16, 32, 64, 128]
    brown = M.mf_ou(theta=0.0, alpha=0.0, s=1.0)
    traj = M.run_single(brown, M.PointMass(0.0), seed=1, level=10, n_particles=4000)
    exp_brown = M.increment_scaling(traj, 1, lags).exponent
    traj = M.run_single(M.mf_ou(), M.PointMass(0.0), seed=1, level=10, n_particles=4000)
    exp_ou = M.increment_scaling(traj, 1, lags).exponent
    ok = 0.9 <= exp_brown <= 1.1 and 0.8 <= exp_ou <= 1.2
    _verdict(
        "criterion 4: increment-scaling exponents",
        ok,
        f"brownian {exp_brown:.3f} in [0.9, 1.1], mf-ou {exp_ou:.3f} in [0.8, 1.2]",
    )
    assert ok


def test_criterion_5_modulus_analytic_suite():
    """Branch continuity at the knee to 1e-12 over 1000 random knees; midpoint
    concavity over 10^4 triples; value 2e^-2 at the default knee to 1e-12."""
    rng = np.random.default_rng(55)
    etas = rng.uniform(0.001, 1.0 / math.e - 0.001, size=1000)
    continuity = all(
        abs(M.kappa_eta(eta, eta) - ((math.log(1.0 / eta) - 1.0) * eta + eta)) <= 1e-12
        for eta in etas
    )
    eta3 = rng.uniform(0.01, 1.0 / math.e - 0.01, size=10_000)
    a = rng.uniform(0.0, 3.0, size=10_000)
    b = rng.uniform(0.0, 3.0, size=10_000)
    concave = all(
        M.kappa_eta(0.5 * (a[i] + b[i]), eta3[i])
        >= 0.5 * (M.kappa_eta(a[i], eta3[i]) + M.kappa_eta(b[i], eta3[i])) - 1e-12
        for i in range(10_000)
    )
    knee_exact = abs(M.kappa_eta(ETA, ETA) - 2.0 * math.exp(-2.0)) <= 1e-12
    ok = continuity and concave and knee_exact
    _verdict(
        "criterion 5: concave modulus analytic suite",
        ok,
        f"continuity={continuity}, concavity={concave}, knee value exact={knee_exact}",
    )
    assert ok


def test_criterion_6_osgood_divergence():
    """Reciprocal-modulus integral matches log log(1/eps) - log 2 to 1e-6
    relative at eps in {1e-4, 1e-8, 1e-12}, strictly increasing as eps falls."""
    kap = M.ModulusKappaEta(ETA)
    values = {}
    ok = True
    for eps in (1e-4, 1e-8, 1e-12):
        exact = math.log(math.log(1.0 / eps)) - math.log(2.0)
        values[eps] = M.osgood_integral(kap, eps, ETA)
        ok = ok and abs(values[eps] - exact) <= 1e-6 * exact
    ok = ok and values[1e-12] > values[1e-8] > values[1e-4]
    _verdict(
        "criterion 6: divergence of the reciprocal-modulus integral",
        ok,
        ", ".join(f"eps={k:g}: {v:.6f}" for k, v in values.items()),
    )
    assert ok


def test_criterion_7_comparison_ode():
    """Zero start stays identically zero; eps=1e-8, unit scale, t=1 matches
    the closed form eps**(1/e) to 1e-6 relative."""
    kap = M.ModulusKappaEta(ETA)
    zero = M.bihari_ode_check(kap, scale=1.0, eps=0.0, horizon=1.0)
    zero_ok = bool(np.all(zero.path == 0.0))
    report = M.bihari_ode_check(kap, scale=1.0, eps=1e-8, horizon=1.0)
    exact = 1e-8 ** math.exp(-1.0)
    value_ok = abs(report.path[-1] - exact) <= 1e-6 * exact
    ok = zero_ok and value_ok and report.in_branch
    _verdict(
        "criterion 7: comparison-ODE oracle",
        ok,
        f"final {report.path[-1]:.6e} vs exact {exact:.6e}",
    )
    assert ok


def test_criterion_8_determinism_across_threads(tmp_path):
    """Identical configs give byte-identical outputs across repeated runs and
    across --threads in {1, 4, 8}."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model.id = mf-ou\nsim.N = 128\nsim.T = 1.0\nsim.seed = 17\n"
        "sim.level = 5\nsim.finest = 7\nsim.record_level = 3\n"
        "init.law = gaussian\ninit.mean = 0.0\ninit.cov = 1.0\n"
    )
    blobs = []
    for label, threads in (("r1", 1), ("r2", 1), ("t4", 4), ("t8", 8)):
        out = tmp_path / label
        code = main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
        assert code == EXIT_OK
        blobs.append(
            (out / "trajectories.csv").read_bytes() + (out / "summary.txt").read_bytes()
        )
    ok = all(blob == blobs[0] for blob in blobs)
    _verdict("criterion 8: byte-identical outputs across runs and threads", ok)
    assert ok


def test_criterion_9_metric_sandwich():
    """Lower bound never exceeds the coupled upper bound on 100 random coupled
    pairs (zero gap on identical pairs); triangle inequality on 100 triples."""
    rng = np.random.default_rng(99)
    dicts = {dim: M.default_dictionary(dim) for dim in (1, 2, 3)}
    sandwich = True
    for k in range(100):
        dim = 1 + k % 3
        n = int(rng.integers(1, 9))
        a = M.EmpiricalMeasure(rng.uniform(-5, 5, (n, dim)))
        b = M.EmpiricalMeasure(rng.uniform(-5, 5, (n, dim)))
        sandwich = sandwich and (
            M.rho_lower(a, b, dicts[dim]) <= M.rho_upper(a, b) + 1e-12
        )
        sandwich = sandwich and M.rho_upper(a, a) == 0.0 and M.rho_lower(a, a, dicts[dim]) == 0.0
    triangle = True
    for k in range(100):
        dim = 1 + k % 3
        n = int(rng.integers(1, 9))
        a, b, c = (M.EmpiricalMeasure(rng.uniform(-5, 5, (n, dim))) for _ in range(3))
        triangle = triangle and (
            M.rho_upper(a, c) <= M.rho_upper(a, b) + M.rho_upper(b, c) + 1e-12
        )
    ok = sandwich and triangle
    _verdict("criterion 9: metric sandwich and triangle inequality", ok,
             f"sandwich={sandwich}, triangle={triangle}")
    assert ok
