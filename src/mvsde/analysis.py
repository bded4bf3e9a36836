"""Trajectory diagnostics: strong-error curves and rates, moment and
increment-scaling envelopes, Osgood-integral and comparison-ODE oracles, and
coupled-law metric curves.

Estimates come with Monte-Carlo standard errors from per-particle statistics;
rate verdicts are decay exponents fitted on log2 error curves, since the
constants in the underlying bounds are existential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import EmpiricalMeasure, default_dictionary, exact_sum, rho_lower, rho_upper

# unused here: the benchmark's tracer (mvbench/spans.py) patches
# analysis.uniform_measure by name, so the name must resolve in this module
from .measure import uniform_measure  # noqa: F401
from .models import ModulusKappaEta
from .solver import TrajectorySet

__all__ = [
    "AnalysisError",
    "RateReport",
    "strong_error",
    "fit_rate",
    "MomentReport",
    "moment_curve",
    "IncrementReport",
    "increment_scaling",
    "osgood_integral",
    "BihariReport",
    "bihari_ode_check",
    "SANDWICH_RTOL",
    "LawGapReport",
    "law_gap_curve",
]


class AnalysisError(ValueError):
    pass


def _mean_se(per_particle: np.ndarray) -> tuple[float, float]:
    """Exactly rounded mean and its standard error (permutation invariant)."""
    n = per_particle.shape[0]
    mean = exact_sum(per_particle) / n
    if n < 2:
        return mean, 0.0
    var = exact_sum((per_particle - mean) ** 2) / (n - 1)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# strong error and rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise AnalysisError("rate fit produced non-finite coefficients")


def strong_error(ref: TrajectorySet, coarse: TrajectorySet) -> tuple[float, float]:
    """Mean over particles of the squared sup gap along the record grid.

    Requires synchronously coupled inputs on a common record grid; the
    standard error is the per-particle sample deviation over sqrt(N).
    """
    if ref.n_particles != coarse.n_particles or ref.dim != coarse.dim:
        raise AnalysisError("trajectory sets have mismatched particle count or dimension")
    if not np.array_equal(ref.times, coarse.times):
        raise AnalysisError("trajectory sets are recorded on different grids")
    gaps = coarse.states - ref.states
    sup_sq = np.max(np.sum(gaps * gaps, axis=2), axis=0)
    return _mean_se(sup_sq)


#: levels a rate fit needs at least; a rate config is refused with fewer
MIN_RATE_LEVELS = 3


def fit_rate(levels, errors) -> RateReport:
    """Ordinary least squares of log2(error) on the level index."""
    levels = [int(v) for v in levels]
    errors = [float(e) for e in errors]
    if len(levels) != len(errors):
        raise AnalysisError("levels and errors must have equal length")
    if len(levels) < MIN_RATE_LEVELS:
        raise AnalysisError(f"need at least {MIN_RATE_LEVELS} levels to fit a rate, got {len(levels)}")
    if len(set(levels)) != len(levels):
        raise AnalysisError("levels must be distinct")
    if any(not (e > 0 and math.isfinite(e)) for e in errors):
        raise AnalysisError("errors must be positive and finite to take logs")
    slope, intercept = np.polyfit(np.asarray(levels, dtype=np.float64), np.log2(errors), 1)
    return RateReport(slope=float(slope), intercept=float(intercept))


# ---------------------------------------------------------------------------
# moment curves and increment scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    times: np.ndarray
    moments: np.ndarray
    stderrs: np.ndarray
    envelope_constant: float
    envelope: np.ndarray

    @property
    def dominated(self) -> bool:
        return bool(np.all(self.envelope >= self.moments))


def moment_curve(traj: TrajectorySet, order: int = 1) -> MomentReport:
    """Per record point: ensemble average of |X|^(2p) with standard error,
    plus the smallest C >= 0 such that C*(1 + m_0)*exp(C*t) dominates the
    whole empirical curve (m_0 = empirical moment at t = 0)."""
    if order < 1:
        raise AnalysisError(f"moment order must be at least 1, got {order}")
    with np.errstate(over="ignore"):
        sq = np.sum(traj.states**2, axis=2)
        vals = sq**order
    if not np.isfinite(vals).all():
        raise AnalysisError(f"overflow computing |X|^{2 * order}; use a smaller moment order")
    pairs = [_mean_se(vals[j]) for j in range(vals.shape[0])]
    moments = np.array([p[0] for p in pairs])
    stderrs = np.array([p[1] for p in pairs])
    m0 = float(moments[0])
    times = traj.times

    def dominates(c: float) -> bool:
        with np.errstate(over="ignore"):
            env = c * (1.0 + m0) * np.exp(c * times)
        return bool(np.all(env >= moments))

    if np.all(moments == 0.0):
        fitted = 0.0
    else:
        hi = 1.0
        for _ in range(200):
            if dominates(hi):
                break
            hi *= 2.0
        else:
            raise AnalysisError("moment envelope fit failed to bracket a constant")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dominates(mid):
                hi = mid
            else:
                lo = mid
        fitted = hi
    with np.errstate(over="ignore"):
        envelope = fitted * (1.0 + m0) * np.exp(fitted * times)
    return MomentReport(
        times=times,
        moments=moments,
        stderrs=stderrs,
        envelope_constant=fitted,
        envelope=envelope,
    )


@dataclass(frozen=True)
class IncrementReport:
    exponent: float | None
    values: np.ndarray
    degenerate: bool = False


def increment_scaling(traj: TrajectorySet, order: int, lags) -> IncrementReport:
    """Regress log E|X_t - X_s|^(2p) on log(t - s) over a ladder of lags.

    Lags are record-grid index offsets and must span at least two decades;
    each lag's expectation pools all equal-lag windows and all particles.
    An all-zero increment field is reported as degenerate instead of fitted.
    """
    lags = sorted(set(int(v) for v in lags))
    if len(lags) < 3:
        raise AnalysisError("need at least 3 distinct lags")
    if lags[0] < 1 or lags[-1] >= traj.times.shape[0]:
        raise AnalysisError(f"lags must lie in [1, {traj.times.shape[0] - 1}]")
    steps = np.diff(traj.times)
    if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
        raise AnalysisError("record grid must be uniform for increment scaling")
    if lags[-1] < 100 * lags[0]:
        raise AnalysisError("lag ladder must span at least two decades")
    dt = float(traj.times[1] - traj.times[0])
    values = np.empty(len(lags))
    for k, lag in enumerate(lags):
        gaps = traj.states[lag:] - traj.states[:-lag]
        sq = np.sum(gaps * gaps, axis=2) ** order
        values[k] = exact_sum(sq) / sq.size
    lag_times = np.asarray(lags, dtype=np.float64) * dt
    if np.all(values == 0.0):
        return IncrementReport(exponent=None, values=values, degenerate=True)
    if (values <= 0.0).any():
        raise AnalysisError("some lags have zero mean increment; cannot take logs")
    slope, _ = np.polyfit(np.log(lag_times), np.log(values), 1)
    return IncrementReport(exponent=float(slope), values=values)


# ---------------------------------------------------------------------------
# Osgood integral and comparison ODE
# ---------------------------------------------------------------------------

def osgood_integral(kappa, eps: float, upper: float = 1.0) -> float:
    """Adaptive quadrature of the reciprocal modulus over [eps, upper].

    Divergence as eps -> 0 is the integral test for uniqueness under a
    concave modulus.  Integration runs in u = log(1/x) coordinates, which
    flattens the near-zero singularity (for kappa(x) = x the transformed
    integrand is constant).
    """
    # scipy.integrate costs about 0.6 s and 52 MB to import; only the two
    # oracles use it, so it is imported on first use
    from scipy.integrate import quad

    if not (0.0 < eps < upper):
        raise AnalysisError(f"need 0 < eps < upper, got eps={eps}, upper={upper}")
    probe = np.geomspace(eps, upper, 64)
    pvals = np.asarray(kappa(probe), dtype=np.float64)
    if not (np.isfinite(pvals).all() and (pvals > 0).all()):
        raise AnalysisError("modulus must be positive and finite on (eps, upper]")

    def integrand(u: float) -> float:
        x = math.exp(-u)
        return x / float(kappa(x))

    u_lo = math.log(1.0 / upper)
    u_hi = math.log(1.0 / eps)
    points = None
    if isinstance(kappa, ModulusKappaEta) and eps < kappa.eta < upper:
        points = [math.log(1.0 / kappa.eta)]
    value, _ = quad(integrand, u_lo, u_hi, epsabs=0.0, epsrel=1e-11, limit=500, points=points)
    return float(value)


@dataclass(frozen=True)
class BihariReport:
    path: np.ndarray
    max_rel_gap: float | None
    in_branch: bool


def bihari_ode_check(kappa, scale: float, eps: float, horizon: float) -> BihariReport:
    """Integrate z' = scale * kappa(z), z(0) = eps, with a high-order method,
    reporting the path at 257 equally spaced times.

    eps = 0 returns the identically-zero path (the comparison argument pins
    the trivial solution).  When ``kappa`` is the concave log modulus and the
    path stays below its knee, ``max_rel_gap`` compares the path with the
    exact solution eps**exp(-scale*t); leaving the log branch clears
    ``in_branch``.
    """
    from scipy.integrate import solve_ivp  # imported on first use, see osgood_integral

    if eps < 0:
        raise AnalysisError(f"initial value must be nonnegative, got {eps}")
    if horizon <= 0 or scale < 0:
        raise AnalysisError("need horizon > 0 and scale >= 0")
    times = np.linspace(0.0, horizon, 257)
    is_log_modulus = isinstance(kappa, ModulusKappaEta)
    if eps == 0.0:
        return BihariReport(
            path=np.zeros_like(times), max_rel_gap=0.0 if is_log_modulus else None, in_branch=True
        )
    sol = solve_ivp(
        lambda t, z: scale * np.asarray(kappa(z), dtype=np.float64),
        (0.0, horizon),
        [eps],
        method="DOP853",
        t_eval=times,
        rtol=1e-12,
        atol=0.0,
    )
    if not sol.success:
        raise AnalysisError(f"comparison ODE integration failed: {sol.message}")
    path = sol.y[0]
    if not is_log_modulus:
        return BihariReport(path=path, max_rel_gap=None, in_branch=False)
    closed = eps ** np.exp(-scale * times)
    if not (closed[-1] <= kappa.eta and eps <= kappa.eta):
        return BihariReport(path=path, max_rel_gap=None, in_branch=False)
    rel = np.abs(path - closed) / closed
    return BihariReport(path=path, max_rel_gap=float(rel.max()), in_branch=True)


# ---------------------------------------------------------------------------
# law-gap curves
# ---------------------------------------------------------------------------

#: relative slack of the metric sandwich lower <= upper, taken relative to
#: max(1, upper), for rounding in the separately summed integrals of the
#: two bounds
SANDWICH_RTOL = 1e-9


@dataclass(frozen=True)
class LawGapReport:
    times: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    coupling: str


def law_gap_curve(traj_a: TrajectorySet, traj_b: TrajectorySet) -> LawGapReport:
    """Two-sided law gap per record point between two equal-size ensembles.

    The upper curve is a coupled mean distance; the one-dimensional case uses
    the monotone (sorted) pairing, the tightest order-one coupling available
    there, while higher dimensions keep the index pairing.  The lower curve
    maximizes over ``default_dictionary``.  The sandwich lower <= upper is
    asserted pointwise, up to ``SANDWICH_RTOL``.
    """
    if traj_a.n_particles != traj_b.n_particles or traj_a.dim != traj_b.dim:
        raise AnalysisError("trajectories have mismatched shapes")
    if not np.array_equal(traj_a.times, traj_b.times):
        raise AnalysisError("trajectories are recorded on different grids")
    use_sorted = traj_a.dim == 1
    dictionary = default_dictionary(traj_a.dim)
    # the states are finite float64 and read-only and the sorted copies are
    # fresh, so the measures are built unchecked
    uppers = np.empty(traj_a.times.shape[0])
    lowers = np.empty_like(uppers)
    for j in range(traj_a.times.shape[0]):
        a = traj_a.states[j]
        b = traj_b.states[j]
        mu = EmpiricalMeasure(a)
        nu = EmpiricalMeasure(b)
        if use_sorted:
            mu_c = EmpiricalMeasure(np.sort(a, axis=0))
            nu_c = EmpiricalMeasure(np.sort(b, axis=0))
        else:
            mu_c, nu_c = mu, nu
        uppers[j] = rho_upper(mu_c, nu_c)
        lowers[j] = rho_lower(mu, nu, dictionary)
        if not lowers[j] <= uppers[j] + SANDWICH_RTOL * max(1.0, uppers[j]):
            raise AnalysisError(
                f"metric sandwich violated at t={traj_a.times[j]:.6g}: "
                f"lower {lowers[j]:.6g} > upper {uppers[j]:.6g}"
            )
    return LawGapReport(
        times=traj_a.times, upper=uppers, lower=lowers,
        coupling="sorted" if use_sorted else "index",
    )
