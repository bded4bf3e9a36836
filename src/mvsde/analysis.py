"""Trajectory diagnostics: strong-error curves and rates, moment and
increment-scaling envelopes, Osgood-integral and comparison-ODE oracles, and
coupled-law metric curves.

A trajectory is any iterable of record rows, such as a solver driver's
rows or a (points, N, d) array, row j the ensemble at record time
``times[j]``; the reductions read each row as it comes, so a driver's run is
never held whole.  ``increment_scaling``, which pairs rows far apart, takes
a (points, N, d) array.  Estimates come with
Monte-Carlo standard errors from per-particle statistics; rate verdicts are
decay exponents fitted on log2 error curves, since the constants in the
underlying bounds are existential.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .measure import EmpiricalMeasure, default_dictionary, exact_sum, rho_lower, rho_upper

# unused here: the benchmark's tracer (mvbench/spans.py) patches
# analysis.uniform_measure by name, so the name must resolve in this module
from .measure import uniform_measure  # noqa: F401
from .models import ModulusKappaEta
from .paths import MAX_LATTICE_LEVEL

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


def strong_error(rows, reference: int) -> dict[int, tuple[float, float]]:
    """Per level other than ``reference``: the mean over particles of the
    squared sup gap to the reference level along the record grid, and its
    standard error, the per-particle sample deviation over sqrt(N).

    ``rows`` is any iterable of ``{level: (N, d) states}`` record rows of
    one coupled run, such as ``em_multilevel``'s.  Each row is reduced as it
    comes into one per-particle running maximum per level, made from row 0,
    which a driver hands on before it draws its first block: an array made
    while a block is alive and kept past its free can pin the heap top, so
    the freed block cannot be returned (see the block loop's ``ends``).
    """
    sup_sq = {}
    for row in rows:
        ref = row[reference]
        for lvl, states in row.items():
            if lvl == reference:
                continue
            if states.shape != ref.shape:
                raise AnalysisError(f"state arrays have mismatched shapes {ref.shape} and {states.shape}")
            gaps = states - ref
            sq = np.sum(gaps * gaps, axis=1)
            if lvl in sup_sq:
                np.maximum(sup_sq[lvl], sq, out=sup_sq[lvl])
            else:
                sup_sq[lvl] = sq
    return {lvl: _mean_se(values) for lvl, values in sup_sq.items()}


#: levels a rate fit needs at least; a rate config is refused with fewer
MIN_RATE_LEVELS = 3


def fit_rate(levels, errors) -> RateReport:
    """Ordinary least squares of log2(error) on the level index; a level must
    be an integer in [0, ``MAX_LATTICE_LEVEL``]."""
    for v in levels:
        whole = isinstance(v, numbers.Integral) or float(v).is_integer()
        if not (whole and 0 <= v <= MAX_LATTICE_LEVEL):
            raise AnalysisError(f"levels must be finite integers in [0, {MAX_LATTICE_LEVEL}], got {v}")
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


def moment_curve(times: np.ndarray, rows, order: int = 1) -> MomentReport:
    """Per record point ``times[j]``: ensemble average of |X|^(2p) over row
    j of ``rows`` (any iterable of (N, d) rows, each reduced as it comes)
    with standard error, plus the smallest C >= 0 such that
    C*(1 + m_0)*exp(C*t) dominates the whole empirical curve (m_0 = empirical
    moment at t = 0).  An overflow is raised once the rows are used up, so
    an error raised while making them (a blow-up) comes first."""
    if order < 1:
        raise AnalysisError(f"moment order must be at least 1, got {order}")
    pairs = []
    overflow = False
    for row in rows:
        with np.errstate(over="ignore"):
            vals = np.sum(row**2, axis=1) ** order
        if np.isfinite(vals).all():
            pairs.append(_mean_se(vals))
        else:
            overflow = True
    if overflow:
        raise AnalysisError(f"overflow computing |X|^{2 * order}; use a smaller moment order")
    moments = np.array([p[0] for p in pairs])
    stderrs = np.array([p[1] for p in pairs])
    m0 = float(moments[0])

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


def increment_scaling(states: np.ndarray, order: int, lags) -> IncrementReport:
    """Regress log E|X_t - X_s|^(2p) on log(t - s) over a ladder of lags.

    The drivers record on a uniform grid, so the slope on log lag is the
    slope on log time.  Lags are record-grid index offsets and must span at
    least two decades; each lag's expectation pools all equal-lag windows and
    all particles.  An all-zero increment field is reported as degenerate
    instead of fitted.
    """
    if order < 1:
        raise AnalysisError(f"increment order must be at least 1, got {order}")
    lags = sorted(set(int(v) for v in lags))
    if len(lags) < 3:
        raise AnalysisError("need at least 3 distinct lags")
    if lags[0] < 1 or lags[-1] >= states.shape[0]:
        raise AnalysisError(f"lags must lie in [1, {states.shape[0] - 1}]")
    if lags[-1] < 100 * lags[0]:
        raise AnalysisError("lag ladder must span at least two decades")
    values = np.empty(len(lags))
    for k, lag in enumerate(lags):
        gaps = states[lag:] - states[:-lag]
        sq = np.sum(gaps * gaps, axis=2) ** order
        values[k] = exact_sum(sq) / sq.size
    if np.all(values == 0.0):
        return IncrementReport(exponent=None, values=values, degenerate=True)
    if (values <= 0.0).any():
        raise AnalysisError("some lags have zero mean increment; cannot take logs")
    slope, _ = np.polyfit(np.log(lags), np.log(values), 1)
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

    # the integral runs up to log(1/eps), so 1/eps must be finite too
    if not (0.0 < eps < upper < math.inf and 1.0 / eps < math.inf):
        raise AnalysisError(f"need 0 < eps < upper < inf with 1/eps finite, got eps={eps}, upper={upper}")
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

    if not 0.0 <= eps < math.inf:
        raise AnalysisError(f"initial value must be nonnegative and finite, got {eps}")
    if not (0.0 < horizon < math.inf and 0.0 <= scale < math.inf):
        raise AnalysisError(f"need finite horizon > 0 and scale >= 0, got horizon={horizon}, scale={scale}")
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


def law_gap_curve(times: np.ndarray, a, b) -> LawGapReport:
    """Two-sided law gap per record point between two equal-size ensembles
    recorded at ``times``: ``a`` and ``b`` are any iterables of (N, d) rows,
    such as ``run_single``'s or (points, N, d) arrays, read in lockstep (row
    j of ``a``, then row j of ``b``) and reduced as they come, so two driver
    runs hold one block of increments each, not a trajectory.

    The upper curve is a coupled mean distance; the one-dimensional case uses
    the monotone (sorted) pairing, the tightest order-one coupling available
    there, while higher dimensions keep the index pairing.  The lower curve
    maximizes over ``default_dictionary``.  The sandwich lower <= upper is
    asserted pointwise, up to ``SANDWICH_RTOL``; the first violation is
    raised once both are used up, so an error raised while making a row (a
    blow-up) comes first.  Unless both have ``len(times)`` rows, they are
    refused, naming both counts.
    """
    n_points = times.shape[0]
    # driver states are finite (guarded every step) float64 and read-only and
    # the sorted copies are fresh, so the measures are built unchecked.  The
    # lower curve reads the unsorted ones: exact_sum is ~2x slower on sorted input
    uppers = np.empty(n_points)
    lowers = np.empty_like(uppers)
    violation = None
    count_a = count_b = 0
    for x, y in zip_longest(a, b):
        count_a += x is not None
        count_b += y is not None
        j = count_a - 1
        if x is None or y is None or j >= n_points:
            continue
        if x.shape != y.shape:
            raise AnalysisError(f"state rows have mismatched shapes {x.shape} and {y.shape}")
        if j == 0:
            use_sorted = x.shape[1] == 1
            dictionary = default_dictionary(x.shape[1])
        mu = EmpiricalMeasure(x)
        nu = EmpiricalMeasure(y)
        if use_sorted:
            mu_c = EmpiricalMeasure(np.sort(x, axis=0))
            nu_c = EmpiricalMeasure(np.sort(y, axis=0))
        else:
            mu_c, nu_c = mu, nu
        uppers[j] = rho_upper(mu_c, nu_c)
        lowers[j] = rho_lower(mu, nu, dictionary)
        if violation is None and not lowers[j] <= uppers[j] + SANDWICH_RTOL * max(1.0, uppers[j]):
            violation = AnalysisError(
                f"metric sandwich violated at t={times[j]:.6g}: "
                f"lower {lowers[j]:.6g} > upper {uppers[j]:.6g}"
            )
    if not count_a == count_b == n_points:
        raise AnalysisError(f"a has {count_a} rows and b has {count_b} for {n_points} record times")
    if violation is not None:
        raise violation
    return LawGapReport(
        times=times, upper=uppers, lower=lowers,
        coupling="sorted" if use_sorted else "index",
    )
