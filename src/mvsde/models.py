"""Coefficient models, concave moduli, and sampling-based assumption checkers.

A model is a drift/diffusion pair evaluated against a state batch and an
empirical law.  Linear growth (H1) is checked for every model; a model
declares the log-Lipschitz class (H2') by giving its continuity moduli.
``MODELS`` is the catalog:

``mf-ou``
    Linear mean-field Ornstein-Uhlenbeck: ``b(x, mu) = -theta*x + alpha*mean(mu)``
    and ``sigma = s*I``.  Globally Lipschitz, with closed-form mean and
    second-moment oracles (``mf_ou_oracles``).

``osgood``
    Scalar model that is log-Lipschitz but genuinely non-Lipschitz at the
    origin: ``b(x, mu) = -c*psi(x) + beta*mean(mu)`` with
    ``psi(x) = sign(x) * kappa_eta(|x|)``, and diffusion
    ``sigma(x) = s * sign(x) * g(|x|)`` where ``g(r) = r*sqrt(log(1/r))`` up
    to the knee ``eta`` and continues with constant slope beyond it.

``sznitman``
    Convolution drift ``b(x, mu) = mean(mu) - x`` (the kernel ``y - x``
    integrated against the law) with constant diffusion ``s*I``.

``x2-fixture``
    Growth-violating drift ``b = x^2`` that declares no moduli, for the
    checkers' failure path.

Checkers are falsifiers, not proofs: each samples ``CHECK_SAMPLES``
state/measure pairs on an escalating scale ladder and certifies "no violation
found", reporting the fitted constants.  The measure argument of the
continuity check uses the coupled upper bound of the law metric as a
surrogate, which is flagged in the report; for catalog models the measure
dependence is through the mean, where the surrogate bound is valid
analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .measure import EmpiricalMeasure, rho_upper

__all__ = [
    "ModelError",
    "kappa_eta",
    "ModulusKappaEta",
    "gamma_log",
    "CoefficientModel",
    "GrowthReport",
    "check_linear_growth",
    "H2PrimeReport",
    "check_h2prime",
    "mf_ou",
    "osgood",
    "sznitman",
    "quadratic_drift_fixture",
    "mf_ou_oracles",
    "MODELS",
    "make_model",
]

#: largest admissible knee for the concave modulus (exclusive)
ETA_MAX = 1.0 / math.e

DEFAULT_ETA = math.exp(-2.0)


class ModelError(ValueError):
    """Invalid model parameter, input, or checker configuration."""


# ---------------------------------------------------------------------------
# concave moduli
# ---------------------------------------------------------------------------

def _check_eta(eta: float) -> None:
    if not (0.0 < eta < ETA_MAX):
        raise ModelError(f"eta must lie in (0, 1/e), got {eta}")


def kappa_eta(x, eta: float = DEFAULT_ETA):
    """Concave modulus: 0 at 0, ``x*log(1/x)`` on (0, eta], linear beyond.

    The linear branch ``(log(1/eta) - 1)*x + eta`` matches the log branch in
    value and slope direction at ``x = eta``, so the modulus is continuous,
    strictly increasing and concave.  Requires ``0 < eta < 1/e`` and a
    nonnegative argument (NaN is refused, ``inf`` maps to ``inf``).  The
    ``osgood`` drift evaluates the same kernel, ``_kappa``, unchecked.
    """
    _check_eta(eta)
    arr = np.asarray(x, dtype=np.float64)
    if not (arr >= 0).all():
        raise ModelError("modulus argument must be nonnegative")
    # abs turns -0.0 into the 0.0 the kernel needs to return +0.0
    out = _kappa(np.abs(arr), eta)
    return float(out) if out.ndim == 0 else out


def _neg_log(r: np.ndarray, eta: float) -> np.ndarray:
    """``-log(r)`` on (0, eta], finite and positive elsewhere: the clamp keeps
    the log warning-free, so ``np.where`` picks the branch without masks and
    ``0 * _neg_log(0)`` is +0.0."""
    return -np.log(np.minimum(np.maximum(r, 5e-324), eta))


def _kappa(r: np.ndarray, eta: float) -> np.ndarray:
    """kappa_eta on r >= 0 (no -0.0), unchecked."""
    return np.where(r > eta, (math.log(1.0 / eta) - 1.0) * r + eta, r * _neg_log(r, eta))


@dataclass(frozen=True)
class ModulusKappaEta:
    """Callable wrapper around :func:`kappa_eta` with a fixed knee."""

    eta: float = DEFAULT_ETA

    def __post_init__(self) -> None:
        _check_eta(self.eta)

    def __call__(self, x):
        return kappa_eta(x, self.eta)


def gamma_log(r: float) -> float:
    """Log modulus ``max(log(1/r), 1)``: positive, continuous, bounded on [1, inf)."""
    if r <= 0:
        raise ModelError("gamma modulus is defined on (0, inf) only")
    return float(max(-np.log(r), 1.0))


def _gamma_one(r: float) -> float:
    return 1.0


# ---------------------------------------------------------------------------
# coefficient models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientModel:
    """Immutable drift/diffusion pair.

    ``drift`` maps a state batch (n, d) and a law to (n, d);
    ``diffusion_apply`` maps them and an increment batch dw (n, d) to
    ``sigma(x, mu) @ dw`` (n, d), the only form the solver needs.  The matrix
    sigma (n, d, d) is derived from it (``_diffusion_matrix``).
    ``moduli`` is ``(gamma1, gamma2)``, the continuity moduli by which the
    model declares H2' and which :func:`check_h2prime` reads; ``None``
    declares linear growth only.
    """

    model_id: str
    dim: int
    drift: Callable[[np.ndarray, EmpiricalMeasure], np.ndarray]
    diffusion_apply: Callable[[np.ndarray, EmpiricalMeasure, np.ndarray], np.ndarray]
    parameters: dict = field(default_factory=dict)
    moduli: tuple[Callable, Callable] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ModelError(f"dimension must be positive, got {self.dim}")


def _diffusion_matrix(model: CoefficientModel, states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
    """sigma(x, mu) as an (n, d, d) batch: column j is ``diffusion_apply``
    of the unit increment e_j."""
    n = states.shape[0]
    columns = [model.diffusion_apply(states, mu, np.tile(unit, (n, 1))) for unit in np.eye(model.dim)]
    return np.stack([np.asarray(c, dtype=np.float64) for c in columns], axis=2)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def mf_ou(theta: float = 1.0, alpha: float = 0.5, s: float = 0.4, dim: int = 1) -> CoefficientModel:
    """Mean-field Ornstein-Uhlenbeck model (globally Lipschitz)."""

    def drift(states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        return -theta * states + alpha * mu.mean[None, :]

    def diffusion_apply(states, mu, dw):
        return s * dw

    return CoefficientModel(
        model_id="mf-ou",
        dim=dim,
        drift=drift,
        diffusion_apply=diffusion_apply,
        parameters={"theta": theta, "alpha": alpha, "s": s},
        moduli=(_gamma_one, _gamma_one),
    )


def mf_ou_oracles(theta: float, alpha: float, s: float, dim: int, m0, u0: float):
    """Exact mean and second-moment curves for ``mf-ou``.

    ``m0`` is the initial mean vector, ``u0`` the initial second absolute
    moment E|X_0|^2.  The mean solves m' = (alpha - theta) m, the second
    moment u' = -2 theta u + 2 alpha |m(t)|^2 + s^2 d.  Returns
    ``(mean_fn, second_moment)``, both functions of t.
    """
    m0 = np.broadcast_to(np.asarray(m0, dtype=np.float64), (dim,)).copy()
    m0_sq = float(np.dot(m0, m0))

    def mean_fn(t: float) -> np.ndarray:
        return m0 * math.exp((alpha - theta) * t)

    def second_moment(t: float) -> float:
        decay = math.exp(-2.0 * theta * t)
        if theta != 0.0:
            noise = s * s * dim * (1.0 - decay) / (2.0 * theta)
        else:
            noise = s * s * dim * t
        return u0 * decay + m0_sq * decay * math.expm1(2.0 * alpha * t) + noise

    return mean_fn, second_moment


def osgood(c: float = 1.0, beta: float = 0.25, s: float = 0.3, eta: float = DEFAULT_ETA) -> CoefficientModel:
    """Scalar log-Lipschitz model; drift and diffusion vanish at the origin.

    Both are mask-free whole-batch kernels: the drift uses ``_kappa``, the
    kernel of :func:`kappa_eta`, and the diffusion the same ``_neg_log``."""
    _check_eta(eta)
    log_eta = math.log(1.0 / eta)
    knee_val = eta * math.sqrt(log_eta)
    knee_slope = math.sqrt(log_eta) - 0.5 / math.sqrt(log_eta)

    def drift(states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        psi = np.sign(states) * _kappa(np.abs(states), eta)
        return -c * psi + beta * mu.mean[None, :]

    def diffusion_apply(states, mu, dw):
        r = np.abs(states)
        g = np.where(r > eta, knee_val + knee_slope * (r - eta), r * np.sqrt(_neg_log(r, eta)))
        return s * np.sign(states) * g * dw

    return CoefficientModel(
        model_id="osgood",
        dim=1,
        drift=drift,
        diffusion_apply=diffusion_apply,
        parameters={"c": c, "beta": beta, "s": s, "eta": eta},
        moduli=(gamma_log, gamma_log),
    )


def sznitman(s: float = 0.4, dim: int = 1) -> CoefficientModel:
    """Convolution drift mean(mu) - x with constant diffusion s*I: ``mf-ou``
    at theta = alpha = 1, whose drift -1.0*x + 1.0*m rounds to m - x."""
    return replace(mf_ou(1.0, 1.0, s, dim), model_id="sznitman", parameters={"s": s})


def quadratic_drift_fixture() -> CoefficientModel:
    """Deliberately growth-violating fixture (b = x^2) for failure-path tests."""

    def drift(states: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        return states**2

    return CoefficientModel(
        model_id="x2-fixture",
        dim=1,
        drift=drift,
        diffusion_apply=lambda states, mu, dw: np.zeros_like(dw),
    )


#: the catalog: id -> (factory, parameter names, pinned dimension or None)
MODELS: dict[str, tuple[Callable[..., CoefficientModel], frozenset[str], int | None]] = {
    "mf-ou": (mf_ou, frozenset({"theta", "alpha", "s"}), None),
    "osgood": (osgood, frozenset({"c", "beta", "s", "eta"}), 1),
    "sznitman": (sznitman, frozenset({"s"}), None),
    "x2-fixture": (quadratic_drift_fixture, frozenset(), 1),
}


def make_model(model_id: str, dim: int = 1, params: dict | None = None) -> CoefficientModel:
    """Build a catalog model by id, validating parameter names and dimension."""
    params = dict(params or {})
    if model_id not in MODELS:
        raise ModelError(f"unknown model id {model_id!r}; known ids: {sorted(MODELS)}")
    factory, names, pinned = MODELS[model_id]
    unknown = set(params) - names
    if unknown:
        raise ModelError(
            f"unknown parameter(s) {sorted(unknown)} for model {model_id!r}; "
            f"schema: {sorted(names)}"
        )
    if pinned is None:
        return factory(dim=dim, **params)
    if dim != pinned:
        raise ModelError(f"model {model_id!r} is {pinned}-dimensional, got d={dim}")
    return factory(**params)


# ---------------------------------------------------------------------------
# assumption checkers
# ---------------------------------------------------------------------------

#: support size of the uniform laws both checkers sample
_CHECK_ATOMS = 8

#: samples each checker draws: growth states, or continuity pairs
CHECK_SAMPLES = 2000

#: how the continuity check bounds the law metric (see ``check_h2prime``)
MEASURE_TERM = "upper-bound surrogate"


@dataclass(frozen=True)
class GrowthReport:
    passed: bool
    fitted_l1: float
    failure: str = ""


def check_linear_growth(model: CoefficientModel, seed: int = 0) -> GrowthReport:
    """Sample (|b|^2 + |sigma|^2) / (1 + |x|^2 + lambda2(mu)) on a scale ladder.

    Sample i draws a state and an atom cloud at radius geomspace(1, 256)[i],
    so unbounded growth ratios show up as instability between the two halves
    of the ladder.  Passes iff every ratio is finite and the maximum over the
    second (larger scale) half is at most twice the maximum over the first
    half.  The overall maximum is reported as the fitted growth constant.
    """
    rng = np.random.default_rng(seed)
    scales = np.geomspace(1.0, 256.0, CHECK_SAMPLES)
    ratios = np.empty(CHECK_SAMPLES)
    for i, scale in enumerate(scales):
        x = scale * rng.uniform(-1.0, 1.0, size=model.dim)
        atoms = scale * rng.uniform(-1.0, 1.0, size=(_CHECK_ATOMS, model.dim))
        mu = EmpiricalMeasure(atoms)
        b = np.asarray(model.drift(x[None, :], mu))[0]
        sig = _diffusion_matrix(model, x[None, :], mu)[0]
        num = float(np.dot(b, b) + np.sum(sig * sig))
        den = 1.0 + float(np.dot(x, x)) + mu.lambda2
        ratio = num / den
        if not math.isfinite(ratio):
            return GrowthReport(
                passed=False,
                fitted_l1=math.inf,
                failure=f"non-finite ratio at sample {i}: x={x}, scale={scale:.3g}",
            )
        ratios[i] = ratio
    half = CHECK_SAMPLES // 2
    first = float(ratios[:half].max())
    second = float(ratios[half:].max())
    passed = second <= 2.0 * first
    failure = "" if passed else (
        f"ratio grows along the scale ladder: max {second:.6g} on the large-scale half "
        f"vs {first:.6g} on the small-scale half"
    )
    return GrowthReport(passed=passed, fitted_l1=float(ratios.max()), failure=failure)


@dataclass(frozen=True)
class H2PrimeReport:
    passed: bool
    fitted_lambda1: float
    fitted_lambda2: float
    failure: str = ""


def check_h2prime(model: CoefficientModel, seed: int = 0) -> H2PrimeReport:
    """Sample the log-Lipschitz continuity ratios over coupled pairs.

    Drift ratio: |b(x1,mu1) - b(x2,mu2)| / (|dx| gamma1(|dx|) + rho_upper);
    diffusion ratio: |sigma gap|^2 / (|dx|^2 gamma2(|dx|) + rho_upper^2),
    with the model's declared moduli ``gamma1`` and ``gamma2``.
    Separations run from 1 down to 1e-10, with every other base point placed
    at the separation scale to probe behaviour near the origin; passing means
    both ratio maxima are finite and the small-separation half does not
    exceed twice the large-separation half.

    The measure term uses the coupled upper bound in place of the exact law
    metric (flagged as ``MEASURE_TERM`` in the summary); for models whose
    measure dependence is through the mean this substitution is an analytic
    upper bound.
    """
    if model.moduli is None:
        raise ModelError(f"model {model.model_id!r} does not declare the continuity class")
    gamma1, gamma2 = model.moduli
    rng = np.random.default_rng(seed)
    deltas = np.geomspace(1.0, 1e-10, CHECK_SAMPLES)
    r1 = np.empty(CHECK_SAMPLES)
    r2 = np.empty(CHECK_SAMPLES)
    for i, delta in enumerate(deltas):
        scale = 1.0 if i % 2 == 0 else delta
        x1 = scale * rng.uniform(-1.0, 1.0, size=model.dim)
        direction = rng.standard_normal(model.dim)
        direction /= np.linalg.norm(direction)
        x2 = x1 + delta * direction
        atoms = rng.uniform(-1.0, 1.0, size=(_CHECK_ATOMS, model.dim))
        mu_gap = float(np.exp(rng.uniform(math.log(1e-10), math.log(1.0))))
        shift_dir = rng.standard_normal(model.dim)
        shift_dir /= np.linalg.norm(shift_dir)
        mu1 = EmpiricalMeasure(atoms)
        mu2 = EmpiricalMeasure(atoms + mu_gap * shift_dir)
        rho_bar = rho_upper(mu1, mu2)
        dx = float(np.linalg.norm(x2 - x1))
        db = np.asarray(model.drift(x2[None, :], mu2))[0] - np.asarray(model.drift(x1[None, :], mu1))[0]
        dsig = _diffusion_matrix(model, x2[None, :], mu2)[0] - _diffusion_matrix(model, x1[None, :], mu1)[0]
        den1 = dx * gamma1(dx) + rho_bar
        den2 = dx * dx * gamma2(dx) + rho_bar * rho_bar
        r1[i] = float(np.linalg.norm(db)) / den1
        r2[i] = float(np.sum(dsig * dsig)) / den2
        if not (math.isfinite(r1[i]) and math.isfinite(r2[i])):
            return H2PrimeReport(
                passed=False,
                fitted_lambda1=math.inf,
                fitted_lambda2=math.inf,
                failure=f"non-finite ratio at sample {i}: x1={x1}, separation={delta:.3g}",
            )
    half = CHECK_SAMPLES // 2
    d1a, d1b = float(r1[:half].max()), float(r1[half:].max())
    d2a, d2b = float(r2[:half].max()), float(r2[half:].max())
    passed = d1b <= 2.0 * d1a and d2b <= 2.0 * d2a
    failure = "" if passed else (
        f"ratio grows as the separation shrinks: drift {d1a:.6g} -> {d1b:.6g}, "
        f"diffusion {d2a:.6g} -> {d2b:.6g}"
    )
    return H2PrimeReport(
        passed=passed, fitted_lambda1=float(r1.max()), fitted_lambda2=float(r2.max()), failure=failure
    )
