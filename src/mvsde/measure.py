"""Weighted empirical measures and two-sided estimates of the dual-ball metric.

A law is represented by a finite weighted support.  The metric of interest is
a supremum over test functions whose "weighted sup plus Lipschitz" norm is at
most one; that supremum is not computable exactly, so this module brackets it:

* ``rho_upper`` -- the coupled mean distance over an index-matched pair, an
  upper bound for any coupling of the two measures;
* ``rho_lower`` -- the same supremum restricted to a dictionary
  ``{tag: fn}`` of norm-one test functions (``default_dictionary``), hence a
  lower bound.

All cross-particle reductions go through :func:`exact_sum`, which returns the
correctly rounded sum (bit for bit what :func:`math.fsum` returns) and is
therefore independent of particle order and of caller threading.  It splits
every value into an exponent and two 26-bit integer halves of its mantissa,
adds the halves per exponent with ``np.bincount`` (exact while N < 2^26),
combines the buckets as Python integers and rounds once.  Non-finite input,
inputs large enough that ``math.fsum`` could overflow in an intermediate
step, zero totals (whose sign ``math.fsum`` defines) and N >= 2^26 are handed
to ``math.fsum`` itself.

``EmpiricalMeasure`` validates its input unless built with ``validate=False``.
That form exists for the solver's per-step law and for ``law_gap_curve``: the
caller guarantees a finite (N, d) float64 support and uniform float64 weights
1/N, and must not mutate either array afterwards, because the measure stores
them as given, without copies or read-only flags.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "MeasureError",
    "CouplingError",
    "EmpiricalMeasure",
    "exact_sum",
    "dirac",
    "uniform_measure",
    "rho_upper",
    "rho_lower",
    "default_dictionary",
]

#: permitted deviation of the total mass from 1
WEIGHT_TOL = 1e-12

#: clip radius of the default dictionary's ramps and radial function
CLIP_RADIUS = 10.0


class MeasureError(ValueError):
    """Invalid measure or dictionary input."""


class CouplingError(MeasureError):
    """Index coupling unavailable: supports or weights are not matched."""


#: bucket sums of 26-bit halves stay exact in float64 below this many terms
_EXACT_SUM_MAX_TERMS = 1 << 26


def exact_sum(values) -> float:
    """Correctly rounded sum of a float64 array, equal to ``math.fsum``.

    Order does not matter, so the result is permutation invariant.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if not 0 < x.size < _EXACT_SUM_MAX_TERMS or not np.isfinite(x).all():
        return math.fsum(x.tolist())
    mant, expo = np.frexp(x)
    # |partial sums| < N * 2^max(expo): below this bound math.fsum cannot
    # overflow in an intermediate step, above it defer to its behaviour
    if int(expo.max()) + x.size.bit_length() > 1022:
        return math.fsum(x.tolist())
    # now x = mant * 2^(expo - 53) with mant an integer, |mant| < 2^53,
    # split exactly as hi * 2^26 + lo with 0 <= lo < 2^26
    mant *= float(1 << 53)
    hi = np.floor(mant / float(1 << 26))
    lo = mant - hi * float(1 << 26)
    base = int(expo.min())
    expo -= base
    hi_sums = np.bincount(expo, weights=hi).tolist()
    lo_sums = np.bincount(expo, weights=lo).tolist()
    total = 0
    for k, (h, l) in enumerate(zip(hi_sums, lo_sums)):
        if h or l:
            total += ((int(h) << 26) + int(l)) << k
    if total == 0:
        return math.fsum(x.tolist())
    shift = base - 53
    if shift >= 0:
        return float(total << shift)
    # int true division rounds correctly, subnormal results included
    return total / (1 << -shift)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Probability measure with finite support ``support`` and ``weights``.

    ``support`` has shape (N, d).  Weights must be nonnegative and sum to one
    within ``WEIGHT_TOL``.  ``validate=False`` stores both arrays as given and
    checks nothing; see the module docstring for what the caller then
    guarantees.
    """

    support: np.ndarray
    weights: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if not validate:
            return
        support = np.asarray(self.support, dtype=np.float64)
        if support.ndim != 2 or support.shape[0] < 1 or support.shape[1] < 1:
            raise MeasureError(f"support must be (N, d) with N,d >= 1, got shape {support.shape}")
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (support.shape[0],):
            raise MeasureError(
                f"weights shape {weights.shape} does not match {support.shape[0]} support points"
            )
        bad = ~np.isfinite(support)
        if bad.any():
            idx = int(np.nonzero(bad.any(axis=1))[0][0])
            raise MeasureError(f"non-finite coordinate in support point {idx}: {support[idx]}")
        if (weights < 0).any():
            idx = int(np.nonzero(weights < 0)[0][0])
            raise MeasureError(f"negative weight at index {idx}: {weights[idx]}")
        total = exact_sum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise MeasureError(f"weights sum to {total!r}, not 1 within {WEIGHT_TOL}")
        support = support.copy()
        weights = weights.copy()
        support.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        # a support far out overflows the norms to inf, which is the error
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.lambda2)
        if not finite:
            raise MeasureError("weighted mass norm is not finite")

    @property
    def num_atoms(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @cached_property
    def radii(self) -> np.ndarray:
        """Euclidean norm of every support point."""
        r = np.linalg.norm(self.support, axis=1)
        r.flags.writeable = False
        return r

    @cached_property
    def mean(self) -> np.ndarray:
        """Barycenter, exactly rounded per coordinate."""
        m = np.array(
            [exact_sum(self.weights * self.support[:, k]) for k in range(self.dim)]
        )
        m.flags.writeable = False
        return m

    @cached_property
    def lambda2(self) -> float:
        """Weighted mass norm squared: sum of w_i * (1 + |x_i|)^2.

        Never below ``exact_sum(weights)``: each term rounds to at least w_i,
        and a correctly rounded sum is monotone in its terms.  For a
        probability measure that total lies within ``WEIGHT_TOL`` of 1, so the
        norm can be 1 - 2^-53.
        """
        return exact_sum(self.weights * (1.0 + self.radii) ** 2)

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Exactly rounded integral of a vectorized test function."""
        vals = np.asarray(fn(self.support), dtype=np.float64)
        if vals.shape != (self.num_atoms,):
            raise MeasureError(f"test function returned shape {vals.shape}, expected ({self.num_atoms},)")
        return exact_sum(self.weights * vals)


def dirac(x) -> EmpiricalMeasure:
    """Point mass at ``x`` (scalar or vector)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return EmpiricalMeasure(x[None, :], np.array([1.0]))


def uniform_measure(points: np.ndarray) -> EmpiricalMeasure:
    """Uniform weights 1/N on the given (N, d) support points."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    return EmpiricalMeasure(points, np.full(n, 1.0 / n))


def _require_coupled(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    if mu.num_atoms != nu.num_atoms:
        raise CouplingError(f"atom counts differ: {mu.num_atoms} vs {nu.num_atoms}")
    if mu.dim != nu.dim:
        raise CouplingError(f"dimensions differ: {mu.dim} vs {nu.dim}")
    if not np.array_equal(mu.weights, nu.weights):
        raise CouplingError("weights differ entry by entry; index coupling unavailable")


def rho_upper(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Coupled mean distance sum(w_i |x_i - y_i|) under the index coupling.

    Upper-bounds the dual-ball metric whenever the index pairing is a valid
    coupling of the two measures (equal weights entry by entry).
    """
    _require_coupled(mu, nu)
    gaps = np.linalg.norm(mu.support - nu.support, axis=1)
    return exact_sum(mu.weights * gaps)


def rho_lower(mu: EmpiricalMeasure, nu: EmpiricalMeasure, dictionary: dict[str, Callable]) -> float:
    """Best integral gap over a dictionary ``{tag: fn}`` of vectorized
    norm-one test functions."""
    if not dictionary:
        raise MeasureError("empty test-function dictionary")
    best = 0.0
    for fn in dictionary.values():
        gap = abs(mu.integrate(fn) - nu.integrate(fn))
        if gap > best:
            best = gap
    return best


def default_dictionary(dim: int) -> dict[str, Callable]:
    """Dictionary ``{tag: fn}`` of norm-one test functions, valid by construction.

    Coordinate projections, coordinate ramps and a radial function, the last
    two clipped at ``CLIP_RADIUS``, each scaled by 0.8: their Lipschitz
    constant is then 0.8 and the weighted sup term peaks at 0.8 * 1/4 (at
    radius one), so the norm is exactly one because ``CLIP_RADIUS >= 1``.
    """
    if dim < 1:
        raise MeasureError("dimension must be at least 1")
    entries: dict[str, Callable] = {}

    def _coord(k: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda pts: 0.8 * pts[:, k]

    def _ramp(k: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda pts: 0.8 * np.clip(pts[:, k], -CLIP_RADIUS, CLIP_RADIUS)

    for k in range(dim):
        entries[f"coord{k}"] = _coord(k)
        entries[f"ramp{k}"] = _ramp(k)
    entries["radial"] = lambda pts: 0.8 * np.minimum(np.linalg.norm(pts, axis=1), CLIP_RADIUS)
    return entries
