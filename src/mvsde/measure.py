"""Uniform empirical measures and two-sided estimates of the dual-ball metric.

A law is the uniform measure (1/N) sum_i delta_{x_i} on N support points.
The metric of interest is a supremum over test functions whose "weighted sup
plus Lipschitz" norm is at most one; that supremum is not computable exactly,
so this module brackets it:

* ``rho_upper`` -- the coupled mean distance over an index-matched pair, an
  upper bound for any coupling of the two measures;
* ``rho_lower`` -- the same supremum restricted to a dictionary
  ``{tag: fn}`` of norm-one test functions (``default_dictionary``), hence a
  lower bound.

All cross-particle reductions go through :func:`exact_sum`, which returns the
correctly rounded sum (bit for bit what :func:`math.fsum` returns) and is
therefore independent of particle order and of caller threading.  It splits
every value into an exponent, a 27-bit integer and a 26-bit fraction, adds
both parts per exponent with ``np.bincount`` (exact while N < 2^26), scales
each of those 2K bucket sums (K exponents) exactly with ``np.ldexp`` and
rounds their total once with one ``math.fsum``.  Non-finite input,
inputs large enough that ``math.fsum`` could overflow in an intermediate
step, zero totals (whose sign ``math.fsum`` defines) and N >= 2^26 are handed
to ``math.fsum`` itself.

Points from outside go through ``uniform_measure``, which checks them and
stores a read-only copy.  Code that made the array itself, finite (N, d)
float64 and not written afterwards, builds ``EmpiricalMeasure`` directly: the
solver's per-step law, ``law_gap_curve`` and the assumption checks' samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "MeasureError",
    "CouplingError",
    "EmpiricalMeasure",
    "exact_sum",
    "uniform_measure",
    "rho_upper",
    "rho_lower",
    "default_dictionary",
]

#: clip radius of the default dictionary's ramps and radial function
CLIP_RADIUS = 10.0


class MeasureError(ValueError):
    """Invalid measure or dictionary input."""


class CouplingError(MeasureError):
    """Index coupling unavailable: atom counts or dimensions differ."""


#: bucket sums of both mantissa parts stay exact in float64 below this many terms
_EXACT_SUM_MAX_TERMS = 1 << 26
#: below this many terms math.fsum is the faster exact sum: on a 2-vCPU
#: Xeon, 2.5 against 15 us at 64 terms, about even at 512
_EXACT_SUM_MIN_TERMS = 512


def exact_sum(values) -> float:
    """Correctly rounded sum of a float64 array, equal to ``math.fsum``.

    Order does not matter, so the result is permutation invariant.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if not _EXACT_SUM_MIN_TERMS <= x.size < _EXACT_SUM_MAX_TERMS or not np.isfinite(x).all():
        return math.fsum(x.tolist())
    mant, expo = np.frexp(x)
    base, top = int(expo.min()), int(expo.max())
    # |partial sums| < N * 2^max(expo): below this bound math.fsum cannot
    # overflow in an intermediate step, above it defer to its behaviour
    if top + x.size.bit_length() > 1022:
        return math.fsum(x.tolist())
    # now x = (hi + lo) * 2^(expo - 27) with hi an integer, |hi| <= 2^27,
    # and lo in [0, 1) a multiple of 2^-26
    mant *= float(1 << 27)
    hi = np.floor(mant)
    mant -= hi
    idx = np.subtract(expo, base, dtype=np.intp)
    # bucket k sums the parts of exponent base + k: the hi sum is an integer
    # below N * 2^27 and the lo sum a multiple of 2^-26 below N, both exact.
    # Scaled by 2^(base + k - 27), each is a multiple of 2^-1074 (as every
    # part is) below 2^1022 in magnitude (the guard above), so each ldexp
    # term is exact and the one fsum rounds the exact total once
    scale = np.arange(base - 27, top - 26)
    terms = np.ldexp(np.bincount(idx, weights=hi), scale).tolist()
    terms += np.ldexp(np.bincount(idx, weights=mant), scale).tolist()
    total = math.fsum(terms)
    # bincount drops the sign of zero, which math.fsum defines
    return total if total != 0 else math.fsum(x.tolist())


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform probability measure on the N rows of ``support``.

    ``support`` has shape (N, d); every atom weighs ``1.0 / N``.  The array
    is stored as given and nothing is checked: build a measure on points
    from outside with ``uniform_measure``.
    """

    support: np.ndarray

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
        w = 1.0 / self.num_atoms
        m = np.array([exact_sum(w * self.support[:, k]) for k in range(self.dim)])
        m.flags.writeable = False
        return m

    @cached_property
    def lambda2(self) -> float:
        """Weighted mass norm squared: sum of (1 + |x_i|)^2 / N.

        Never below the sum of N copies of ``1.0 / N``: each term rounds to
        at least that weight, and a correctly rounded sum is monotone in its
        terms.  That sum can be 1 - 2^-53 (at N = 49, for one), so the norm
        can be too.
        """
        return exact_sum((1.0 / self.num_atoms) * (1.0 + self.radii) ** 2)

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]) -> float:
        """Exactly rounded integral of a vectorized test function."""
        vals = np.asarray(fn(self.support), dtype=np.float64)
        if vals.shape != (self.num_atoms,):
            raise MeasureError(f"test function returned shape {vals.shape}, expected ({self.num_atoms},)")
        return exact_sum((1.0 / self.num_atoms) * vals)


def uniform_measure(points: np.ndarray) -> EmpiricalMeasure:
    """The uniform measure on points from outside: checks that they are finite
    (N, d), N, d >= 1, with a finite mass norm, and holds a read-only copy."""
    support = np.asarray(points, dtype=np.float64)
    if support.ndim != 2 or support.shape[0] < 1 or support.shape[1] < 1:
        raise MeasureError(f"support must be (N, d) with N,d >= 1, got shape {support.shape}")
    bad = ~np.isfinite(support)
    if bad.any():
        idx = int(np.nonzero(bad.any(axis=1))[0][0])
        raise MeasureError(f"non-finite coordinate in support point {idx}: {support[idx]}")
    support = support.copy()
    support.flags.writeable = False
    mu = EmpiricalMeasure(support)
    # a support far out overflows the norms to inf, which is the error
    with np.errstate(over="ignore"):
        if not math.isfinite(mu.lambda2):
            raise MeasureError("weighted mass norm is not finite")
    return mu


def _require_coupled(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> None:
    if mu.num_atoms != nu.num_atoms:
        raise CouplingError(f"atom counts differ: {mu.num_atoms} vs {nu.num_atoms}")
    if mu.dim != nu.dim:
        raise CouplingError(f"dimensions differ: {mu.dim} vs {nu.dim}")


def rho_upper(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Coupled mean distance sum(|x_i - y_i|) / N under the index coupling.

    Both measures are uniform on N atoms, so the index pairing is a coupling
    of them and this upper-bounds the dual-ball metric.
    """
    _require_coupled(mu, nu)
    gaps = np.linalg.norm(mu.support - nu.support, axis=1)
    return exact_sum((1.0 / mu.num_atoms) * gaps)


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
