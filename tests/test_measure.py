import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsde import measure
from mvsde.measure import (
    CouplingError,
    EmpiricalMeasure,
    MeasureError,
    default_dictionary,
    exact_sum,
    rho_lower,
    rho_upper,
    uniform_measure,
)

from conftest import random_coupled_pair


def lambda2_bruteforce(mu: EmpiricalMeasure) -> float:
    # independent oracle: plain python accumulation of the defining sum
    total, w = 0.0, 1.0 / mu.num_atoms
    for x in mu.support:
        total += w * (1.0 + math.sqrt(sum(c * c for c in x))) ** 2
    return total


@st.composite
def measures(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    flat = draw(
        st.lists(
            st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=n * d,
            max_size=n * d,
        )
    )
    return EmpiricalMeasure(np.asarray(flat).reshape(n, d))


class TestLambda2:
    def test_dirac_origin(self):
        assert uniform_measure([[0.0]]).lambda2 == 1.0

    def test_unit_radius_atom(self):
        assert uniform_measure([[1.0]]).lambda2 == 4.0
        assert uniform_measure([[0.0, 1.0]]).lambda2 == 4.0

    def test_two_atom_hand_sum(self):
        # atoms {0, (2,0)} with weights (1/2, 1/2): (1 + 9) / 2
        mu = EmpiricalMeasure(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert mu.lambda2 == pytest.approx(5.0, abs=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(measures())
    def test_matches_bruteforce(self, mu):
        assert mu.lambda2 == pytest.approx(lambda2_bruteforce(mu), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(measures())
    def test_at_least_the_total_weight(self, mu):
        # N copies of 1/N may sum to 1 - 2^-53, so 1 is not a bound
        val = mu.lambda2
        total = exact_sum(np.full(mu.num_atoms, 1.0 / mu.num_atoms))
        assert val >= total
        if mu.radii.max() > 1e-8:
            assert val > total

    def test_mass_just_below_one(self):
        # the 49 copies of fl(1/49) sum to 1 - 2^-53
        mu = EmpiricalMeasure(np.zeros((49, 1)))
        assert mu.lambda2 == exact_sum(np.full(49, 1.0 / 49)) == 1.0 - 2.0**-53

    def test_dirac_scaling(self):
        for r in (0.0, 0.5, 1.0, 3.0, 17.0):
            x = np.zeros(3)
            x[0] = r
            assert uniform_measure(np.atleast_2d(x)).lambda2 == pytest.approx((1.0 + r) ** 2, rel=1e-15)


class TestInvariants:
    def test_rejects_nonfinite_support_with_index(self):
        pts = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(MeasureError, match="point 1"):
            uniform_measure(pts)

    def test_rejects_one_dimensional_support(self):
        # N scalar atoms are written (N, 1); a flat array is not reshaped
        with pytest.raises(MeasureError, match=r"\(N, d\)"):
            uniform_measure(np.zeros(3))
        with pytest.raises(MeasureError, match=r"\(N, d\)"):
            uniform_measure([0.0, 1.0, 2.0])

    def test_rejects_empty_support(self):
        with pytest.raises(MeasureError, match=r"\(N, d\)"):
            uniform_measure(np.zeros((0, 2)))

    def test_rejects_overflowing_mass_norm_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeasureError, match="mass norm is not finite"):
                uniform_measure([[1e200]])

    def test_uniform_helper_mass_tolerance(self):
        for n in (1, 3, 10_000):
            uniform_measure(np.zeros((n, 1)))  # must not raise


class TestRhoUpper:
    def test_identical_is_zero(self):
        mu = uniform_measure(np.array([[0.0], [1.0]]))
        assert rho_upper(mu, mu) == 0.0

    def test_single_pair_distance(self):
        assert rho_upper(uniform_measure(np.zeros((1, 3))), uniform_measure([[1.0, 0.0, 0.0]])) == 1.0

    def test_two_pair_mean(self):
        mu = uniform_measure(np.array([[0.0], [1.0]]))
        nu = uniform_measure(np.array([[0.5], [1.5]]))
        assert rho_upper(mu, nu) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self, rng):
        for _ in range(50):
            a, b = random_coupled_pair(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
            assert rho_upper(a, b) == rho_upper(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(100):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
            a, b, c = (EmpiricalMeasure(rng.uniform(-5, 5, (n, d))) for _ in range(3))
            assert rho_upper(a, c) <= rho_upper(a, b) + rho_upper(b, c) + 1e-12

    def test_coupling_errors(self):
        mu = uniform_measure(np.zeros((2, 1)))
        nu = uniform_measure(np.zeros((3, 1)))
        with pytest.raises(CouplingError):
            rho_upper(mu, nu)
        with pytest.raises(CouplingError):
            rho_upper(mu, uniform_measure(np.zeros((2, 2))))


class TestRhoLower:
    def test_identical_is_zero(self):
        mu = uniform_measure(np.array([[0.3], [2.0]]))
        assert rho_lower(mu, mu, default_dictionary(1)) == 0.0

    def test_scaled_coordinate_gap(self):
        # phi(x) = 0.8 x has norm exactly 1 (Lipschitz 0.8 plus weighted sup 0.2),
        # and separates the two point masses by 0.8
        d = {"coord0": lambda pts: 0.8 * pts[:, 0]}
        assert rho_lower(uniform_measure([[0.0]]), uniform_measure([[1.0]]), d) == pytest.approx(0.8, abs=1e-15)

    def test_sandwich_on_coupled_pairs(self, rng):
        dicts = {dim: default_dictionary(dim) for dim in (1, 2, 3)}
        for k in range(120):
            dim = 1 + k % 3
            a, b = random_coupled_pair(rng, int(rng.integers(1, 9)), dim)
            assert rho_lower(a, b, dicts[dim]) <= rho_upper(a, b) + 1e-12

    def test_empty_dictionary_rejected(self):
        with pytest.raises(MeasureError, match="empty"):
            rho_lower(uniform_measure([[0.0]]), uniform_measure([[1.0]]), {})


class TestDefaultDictionary:
    def test_norm_calibration(self):
        # weighted sup |f(x)| / (1 + |x|)^2 <= 0.2 and pair ratio
        # |f(x) - f(y)| / |x - y| <= 0.8, so every entry has norm at most one;
        # points cluster near radius 1 (where the sup peaks) and run past the
        # clip radius 10
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            dirs = rng.standard_normal((600, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = np.concatenate([rng.uniform(0.9, 1.1, 300), rng.uniform(0.0, 30.0, 300)])
            pts = dirs * radii[:, None]
            weight = (1.0 + np.linalg.norm(pts, axis=1)) ** 2
            near = pts + 1e-3 * rng.standard_normal(pts.shape)
            far = pts[rng.permutation(pts.shape[0])]
            for tag, fn in default_dictionary(dim).items():
                vals = fn(pts)
                assert np.max(np.abs(vals) / weight) <= 0.2 * (1 + 1e-12)
                for other in (near, far):
                    gap = np.linalg.norm(pts - other, axis=1)
                    keep = gap > 0
                    ratio = np.abs(vals - fn(other))[keep] / gap[keep]
                    assert ratio.max() <= 0.8 * (1 + 1e-9), (dim, tag)


def _sum_outcome(fn, values):
    # the result's exact bits (sign of zero included), or the exception type
    try:
        return fn(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def _assert_matches_fsum(values):
    # on the bucket path too, which short inputs skip by default
    values = np.asarray(values, dtype=np.float64)
    expected = _sum_outcome(math.fsum, values.tolist())
    assert _sum_outcome(exact_sum, values) == expected
    with mock.patch.object(measure, "_EXACT_SUM_MIN_TERMS", 1):
        assert _sum_outcome(exact_sum, values) == expected


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
subnormals = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308, allow_nan=False)
scaled = st.builds(
    lambda m, e: math.ldexp(m, e),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-1000, 1000),
)


class TestExactSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(finite_floats, subnormals, scaled), max_size=60))
    def test_bitwise_equal_to_fsum(self, values):
        _assert_matches_fsum(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(scaled, subnormals), min_size=1, max_size=40), st.randoms())
    def test_exact_cancellation(self, values, random):
        # x and -x in shuffled order, plus one small remainder
        pairs = values + [-v for v in values]
        random.shuffle(pairs)
        _assert_matches_fsum(pairs)
        _assert_matches_fsum(pairs + [values[0] * 2.0**-60])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(finite_floats, st.sampled_from([math.inf, -math.inf, math.nan])), min_size=1, max_size=20)
    )
    def test_nonfinite_matches_fsum_or_its_exception(self, values):
        _assert_matches_fsum(values)

    def test_signed_zeros_and_empty(self):
        for values in ([], [-0.0], [-0.0] * 5, [0.0, -0.0], [1.5, -1.5], [-1.5, 1.5, -0.0]):
            _assert_matches_fsum(values)

    def test_wide_range_and_large_arrays(self, rng):
        for n in (1, 2, 1000, 70_000):
            mant = rng.standard_normal(n)
            _assert_matches_fsum(mant * 10.0 ** rng.uniform(-300, 300, n))
            _assert_matches_fsum(mant * 10.0 ** rng.uniform(290, 307, n))
            _assert_matches_fsum(mant * 5e-324 * rng.integers(0, 1 << 40, n))

    @staticmethod
    def _fsum_call_sizes(monkeypatch, values):
        # exact_sum's result and the length of each list it hands math.fsum
        sizes, fsum = [], math.fsum
        with monkeypatch.context() as m:
            m.setattr(math, "fsum", lambda v: sizes.append(len(v)) or fsum(v))
            total = exact_sum(values)
        return total, sizes

    @pytest.mark.parametrize("n", [3, 512, 2000])
    @pytest.mark.parametrize("edge", [1022, 1023])
    def test_overflow_guard_edge(self, monkeypatch, rng, n, edge):
        # expo.max() + n.bit_length() == 1022 is summed in buckets; 1023 defers
        top = edge - n.bit_length()
        mant = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
        x = np.ldexp(mant, rng.integers(top - 40, top + 1, n))
        x[0] = math.ldexp(0.75, top)
        for values in (x, np.concatenate([x[: n // 2], -x[: n // 2]])):
            total, sizes = self._fsum_call_sizes(monkeypatch, values)
            assert total.hex() == math.fsum(values.tolist()).hex()
            if values.size < measure._EXACT_SUM_MIN_TERMS:
                # short inputs go to math.fsum whole, whatever their exponents
                assert sizes == [values.size]
            else:
                # deferring hands math.fsum the whole input; so does a zero total
                assert (values.size in sizes) == (edge == 1023 or total == 0)

    def test_wide_exponent_span(self, monkeypatch, rng):
        # 2,000 terms over more than 1,000 buckets, subnormals included
        x = np.ldexp(rng.uniform(-1.0, 1.0, 2000), rng.integers(-1074, 1000, 2000))
        span = int(np.ptp(np.frexp(x)[1])) + 1
        assert span > 1000
        total, sizes = self._fsum_call_sizes(monkeypatch, x)
        assert x.size not in sizes
        assert total.hex() == math.fsum(x.tolist()).hex()
        # an exact zero total takes its sign from math.fsum
        zero = rng.permutation(np.concatenate([x[:1000], -x[:1000]]))
        _assert_matches_fsum(zero)
        _assert_matches_fsum(-np.abs(zero) * 0.0)

    def test_permutation_invariant(self, rng):
        x = rng.standard_normal(5000) * 10.0 ** rng.uniform(-8, 8, 5000)
        assert exact_sum(x).hex() == exact_sum(rng.permutation(x)).hex()


class TestUnvalidatedMeasure:
    """The plain carrier ``EmpiricalMeasure`` against ``uniform_measure``."""

    def test_stores_arrays_as_given(self):
        x = np.array([[1.0], [2.0]])
        assert EmpiricalMeasure(x).support is x

    def test_reduction_bytes_match_validated(self, rng):
        for n, d in ((1, 1), (7, 3), (2000, 1), (999, 2)):
            x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, d))
            y = rng.standard_normal((n, d))
            fast, checked = EmpiricalMeasure(x), uniform_measure(x)
            assert [v.hex() for v in fast.mean] == [v.hex() for v in checked.mean]
            assert fast.lambda2.hex() == checked.lambda2.hex()
            for fn in default_dictionary(d).values():
                assert fast.integrate(fn).hex() == checked.integrate(fn).hex()
            nu_fast, nu_checked = EmpiricalMeasure(y), uniform_measure(y)
            assert rho_upper(fast, nu_fast).hex() == rho_upper(checked, nu_checked).hex()


def _weighted_sum(values) -> float:
    # the reduction of a measure that carried the weight array np.full(n, 1/n)
    values = np.asarray(values, dtype=np.float64)
    return exact_sum(np.full(values.shape[0], 1.0 / values.shape[0]) * values)


class TestUniformWeightBytes:
    """The scalar weight 1.0 / N gives the bits of the weight array
    ``np.full(N, 1.0 / N)``: every product is the same IEEE value."""

    @pytest.mark.parametrize("n", [1, 3, 49, 2000, 10_000])
    def test_reductions_match_weighted_formula(self, rng, n):
        x = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-3, 3, (n, 2))
        y = rng.standard_normal((n, 2))
        mu, nu = EmpiricalMeasure(x), EmpiricalMeasure(y)
        assert [v.hex() for v in mu.mean] == [_weighted_sum(x[:, k]).hex() for k in range(2)]
        radii = np.linalg.norm(x, axis=1)
        assert mu.lambda2.hex() == _weighted_sum((1.0 + radii) ** 2).hex()
        for fn in default_dictionary(2).values():
            assert mu.integrate(fn).hex() == _weighted_sum(fn(x)).hex()
        gaps = np.linalg.norm(x - y, axis=1)
        assert rho_upper(mu, nu).hex() == _weighted_sum(gaps).hex()
