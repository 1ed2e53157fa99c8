from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycbmw import params, scalars, seminormal
from cycbmw.scalars import (
    BallContext,
    LaurentPoly,
    RatFunc,
    expand_series,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def lp_const(c):
    return LaurentPoly.const(c)


def convolve(a, b):
    """Product of two coefficient lists, truncated to the length of a."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


@st.composite
def laurent_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        terms[draw(st.integers(-3, 3))] = draw(fractions)
    return LaurentPoly(terms)


def is_canonical(p):
    """Integer numerators, none zero, over a positive denominator, with no
    common factor left.
    """
    return (type(p.den) is int and p.den > 0
            and all(type(c) is int and c != 0 for c in p.nums.values())
            and gcd(p.den, *p.nums.values()) == 1)


@st.composite
def ratfuncs(draw):
    num = draw(laurent_polys())
    den = draw(laurent_polys().filter(lambda p: not p.is_zero()))
    return RatFunc(num, den)


class TestLaurentPoly:
    def test_basic_arithmetic(self):
        y = LaurentPoly.y()
        assert (y + 1) * (y - 1) == y * y - 1
        assert LaurentPoly({-2: F(1)}) * (y * y) == lp_const(1)
        assert (2 * y) - y == y

    def test_negative_exponents(self):
        y = LaurentPoly.y()
        power = lp_const(1)
        for k in range(1, 4):
            power = power * y
            assert LaurentPoly({-k: F(1)}) * power == lp_const(1)
            assert LaurentPoly({-k: F(1, 3)}) * power == lp_const(F(1, 3))
        inv = LaurentPoly({-1: F(1)})
        assert (y + 1) * inv == 1 + inv

    def test_evaluate(self):
        y = LaurentPoly.y()
        p = y * y + 4 * LaurentPoly({-1: F(1)}) + 3
        assert p.evaluate(F(2)) == 4 + 2 + 3
        assert p.evaluate(F(1, 2)) == F(1, 4) + 8 + 3

    @given(laurent_polys(), laurent_polys(), laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == lp_const(0)


class TestCanonicalForm:
    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_results_are_canonical(self, a, b):
        for p in (a, a + b, a - b, a * b, -a, a.derivative()):
            assert is_canonical(p), p

    def test_equal_values_have_equal_form(self):
        y = LaurentPoly.y()
        half = (y * F(1, 2) + F(1, 2)) * 2
        assert (half.nums, half.den) == ({1: 1, 0: 1}, 1)
        assert half == y + 1
        third = LaurentPoly({2: F(2, 3), -1: F(4, 9)})
        assert (third.nums, third.den) == ({2: 6, -1: 4}, 9)
        zero = third - third
        assert (zero.nums, zero.den) == ({}, 1)

    @given(laurent_polys(), laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_equal_values_have_identical_form(self, a, b):
        for p, q in ((a * b, b * a), ((a + b) - b, a), (a * 2 * F(1, 2), a)):
            assert (p.nums, p.den) == (q.nums, q.den)

    @given(laurent_polys())
    @settings(max_examples=60, deadline=None)
    def test_terms_round_trip(self, p):
        terms = p.terms
        assert all(type(c) is F and c != 0 for c in terms.values())
        assert {e: F(c, p.den) for e, c in p.nums.items()} == terms
        back = LaurentPoly(terms)
        assert (back.nums, back.den) == (p.nums, p.den)

    @given(laurent_polys(), fractions.filter(lambda x: x != 0))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_fraction_reference(self, p, x):
        value = p.evaluate(x)
        assert type(value) is F
        assert value == sum((c * x ** e for e, c in p.terms.items()), F(0))

    @given(st.lists(st.integers(-10**6, 10**6), max_size=6),
           st.integers(-10**4, 10**4).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_from_ints_is_canonical(self, coeffs, den):
        p = LaurentPoly.from_ints(coeffs, den)
        assert is_canonical(p)
        assert p == LaurentPoly({e: F(c, den) for e, c in enumerate(coeffs)})

    @given(laurent_polys(), fractions.filter(lambda x: x != 0))
    @settings(max_examples=60, deadline=None)
    def test_value_pair_matches_evaluate(self, p, x):
        num, den = p.value_pair(x.numerator, x.denominator)
        assert type(num) is int and type(den) is int and den != 0
        assert F(num, den) == p.evaluate(x)

    def test_evaluate_negative_exponents_at_ratio(self):
        p = LaurentPoly({-3: F(5, 6), -1: F(-2, 9), 2: F(7, 4)})
        for x in (F(3, 7), F(-7, 3), F(1, 12), F(-5)):
            assert p.evaluate(x) == F(5, 6) / x ** 3 - F(2, 9) / x + F(7, 4) * x ** 2
        assert LaurentPoly({1: 1, 3: 2}).evaluate(0) == 0
        with pytest.raises(ZeroDivisionError):
            p.evaluate(F(0))


class TestRatFuncNormalize:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(lp_const(1), lp_const(0))

    @given(ratfuncs(), ratfuncs(), ratfuncs())
    @settings(max_examples=40, deadline=None)
    def test_field_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        if not f.is_zero():
            assert (g / f) * f == g
            assert f * (RatFunc.const(1) / f) == RatFunc.const(1)


class TestExpandSeries:
    @given(fractions)
    @settings(max_examples=30, deadline=None)
    def test_geometric_at_zero(self, x):
        # (y-x)/(xy-1) at y=0: coefficients x, x^2-1, x^3-x, ...
        y = LaurentPoly.y()
        f = RatFunc(y - x, x * y - 1)
        assert expand_series(f, 2, at="zero") == [x, x ** 2 - 1, x ** 3 - x]

    def test_constant(self):
        assert expand_series(RatFunc.const(1), 3, at="zero") == [F(1), F(0), F(0), F(0)]

    def test_at_infinity(self):
        y = LaurentPoly.y()
        f = RatFunc(y * y, y * y - 1)
        assert expand_series(f, 4, at="inf") == [F(1), F(0), F(1), F(0), F(1)]

    def test_pole_error_names_denominator(self):
        y = LaurentPoly.y()
        with pytest.raises(ValueError, match="pole at y=0"):
            expand_series(RatFunc(lp_const(1), y), 2, at="zero")
        with pytest.raises(ValueError, match="pole at y=infinity"):
            expand_series(RatFunc(y * y, y - 1), 2, at="inf")

    @given(fractions)
    @settings(max_examples=30, deadline=None)
    def test_multiply_back_oracle(self, x):
        # oracle: result times the denominator series reproduces the numerator
        y = LaurentPoly.y()
        f = RatFunc(y - x, x * y - 1)
        N = 6
        s = expand_series(f, N, at="zero")
        den = expand_series(RatFunc.from_poly(x * y - 1), N, at="zero")
        num = expand_series(RatFunc.from_poly(y - x), N, at="zero")
        assert convolve(s, den) == num

    @given(ratfuncs())
    @settings(max_examples=30, deadline=None)
    def test_inverse_series_roundtrip(self, f):
        # for f regular and nonzero at y=0
        try:
            s = expand_series(f, 5, at="zero")
            sinv = expand_series(RatFunc.const(1) / f, 5, at="zero")
        except (ValueError, ZeroDivisionError):
            return  # pole or zero at the expansion point: skip
        assert convolve(s, sinv) == [1, 0, 0, 0, 0, 0]


def reference_series_inverse(a, order):
    inv0 = F(1) / a[0]
    out = [inv0]
    for k in range(1, order + 1):
        acc = a[1] * out[k - 1]
        for i in range(2, k + 1):
            acc = acc + a[i] * out[k - i]
        out.append(-(inv0 * acc))
    return out


def reference_expand_series(f, order, at):
    """Series coefficients in Fraction arithmetic: invert the denominator
    series term by term, then convolve it with the numerator.
    """
    sign = 1 if at == "zero" else -1
    num_c = {sign * e: c for e, c in f.num.terms.items()}
    den_c = {sign * e: c for e, c in f.den.terms.items()}
    zero = F(0)
    if not num_c:
        return [zero] * (order + 1)
    v_num = min(num_c)
    v_den = min(den_c)
    lead = v_num - v_den
    if lead < 0:
        point = "0" if at == "zero" else "infinity"
        raise ValueError(
            f"pole at y={point}: denominator factor ({f.den}) vanishes to "
            f"order {-lead} beyond the numerator"
        )
    a = [den_c.get(v_den + i, zero) for i in range(order + 1)]
    b = [num_c.get(v_num + i, zero) for i in range(order + 1)]
    inv = reference_series_inverse(a, order)
    coeffs = []
    for k in range(order + 1):
        if k < lead:
            coeffs.append(zero)
            continue
        m = k - lead
        coeffs.append(sum((b[i] * inv[m - i] for i in range(m + 1)), zero))
    return coeffs


@st.composite
def series_cases(draw):
    """(f, at): f has a numerator and a denominator over different
    denominators, and the numerator's order at the expansion point exceeds
    the denominator's by lead, drawn from -2..4 (negative: a pole).
    """
    at = draw(st.sampled_from(["zero", "inf"]))
    sign = 1 if at == "zero" else -1
    nonzero = fractions.filter(lambda c: c != 0)

    def local_poly(order):
        coeffs = {0: draw(nonzero)}
        for i in range(1, draw(st.integers(1, 4))):
            coeffs[i] = draw(fractions)
        return LaurentPoly({sign * (order + i): c for i, c in coeffs.items()})

    v_den = draw(st.integers(-3, 3))
    lead = draw(st.integers(-2, 4))
    f = RatFunc(local_poly(v_den + lead), local_poly(v_den))
    assume(f.num.den != f.den.den)
    return f, at


class TestSeriesOracle:
    @given(series_cases(), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, case, order):
        f, at = case
        try:
            expected = reference_expand_series(f, order, at)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                expand_series(f, order, at=at)
            assert str(info.value) == str(exc)
            return
        got = expand_series(f, order, at=at)
        assert all(type(c) is F for c in got)
        assert got == expected

    @given(st.integers(0, 6), st.sampled_from(["zero", "inf"]))
    @settings(max_examples=20, deadline=None)
    def test_zero_numerator(self, order, at):
        f = RatFunc(LaurentPoly({}), LaurentPoly({-1: F(2, 3), 2: F(1, 5)}))
        assert expand_series(f, order, at=at) == reference_expand_series(f, order, at)


def test_benchmark_tracer_attachment_points():
    # bench/tracer.py wraps these names where they are defined or imported;
    # bench/ is outside the test paths, so this is the check that they exist
    assert "__mul__" in LaurentPoly.__dict__
    assert "__rmul__" in LaurentPoly.__dict__
    assert seminormal.expand_series is scalars.expand_series
    assert params.expand_series is scalars.expand_series
    assert "from_fraction" in BallContext.__dict__
    assert seminormal.ball_sqrt is scalars.ball_sqrt
