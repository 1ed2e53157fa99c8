from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw.scalars import (
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
