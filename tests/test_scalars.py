from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw.scalars import (
    LaurentPoly,
    RatFunc,
    TruncSeries,
    expand_series,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def lp_const(c):
    return LaurentPoly.const(c)


@st.composite
def laurent_polys(draw, names=("x", "q")):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(-3, 3)) for _ in names)
        terms[e] = draw(fractions)
    return LaurentPoly(tuple(names), terms)


@st.composite
def ratfuncs(draw):
    num = draw(laurent_polys())
    den = draw(laurent_polys().filter(lambda p: not p.is_zero()))
    return RatFunc(num, den)


class TestLaurentPoly:
    def test_basic_arithmetic(self):
        x = LaurentPoly.var("x")
        assert (x + 1) * (x - 1) == x * x - 1
        assert x ** -2 * x ** 2 == lp_const(1)
        assert (2 * x) - x == x

    def test_negative_exponents(self):
        x = LaurentPoly.var("x")
        inv = x.monomial_inverse()
        assert inv == LaurentPoly.var("x", -1)
        assert x * inv == lp_const(1)
        with pytest.raises(ValueError):
            (x + 1).monomial_inverse()

    def test_evaluate(self):
        x, q = LaurentPoly.var("x"), LaurentPoly.var("q")
        p = x ** 2 * q ** -1 + 3
        assert p.evaluate({"x": F(2), "q": F(1, 2)}) == 8 + 3

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
    def test_geometric_at_zero(self):
        # (y-x)/(xy-1) at y=0: coefficients x, x^2-1, x^3-x, ...
        x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
        f = RatFunc(y - x, x * y - 1)
        s = expand_series(f, "y", 2, at="zero")
        assert s.coeffs == [x, x ** 2 - 1, x ** 3 - x]

    def test_constant(self):
        s = expand_series(RatFunc.const(1), "y", 3, at="zero")
        assert s.coeffs == [F(1), F(0), F(0), F(0)]

    def test_at_infinity(self):
        y = LaurentPoly.var("y")
        f = RatFunc(y ** 2, y ** 2 - 1)
        s = expand_series(f, "y", 4, at="inf")
        assert s.coeffs == [F(1), F(0), F(1), F(0), F(1)]

    def test_pole_error_names_denominator(self):
        y = LaurentPoly.var("y")
        with pytest.raises(ValueError, match="pole at y=0"):
            expand_series(RatFunc(lp_const(1), y), "y", 2, at="zero")
        with pytest.raises(ValueError, match="pole at y=infinity"):
            expand_series(RatFunc(y ** 2, y - 1), "y", 2, at="inf")

    def test_multiply_back_oracle(self):
        # oracle: result times the denominator series reproduces the numerator
        x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
        f = RatFunc(y - x, x * y - 1)
        N = 6
        s = expand_series(f, "y", N, at="zero")
        den = expand_series(RatFunc.from_poly(x * y - 1), "y", N, at="zero")
        num = expand_series(RatFunc.from_poly(y - x), "y", N, at="zero")
        assert s * den == num

    @given(ratfuncs())
    @settings(max_examples=30, deadline=None)
    def test_inverse_series_roundtrip(self, f):
        # for f regular and nonzero at the expansion point of x
        try:
            s = expand_series(f, "x", 5, at="zero")
            sinv = expand_series(RatFunc.const(1) / f, "x", 5, at="zero")
        except (ValueError, ZeroDivisionError, TypeError):
            return  # pole or non-invertible leading coefficient: skip
        one = s * sinv
        zero = one.coeffs[0] * 0
        assert one.coeffs[0] == zero + 1
        assert all(c == zero for c in one.coeffs[1:])


class TestTruncSeries:
    def test_mismatch_rejected(self):
        a = TruncSeries("y", 2, [F(1), F(0), F(0)])
        b = TruncSeries("y", 3, [F(1), F(0), F(0), F(0)])
        with pytest.raises(ValueError):
            a + b

    def test_mul_truncates(self):
        a = TruncSeries("y", 2, [F(1), F(1), F(1)])
        assert (a * a).coeffs == [F(1), F(2), F(3)]
