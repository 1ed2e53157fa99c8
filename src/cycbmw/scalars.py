"""Exact scalar kernels over Q.

Provides big rationals (stdlib Fraction), Laurent polynomials in one
variable y, rational functions of y compared by cross-multiplication, and
series expansions of those returned as coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction


class LaurentPoly:
    """Laurent polynomial in y with Fraction coefficients, stored as
    {exponent: coefficient}.

    Exponents may be negative; zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction]):
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: Fraction(c)})

    @staticmethod
    def y() -> "LaurentPoly":
        return LaurentPoly({1: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return LaurentPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
        return LaurentPoly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return not self.is_zero()

    # -- structure ----------------------------------------------------------

    def derivative(self) -> "LaurentPoly":
        """Formal derivative d/dy."""
        return LaurentPoly({e - 1: c * e for e, c in self.terms.items()})

    def evaluate(self, x: Fraction) -> Fraction:
        """Value at y = x."""
        x = Fraction(x)
        return sum((c * x ** e for e, c in self.terms.items()), Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{self.terms[e]}" + (f"*y^{e}" if e else "")
            for e in sorted(self.terms, reverse=True)
        )

    __repr__ = __str__


class RatFunc:
    """Quotient of Laurent polynomials in y, never reduced.

    Arithmetic composes numerators/denominators without gcd work and
    equality cross-multiplies, so there is no canonical form and no hash.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFunc")
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RatFunc":
        return RatFunc(p, LaurentPoly.const(1))

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc.from_poly(LaurentPoly.const(c))

    @staticmethod
    def y() -> "RatFunc":
        return RatFunc.from_poly(LaurentPoly.y())

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, LaurentPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (RatFunc.const(1) / self) ** (-n)
        result = RatFunc.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero()

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def evaluate(self, x: Fraction) -> Fraction:
        """Value at y = x."""
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(x) / d

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


# -- series expansion -------------------------------------------------------


def _series_inverse(a: list, order: int) -> list:
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for k in range(1, order + 1):
        acc = a[1] * out[k - 1]
        for i in range(2, k + 1):
            acc = acc + a[i] * out[k - i]
        out.append(-(inv0 * acc))
    return out


def expand_series(f: RatFunc, order: int, at: str = "inf") -> list[Fraction]:
    """Coefficients c_0..c_order of f as a power series in y (at 0) or in
    y^{-1} (at infinity).

    Raises ValueError naming the denominator when f has a pole at the
    expansion point.
    """
    if at not in ("zero", "inf"):
        raise ValueError("at must be 'zero' or 'inf'")
    sign = 1 if at == "zero" else -1
    num_c = {sign * e: c for e, c in f.num.terms.items()}
    den_c = {sign * e: c for e, c in f.den.terms.items()}
    zero = Fraction(0)
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
    inv = _series_inverse(a, order)
    coeffs = []
    for k in range(order + 1):
        if k < lead:
            coeffs.append(zero)
            continue
        m = k - lead
        acc = zero
        for i in range(m + 1):
            acc = acc + b[i] * inv[m - i]
        coeffs.append(acc)
    return coeffs


# -- tracer attachment points -----------------------------------------------
# bench/tracer.py imports BallContext and wraps BallContext.from_fraction and
# seminormal.ball_sqrt (ROADMAP item 1).  Nothing in the program calls them.


class BallContext:
    def from_fraction(self, x):
        raise NotImplementedError("interval reals are gone; every check is exact")


def ball_sqrt(x):
    raise NotImplementedError("interval reals are gone; every check is exact")
