"""Exact scalar kernels over Q.

Provides Laurent polynomials in one variable y, stored fraction-free as
integer numerators over one positive denominator in lowest terms; rational
functions of y, never reduced and compared by cross-multiplication; and
series expansions of those returned as coefficient lists.  `Fraction`s
appear only at the boundary: the `terms` view, `evaluate` and the series
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _poly(nums: dict[int, int], den: int) -> "LaurentPoly":
    """The polynomial nums/den, for integer nums with no zero stored and
    den > 0, reduced by one content gcd.
    """
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {e: c // g for e, c in nums.items()}
        den //= g
    p = object.__new__(LaurentPoly)
    p.nums = nums
    p.den = den
    return p


class LaurentPoly:
    """Laurent polynomial in y over Q, stored as integer numerators
    {exponent: int} over one positive denominator `den`.

    Exponents may be negative; zero numerators are never stored.  Every
    result is reduced by one content gcd, gcd(den, *nums) == 1, so the form
    is canonical and equal polynomials have equal (nums, den).
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: dict[int, Fraction | int]):
        terms = {e: c for e, c in terms.items() if c != 0}
        # the lcm of reduced denominators leaves no common factor to divide out
        den = lcm(*(c.denominator for c in terms.values()))
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        self.den = den

    @staticmethod
    def const(c: Fraction | int) -> "LaurentPoly":
        return _poly({0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def y() -> "LaurentPoly":
        return _poly({1: 1}, 1)

    @staticmethod
    def from_ints(coeffs: list[int], den: int = 1) -> "LaurentPoly":
        """The polynomial sum_e coeffs[e] y^e / den for integers, den != 0."""
        if den < 0:
            coeffs, den = [-c for c in coeffs], -den
        return _poly({e: c for e, c in enumerate(coeffs) if c}, den)

    @property
    def terms(self) -> dict[int, Fraction]:
        """The coefficients as {exponent: Fraction}."""
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

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
        g = gcd(self.den, other.den)
        s, t = other.den // g, self.den // g
        nums = {e: c * s for e, c in self.nums.items()} if s != 1 else dict(self.nums)
        for e, c in other.nums.items():
            c = nums.get(e, 0) + c * t
            if c:
                nums[e] = c
            else:
                nums.pop(e, None)
        return _poly(nums, self.den * s)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.nums.items()}, self.den)

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
        a, b = self.nums, other.nums
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:  # a monomial factor shifts and scales: nothing cancels
            [(e2, c2)] = b.items()
            return _poly({e + e2: c * c2 for e, c in a.items()}, self.den * other.den)
        nums: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                nums[e] = nums.get(e, 0) + c1 * c2
        return _poly({e: c for e, c in nums.items() if c}, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __bool__(self):
        return not self.is_zero()

    # -- structure ----------------------------------------------------------

    def derivative(self) -> "LaurentPoly":
        """Formal derivative d/dy."""
        return _poly({e - 1: c * e for e, c in self.nums.items() if e}, self.den)

    def evaluate(self, x: Fraction) -> Fraction:
        """Value at y = x as a Fraction (see value_pair)."""
        x = Fraction(x)
        return Fraction(*self.value_pair(x.numerator, x.denominator))

    def value_pair(self, p: int, q: int) -> tuple:
        """Value at y = p/q (q != 0, p != 0 when an exponent is negative) as
        an unreduced integer pair (num, den), den != 0 of either sign, by
        Horner's rule on integers: with exponents lo..hi, sum c_e p^(e-lo)
        q^(hi-e) times p^lo / (q^hi den).
        """
        if not self.nums:
            return 0, 1
        lo, hi = min(self.nums), max(self.nums)
        acc, qpow = 0, 1
        for e in range(hi, lo - 1, -1):
            acc = acc * p + self.nums.get(e, 0) * qpow
            qpow *= q
        den = self.den
        if lo >= 0:
            acc *= p ** lo
        else:
            den *= p ** -lo
        if hi >= 0:
            den *= q ** hi
        else:
            acc *= q ** -hi
        return acc, den

    def __str__(self):
        if not self.nums:
            return "0"
        return " + ".join(
            f"{Fraction(self.nums[e], self.den)}" + (f"*y^{e}" if e else "")
            for e in sorted(self.nums, reverse=True)
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
        return self.num * other.den == other.num * self.den

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


def expand_series(f: RatFunc, order: int, at: str = "inf") -> list[Fraction]:
    """Coefficients c_0..c_order of f as a power series in y (at 0) or in
    y^{-1} (at infinity).

    Runs on the integer numerators A = sum a_i y^i of den and B of num,
    shifted to start at y^0 (exponents negated at infinity).  1/A has
    coefficients C_k / a_0^(k+1), with C_0 = 1 and
    C_k = -sum_{i>=1} a_i a_0^(i-1) C_(k-i), so B/A has coefficients
    sum_i b_i a_0^i C_(m-i) / a_0^(m+1).  One Fraction is built per returned
    coefficient, where the two polynomials' denominators are applied.

    Raises ValueError naming the denominator when f has a pole at the
    expansion point.
    """
    if at not in ("zero", "inf"):
        raise ValueError("at must be 'zero' or 'inf'")
    sign = 1 if at == "zero" else -1
    num_c = {sign * e: c for e, c in f.num.nums.items()}
    den_c = {sign * e: c for e, c in f.den.nums.items()}
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
    top = order - lead
    a0 = den_c[v_den]
    pw = [1]
    for _ in range(top + 1):
        pw.append(pw[-1] * a0)
    a = [(i, den_c[v_den + i] * pw[i - 1]) for i in range(1, top + 1) if v_den + i in den_c]
    b = [(i, num_c[v_num + i] * pw[i]) for i in range(top + 1) if v_num + i in num_c]
    inv = [1]
    for k in range(1, top + 1):
        inv.append(-sum(w * inv[k - i] for i, w in a if i <= k))
    scale_num, scale_den = f.den.den, f.num.den
    coeffs = [zero] * min(lead, order + 1)
    for m in range(top + 1):
        acc = sum(w * inv[m - i] for i, w in b if i <= m)
        coeffs.append(Fraction(acc * scale_num, scale_den * pw[m + 1]))
    return coeffs


# -- tracer attachment points -----------------------------------------------
# bench/tracer.py imports BallContext and wraps BallContext.from_fraction and
# seminormal.ball_sqrt (ROADMAP item 1).  Nothing in the program calls them.


class BallContext:
    def from_fraction(self, x):
        raise NotImplementedError("interval reals are gone; every check is exact")


def ball_sqrt(x):
    raise NotImplementedError("interval reals are gone; every check is exact")
