"""Exact scalar kernels over Q.

Provides big rationals (stdlib Fraction), multivariate Laurent polynomials,
rational functions compared by cross-multiplication and truncated power
series.
"""

from __future__ import annotations

from fractions import Fraction


def _var_key(name: str) -> tuple[bool, str]:
    # canonical variable order: alphabetical, 'y' always last
    return (name == "y", name)


class LaurentPoly:
    """Multivariate Laurent polynomial with Fraction coefficients.

    Exponent vectors may contain negative entries; multiplication adds them.
    Variables are kept in a fixed canonical order; zero coefficients are
    never stored.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]):
        self.variables = variables
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @staticmethod
    def const(c, variables: tuple[str, ...] = ()) -> "LaurentPoly":
        c = Fraction(c)
        zero = (0,) * len(variables)
        return LaurentPoly(variables, {zero: c} if c else {})

    @staticmethod
    def var(name: str, power: int = 1) -> "LaurentPoly":
        return LaurentPoly((name,), {(power,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        zero = (0,) * len(self.variables)
        return self.terms.get(zero, Fraction(0))

    # -- variable alignment -------------------------------------------------

    def _with_vars(self, variables: tuple[str, ...]) -> "LaurentPoly":
        if variables == self.variables:
            return self
        pos = {v: i for i, v in enumerate(self.variables)}
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            ne = tuple(e[pos[v]] if v in pos else 0 for v in variables)
            terms[ne] = terms.get(ne, Fraction(0)) + c
        return LaurentPoly(variables, terms)

    @staticmethod
    def _align(a: "LaurentPoly", b: "LaurentPoly"):
        if a.variables == b.variables:
            return a, b
        merged = tuple(sorted(set(a.variables) | set(b.variables), key=_var_key))
        return a._with_vars(merged), b._with_vars(merged)

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other, self.variables)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = LaurentPoly._align(self, other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPoly(a.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.variables, {e: -c for e, c in self.terms.items()})

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
        a, b = LaurentPoly._align(self, other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.monomial_inverse() ** (-n)
        result = LaurentPoly.const(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        (e, c), = self.terms.items()
        return LaurentPoly(self.variables, {tuple(-x for x in e): Fraction(1) / c})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = LaurentPoly._align(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    # -- structure ----------------------------------------------------------

    def coeff_split(self, var: str):
        """Split into {exponent of var: coefficient over the remaining vars}.

        Coefficients are plain Fractions when no other variable occurs.
        """
        if var not in self.variables:
            if self.is_zero():
                return {}
            return {0: self if self.variables else self.constant_value()}
        idx = self.variables.index(var)
        rest = tuple(v for v in self.variables if v != var)
        split: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for e, c in self.terms.items():
            re = tuple(x for i, x in enumerate(e) if i != idx)
            split.setdefault(e[idx], {})[re] = c
        if rest:
            return {k: LaurentPoly(rest, t) for k, t in split.items()}
        return {k: t[()] for k, t in split.items()}

    def derivative(self, var: str) -> "LaurentPoly":
        """Formal derivative with respect to one variable."""
        if var not in self.variables:
            return LaurentPoly.const(0, self.variables)
        idx = self.variables.index(var)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = e[:idx] + (e[idx] - 1,) + e[idx + 1:]
            terms[ne] = terms.get(ne, Fraction(0)) + c * e[idx]
        return LaurentPoly(self.variables, terms)

    def evaluate(self, assign: dict[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for name, exp in zip(self.variables, e):
                if exp:
                    v *= Fraction(assign[name]) ** exp
            total += v
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{x}" for v, x in zip(self.variables, e) if x
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    __repr__ = __str__


class RatFunc:
    """Quotient of Laurent polynomials, never reduced.

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
        return RatFunc(p, LaurentPoly.const(1, p.variables))

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc.from_poly(LaurentPoly.const(c))

    @staticmethod
    def var(name: str, power: int = 1) -> "RatFunc":
        return RatFunc.from_poly(LaurentPoly.var(name, power))

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

    def evaluate(self, assign: dict[str, Fraction]) -> Fraction:
        d = self.den.evaluate(assign)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(assign) / d

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


# -- truncated series -------------------------------------------------------


class TruncSeries:
    """Truncated power series c_0 + c_1 t + ... + c_N t^N in one symbol.

    Coefficients are any exact ring elements (Fraction or LaurentPoly).
    """

    __slots__ = ("variable", "order", "coeffs")

    def __init__(self, variable: str, order: int, coeffs: list):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list must have length order+1")
        self.variable = variable
        self.order = order
        self.coeffs = list(coeffs)

    def _check(self, other: "TruncSeries"):
        if self.variable != other.variable or self.order != other.order:
            raise ValueError("series variable/order mismatch")

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        return TruncSeries(self.variable, self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        return TruncSeries(self.variable, self.order,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return TruncSeries(self.variable, self.order, [c * other for c in self.coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        out = []
        for k in range(self.order + 1):
            acc = self.coeffs[0] * other.coeffs[k]
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return TruncSeries(self.variable, self.order, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.variable == other.variable and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __str__(self):
        return f"TruncSeries[{self.variable}; {self.coeffs}]"

    __repr__ = __str__


def _ring_inv(x):
    if isinstance(x, Fraction):
        if x == 0:
            raise ZeroDivisionError("inverting zero coefficient")
        return Fraction(1) / x
    if isinstance(x, int):
        return Fraction(1, x)
    if isinstance(x, LaurentPoly):
        return x.monomial_inverse()
    raise TypeError(f"cannot invert coefficient of type {type(x)!r}")


def _series_inverse(a: list, order: int) -> list:
    inv0 = _ring_inv(a[0])
    out = [inv0]
    for k in range(1, order + 1):
        acc = a[1] * out[k - 1]
        for i in range(2, k + 1):
            acc = acc + a[i] * out[k - i]
        out.append(-(inv0 * acc))
    return out


def expand_series(f: RatFunc, var: str, order: int, at: str = "inf") -> TruncSeries:
    """Expand a rational function as a truncated series in var (at 0) or in
    var^{-1} (at infinity).

    Raises ValueError naming the denominator when f has a pole at the
    expansion point.
    """
    if at not in ("zero", "inf"):
        raise ValueError("at must be 'zero' or 'inf'")
    sign = 1 if at == "zero" else -1
    num_c = {sign * e: c for e, c in f.num.coeff_split(var).items()}
    den_c = {sign * e: c for e, c in f.den.coeff_split(var).items()}
    if not num_c:
        zero = _zero_like(den_c)
        return TruncSeries(var if at == "zero" else f"{var}^-1", order, [zero] * (order + 1))
    v_num = min(num_c)
    v_den = min(den_c)
    lead = v_num - v_den
    if lead < 0:
        point = "0" if at == "zero" else "infinity"
        raise ValueError(
            f"pole at {var}={point}: denominator factor ({f.den}) vanishes to "
            f"order {-lead} beyond the numerator"
        )
    zero = _zero_like(den_c)
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
    return TruncSeries(var if at == "zero" else f"{var}^-1", order, coeffs)


def _zero_like(coeff_map: dict):
    for c in coeff_map.values():
        if isinstance(c, LaurentPoly):
            return LaurentPoly.const(0, c.variables)
        return Fraction(0)
    return Fraction(0)


# -- tracer attachment points -----------------------------------------------
# bench/tracer.py imports BallContext and wraps BallContext.from_fraction and
# seminormal.ball_sqrt (ROADMAP item 1).  Nothing in the program calls them.


class BallContext:
    def from_fraction(self, x):
        raise NotImplementedError("interval reals are gone; every check is exact")


def ball_sqrt(x):
    raise NotImplementedError("interval reals are gone; every check is exact")
