"""Admissible ground data for the cyclotomic BMW algebra B_{r,n}.

Constructs the family Omega = {omega_a} together with rho from the
parameters (q, u_1..u_r, alpha), validates the admissibility equations, and
produces generic rational specializations on which the seminormal matrices
are real and well conditioned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .scalars import LaurentPoly, RatFunc, TruncSeries, expand_series


def scalar_inv(x):
    """Multiplicative inverse in the ambient scalar ring."""
    if isinstance(x, Fraction):
        return Fraction(1) / x
    if isinstance(x, int):
        return Fraction(1, x)
    if isinstance(x, LaurentPoly):
        return x.monomial_inverse()
    if isinstance(x, RatFunc):
        return RatFunc.const(1) / x
    raise TypeError(f"cannot invert scalar of type {type(x)!r}")


def elem_symmetric(u: Sequence, i: int):
    """Elementary symmetric polynomial sigma_i(u_1..u_r)."""
    r = len(u)
    if not 0 <= i <= r:
        raise ValueError(f"elementary symmetric index {i} out of range 0..{r}")
    es = [Fraction(1)] + [Fraction(0)] * r
    for x in u:
        for j in range(r, 0, -1):
            es[j] = es[j] + es[j - 1] * x
    return es[i]


def _q_factor_coeff(u, k: int):
    # series of (y-u)/(uy-1) at y=0: u at k=0, then u^(k+1) - u^(k-1)
    if k == 0:
        return u
    return u ** (k + 1) - u ** (k - 1)


def _q_poly_list(u: Sequence, a_max: int) -> list:
    """Coefficients Q_0..Q_{a_max} of Prod_i (y-u_i)/(u_i y - 1) at y=0."""
    zero = Fraction(0) if not u or isinstance(u[0], Fraction) else u[0] * 0
    out = [Fraction(1) if isinstance(zero, Fraction) else zero + 1]
    out += [zero] * a_max
    for ui in u:
        fac = [_q_factor_coeff(ui, k) for k in range(a_max + 1)]
        new = []
        for k in range(a_max + 1):
            acc = zero
            for i in range(k + 1):
                acc = acc + out[i] * fac[k - i]
            new.append(acc)
        out = new
    return out


def q_poly(a: int, u: Sequence, primed: bool = False):
    """Symmetric-function coefficient Q_a(u) (Q'_a when primed); 0 for a<0."""
    if a < 0:
        return Fraction(0) if not u or isinstance(u[0], Fraction) else u[0] * 0
    if primed:
        u = [scalar_inv(x) for x in u]
    return _q_poly_list(u, a)[a]


@dataclass
class SymCache:
    """Memoized symmetric-function data for a fixed u-tuple."""

    u: tuple
    sigma: list = field(default_factory=list)
    _qpoly: dict = field(default_factory=dict)
    _qpoly_primed: dict = field(default_factory=dict)

    def __post_init__(self):
        self.sigma = [elem_symmetric(self.u, i) for i in range(len(self.u) + 1)]

    def q(self, a: int, primed: bool = False):
        memo = self._qpoly_primed if primed else self._qpoly
        if a not in memo:
            memo[a] = q_poly(a, self.u, primed)
        return memo[a]


class GroundParams:
    """Ground data (r, q, u, delta, alpha, rho, Omega) with odd r.

    omega_a values are produced from the closed forms of the one-parameter
    family determined by rho^{-1} = alpha * u_1 ... u_r; the admissibility
    recursions are kept as independent checks, never as definitions.
    """

    def __init__(self, r: int, q, u: Sequence, alpha: int = 1):
        if r % 2 == 0 or r <= 0:
            raise ValueError("r must be an odd positive integer")
        if alpha not in (1, -1):
            raise ValueError("alpha must be +1 or -1")
        if len(u) != r:
            raise ValueError(f"expected {r} values u_1..u_r, got {len(u)}")
        self.r = r
        self.q = q
        self.u = tuple(u)
        self.alpha = alpha
        self.q_inv = scalar_inv(q)
        self.delta = q - self.q_inv
        if _is_zero_scalar(self.delta):
            raise ValueError("q - q^{-1} must be invertible (q != +-1)")
        self.delta_inv = scalar_inv(self.delta)
        self.u_prod = self.u[0]
        for x in self.u[1:]:
            self.u_prod = self.u_prod * x
        self.rho_inv = self.u_prod if alpha == 1 else -self.u_prod
        self.rho = scalar_inv(self.rho_inv)
        self.sym = SymCache(self.u)
        self._omega: dict[int, object] = {}
        # memos of seminormal._w_shape and seminormal._e_diag_value
        self._w_shape_cache: dict = {}
        self._e_diag_cache: dict = {}
        # genericity scan of generic_specialization; None for other data
        self.certificate: dict | None = None

    # -- omega --------------------------------------------------------------

    def omega(self, a: int):
        if a not in self._omega:
            self._omega[a] = self._omega_closed_form(a)
        return self._omega[a]

    def _omega_closed_form(self, a: int):
        dr = self.delta_inv * self.rho
        if a >= 0:
            head = Fraction(1 + (-1) ** a, 2) + dr * self.sym.q(a) * self.u_prod
            tail = sum_scalars(
                Fraction(1 + (-1) ** k, 2) * self.sym.q(a - 1 - k)
                for k in range(a)
            )
            value = head if tail is None else head + tail
            if a == 0:
                value = value - dr
            return value
        b = -a
        head = Fraction(1 + (-1) ** b, 2) - dr * self.sym.q(b, primed=True) * self.u_prod
        tail = sum_scalars(
            Fraction(1 + (-1) ** k, 2) * self.sym.q(b - 1 - k, primed=True)
            for k in range(b)
        )
        return head if tail is None else head + tail

    def __repr__(self):
        return f"GroundParams(r={self.r}, q={self.q}, u={self.u}, alpha={self.alpha})"


def sum_scalars(items):
    total = None
    for x in items:
        total = x if total is None else total + x
    return total


def _is_zero_scalar(x) -> bool:
    if isinstance(x, (LaurentPoly, RatFunc)):
        return x.is_zero()
    return x == 0


# -- admissibility -----------------------------------------------------------


def check_admissible(
    params: GroundParams,
    b_range: tuple[int, int] | None = None,
    a_max: int | None = None,
    omega: Callable[[int], object] | None = None,
) -> dict:
    """Exactly test both admissibility equation families.

    Family 1 (for each b): sum_{s=0}^r (-1)^(r-s) sigma_{r-s}(u) omega_{s+b} = 0.
    Family 2 (for each a>=0): omega_a = omega_{-a}
        + sum_{i=1}^a rho^{-1} delta (omega_{a-i} omega_{-i} - omega_{a-2i}).
    """
    r = params.r
    if b_range is None:
        b_range = (-2 * r, 2 * r)
    if a_max is None:
        a_max = 3 * r
    om = omega or params.omega
    entries = []
    for b in range(b_range[0], b_range[1] + 1):
        defect = sum_scalars(
            Fraction((-1) ** (r - s)) * params.sym.sigma[r - s] * om(s + b)
            for s in range(r + 1)
        )
        entries.append({"family": 1, "b": b, "pass": _is_zero_scalar(defect)})
    rd = params.rho_inv * params.delta
    for a in range(a_max + 1):
        rhs = om(-a)
        for i in range(1, a + 1):
            rhs = rhs + rd * (om(a - i) * om(-i) - om(a - 2 * i))
        entries.append({"family": 2, "a": a, "pass": _is_zero_scalar(om(a) - rhs)})
    return {"ok": all(e["pass"] for e in entries), "entries": entries}


# -- generating series -------------------------------------------------------


def _embed(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RatFunc.from_poly(x)
    return RatFunc.const(x)


def wtilde_rational(params: GroundParams, sign: str) -> RatFunc:
    """Closed rational form of the one-strand generating function.

    sign "+" packs omega_a for a >= 0; sign "-" packs omega_{-a} for a >= 1.
    Odd r only (the parity factor in the closed form is 1).
    """
    y = RatFunc.var("y")
    one = RatFunc.const(1)
    dr = _embed(params.delta_inv) * _embed(params.rho)
    P = _embed(params.u_prod)
    y2m1 = y * y - one
    if sign == "+":
        prod = one
        for ui in params.u:
            prod = prod * (y - _embed(scalar_inv(ui))) / (y - _embed(ui))
        return y * y / y2m1 - dr + (dr * P + y / y2m1) * P * prod
    if sign == "-":
        prod = one
        for ui in params.u:
            prod = prod * (y - _embed(ui)) / (y - _embed(scalar_inv(ui)))
        return one / y2m1 + dr - scalar_inv(P) * (dr * P - y / y2m1) * prod
    raise ValueError("sign must be '+' or '-'")


def wtilde_closed(params: GroundParams, sign: str, order: int) -> TruncSeries:
    """Series expansion of the closed form in descending powers of y."""
    return expand_series(wtilde_rational(params, sign), "y", order, at="inf")


# -- generic specialization ---------------------------------------------------


def certify_generic(q: Fraction, u: Sequence[Fraction], n: int) -> dict:
    """Scan the genericity conditions: u_i u_j^{+-1} != q^{2d} and
    u_i != +-q^d for all |d| < 2n, plus q not a root of unity.
    """
    if q in (1, -1):
        return {"ok": False, "violations": [("root-of-unity", None)]}
    violations = []
    powers = {d: Fraction(q) ** (2 * d) for d in range(-2 * n + 1, 2 * n)}
    half_powers = {d: Fraction(q) ** d for d in range(-2 * n + 1, 2 * n)}
    for i in range(len(u)):
        for d, qd in half_powers.items():
            if u[i] == qd or u[i] == -qd:
                violations.append(("u=+-q^d", (i + 1, d)))
        for j in range(len(u)):
            if i == j:
                continue
            for d, q2d in powers.items():
                if u[i] * u[j] == q2d or u[i] / u[j] == q2d:
                    violations.append(("u_i u_j^{+-1}=q^{2d}", (i + 1, j + 1, d)))
    return {"ok": not violations, "violations": violations}


def generic_specialization(r: int, n: int, seed: int = 0) -> GroundParams:
    """Rational parameters with q=2 and u_i = q^{2 k_i}, alternating-sign
    exponents, |k_r| >= n and consecutive gaps >= 2n; all seminormal
    radicands are then nonnegative real numbers with alpha = +1.
    """
    if r % 2 == 0 or r <= 0:
        raise ValueError("r must be an odd positive integer")
    rng = random.Random(seed)
    mags = []
    mag = n + (rng.randint(0, 3) if seed else 0)
    for _ in range(r):
        mags.append(mag)
        mag += 2 * n + (rng.randint(0, 3) if seed else 0)
    mags.reverse()
    k = tuple(m if i % 2 == 0 else -m for i, m in enumerate(mags))
    q = Fraction(2)
    u = tuple(q ** (2 * ki) for ki in k)
    cert = certify_generic(q, u, n)
    if not cert["ok"]:
        raise AssertionError(f"generic specialization failed certification: {cert}")
    params = GroundParams(r, q, u, alpha=1)
    params.certificate = cert
    return params


# -- presets -------------------------------------------------------------------


def parse_preset(path: str) -> GroundParams:
    """Read ground data from a line-oriented key=value file.

    Keys: r (odd int), q (fraction), k (comma-separated exponents of q^2),
    alpha (+1/-1).
    """
    data: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            data[key.strip()] = value.strip()
    try:
        r = int(data["r"])
        q = Fraction(data.get("q", "2"))
        k = tuple(int(x) for x in data["k"].split(","))
        alpha = int(data.get("alpha", "1"))
    except KeyError as exc:
        raise ValueError(f"preset file missing key: {exc}") from exc
    if len(k) != r:
        raise ValueError(f"preset has {len(k)} exponents, expected r={r}")
    u = tuple(q ** (2 * ki) for ki in k)
    return GroundParams(r, q, u, alpha=alpha)
