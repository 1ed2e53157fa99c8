"""Admissible ground data for the cyclotomic BMW algebra B_{r,n}.

Ground data are rationals: GroundParams converts q and u_1..u_r to Fraction
once, so every derived scalar (q^{-1}, delta, rho) is plain Fraction
arithmetic.  From (q, u_1..u_r, alpha) it constructs the family
Omega = {omega_a} together with rho, validates the admissibility equations,
and produces generic rational specializations on which the seminormal
matrices are real and well conditioned.  Omega is computed on integers:
SymCache keeps sigma_0..sigma_r and the lists Q_a, Q'_a as integer numerators
over one denominator each, omega_a is one integer sum over them, and
check_admissible cross-multiplies both families over the omega numerators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Sequence

from .scalars import RatFunc, expand_series


def _q_ints(pairs: Sequence[tuple[int, int]], length: int) -> tuple[list, int]:
    """Numerators N_0..N_{length-1} over one denominator D of the coefficients
    Q_k of prod (y - u)/(u y - 1) at y=0, u = n/d over the pairs (n, d).

    Each factor is one order-1 recurrence: s_k = d Q_{k-1} - n Q_k and
    t_k = (n t_{k-1} - s_k)/d; over D d^length, T_k = n (T_{k-1}/d) -
    S_k d^(length-1), and the division is exact, so no gcd is taken.
    """
    nums, den = [1] + [0] * (length - 1), 1
    for n, d in pairs:
        top = d ** (length - 1)
        prev, t = 0, 0
        for k in range(length):
            nk = nums[k]
            t = n * (t // d) - (d * prev - n * nk) * top
            prev, nums[k] = nk, t
        den *= top * d
    return nums, den


@dataclass
class SymCache:
    """Symmetric-function data of a fixed tuple of rationals u = n/d.

    sigma_nums are the coefficients of prod (d_i + n_i t), sigma_0..sigma_r
    over prod d_i.  Q (Q' over the 1/u_i) is kept as (N, S, D): Q_k = N[k]/D
    and S[k] = N[k] + N[k-2] + ..., rebuilt twice as long when a passes its end.
    """

    u: tuple
    sigma: list = field(default_factory=list)
    sigma_nums: list = field(default_factory=list)
    _lists: dict = field(default_factory=dict)

    def __post_init__(self):
        es = [1] + [0] * len(self.u)
        for x in self.u:
            es = [x.denominator * e + x.numerator * f for e, f in zip(es, [0] + es)]
        self.sigma_nums = es
        self.sigma = [Fraction(e, es[0]) for e in es]  # es[0] = prod d_i

    def q_ints(self, a: int, primed: bool = False) -> tuple:
        """The triple (N, S, D) of Q (Q' when primed), holding index a >= 0."""
        lists = self._lists.get(primed, ([],))
        if a >= len(lists[0]):
            pairs = [(x.numerator, x.denominator)[::-1 if primed else 1] for x in self.u]
            nums, den = _q_ints(pairs, max(a + 1, 2 * len(lists[0])))
            sums = nums[:2] + [0] * (len(nums) - 2)
            for k in range(2, len(nums)):
                sums[k] = nums[k] + sums[k - 2]
            lists = self._lists[primed] = (nums, sums, den)
        return lists

    def q(self, a: int, primed: bool = False) -> Fraction:
        """Q_a (Q'_a when primed); 0 for a < 0."""
        nums, _, den = self.q_ints(max(a, 0), primed)
        return Fraction(nums[a], den) if a >= 0 else Fraction(0)


class GroundParams:
    """Ground data (r, q, u, delta, alpha, rho, Omega) with odd r.

    q and the u_i are converted to Fraction here, and only here; every other
    module takes the ground data to be rationals.  omega_a values are
    produced from the closed forms of the one-parameter family determined by
    rho^{-1} = alpha * u_1 ... u_r; the admissibility recursions are kept as
    independent checks, never as definitions.
    """

    def __init__(self, r: int, q, u: Sequence, alpha: int = 1):
        if r % 2 == 0 or r <= 0:
            raise ValueError("r must be an odd positive integer")
        if alpha not in (1, -1):
            raise ValueError("alpha must be +1 or -1")
        if len(u) != r:
            raise ValueError(f"expected {r} values u_1..u_r, got {len(u)}")
        self.r = r
        self.q = Fraction(q)
        self.u = tuple(Fraction(x) for x in u)
        self.alpha = alpha
        self.q_inv = 1 / self.q
        self.delta = self.q - self.q_inv
        if self.delta == 0:
            raise ValueError("q - q^{-1} must be invertible (q != +-1)")
        self.delta_inv = 1 / self.delta
        self.u_prod = prod(self.u)
        self.rho_inv = self.u_prod if alpha == 1 else -self.u_prod
        self.rho = 1 / self.rho_inv
        self.sym = SymCache(self.u)
        self._omega: dict[int, object] = {}
        # memos of the per-shape residue records (seminormal.ShapeResidues:
        # flank steps, W, W/y's Horner parts and the diagonal residues), the
        # integer series of seminormal.omega_k_table with its entries per
        # step graph, tableaux.content, and the window-keyed results of
        # seminormal.identity_suite with the step graph of each n; a command
        # makes one GroundParams, so each graph is built once per command
        self._shape_cache: dict = {}
        self._series_cache: dict = {}
        self._content_cache: dict = {}
        self._identity_cache: dict = {}
        # genericity scan of generic_specialization; None for other data
        self.certificate: dict | None = None

    # -- omega --------------------------------------------------------------

    def omega(self, a: int):
        if a not in self._omega:
            self._omega[a] = self._omega_closed_form(a)
        return self._omega[a]

    def _omega_closed_form(self, a: int) -> Fraction:
        """omega_a = [a even] + c Q_a + sum_{even k < a} Q_{a-1-k} - [a = 0] dr
        and omega_{-b} = [b even] - c Q'_b + sum_{even k < b} Q'_{b-1-k}, with
        dr = delta^{-1} rho and c = dr u_1...u_r = alpha delta^{-1}.
        """
        b = abs(a)
        nums, sums, den = self.sym.q_ints(b, primed=a < 0)
        c = (-self.alpha if a < 0 else self.alpha) * self.delta_inv
        tail = sums[b - 1] if b else 0
        value = Fraction(c.denominator * ((1 - b % 2) * den + tail) + c.numerator * nums[b],
                         c.denominator * den)
        if a == 0:
            value -= self.delta_inv * self.rho
        return value

    def __repr__(self):
        return f"GroundParams(r={self.r}, q={self.q}, u={self.u}, alpha={self.alpha})"


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

    Each omega_a is asked for once and written W_a/L over the family's
    common denominator L; both families are then tested on integers.
    """
    r = params.r
    if b_range is None:
        b_range = (-2 * r, 2 * r)
    if a_max is None:
        a_max = 3 * r
    om = omega or params.omega
    values = {a: om(a) for a in sorted({*range(b_range[0], b_range[1] + r + 1),
                                        *range(-a_max, a_max + 1)})}
    den = lcm(*(v.denominator for v in values.values()))
    w = {a: v.numerator * (den // v.denominator) for a, v in values.items()}
    sig = params.sym.sigma_nums
    entries = []
    for b in range(b_range[0], b_range[1] + 1):
        defect = sum((-1) ** (r - s) * sig[r - s] * w[s + b] for s in range(r + 1))
        entries.append({"family": 1, "b": b, "pass": defect == 0})
    rd = params.rho_inv * params.delta
    m, k = rd.numerator, rd.denominator * den
    for a in range(a_max + 1):
        acc = sum(w[a - i] * w[-i] - den * w[a - 2 * i] for i in range(1, a + 1))
        entries.append({"family": 2, "a": a, "pass": k * (w[a] - w[-a]) == m * acc})
    return {"ok": all(e["pass"] for e in entries), "entries": entries}


# -- generating series -------------------------------------------------------


def wtilde_rational(params: GroundParams, sign: str) -> RatFunc:
    """Closed rational form of the one-strand generating function.

    sign "+" packs omega_a for a >= 0; sign "-" packs omega_{-a} for a >= 1.
    Odd r only (the parity factor in the closed form is 1).
    """
    y = RatFunc.y()
    one = RatFunc.const(1)
    dr = params.delta_inv * params.rho
    P = params.u_prod
    y2m1 = y * y - one
    if sign == "+":
        factors = one
        for ui in params.u:
            factors = factors * (y - 1 / ui) / (y - ui)
        return y * y / y2m1 - dr + (dr * P + y / y2m1) * P * factors
    if sign == "-":
        factors = one
        for ui in params.u:
            factors = factors * (y - ui) / (y - 1 / ui)
        return one / y2m1 + dr - 1 / P * (dr * P - y / y2m1) * factors
    raise ValueError("sign must be '+' or '-'")


def wtilde_closed(params: GroundParams, sign: str, order: int) -> list[Fraction]:
    """Coefficients of the closed form's series in descending powers of y."""
    return expand_series(wtilde_rational(params, sign), order, at="inf")


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
    except ZeroDivisionError as exc:
        raise ValueError(f"preset q has a zero denominator: {data['q']}") from exc
    if len(k) != r:
        raise ValueError(f"preset has {len(k)} exponents, expected r={r}")
    if q == 0:
        raise ValueError("q must be nonzero")
    u = tuple(q ** (2 * ki) for ki in k)
    return GroundParams(r, q, u, alpha=alpha)
