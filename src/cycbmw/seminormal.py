"""Seminormal modules and identity verification.

Builds the step generating functions W_k(y,s), the diagonal residues
E_ss(k) and off-step coefficients a/b, assembles the generator matrices of
the irreducible module attached to each (f, lambda) over Q in a rational
gauge, which the module keeps, and verifies the defining relations and
rational identities exactly.  A module stores each X_i as its diagonal and
each T_k and E_k as sparse Fraction rows that store no zero, written entry
by entry at assembly.  The relation table and the cell words share one
token vocabulary: T_k, T_k^{-1}, E_k, X_i^a, the shifts X_i - u_s and the
row-stabilizer sums.  Each module owns one token table, _word_cache, the
only token cache, that holds every token's (int rows, den): token_rows
fills it, and generator_matrix converts each token once (X_i^a from integer
powers of each content's numerator and denominator, a row-stabilizer sum by
module_sum over its permutation words).  word_sum is the one word kernel,
for a sum of c·word terms on a block-diagonal direct sum of modules: it
fixes each block's own lcm L of the terms' denominators before any product
is formed, multiplies each word's prefix (a diagonal factor scales the
columns of the product so far), and multiplies the last factor straight
into integer accumulator rows, each scaled by c's numerator times its
block's L over the term's denominator there.  verify_relations stacks a
group of modules into one direct sum from their token tables and sums each
relation once over it, multiplying each word prefix of the table once; a
module alone is the one-block case (module_sum).  So the check touches
nonzero entries only and normalises no Fraction per entry; a Fraction is
made again only for a failing relation's residual.  A single word is the
one-term sum.

The identity suite keys each check by the window of the walk it reads (a
shape, a shape and the step out of it, or shape(k-1) and steps k..k+2, or
steps k and k+1), evaluates it once per window in
GroundParams._identity_cache and replays the result for every (s, k) that
shows the window.

The residue layer is one record per shape, ShapeResidues, kept in
GroundParams._shape_cache: the flank steps (the steps that leave the shape
and come back), each content also as an integer pair (p, q), W_k(y,s) built
by _w_shape as one quotient of integer polynomials, the Horner parts of W/y
and the diagonal residues asked for so far.  A diagonal residue takes its
product form and the residue of W/y at its pole (three Horner evaluations)
on integers, compares the two by cross-multiplication and makes one
Fraction; a/b coefficients are one Fraction each from integer formulas.
The identities that read residues or b^2 (partial fractions, the neighbor
sums, b-squared-form, swap-symmetry, e-reciprocal, b-e-transport) sum each
side over one integer denominator and compare cross-multiplied.

The eigenvalue table runs on truncated integer series at infinity: every
series it expands is expanded once per parameter family, and route one's
series of each distinct step prefix is its parent prefix's series times one
content factor's series.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product, repeat
from math import gcd, isqrt, lcm, prod
from operator import floordiv

from .matrices import int_rows, mat_mul, sparse_diag
from .params import GroundParams, wtilde_rational
from .scalars import LaurentPoly, RatFunc, expand_series
# bound only because bench/tracer.py patches them here (ROADMAP item 1)
from .matrices import mat_add, mat_diag, mat_identity, mat_scale, mat_sub  # noqa: F401
from .scalars import ball_sqrt  # noqa: F401
from .tableaux import (
    RPartition,
    UpDownTableau,
    addable_removable,
    content,
    content_product_identity,
    enumerate_updown,
    neighbors_k,
    reduced_word,
    row_stabilizer_entries,
    rp_size,
    sk_action,
)


# -- the per-shape residue layer ---------------------------------------------


@dataclass
class ShapeResidues:
    """The residue layer of one shape, kept in params._shape_cache.

    steps lists (step, content) for every step that leaves the shape and
    comes back at the next step (adding an addable node or removing a
    removable one), in the order of the walks neighbors_k returns;
    pairs holds each of those contents as its integer pair (numerator,
    denominator).  w is W_k(y,s) over the shape, built by _w_shape, and
    horner the numerator, the denominator and the denominator's derivative
    of the unreduced W/y, which the residue cross-check evaluates.
    residues maps each flank content asked for so far to its E(c).
    """

    steps: list
    pairs: list
    w: RatFunc
    horner: tuple
    residues: dict = field(default_factory=dict)


def _flank_steps(shape: RPartition, params: GroundParams) -> list:
    """(step, content) for every flank step of shape, in ShapeResidues order."""
    addable, removable = addable_removable(shape)
    steps = [(-1, nd) for nd in removable] + [(1, nd) for nd in addable]
    return [(st, content(st[1], "add" if st[0] > 0 else "remove", params)) for st in steps]


def _times(f: list, g: list) -> list:
    """Product of two integer polynomials, coefficients from y^0 up."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, z in enumerate(g):
            out[i + j] += x * z
    return out


def _w_shape(shape: RPartition, params: GroundParams) -> RatFunc:
    """W_k(y,s) over the shape before step k, built as one quotient:
    with N = prod (y - 1/c) and D = prod (y - c) over the flank contents c,
    W = y^2/(y^2-1) - dr + (dr P + y/(y^2-1)) P N/D
      = [(y^2 - dr (y^2-1)) D + (dr P (y^2-1) + y) P N] / ((y^2-1) D).

    On integers: with c = p/q, D = prod (q y - p)/prod q and
    N = prod (p y - q)/prod p, and with dr = a/b and P = u/v the numerator
    is [((b - a) y^2 + a) v^2 prod p · prod (q y - p)
    + (a u y^2 + b v y - a u) u prod q · prod (p y - q)] / (b v^2 prod q prod p).
    """
    d, n, qs, ps = [1], [1], 1, 1
    for _, c in _flank_steps(shape, params):
        p, q = c.numerator, c.denominator
        d = _times(d, [-p, q])
        n = _times(n, [-q, p])
        qs *= q
        ps *= p
    dr = params.delta_inv * params.rho
    a, b = dr.numerator, dr.denominator
    u, v = params.u_prod.numerator, params.u_prod.denominator
    first = _times([a * v * v * ps, 0, (b - a) * v * v * ps], d)
    second = _times([-a * u * u * qs, b * v * u * qs, a * u * u * qs], n)
    num = [x + z for x, z in zip(first, second)]
    return RatFunc(LaurentPoly.from_ints(num, b * v * v * qs * ps),
                   LaurentPoly.from_ints(_times([-1, 0, 1], d), qs))


def _shape_residues(shape: RPartition, params: GroundParams) -> ShapeResidues:
    """The ShapeResidues of shape, built on first use."""
    cache = params._shape_cache
    record = cache.get(shape)
    if record is None:
        steps = _flank_steps(shape, params)
        w = _w_shape(shape, params)
        wy = w / RatFunc.y()
        record = cache[shape] = ShapeResidues(
            steps, [(c.numerator, c.denominator) for _, c in steps], w,
            (wy.num, wy.den, wy.den.derivative()))
    return record


def W_rational(s: UpDownTableau, k: int, params: GroundParams) -> RatFunc:
    """Step generating function W_k(y,s); depends only on the shape before
    step k.
    """
    if not 1 <= k <= s.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got {k}")
    return _w_shape(s.shape(k - 1), params)


def _e_diag_value(shape: RPartition, c, params: GroundParams):
    """Diagonal residue at content c over the given flanking shape.

    Computed on integers from the closed product form
    rho^{-1}/c ((c - 1/c) delta^{-1} + alpha) prod (c - 1/c_a)/(c - c_a) over
    the other flank contents c_a, and cross-checked against the residue of
    W/y at the simple pole y=c: three Horner evaluations of the shape's
    horner parts, compared by cross-multiplication.  One Fraction is made
    per residue and kept in the shape's ShapeResidues.
    """
    record = _shape_residues(shape, params)
    value = record.residues.get(c)
    if value is not None:
        return value
    p, q = c.numerator, c.denominator
    num = den = 1
    skipped = 0
    for pa, qa in record.pairs:
        if pa == p and qa == q:
            skipped += 1
            continue
        num *= (p * pa - q * qa) * qa
        den *= (p * qa - q * pa) * pa
    if skipped != 1:
        raise ArithmeticError(
            f"content {c} matched {skipped} nodes of {shape}; parameters not generic"
        )
    # the head, with rho^{-1} = R/S and delta^{-1} = i/j:
    # R ((p^2 - q^2) i + alpha p q j) / (S p^2 j)
    rho_inv, delta_inv = params.rho_inv, params.delta_inv
    i, j = delta_inv.numerator, delta_inv.denominator
    num *= rho_inv.numerator * ((p * p - q * q) * i + params.alpha * p * q * j)
    den *= rho_inv.denominator * p * p * j
    wy_num, wy_den, wy_dden = record.horner
    if wy_den.value_pair(p, q)[0]:
        raise ArithmeticError(f"no pole at y={c}")
    dn, dd = wy_dden.value_pair(p, q)
    if not dn:
        raise ArithmeticError(f"pole at y={c} is not simple")
    rn, rd = wy_num.value_pair(p, q)
    if num * rd * dn != den * rn * dd:
        raise ArithmeticError(
            f"residue {Fraction(rn * dd, rd * dn)} disagrees with product form "
            f"{Fraction(num, den)} at c={c}"
        )
    value = record.residues[c] = Fraction(num, den)
    return value


def E_diag(s: UpDownTableau, k: int, params: GroundParams):
    """Diagonal coefficient E_ss(k); requires equal flanking shapes for k<n."""
    if not 1 <= k <= s.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got {k}")
    if k < s.n and s.shape(k - 1) != s.shape(k + 1):
        raise ValueError("diagonal residue undefined when the flanking shapes differ")
    return _e_diag_value(s.shape(k - 1), s.content(k, params), params)


def ab_coeffs(s: UpDownTableau, k: int, params: GroundParams):
    """Exact a_s(k) = delta c'/(c' - c) and b_s(k)^2 = 1 - a^2 + delta a for
    a step pair with differing flanks, c and c' the contents of steps k and
    k+1; on integers, one Fraction each.
    """
    if not 1 <= k <= s.n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got {k}")
    if s.shape(k - 1) == s.shape(k + 1):
        raise ValueError("a/b coefficients undefined when the flanking shapes coincide")
    ck = s.content(k, params)
    ck1 = s.content(k + 1, params)
    dn, dd = params.delta.numerator, params.delta.denominator
    p, q = ck.numerator, ck.denominator
    p1, q1 = ck1.numerator, ck1.denominator
    an, ad = dn * p1 * q, dd * (p1 * q - p * q1)
    return Fraction(an, ad), Fraction(dd * (ad * ad - an * an) + dn * an * ad, dd * ad * ad)


# -- module assembly -----------------------------------------------------------


@dataclass
class ResidueTable:
    """Exact per-tableau coefficient tables keyed by (basis index, k)."""

    e_diag: dict
    a: dict
    bsq: dict


@dataclass
class SeminormalModule:
    lam: RPartition
    f: int
    n: int
    params: GroundParams
    basis: list
    table: ResidueTable
    # g_s > 0 with every T_k, E_k equal to D A D^{-1}, D = diag(sqrt(g_s)), A symmetric
    gauge: list
    # X_i as its diagonal; T_k and E_k as sparse Fraction rows with no zero
    matX: list
    matT: list
    matE: list
    # token -> (int rows, den) of every token read so far (token_rows)
    _word_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _weight(*radicands: Fraction) -> Fraction:
    """Product of the radicands under one off-diagonal square root; each must
    be nonnegative for the matrices to be real.
    """
    w = Fraction(1)
    for x in radicands:
        if x < 0:
            raise ValueError(f"be-real violated: negative radicand {x}")
        w *= x
    return w


def _gauged_roots(d: int, edges: list) -> tuple[list, list]:
    """The gauge g and the rational off-diagonal entries in the gauge
    D = diag(sqrt(g_s)), g_s in Q.

    Conjugating by D turns the entry sqrt(w) at (i, j) into sqrt(g_i w / g_j)
    (Mathas's rational seminormal form).  A breadth-first search over the
    edges of every step sets g_i = g_j w along its tree edges; every edge is
    then checked to give a square of Q, which holds exactly when the product
    of the weights around every cycle of edges is a square.
    """
    adjacent: list = [[] for _ in range(d)]
    for _, i, j, w, _ in edges:
        adjacent[j].append((i, w))
    g: list = [None] * d
    for start in range(d):
        if g[start] is not None:
            continue
        g[start] = Fraction(1)
        queue = [start]
        for j in queue:
            for i, w in adjacent[j]:
                if g[i] is None:
                    g[i] = g[j] * w
                    queue.append(i)
    roots = []
    for k, i, j, w, _ in edges:
        x = g[i] * w / g[j]
        num, den = isqrt(x.numerator), isqrt(x.denominator)
        if num * num != x.numerator or den * den != x.denominator:
            raise ArithmeticError(
                f"no rational gauge at k={k}, pair ({i}, {j}): "
                f"g_{i} w / g_{j} = {x} is not a square in Q"
            )
        roots.append(Fraction(num, den))
    return g, roots


def build_module(lam: RPartition, f: int, params: GroundParams) -> SeminormalModule:
    """Assemble the generator matrices on the up-down tableau basis.

    Every off-diagonal entry is the square root of a rational weight w, taken
    in the rational gauge of _gauged_roots, so every entry lies in Q.
    """
    n = rp_size(lam) + 2 * f
    if n < 1:
        raise ValueError("module needs at least one strand")
    basis = enumerate_updown(n, lam)
    index = {t: i for i, t in enumerate(basis)}
    d = len(basis)

    e_diag: dict = {}
    a_coef: dict = {}
    b_sq: dict = {}
    swaps: dict = {}  # (j, k) -> index of sk_action(s, k), None when undefined
    for j, s in enumerate(basis):
        for k in range(1, n + 1):
            if k == n or s.shape(k - 1) == s.shape(k + 1):
                e = E_diag(s, k, params)
                if e == 0:
                    raise ArithmeticError(
                        f"vanishing diagonal residue at k={k}, s={s!r}"
                    )
                e_diag[(j, k)] = e
        for k in range(1, n):
            if s.shape(k - 1) != s.shape(k + 1):
                a, bsq = ab_coeffs(s, k, params)
                a_coef[(j, k)] = a
                b_sq[(j, k)] = bsq
                u = sk_action(s, k)
                if u is None and bsq != 0:
                    raise ArithmeticError(
                        f"expected zero off-diagonal weight at k={k}, s={s!r}"
                    )
                swaps[(j, k)] = None if u is None else index[u]
    table = ResidueTable(e_diag, a_coef, b_sq)

    matX = [[s.content(i, params) for s in basis] for i in range(1, n + 1)]
    matE = [[{} for _ in range(d)] for _ in range(1, n)]
    matT = [[{} for _ in range(d)] for _ in range(1, n)]
    # off-diagonal entries (k, i, j, weight, T_ij / E_ij), the ratio None for
    # a swap entry, which T has and E has not
    edges: list = []
    delta = params.delta
    for k in range(1, n):
        E, T, X = matE[k - 1], matT[k - 1], matX[k - 1]
        for j, s in enumerate(basis):
            if s.shape(k - 1) == s.shape(k + 1):
                es = e_diag[(j, k)]
                for t in neighbors_k(s, k):
                    i = index[t]
                    if i == j:
                        E[j][j] = es
                        x = delta * (es - 1) / (X[j] * X[j] - 1)
                        if x:  # es = 1 leaves no diagonal entry
                            T[j][j] = x
                    else:
                        ratio = delta / (X[j] * X[i] - 1)
                        edges.append((k, i, j, _weight(es, e_diag[(i, k)]), ratio))
            else:
                T[j][j] = a_coef[(j, k)]
                i = swaps[(j, k)]
                if i is not None:
                    edges.append((k, i, j, _weight(b_sq[(j, k)]), None))

    gauge, roots = _gauged_roots(d, edges)
    for (k, i, j, _, ratio), x in zip(edges, roots):
        if ratio is None:
            matT[k - 1][i][j] = x
        else:
            matE[k - 1][i][j] = x
            matT[k - 1][i][j] = ratio * x
    return SeminormalModule(lam, f, n, params, basis, table, gauge, matX, matT, matE)


# -- relation verification -------------------------------------------------------


# The X-shift identities run over a = 1..A_MAX, and E_1 X_1^a E_1 = omega_a E_1
# over |a| <= max(A_MAX, r).
A_MAX = 3

# A relation is a name, its step k (None for the relations that have no
# step) and a list of (coefficient, word) terms whose sum must vanish.  A word
# is a tuple of tokens read left to right, and () is the identity:
# ("T", k, 1) is T_k, ("T", k, -1) is T_k^{-1}, ("E", k, 1) is E_k and
# ("X", i, a) is X_i^a.  The cell words add ("Xshift", i, s), X_i - u_s, and
# ("rowsum", lam), the row-stabilizer sum of lam (_rowsum_terms).


def _T(k: int, e: int = 1) -> tuple:
    return ("T", k, e)


def _E(k: int) -> tuple:
    return ("E", k, 1)


def _X(i: int, a: int = 1) -> tuple:
    return ("X", i, a)


def _t_word(perm: tuple[int, ...]) -> tuple:
    """The word of T tokens of a reduced expression for perm."""
    return tuple(_T(i) for i in reduced_word(perm))


@functools.cache
def _rowsum_terms(lam: RPartition, n: int) -> tuple:
    """The terms (1, T_w) over the permutations w of n strands that fix every
    row of lam setwise; every module on n strands sums the same terms.
    """
    rows = row_stabilizer_entries(lam)
    terms = []
    pools = [list(permutations(row)) for row in rows]
    for choice in product(*pools) if pools else [()]:
        p = list(range(1, n + 1))
        for row, img in zip(rows, choice):
            for pos, val in zip(row, img):
                p[pos - 1] = val
        terms.append((1, _t_word(tuple(p))))
    return tuple(terms)


def defining_relations(n: int, params: GroundParams, rho, omega) -> list:
    """The defining relations of B_{r,n} on n strands.

    rho and omega are the module's own; they differ from the ground data's
    on the big two-strand modules.
    """
    delta, r = params.delta, params.r
    rel: list = []
    for i in range(1, n + 1):
        rel.append(("x-inverse", None, [(1, (_X(i), _X(i, -1))), (-1, ())]))
        for j in range(i + 1, n + 1):
            rel.append(("x-commute", None, [(1, (_X(i), _X(j))), (-1, (_X(j), _X(i)))]))
    # prod_s (X_1 - u_s), expanded by the elementary symmetric functions
    rel.append(("cyclotomic", None, [
        ((-1) ** (r - j) * params.sym.sigma[r - j], (_X(1, j),)) for j in range(r + 1)
    ]))
    for k in range(1, n):
        T, Ti, E, Xk, Xk1 = _T(k), _T(k, -1), _E(k), _X(k), _X(k + 1)
        rel += [
            ("kauffman", k, [(1, (T, T)), (-delta, (T,)), (delta * rho, (E,)), (-1, ())]),
            ("e-idempotent", k, [(1, (E, E)), (-omega(0), (E,))]),
            ("skein-left", k, [(1, (T, Xk)), (-1, (Xk1, T)),
                            (-delta, (Xk1, E)), (delta, (Xk1,))]),
            ("skein-right", k, [(1, (Xk, T)), (-1, (T, Xk1)),
                             (-delta, (E, Xk1)), (delta, (Xk1,))]),
            ("x-braid-step", k, [(1, (Xk1,)), (-1, (T, Xk, T))]),
        ]
        rel += [("t-inverse", k, [(1, w), (-1, ())]) for w in ((T, Ti), (Ti, T))]
        rel += [("e-t-absorb", k, [(1, w), (-rho, (E,))]) for w in ((E, T), (T, E))]
        rel += [("e-x-unit", k, [(1, w), (-1, (E,))]) for w in ((E, Xk, Xk1), (Xk, Xk1, E))]
        rel += [("t-x-far", k, [(1, (T, _X(j))), (-1, (_X(j), T))])
                for j in range(1, n + 1) if j not in (k, k + 1)]
        rel += [("braid-far", k, [(1, (T, _T(l))), (-1, (_T(l), T))])
                for l in range(k + 2, n)]
    for k in range(1, n - 1):
        T, T1, E, E1 = _T(k), _T(k + 1), _E(k), _E(k + 1)
        rel.append(("braid", k, [(1, (T, T1, T)), (-1, (T1, T, T1))]))
        rel += [("e-e-braid", k, [(1, (E1, E)), (-1, w)]) for w in ((E1, T, T1), (T, T1, E))]
        rel += [("e-sandwich", k, [(1, (a, b, a)), (-1, (a,))]) for a, b in ((E1, E), (E, E1))]
    if n >= 2:
        g = max(A_MAX, r)
        rel += [("e-x-e", None, [(1, (_E(1), _X(1, a), _E(1))), (-omega(a), (_E(1),))])
                for a in range(-g, g + 1)]
    return rel


def x_shift_relations(n: int, params: GroundParams, rho) -> list:
    """The X-shift identities: T_k, T_k^{-1} and E_k moved past X_k^{+-a}.

    The first is T_k X_k^a - X_{k+1}^a T_k
    = delta sum_{i=1}^a X_{k+1}^i (E_k - 1) X_k^{a-i}.
    """
    delta = params.delta
    rel: list = []
    for k in range(1, n):
        T, Ti, E = _T(k), _T(k, -1), _E(k)

        def X(a):
            return _X(k, a)

        def Y(a):
            return _X(k + 1, a)

        for a in range(1, A_MAX + 1):
            s1 = [(1, (T, X(a))), (-1, (Y(a), T))]
            s2 = [(1, (Ti, X(a))), (-1, (Y(a), Ti))]
            s3 = [(1, (E, X(a), T)), (-rho, (E, X(-a)))]
            s4 = [(1, (T, X(-a))), (-1, (Y(-a), T))]
            s5 = [(1, (Ti, X(-a))), (-1, (Y(-a), Ti))]
            s6 = [(1, (E, X(-a), T)), (-rho, (E, X(a)))]
            for i in range(1, a + 1):
                s1 += [(-delta, (Y(i), E, X(a - i))), (delta, (Y(i), X(a - i)))]
                s2 += [(-delta, (Y(a - i), E, X(i))), (delta, (Y(a - i), X(i)))]
                s3 += [(-delta, (E, X(a - i), E, X(-i))), (delta, (E, X(a - 2 * i)))]
                s4 += [(delta, (Y(i - a), E, X(-i))), (-delta, (Y(i - a), X(-i)))]
                s5 += [(delta, (Y(-i), E, X(i - a))), (-delta, (Y(-i), X(i - a)))]
                s6 += [(delta, (E, X(-i), E, X(a - i))), (-delta, (E, X(a - 2 * i)))]
            rel += [(f"x-shift-{m}", k, s) for m, s in enumerate((s1, s2, s3, s4, s5, s6), 1)]
    return rel


def generator_matrix(tok: tuple, m) -> tuple:
    """(int rows, den) of one token on the module m (a SeminormalModule or a
    Br2Module), read from its X_i diagonals and its sparse T_k and E_k rows:
    X_i^a, T_k, E_k, T_k^{-1} = T_k - delta + delta E_k, X_i - u_s from the
    X_i diagonal, and the row-stabilizer sum of lam, summed over its words
    (_rowsum_terms) from the module's token table.
    """
    kind = tok[0]
    if kind == "rowsum":
        return module_sum(_rowsum_terms(tok[1], len(m.matX)), m)
    mats = {"X": m.matX, "Xshift": m.matX, "T": m.matT, "E": m.matE}.get(kind)
    if mats is None:
        raise ValueError(f"unknown token {tok!r}")
    _, i, e = tok
    if not 1 <= i <= len(mats):
        raise ValueError(f"token index {i} out of range for {len(m.matX)} strands")
    if kind == "Xshift":
        if not 1 <= e <= m.params.r:
            raise ValueError("shift token out of range")
        us = m.params.u[e - 1]
        return int_rows(sparse_diag([x - us for x in mats[i - 1]]))
    if kind == "X":
        # (p/q)^e = p^e/q^e and (p/q)^-e = q^e/p^e, both in lowest terms; a
        # negative q^e leaves den = lcm(...) positive, and den // q^e carries
        # its sign to the numerator
        pairs = [(x.numerator, x.denominator) for x in mats[i - 1]]
        if e < 0:
            e = -e
            pairs = [(q, p) for p, q in pairs]
        pairs = [(p ** e, q ** e) for p, q in pairs]
        den = lcm(*(q for _, q in pairs))
        return [{j: p * (den // q)} if p else {} for j, (p, q) in enumerate(pairs)], den
    if kind == "T" and e != 1:
        delta = m.params.delta
        return module_sum([(1, (_T(i),)), (-delta, ()), (delta, (_E(i),))], m)
    return int_rows(mats[i - 1])


def token_rows(tok: tuple, m) -> tuple:
    """(int rows, den) of one token on the module m, kept in its token table
    m._word_cache, the one token cache; generator_matrix converts it the
    first time it is asked for.  Callers must not mutate the result.
    """
    cache = m._word_cache
    out = cache.get(tok)
    if out is None:
        out = cache[tok] = generator_matrix(tok, m)
    return out


def _diagonal(rows: list) -> list | None:
    """The diagonal entries of sparse rows that hold nothing off the
    diagonal (0 where a row is empty), else None.
    """
    diag = []
    for i, row in enumerate(rows):
        if not row:
            diag.append(0)
        elif len(row) == 1 and i in row:
            diag.append(row[i])
        else:
            return None
    return diag


def _product(factors: list) -> list:
    """Left-to-right product of a nonempty list of int rows; a diagonal
    factor after the first scales the columns of the product so far.
    """
    out = factors[0]
    for rows in factors[1:]:
        diag = _diagonal(rows)
        if diag is None:
            out = mat_mul(out, rows)
        else:
            out = [{j: x * diag[j] for j, x in row.items() if diag[j]} for row in out]
    return out


def _factors(word: tuple) -> tuple:
    """The tokens of a word that are multiplied out: X_i^0 is 1 and is
    skipped.
    """
    return tuple(tok for tok in word if tok[0] != "X" or tok[2])


def word_sum(terms, matrix_of, dims: list, products: dict | None = None) -> tuple:
    """(int rows, dens) of the sum of c·word over the terms (c, word) on a
    direct sum of blocks of the sizes dims, each word the left-to-right
    product of the (int rows, dens) pairs matrix_of(token) of its factors
    (_factors), the identity when it has none; the terms with c == 0 are
    skipped.

    A pair holds the sparse rows of the block-diagonal direct sum, its
    columns numbered across the blocks, and one denominator per block.  The
    result's dens[b] is block b's own lcm over the terms of c.denominator
    times the product of the word's token denominators on b, fixed before
    any product is formed, so each block's integers are those of the block
    summed alone.  Each word's prefix (every factor but the last) is
    multiplied left to right, a diagonal factor applied as a column scaling,
    and kept in products under its factors when a products dict is given,
    so that a caller summing many terms over the same matrix_of multiplies
    each prefix once.  The last factor is multiplied straight into the
    accumulator rows, each row of block b scaled by c.numerator·dens[b]/d_b
    for the term's denominator d_b there; entries that cancel are dropped.
    """
    plan = []
    totals = [1] * len(dims)
    for c, word in terms:
        if not c:
            continue
        factors = []
        dens = []
        for tok in word:
            if tok[0] != "X" or tok[2]:
                rows, den = matrix_of(tok)
                factors.append(rows)
                dens.append(den)
        ds = list(map(prod, zip([c.denominator] * len(dims), *dens)))
        totals = list(map(lcm, totals, ds))
        plan.append((c.numerator, ds, word, factors))
    block = [b for b, dim in enumerate(dims) for _ in range(dim)]
    identity = [{i: 1} for i in range(len(block))]
    acc: list = [{} for _ in block]
    for num, ds, word, factors in plan:
        ratios = list(map(floordiv, totals, ds))
        if ratios.count(ratios[0]) == len(ratios):
            row_scales = repeat(num * ratios[0])
        else:
            row_scales = map([num * x for x in ratios].__getitem__, block)
        last = factors[-1] if factors else identity
        if len(factors) < 2:
            prefix = identity
        elif products is None or len(factors) == 2:
            prefix = _product(factors[:-1])
        else:
            key = _factors(word)[:-1]
            prefix = products.get(key)
            if prefix is None:
                prefix = products[key] = _product(factors[:-1])
        for acc_row, row, s in zip(acc, prefix, row_scales):
            for k, x in row.items():
                x *= s
                for j, y in last[k].items():
                    if j in acc_row:
                        y = acc_row[j] + x * y
                        if y:
                            acc_row[j] = y
                        else:
                            del acc_row[j]
                    else:
                        acc_row[j] = x * y
    return acc, totals


def module_sum(terms, m) -> tuple:
    """(int rows, den) of the sum of c·word over the terms (c, word) on the
    one module m, each token read from its token table (token_rows):
    word_sum's one-block case.
    """
    def one_block(tok):
        rows, den = token_rows(tok, m)
        return rows, (den,)

    rows, (den,) = word_sum(terms, one_block, [m.dim])
    return rows, den


def _direct_sum(modules: list, offsets: list):
    """matrix_of for word_sum on the direct sum of the modules: a token's
    (int rows, dens) stacked from each module's token table (token_rows),
    the columns of each block moved by its row offset.  The returned
    function stacks each token once and keeps it.
    """
    stacked: dict = {}

    def matrix_of(tok):
        out = stacked.get(tok)
        if out is None:
            rows: list = []
            dens = []
            for m, off in zip(modules, offsets):
                block, den = token_rows(tok, m)
                rows += [{j + off: x for j, x in row.items()} for row in block] if off else block
                dens.append(den)
            out = stacked[tok] = rows, dens
        return out

    return matrix_of


def _check_relations(relations: list, modules: list) -> list:
    """Evaluate every relation once on the direct sum of the modules (each a
    SeminormalModule or a Br2Module, all on as many strands) through their
    token tables (token_rows).

    Each relation's terms c·word are summed by word_sum into one integer
    residual with one lcm denominator per module, so a relation holds on a
    module exactly when no residual entry is left in its rows.  Returns, per
    module, name -> None when every instance vanishes there, else the first
    failing instance as {"instance": its position among the name's
    instances in table order, "k": its step (None for a relation that has
    none), "entry": (i, j) the first nonzero residual entry of the module's
    block in row-major order, in the module's own coordinates, "residual":
    its value as a Fraction}.
    """
    dims = [m.dim for m in modules]
    offsets = [sum(dims[:b]) for b in range(len(dims))]
    matrix_of = _direct_sum(modules, offsets)
    # each word prefix of two or more factors is multiplied once and
    # dropped after the last relation that reads it
    last_use = {}
    for index, (_, _, terms) in enumerate(relations):
        for c, word in terms:
            if c and len(word) > 2 and len(key := _factors(word)[:-1]) > 1:
                last_use[key] = index
    expiring: list = [[] for _ in relations]
    for key, index in last_use.items():
        expiring[index].append(key)
    products: dict = {}
    merged: list = [{} for _ in modules]
    instances: dict = {}
    for (name, k, terms), done in zip(relations, expiring):
        instance = instances.get(name, 0)
        instances[name] = instance + 1
        residual, dens = word_sum(terms, matrix_of, dims, products)
        for key in done:
            del products[key]
        vanishes = not any(residual)
        for found, off, dim, den in zip(merged, offsets, dims, dens):
            if found.get(name) is not None:
                continue
            i = None if vanishes else next(
                (i for i in range(off, off + dim) if residual[i]), None)
            if i is None:
                found[name] = None
            else:
                j = min(residual[i])
                found[name] = {"instance": instance, "k": k, "entry": (i - off, j - off),
                               "residual": Fraction(residual[i][j], den)}
    return merged


def relation_table(n: int, params: GroundParams) -> list:
    """The defining relations and the X-shift identities on n strands with
    the ground data's rho and moments, the table verify_relations checks.
    """
    return (defining_relations(n, params, params.rho, params.omega)
            + x_shift_relations(n, params, params.rho))


def verify_relations(modules, relations: list | None = None):
    """Check the defining relations and the X-shift identities on the
    generators of a list of modules on n strands over one GroundParams, or
    of one module; relations is relation_table(n, params), built here when
    not given.

    The modules are checked as one direct sum: each relation is summed once
    over all of them (see _check_relations).  A relation passes on a module
    when every residual entry in its block vanishes exactly.  A failing
    relation also reports its first failing instance, entry and residual
    value.  Returns the list of the modules' reports {"ok", "dim",
    "relations"} in order, or the one module's report.
    """
    group = modules if isinstance(modules, list) else [modules]
    if relations is None:
        relations = relation_table(group[0].n, group[0].params)
    reports = []
    for module, merged in zip(group, _check_relations(relations, group)):
        report = []
        for name, failure in sorted(merged.items()):
            result = {"name": name, "pass": failure is None}
            if failure is not None:
                result.update(failure)
            report.append(result)
        reports.append({
            "ok": all(r["pass"] for r in report),
            "dim": module.dim,
            "relations": report,
        })
    return reports if isinstance(modules, list) else reports[0]


# -- omega tables -----------------------------------------------------------------


@dataclass
class OmegaKTable:
    lam: RPartition
    f: int
    n: int
    a_max: int
    values: dict  # (k, shape before step k) -> [omega_k^(0..a_max)]


def _content_factor(params: GroundParams, c) -> RatFunc:
    """The factor by which a step of content c multiplies route one:
    (y - c)^2 (y - 1/(c q^2)) (y - q^2/c) / ((y - 1/c)^2 (y - c/q^2) (y - q^2 c)).
    """
    y = LaurentPoly.y()
    q2 = params.q ** 2
    cinv = 1 / c
    num = (y - c) * (y - c) * (y - cinv / q2) * (y - q2 * cinv)
    den = (y - cinv) * (y - cinv) * (y - c / q2) * (y - q2 * c)
    return RatFunc(num, den)


def _int_series(coeffs: list) -> tuple:
    """A list of Fractions as (integer numerators, their lcm denominator),
    the canonical form in which no factor divides every numerator and the
    denominator.
    """
    den = lcm(*(x.denominator for x in coeffs))
    return tuple(x.numerator * (den // x.denominator) for x in coeffs), den


def _reduced(nums: list, den: int) -> tuple:
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def _series_mul(f: tuple, g: tuple) -> tuple:
    """Truncated product of two power series in canonical integer form."""
    fn, gn = f[0], g[0]
    nums = [sum(fn[i] * gn[m - i] for i in range(m + 1)) for m in range(len(fn))]
    return _reduced(nums, f[1] * g[1])


def _series_add(f: tuple, g: tuple) -> tuple:
    den = lcm(f[1], g[1])
    s, t = den // f[1], den // g[1]
    return _reduced([x * s + z * t for x, z in zip(f[0], g[0])], den)


def _series(params: GroundParams, key: tuple, rational, a_max: int) -> tuple:
    """The canonical integer series at infinity of rational(), to order
    a_max, kept in params._series_cache under (key, a_max).
    """
    cache = params._series_cache
    value = cache.get((key, a_max))
    if value is None:
        value = cache[(key, a_max)] = _int_series(expand_series(rational(), a_max, at="inf"))
    return value


def omega_k_table(lam: RPartition, f: int, params: GroundParams, a_max: int) -> OmegaKTable:
    """Eigenvalue tables of the central step elements, computed two ways.

    Route one multiplies the one-strand series by the content factors along
    each walk; route two expands the node-product form W_k(y,s).  The routes
    must agree coefficientwise and be independent of the walk taken to a
    given intermediate shape.

    Both routes run on truncated series at infinity in canonical integer
    form (numerators over one denominator, no common factor).  Every series
    that is expanded is expanded once per parameter family and a_max: the
    one-strand series before the shift and the shift itself, the factor
    _content_factor(params, c) per content c, and W_k per shape before
    step k, on which alone it depends.  Route one's series depends only on
    the steps before step k, so it is built once per distinct step prefix,
    as its parent prefix's series times one factor series: exact, since
    every factor has no pole at infinity.  Every distinct prefix is compared
    with its (k, shape before step k) entry, and Fractions are made once
    per entry.
    """
    n = rp_size(lam) + 2 * f
    basis = enumerate_updown(n, lam)
    y = RatFunc.y()
    one = RatFunc.const(1)

    def shift_rational():
        return y * y / (y * y - one) - params.delta_inv * params.rho

    shift = _series(params, ("shift",), shift_rational, a_max)
    base = _series(params, ("base",),
                   lambda: wtilde_rational(params, "+") - shift_rational(), a_max)
    series: dict = {}  # step prefix -> route one's series before the shift
    exact: dict = {}  # (k, shape before step k) -> its canonical series
    values: dict = {}
    for s in basis:
        for k in range(1, n + 1):
            prefix = s.steps[:k - 1]
            if prefix in series:
                continue
            if k == 1:
                series[prefix] = base
            else:
                c = s.content(k - 1, params)
                factor = _series(params, ("content", c),
                                 lambda: _content_factor(params, c), a_max)
                series[prefix] = _series_mul(series[prefix[:-1]], factor)
            route_one = _series_add(series[prefix], shift)
            shape = s.shape(k - 1)
            key = (k, shape)
            if key in exact:
                if exact[key] != route_one:
                    raise ValueError(
                        f"omega table depends on the walk at k={k}, s={s!r}"
                    )
                continue
            route_two = _series(params, ("shape", shape),
                                lambda: W_rational(s, k, params), a_max)
            nums, den = route_one
            if route_two != route_one:
                nums2, den2 = route_two
                a = next(a for a, (x1, x2) in enumerate(zip(nums, nums2))
                         if x1 * den2 != x2 * den)
                raise ValueError(f"omega table mismatch at s={s!r}, k={k}, a={a}")
            exact[key] = route_one
            values[key] = [Fraction(x, den) for x in nums]
    return OmegaKTable(lam, f, n, a_max, values)


# -- exact identity suite -----------------------------------------------------------


def _memo(params: GroundParams, key: tuple, compute, *args):
    """params._identity_cache[key], set to compute(*args) on first use."""
    cache = params._identity_cache
    value = cache.get(key)
    if value is None:
        value = cache[key] = compute(*args)
    return value


def _equal(lhs: tuple, rhs: tuple) -> bool:
    """lhs == rhs for two integer pairs (numerator, denominator) of either
    sign, by cross-multiplication; a zero denominator raises
    ZeroDivisionError.
    """
    (a, b), (c, d) = lhs, rhs
    if not b or not d:
        raise ZeroDivisionError("zero denominator in an identity check")
    return a * d == c * b


def _partial_fractions(shape: RPartition, params: GroundParams) -> tuple:
    """([(c, E(c) != 0) per flank content c], W/y equals its partial-fraction
    expansion) at one shape.

    The expansion is built on integers over one denominator: with the flank
    contents c_a = p_a/q_a, Pi = prod (q_a y - p_a), E(c_a) = e_a/f_a and
    F = lcm f_a, sum_a E(c_a)/(y - c_a) = sum_a e_a q_a (F/f_a) Pi_a / (F Pi),
    each Pi_a = Pi/(q_a y - p_a) by exact synthetic division, and it is
    compared with W/y by one cross-multiplication.
    """
    record = _shape_residues(shape, params)
    pi = [1]  # coefficients from y^0 up
    for p, q in record.pairs:
        pi = [q * x - p * z for x, z in zip([0] + pi, pi + [0])]
    residues = [_e_diag_value(shape, c, params) for _, c in record.steps]
    den = lcm(*(e.denominator for e in residues))
    rhs = [0] * (len(pi) - 1)
    for (p, q), e in zip(record.pairs, residues):
        scale = e.numerator * q * (den // e.denominator)
        b = 0  # Pi_a from its top coefficient down
        for k in range(len(pi) - 1, 0, -1):
            b = (pi[k] + p * b) // q
            rhs[k - 1] += scale * b
    expansion = RatFunc(LaurentPoly.from_ints(rhs, den), LaurentPoly.from_ints(pi))
    return ([(c, e != 0) for (_, c), e in zip(record.steps, residues)],
            record.w / RatFunc.y() == expansion)


def _neighbor_sums(shape: RPartition, cs, params: GroundParams) -> tuple:
    """The linear and the quadratic neighbor-sum identities at a step of
    content cs out of shape whose next step returns to shape:
    sum_t E(c_t)/(cs c_t - 1) = dr + 1/(cs^2 - 1) and
    sum_t E(c_t)/(cs c_t - 1)^2
      = (cs^2 + 1)/(cs^2 - 1)^2 - dr + (delta^{-2} - cs^2/(cs^2 - 1)^2)/E(cs)
    over the flank contents c_t, with dr = delta^{-1} rho.

    On integers: with cs = p/q and c_t = p_t/q_t the terms are
    e q q_t/m_t and e (q q_t)^2/m_t^2, m_t = p p_t - q q_t, for E(c_t) = e;
    each side is summed over one denominator and compared by _equal.
    """
    record = _shape_residues(shape, params)
    p, q = cs.numerator, cs.denominator
    lin, lin_den, quad, quad_den = 0, 1, 0, 1
    for (_, ct), (pt, qt) in zip(record.steps, record.pairs):
        e = _e_diag_value(shape, ct, params)
        en, ed = e.numerator, e.denominator
        qq = q * qt
        m = p * pt - qq
        x, d = en * qq, ed * m
        lin, lin_den = lin * d + x * lin_den, lin_den * d
        x, d = x * qq, d * m
        quad, quad_den = quad * d + x * quad_den, quad_den * d
    dr = params.delta_inv * params.rho
    dn, dd = dr.numerator, dr.denominator
    i, j = params.delta_inv.numerator, params.delta_inv.denominator
    ess = _e_diag_value(shape, cs, params)
    en, ed = ess.numerator, ess.denominator
    p2, q2 = p * p, q * q
    m = p2 - q2
    linear = _equal((lin, lin_den), (dn * m + dd * q2, dd * m))
    # the quadratic right side over dd j^2 m^2 e_s, for E(cs) = e_s/f_s and
    # delta^{-1} = i/j
    jj, mm = j * j, m * m
    rhs = ((p2 + q2) * q2 * dd * jj * en - dn * jj * mm * en
           + (i * i * mm - jj * p2 * q2) * ed * dd, dd * jj * mm * en)
    return linear, _equal((quad, quad_den), rhs)


def _neighbor_sum_cross(shape: RPartition, cs, ctp, params: GroundParams) -> bool:
    """The cross neighbor-sum identity between two steps of contents cs and
    ctp out of shape:
    sum_t E(c_t)/((cs c_t - 1)(c_t ctp - 1)) = (cs ctp + 1)/((cs^2 - 1)(ctp^2 - 1)) - dr.

    On integers as in _neighbor_sums: with ctp = p'/q' a term is
    e q q_t^2 q'/((p p_t - q q_t)(p_t p' - q_t q')).
    """
    record = _shape_residues(shape, params)
    p, q = cs.numerator, cs.denominator
    p1, q1 = ctp.numerator, ctp.denominator
    total, den = 0, 1
    for (_, ct), (pt, qt) in zip(record.steps, record.pairs):
        e = _e_diag_value(shape, ct, params)
        x = e.numerator * q * qt * qt * q1
        d = e.denominator * (p * pt - q * qt) * (pt * p1 - qt * q1)
        total, den = total * d + x * den, den * d
    dr = params.delta_inv * params.rho
    dn, dd = dr.numerator, dr.denominator
    m = (p * p - q * q) * (p1 * p1 - q1 * q1)
    return _equal((total, den), ((p * p1 + q * q1) * q * q1 * dd - dn * m, dd * m))


def _window_checks(s: UpDownTableau, k: int, params: GroundParams) -> tuple:
    """e-reciprocal and b-e-transport at a step k of s whose steps k+1 and
    k+2 each undo the step before: (E_k E_{k+1} = 1, [(transport holds,
    steps k..k+2 of its image)]).

    Both read only shape(k-1) and steps k..k+2 of s: the walks compared
    differ from s at those steps alone.  Products of a b^2 and a residue
    are integer pairs, compared by _equal.
    """
    e, e1 = E_diag(s, k, params), E_diag(s, k + 1, params)
    recip = _equal((e.numerator * e1.numerator, e.denominator * e1.denominator), (1, 1))
    # transport between swapped-step weights and diagonal residues
    transported: dict = {}
    for t in neighbors_k(s, k + 1):
        if t.shape(k - 1) == t.shape(k + 1):
            continue
        image = sk_action(t, k)
        if image is None:
            continue
        _, bsq = ab_coeffs(t, k, params)
        e = E_diag(t, k + 1, params)
        transported[image] = (bsq.numerator * e.numerator, bsq.denominator * e.denominator)
    transports = []
    for u in neighbors_k(s, k):
        if u.shape(k) == u.shape(k + 2):
            continue
        image = sk_action(u, k + 1)
        if image is None or image not in transported:
            continue
        _, bsq = ab_coeffs(u, k + 1, params)
        e = E_diag(u, k, params)
        transports.append((_equal(transported[image], (bsq.numerator * e.numerator,
                                                       bsq.denominator * e.denominator)),
                           image.steps[k - 1:k + 2]))
    return recip, transports


def _swap_checks(s: UpDownTableau, k: int, params: GroundParams) -> tuple:
    """(b-squared-form holds, "degenerate-step" or "swap-symmetry", it holds)
    at a step k of s whose next step does not undo it; reads steps k and k+1
    of s only.

    b-squared-form is b^2 = (c' - c/q^2)(c' - q^2 c)/(c' - c)^2 for the
    contents c = p/q and c' = p'/q' of steps k and k+1, on integers: with
    q^2 = Q/R the right side is (p'qQ - pq'R)(p'qR - pq'Q)/(QR (p'q - pq')^2).
    """
    a, bsq = ab_coeffs(s, k, params)
    ck = s.content(k, params)
    ck1 = s.content(k + 1, params)
    p, q = ck.numerator, ck.denominator
    p1, q1 = ck1.numerator, ck1.denominator
    Q, R = params.q.numerator ** 2, params.q.denominator ** 2
    m = p1 * q - p * q1
    form = _equal((bsq.numerator, bsq.denominator),
                  ((p1 * q * Q - p * q1 * R) * (p1 * q * R - p * q1 * Q), Q * R * m * m))
    w = sk_action(s, k)
    if w is None:
        return form, "degenerate-step", bsq == 0 and (a == params.q or a == -params.q_inv)
    aw, bsqw = ab_coeffs(w, k, params)
    delta = params.delta
    return form, "swap-symmetry", (ck == w.content(k + 1, params)
                                   and ck1 == w.content(k, params)
                                   and _equal((aw.numerator * a.denominator
                                               + a.numerator * aw.denominator,
                                               aw.denominator * a.denominator),
                                              (delta.numerator, delta.denominator))
                                   and bsqw == bsq)


def identity_suite(lam: RPartition, f: int, params: GroundParams) -> dict:
    """Exact verification of the rational identities on one label (f, lam).

    Covers the partial-fraction expansion of W_k/y, the three neighbor-sum
    identities, the reciprocal product of consecutive diagonal residues, the
    swap symmetry of the a/b coefficients, the factored form of b^2, the
    transport identity between b^2 and diagonal residues, the content
    product identity, and nonvanishing of every diagonal residue.

    Each result is keyed by what it reads and kept in
    params._identity_cache: content-product, e-nonzero and partial-fractions
    by the shape; the linear and quadratic neighbor sums by (shape(k-1),
    step k), the cross sum also by its partner's step; e-reciprocal and
    b-e-transport by (shape(k-1), steps k..k+2); b-squared-form,
    swap-symmetry and degenerate-step by (step k, step k+1).  The
    shape-keyed and neighbor-sum checks count one instance per distinct key
    in the label, the others one per (s, k), and each failure names its
    instance.
    """
    n = rp_size(lam) + 2 * f
    basis = enumerate_updown(n, lam)
    checks: dict[str, dict] = {}
    failures: list[str] = []

    def run(name: str, ok: bool, detail):
        entry = checks.setdefault(name, {"instances": 0, "failures": 0})
        entry["instances"] += 1
        if not ok:
            entry["failures"] += 1
            failures.append(f"{name}: {detail()}")

    seen: set = set()  # keys of the checks counted once per label

    for s in basis:
        shapes = s.partitions()
        steps = s.steps
        for shape in shapes:
            key = ("content-product", shape)
            if key not in seen:
                seen.add(key)
                run("content-product",
                    _memo(params, key, content_product_identity, shape, params),
                    lambda: f"shape={shape}")

        for k in range(1, n + 1):
            shape = shapes[k - 1]
            if k < n and shape != shapes[k + 1]:
                continue
            key = ("partial-fractions", shape)
            if key not in seen:
                seen.add(key)
                nonzero, pf = _memo(params, key, _partial_fractions, shape, params)
                for ca, ok in nonzero:
                    run("e-nonzero", ok, lambda: f"shape={shape}, c={ca}")
                run("partial-fractions", pf, lambda: f"shape={shape}")
            if k == n:
                continue
            step = steps[k - 1]
            cs = s.content(k, params)
            key = ("neighbor-sum", shape, step)
            if key not in seen:
                seen.add(key)
                linear, quadratic = _memo(params, key, _neighbor_sums, shape, cs, params)
                run("neighbor-sum-linear", linear, lambda: f"shape={shape}, c={cs}")
                run("neighbor-sum-quadratic", quadratic, lambda: f"shape={shape}, c={cs}")
            if k < n - 1 and shapes[k] != shapes[k + 2]:
                for partner, ctp in _shape_residues(shape, params).steps:
                    key = ("neighbor-sum-cross", shape, step, partner)
                    if partner == step or key in seen:
                        continue
                    seen.add(key)
                    run("neighbor-sum-cross",
                        _memo(params, key, _neighbor_sum_cross, shape, cs, ctp, params),
                        lambda: f"shape={shape}, c={cs}, c'={ctp}")

        for k in range(1, n - 1):
            if shapes[k - 1] == shapes[k + 1] and shapes[k] == shapes[k + 2]:
                key = ("window", shapes[k - 1], steps[k - 1:k + 2])
                recip, transports = _memo(params, key, _window_checks, s, k, params)
                run("e-reciprocal", recip, lambda: f"s={s!r}, k={k}")
                for ok, window in transports:
                    run("b-e-transport", ok,
                        lambda: f"s={s!r}, k={k}, image="
                                f"{UpDownTableau(s.r, steps[:k - 1] + window + steps[k + 2:])!r}")

        for k in range(1, n):
            if shapes[k - 1] == shapes[k + 1]:
                continue
            form, name, ok = _memo(params, ("swap", steps[k - 1], steps[k]),
                                   _swap_checks, s, k, params)
            run("b-squared-form", form, lambda: f"s={s!r}, k={k}")
            run(name, ok, lambda: f"s={s!r}, k={k}")

    return {
        "ok": not failures,
        "checks": checks,
        "failures": failures[:20],
    }


# -- two-strand modules ----------------------------------------------------------


@dataclass
class Br2Module:
    kind: tuple
    dim: int
    params: GroundParams
    rho: object
    rho_inv: object
    v: tuple | None
    gamma: list | None
    # X_1 and X_2 as their diagonals; T_1 and E_1 as sparse Fraction rows
    # with no zero, as on a SeminormalModule
    matX: list
    matT: list
    matE: list
    # token -> (int rows, den) of every token read so far (token_rows)
    _word_cache: dict = field(default_factory=dict, repr=False)

    def omega_local(self, a: int):
        """Weighted power sum over the eigenvalue set (big kind only)."""
        if self.v is None:
            return None
        return sum(x ** a * g for x, g in zip(self.v, self.gamma))


def br2_build(kind: tuple, params: GroundParams) -> Br2Module:
    """Exact two-strand irreducible module of the given kind.

    kind is ("onedim", sign, i) with sign +1 for eigenvalue q and -1 for
    -q^{-1}; ("twodim", i, j) with i != j; or ("big", indices) with indices a
    tuple of distinct 1-based positions into u (None selects all of u) whose
    values v are distinct with no product v_i v_j = 1.
    """
    q, delta = params.q, params.delta
    if kind[0] == "onedim":
        _, sign, i = kind
        eps = q if sign == 1 else -params.q_inv
        ui = params.u[i - 1]
        return Br2Module(kind, 1, params, params.rho, params.rho_inv, None, None,
                         [[ui], [eps * eps * ui]], [[{0: eps}]], [[{}]])
    if kind[0] == "twodim":
        _, i, j = kind
        if i == j:
            raise ValueError("two-dimensional kind needs distinct eigenvalue indices")
        ui, uj = params.u[i - 1], params.u[j - 1]
        if ui == uj:
            raise ArithmeticError(f"u_{i} = u_{j}; parameters not generic")
        pref = uj / (uj - ui)
        rows = ((pref * delta, pref * (q - ui * params.q_inv / uj)),
                (pref * (params.q_inv - q * ui / uj), pref * (-delta * ui / uj)))
        return Br2Module(kind, 2, params, params.rho, params.rho_inv, None, None,
                         [[ui, uj], [uj, ui]],
                         [[{c: x for c, x in enumerate(row) if x} for row in rows]],
                         [[{}, {}]])
    if kind[0] == "big":
        indices = kind[1] if kind[1] is not None else tuple(range(1, params.r + 1))
        v = tuple(params.u[i - 1] for i in indices)
        d = len(v)
        _check_det_domain(v)
        if d % 2 == 0:
            raise ValueError("even eigenvalue counts are out of scope")
        prod_v = prod(v)
        rho_inv = prod_v if params.alpha == 1 else -prod_v
        rho = 1 / rho_inv
        dr = params.delta_inv * rho
        gamma = []
        for i in range(d):
            g = 1 + dr * (v[i] * v[i] - 1) * prod_v / v[i]
            for j in range(d):
                if j != i:
                    g = g * (v[i] * v[j] - 1) / (v[i] - v[j])
            gamma.append(g)
        matE = [{i: g for i, g in enumerate(gamma) if g} for _ in range(d)]
        matT = [
            {i: x for i in range(d)
             if (x := delta * (gamma[i] - (1 if i == j else 0)) / (v[i] * v[j] - 1))}
            for j in range(d)
        ]
        return Br2Module(kind, d, params, rho, rho_inv, v, gamma,
                         [list(v), [1 / x for x in v]], [matT], [matE])
    raise ValueError(f"unknown kind {kind!r}")


def _br2_reports(mods: list, params: GroundParams) -> list:
    """br2_verify's reports on two-strand modules that share their rho and
    moments, whose relations are checked as one direct sum.
    """
    head = mods[0]
    omega = head.omega_local if head.v is not None else params.omega
    table = defining_relations(2, params, head.rho, omega)
    reports = verify_relations(mods, table)
    for mod, report in zip(mods, reports):
        results = report["relations"]
        if mod.v is not None:
            dr = params.delta_inv * mod.rho
            for j, vj in enumerate(mod.v):
                lhs = sum(g / (vj * vk - 1) for vk, g in zip(mod.v, mod.gamma))
                ok = lhs == dr + Fraction(1) / (vj * vj - 1)
                results.append({"name": f"row-sum({j + 1})", "pass": ok})
        report.update(ok=all(r["pass"] for r in results), kind=mod.kind)
    return reports


def br2_verify(mod: Br2Module, params: GroundParams) -> dict:
    """Exact check of the defining relations at n = 2 and of the row-sum
    identities of the big kind on one two-strand module: verify_relations'
    report (relations sorted by name, a failing one with its details), the
    row-sum entries after them, and the module's kind.
    """
    return _br2_reports([mod], params)[0]


def br2_all(params: GroundParams) -> dict:
    """Build and verify every two-strand irreducible; check the dimension
    census sum of squares = 3 r^2.
    """
    r = params.r
    kinds = [("onedim", sign, i) for sign in (1, -1) for i in range(1, r + 1)]
    kinds += [("twodim", i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    mods = [br2_build(kind, params) for kind in kinds]
    big = br2_build(("big", None), params)
    # the one- and two-dimensional kinds share the ground rho and moments, so
    # their relations are checked on one direct sum; the big kind has its own
    reports = _br2_reports(mods, params) + [br2_verify(big, params)]
    modules = [{"kind": rep["kind"], "dim": rep["dim"], "ok": rep["ok"], "report": rep}
               for rep in reports]
    total = sum(m["dim"] ** 2 for m in modules)
    expected = 3 * r * r
    return {
        "ok": total == expected and all(m["ok"] for m in modules),
        "total_dim_sq": total,
        "expected": expected,
        "modules": modules,
    }


# -- eigenvalue-matrix determinant -------------------------------------------------


def _check_det_domain(v) -> None:
    d = len(v)
    if len(set(v)) != d:
        raise ValueError("eigenvalues must be distinct")
    for i in range(d):
        for j in range(d):
            if v[i] * v[j] == 1:
                raise ValueError(f"singular entry: v_{i + 1} v_{j + 1} = 1")


def det_Ad(v) -> Fraction:
    """Closed-form determinant of the matrix with entries 1/(v_i v_j - 1)."""
    _check_det_domain(v)
    d = len(v)
    num = prod((v[k] - v[j]) ** 2 for k in range(d) for j in range(k + 1, d))
    den = prod(v[k] * v[j] - 1 for k in range(d) for j in range(d))
    return Fraction(num, den)


def det_Ad_brute(v) -> Fraction:
    """Gaussian-elimination determinant of the same matrix."""
    _check_det_domain(v)
    d = len(v)
    m = [[1 / (v[i] * v[j] - 1) for j in range(d)] for i in range(d)]
    det = Fraction(1)
    for col in range(d):
        pivot = next((row for row in range(col, d) if m[row][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = 1 / m[col][col]
        for row in range(col + 1, d):
            factor = m[row][col] * inv
            for j in range(col, d):
                m[row][j] = m[row][j] - factor * m[col][j]
    return det
