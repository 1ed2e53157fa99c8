"""Seminormal modules and identity verification.

Builds the step generating functions W_k(y,s), the diagonal residues E_ss(k)
and off-step coefficients a/b, assembles the generator matrices of the
irreducible module attached to each (f, lambda) over Q in a rational gauge,
which the module keeps, and verifies the defining relations and rational
identities exactly.  generator_matrix and word_product evaluate the relation
table's generator words; cellular word evaluation uses the same two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .matrices import (
    mat_add,
    mat_diag,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_zero,
)
from .params import GroundParams, _embed, scalar_inv, wtilde_rational
from .scalars import LaurentPoly, RatFunc, expand_series
# bound only because bench/tracer.py patches it here (ROADMAP item 1)
from .scalars import ball_sqrt  # noqa: F401
from .tableaux import (
    RPartition,
    UpDownTableau,
    addable_removable,
    content,
    content_product_identity,
    enumerate_updown,
    neighbors_k,
    rp_size,
    sk_action,
)


def _flank_contents(shape: RPartition, params: GroundParams) -> list:
    """Contents of the addable (as added) and removable (as removed) nodes."""
    addable, removable = addable_removable(shape)
    out = [content(nd, "add", params) for nd in addable]
    out += [content(nd, "remove", params) for nd in removable]
    return out


def _w_shape(shape: RPartition, params: GroundParams) -> RatFunc:
    cache = params._w_shape_cache
    if shape in cache:
        return cache[shape]
    y = RatFunc.var("y")
    one = RatFunc.const(1)
    dr = _embed(params.delta_inv) * _embed(params.rho)
    P = _embed(params.u_prod)
    prod = one
    for c in _flank_contents(shape, params):
        prod = prod * (y - _embed(scalar_inv(c))) / (y - _embed(c))
    w = y * y / (y * y - one) - dr + (dr * P + y / (y * y - one)) * P * prod
    cache[shape] = w
    return w


def W_rational(s: UpDownTableau, k: int, params: GroundParams) -> RatFunc:
    """Step generating function W_k(y,s); depends only on the shape before
    step k.
    """
    if not 1 <= k <= s.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got {k}")
    return _w_shape(s.shape(k - 1), params)


def _residue_simple(f: RatFunc, c: Fraction) -> Fraction:
    """Residue of f at a simple pole y=c, via the derivative of the
    (unreduced) denominator.
    """
    num, den = LaurentPoly._align(f.num, f.den)
    if den.evaluate({"y": c}) != 0:
        raise ArithmeticError(f"no pole at y={c}")
    dval = den.derivative("y").evaluate({"y": c})
    if dval == 0:
        raise ArithmeticError(f"pole at y={c} is not simple")
    return num.evaluate({"y": c}) / dval


def _e_diag_value(shape: RPartition, c, params: GroundParams):
    """Diagonal residue at content c over the given flanking shape.

    Computed from the closed product form and, for rational ground data,
    cross-checked against the residue of W/y at y=c.
    """
    cache = params._e_diag_cache
    key = (shape, c)
    if key in cache:
        return cache[key]
    pref = params.rho_inv * scalar_inv(c) * (
        (c - scalar_inv(c)) * params.delta_inv + params.alpha
    )
    value = pref
    skipped = 0
    for ca in _flank_contents(shape, params):
        if ca == c:
            skipped += 1
            continue
        value = value * (c - scalar_inv(ca)) / (c - ca)
    if skipped != 1:
        raise ArithmeticError(
            f"content {c} matched {skipped} nodes of {shape}; parameters not generic"
        )
    if isinstance(c, Fraction) and isinstance(params.q, Fraction):
        res = _residue_simple(_w_shape(shape, params) / RatFunc.var("y"), c)
        if res != value:
            raise ArithmeticError(
                f"residue {res} disagrees with product form {value} at c={c}"
            )
    cache[key] = value
    return value


def E_diag(s: UpDownTableau, k: int, params: GroundParams):
    """Diagonal coefficient E_ss(k); requires equal flanking shapes for k<n."""
    if not 1 <= k <= s.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got {k}")
    if k < s.n and s.shape(k - 1) != s.shape(k + 1):
        raise ValueError("diagonal residue undefined when the flanking shapes differ")
    return _e_diag_value(s.shape(k - 1), s.content(k, params), params)


def ab_coeffs(s: UpDownTableau, k: int, params: GroundParams):
    """Exact a_s(k) and b_s(k)^2 for a step pair with differing flanks."""
    if not 1 <= k <= s.n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got {k}")
    if s.shape(k - 1) == s.shape(k + 1):
        raise ValueError("a/b coefficients undefined when the flanking shapes coincide")
    ck = s.content(k, params)
    ck1 = s.content(k + 1, params)
    a = params.delta * ck1 / (ck1 - ck)
    bsq = 1 - a * a + params.delta * a
    return a, bsq


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
    index: dict
    table: ResidueTable
    # g_s > 0 with every T_k, E_k equal to D A D^{-1}, D = diag(sqrt(g_s)), A symmetric
    gauge: list
    matX: list
    matT: list
    matE: list
    _word_cache: dict = field(default_factory=dict, repr=False)  # cellular.token_matrix

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
    if not isinstance(params.q, Fraction):
        raise ValueError("seminormal matrices need rational ground data")
    basis = enumerate_updown(n, lam)
    index = {t: i for i, t in enumerate(basis)}
    d = len(basis)

    e_diag: dict = {}
    a_coef: dict = {}
    b_sq: dict = {}
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
                if sk_action(s, k) is None and bsq != 0:
                    raise ArithmeticError(
                        f"expected zero off-diagonal weight at k={k}, s={s!r}"
                    )
    table = ResidueTable(e_diag, a_coef, b_sq)

    matX = [
        mat_diag([s.content(i, params) for s in basis]) for i in range(1, n + 1)
    ]
    matE = [mat_zero(d) for _ in range(1, n)]
    matT = [mat_zero(d) for _ in range(1, n)]
    # off-diagonal entries (k, i, j, weight, T_ij / E_ij), the ratio None for
    # a swap entry, which T has and E has not
    edges: list = []
    delta = params.delta
    for k in range(1, n):
        E, T = matE[k - 1], matT[k - 1]
        for j, s in enumerate(basis):
            if s.shape(k - 1) == s.shape(k + 1):
                cs = s.content(k, params)
                es = e_diag[(j, k)]
                for t in neighbors_k(s, k):
                    i = index[t]
                    if i == j:
                        E[j][j] = es
                        T[j][j] = delta * (es - 1) / (cs * cs - 1)
                    else:
                        ratio = delta / (cs * t.content(k, params) - 1)
                        edges.append((k, i, j, _weight(es, e_diag[(i, k)]), ratio))
            else:
                T[j][j] = a_coef[(j, k)]
                u = sk_action(s, k)
                if u is not None:
                    edges.append((k, index[u], j, _weight(b_sq[(j, k)]), None))

    gauge, roots = _gauged_roots(d, edges)
    for (k, i, j, _, ratio), x in zip(edges, roots):
        if ratio is None:
            matT[k - 1][i][j] = x
        else:
            matE[k - 1][i][j] = x
            matT[k - 1][i][j] = ratio * x
    return SeminormalModule(lam, f, n, params, basis, index, table, gauge, matX, matT, matE)


# -- relation verification -------------------------------------------------------


# The X-shift identities run over a = 1..A_MAX, and E_1 X_1^a E_1 = omega_a E_1
# over |a| <= max(A_MAX, r).
A_MAX = 3

# A relation is a name and a list of (coefficient, word) terms whose sum
# must vanish.  A word is a tuple of generator tokens read left to right, and
# () is the identity: ("T", k, 1) is T_k, ("T", k, -1) is T_k^{-1},
# ("E", k, 1) is E_k and ("X", i, a) is X_i^a.


def _T(k: int, e: int = 1) -> tuple:
    return ("T", k, e)


def _E(k: int) -> tuple:
    return ("E", k, 1)


def _X(i: int, a: int = 1) -> tuple:
    return ("X", i, a)


def defining_relations(n: int, params: GroundParams, rho, omega) -> list:
    """The defining relations of B_{r,n} on n strands.

    rho and omega are the module's own; they differ from the ground data's
    on the big two-strand modules.
    """
    delta, r = params.delta, params.r
    rel: list = []
    for i in range(1, n + 1):
        rel.append(("x-inverse", [(1, (_X(i), _X(i, -1))), (-1, ())]))
        for j in range(i + 1, n + 1):
            rel.append(("x-commute", [(1, (_X(i), _X(j))), (-1, (_X(j), _X(i)))]))
    # prod_s (X_1 - u_s), expanded by the elementary symmetric functions
    rel.append(("cyclotomic", [
        ((-1) ** (r - j) * params.sym.sigma[r - j], (_X(1, j),)) for j in range(r + 1)
    ]))
    for k in range(1, n):
        T, Ti, E, Xk, Xk1 = _T(k), _T(k, -1), _E(k), _X(k), _X(k + 1)
        rel += [
            ("kauffman", [(1, (T, T)), (-delta, (T,)), (delta * rho, (E,)), (-1, ())]),
            ("e-idempotent", [(1, (E, E)), (-omega(0), (E,))]),
            ("skein-left", [(1, (T, Xk)), (-1, (Xk1, T)),
                            (-delta, (Xk1, E)), (delta, (Xk1,))]),
            ("skein-right", [(1, (Xk, T)), (-1, (T, Xk1)),
                             (-delta, (E, Xk1)), (delta, (Xk1,))]),
            ("x-braid-step", [(1, (Xk1,)), (-1, (T, Xk, T))]),
        ]
        rel += [("t-inverse", [(1, w), (-1, ())]) for w in ((T, Ti), (Ti, T))]
        rel += [("e-t-absorb", [(1, w), (-rho, (E,))]) for w in ((E, T), (T, E))]
        rel += [("e-x-unit", [(1, w), (-1, (E,))]) for w in ((E, Xk, Xk1), (Xk, Xk1, E))]
        rel += [("t-x-far", [(1, (T, _X(j))), (-1, (_X(j), T))])
                for j in range(1, n + 1) if j not in (k, k + 1)]
        rel += [("braid-far", [(1, (T, _T(l))), (-1, (_T(l), T))])
                for l in range(k + 2, n)]
    for k in range(1, n - 1):
        T, T1, E, E1 = _T(k), _T(k + 1), _E(k), _E(k + 1)
        rel.append(("braid", [(1, (T, T1, T)), (-1, (T1, T, T1))]))
        rel += [("e-e-braid", [(1, (E1, E)), (-1, w)]) for w in ((E1, T, T1), (T, T1, E))]
        rel += [("e-sandwich", [(1, (a, b, a)), (-1, (a,))]) for a, b in ((E1, E), (E, E1))]
    if n >= 2:
        g = max(A_MAX, r)
        rel += [("e-x-e", [(1, (_E(1), _X(1, a), _E(1))), (-omega(a), (_E(1),))])
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
            rel += [(f"x-shift-{m}", s) for m, s in enumerate((s1, s2, s3, s4, s5, s6), 1)]
    return rel


def generator_matrix(tok: tuple, matX: list, matT: list, matE: list, delta):
    """Matrix of one relation-table token, given the matrices of X_i, T_k and
    E_k; T_k^{-1} = T_k - delta + delta E_k.
    """
    mats = {"X": matX, "T": matT, "E": matE}.get(tok[0])
    if mats is None:
        raise ValueError(f"unknown token {tok!r}")
    kind, i, e = tok
    if not 1 <= i <= len(mats):
        raise ValueError(f"token index {i} out of range for {len(matX)} strands")
    m = mats[i - 1]
    if kind == "X":
        return mat_diag([m[j][j] ** e for j in range(len(m))])
    if kind == "E" or e == 1:
        return m
    return mat_add(mat_sub(m, mat_scale(delta, mat_identity(len(m)))),
                   mat_scale(delta, matE[i - 1]))


def word_product(word, matrix_of, dim: int):
    """Left-to-right product of matrix_of(token) over a token word, the
    identity of size dim when no factor is left; X_i^0 is 1 and is skipped.

    A one-factor word yields matrix_of's matrix itself, so callers must not
    mutate the result.
    """
    out = None
    for tok in word:
        if tok[0] == "X" and tok[2] == 0:
            continue
        m = matrix_of(tok)
        out = m if out is None else mat_mul(out, m)
    return mat_identity(dim) if out is None else out


def _check_relations(relations: list, matX: list, matT: list, matE: list, delta) -> dict:
    """Evaluate every relation on the given generator matrices.

    Returns name -> every instance vanishes exactly.
    """
    gens: dict = {}

    def generator(tok):
        if tok not in gens:
            gens[tok] = generator_matrix(tok, matX, matT, matE, delta)
        return gens[tok]

    merged: dict = {}
    for name, terms in relations:
        total = None
        for c, word in terms:
            m = word_product(word, generator, len(matX[0]))
            if c == -1 and total is not None:
                total = mat_sub(total, m)
                continue
            if c != 1:
                m = mat_scale(c, m)
            total = m if total is None else mat_add(total, m)
        ok = not any(x for row in total for x in row)
        merged[name] = merged.get(name, True) and ok
    return merged


def verify_relations(module: SeminormalModule) -> dict:
    """Check the defining relations and the X-shift identities on the
    module's matrices.

    Every residual entry must vanish identically, so every width is 0.
    """
    p = module.params
    relations = (defining_relations(module.n, p, p.rho, p.omega)
                 + x_shift_relations(module.n, p, p.rho))
    merged = _check_relations(relations, module.matX, module.matT, module.matE, p.delta)
    report = [
        {"name": name, "pass": ok, "max_width": 0.0}
        for name, ok in sorted(merged.items())
    ]
    return {
        "ok": all(r["pass"] for r in report),
        "dim": module.dim,
        "relations": report,
    }


# -- omega tables -----------------------------------------------------------------


@dataclass
class OmegaKTable:
    lam: RPartition
    f: int
    n: int
    a_max: int
    values: dict  # (k, shape before step k) -> [omega_k^(0..a_max)]


def _content_factor(params: GroundParams, c) -> RatFunc:
    y = RatFunc.var("y")
    q2 = params.q ** 2
    cinv = scalar_inv(c)
    num = (y - _embed(c)) ** 2 \
        * (y - _embed(scalar_inv(q2) * cinv)) * (y - _embed(q2 * cinv))
    den = (y - _embed(cinv)) ** 2 \
        * (y - _embed(scalar_inv(q2) * c)) * (y - _embed(q2 * c))
    return num / den


def omega_k_table(
    lam: RPartition, f: int, params: GroundParams, a_max: int | None = None
) -> OmegaKTable:
    """Eigenvalue tables of the central step elements, computed two ways.

    Route one multiplies the one-strand series by the content factors along
    each walk; route two expands the node-product form W_k(y,s).  The routes
    must agree coefficientwise and be independent of the walk taken to a
    given intermediate shape.
    """
    if a_max is None:
        a_max = 4 * params.r
    n = rp_size(lam) + 2 * f
    basis = enumerate_updown(n, lam)
    y = RatFunc.var("y")
    one = RatFunc.const(1)
    shift = y * y / (y * y - one) - _embed(params.delta_inv) * _embed(params.rho)
    g_base = wtilde_rational(params, "+") - shift
    values: dict = {}
    for s in basis:
        g = g_base
        for k in range(1, n + 1):
            key = (k, s.shape(k - 1))
            route_one = expand_series(g + shift, "y", a_max, at="inf").coeffs
            if key in values:
                if values[key] != route_one:
                    raise ValueError(
                        f"omega table depends on the walk at k={k}, s={s!r}"
                    )
            else:
                route_two = expand_series(
                    W_rational(s, k, params), "y", a_max, at="inf"
                ).coeffs
                for a, (x1, x2) in enumerate(zip(route_one, route_two)):
                    if x1 != x2:
                        raise ValueError(
                            f"omega table mismatch at s={s!r}, k={k}, a={a}"
                        )
                values[key] = route_one
            if k < n:
                g = g * _content_factor(params, s.content(k, params))
    return OmegaKTable(lam, f, n, a_max, values)


# -- exact identity suite -----------------------------------------------------------


def identity_suite(lam: RPartition, f: int, params: GroundParams) -> dict:
    """Exact verification of the rational identities on one label (f, lam).

    Covers the partial-fraction expansion of W_k/y, the three neighbor-sum
    identities, the reciprocal product of consecutive diagonal residues, the
    swap symmetry of the a/b coefficients, the factored form of b^2, the
    transport identity between b^2 and diagonal residues, the content
    product identity, and nonvanishing of every diagonal residue.
    """
    n = rp_size(lam) + 2 * f
    basis = enumerate_updown(n, lam)
    y = RatFunc.var("y")
    dr = params.delta_inv * params.rho
    checks: dict[str, dict] = {}
    failures: list[str] = []

    def run(name: str, ok: bool, detail: str):
        entry = checks.setdefault(name, {"instances": 0, "failures": 0})
        entry["instances"] += 1
        if not ok:
            entry["failures"] += 1
            failures.append(f"{name}: {detail}")

    seen_shapes: set = set()
    seen_pf: set = set()
    seen_lin: set = set()
    seen_quad: set = set()
    seen_cross: set = set()

    for s in basis:
        for k in range(n + 1):
            shape = s.shape(k)
            if shape not in seen_shapes:
                seen_shapes.add(shape)
                run("content-product", content_product_identity(shape, params),
                    f"shape={shape}")

        for k in range(1, n + 1):
            shape = s.shape(k - 1)
            equal_flanks = k == n or shape == s.shape(k + 1)
            if not equal_flanks:
                continue
            if shape not in seen_pf:
                seen_pf.add(shape)
                lhs = _w_shape(shape, params) / y
                rhs = RatFunc.const(0)
                for ca in _flank_contents(shape, params):
                    ev = _e_diag_value(shape, ca, params)
                    run("e-nonzero", ev != 0, f"shape={shape}, c={ca}")
                    rhs = rhs + _embed(ev) / (y - _embed(ca))
                run("partial-fractions", lhs == rhs, f"shape={shape}")
            if k > n - 1:
                continue
            cs = s.content(k, params)
            neighbors = neighbors_k(s, k)
            if (shape, cs) not in seen_lin:
                seen_lin.add((shape, cs))
                total = sum(
                    E_diag(t, k, params) / (cs * t.content(k, params) - 1)
                    for t in neighbors
                )
                run("neighbor-sum-linear",
                    total == dr + Fraction(1) / (cs * cs - 1),
                    f"shape={shape}, c={cs}")
            if (shape, cs) not in seen_quad:
                seen_quad.add((shape, cs))
                total = sum(
                    E_diag(t, k, params) / (cs * t.content(k, params) - 1) ** 2
                    for t in neighbors
                )
                ess = E_diag(s, k, params)
                rhs = ((cs * cs + 1) / (cs * cs - 1) ** 2 - dr
                       + (params.delta_inv ** 2 - cs * cs / (cs * cs - 1) ** 2) / ess)
                run("neighbor-sum-quadratic", total == rhs,
                    f"shape={shape}, c={cs}")
            if k < n - 1 and s.shape(k) != s.shape(k + 2):
                for tp in neighbors:
                    if tp == s:
                        continue
                    ctp = tp.content(k, params)
                    if (shape, cs, ctp) in seen_cross:
                        continue
                    seen_cross.add((shape, cs, ctp))
                    total = sum(
                        E_diag(t, k, params)
                        / ((cs * t.content(k, params) - 1)
                           * (t.content(k, params) * ctp - 1))
                        for t in neighbors
                    )
                    rhs = ((cs * ctp + 1)
                           / ((cs * cs - 1) * (ctp * ctp - 1)) - dr)
                    run("neighbor-sum-cross", total == rhs,
                        f"shape={shape}, c={cs}, c'={ctp}")

        for k in range(1, n - 1):
            if s.shape(k - 1) == s.shape(k + 1) and s.shape(k) == s.shape(k + 2):
                prod = E_diag(s, k, params) * E_diag(s, k + 1, params)
                run("e-reciprocal", prod == 1, f"s={s!r}, k={k}")
                # transport between swapped-step weights and diagonal residues
                transported: dict = {}
                for t in neighbors_k(s, k + 1):
                    if t.shape(k - 1) == t.shape(k + 1):
                        continue
                    image = sk_action(t, k)
                    if image is None:
                        continue
                    _, bsq_t = ab_coeffs(t, k, params)
                    transported[image] = bsq_t * E_diag(t, k + 1, params)
                for u in neighbors_k(s, k):
                    if u.shape(k) == u.shape(k + 2):
                        continue
                    image = sk_action(u, k + 1)
                    if image is None or image not in transported:
                        continue
                    _, bsq_u = ab_coeffs(u, k + 1, params)
                    run("b-e-transport",
                        transported[image] == bsq_u * E_diag(u, k, params),
                        f"s={s!r}, k={k}, image={image!r}")

        for k in range(1, n):
            if s.shape(k - 1) == s.shape(k + 1):
                continue
            a, bsq = ab_coeffs(s, k, params)
            ck = s.content(k, params)
            ck1 = s.content(k + 1, params)
            q2 = params.q ** 2
            run("b-squared-form",
                bsq == (ck1 - ck / q2) * (ck1 - q2 * ck) / (ck1 - ck) ** 2,
                f"s={s!r}, k={k}")
            w = sk_action(s, k)
            if w is None:
                run("degenerate-step",
                    bsq == 0 and (a == params.q or a == -params.q_inv),
                    f"s={s!r}, k={k}")
                continue
            aw, bsqw = ab_coeffs(w, k, params)
            run("swap-symmetry",
                ck == w.content(k + 1, params)
                and ck1 == w.content(k, params)
                and aw == params.delta - a
                and bsqw == bsq,
                f"s={s!r}, k={k}")

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
    rho: object
    rho_inv: object
    v: tuple | None
    gamma: list | None
    matT: list
    matE: list
    matX1: list
    matX2: list

    def omega_local(self, a: int):
        """Weighted power sum over the eigenvalue set (big kind only)."""
        if self.v is None:
            return None
        return sum(x ** a * g for x, g in zip(self.v, self.gamma))


def br2_build(kind: tuple, params: GroundParams) -> Br2Module:
    """Exact two-strand irreducible module of the given kind.

    kind is ("onedim", sign, i) with sign +1 for eigenvalue q and -1 for
    -q^{-1}; ("twodim", i, j) with i != j; or ("big", indices) with indices a
    tuple of distinct 1-based positions into u (None selects all of u).
    """
    q, delta = params.q, params.delta
    if kind[0] == "onedim":
        _, sign, i = kind
        eps = q if sign == 1 else -params.q_inv
        ui = params.u[i - 1]
        return Br2Module(kind, 1, params.rho, params.rho_inv, None, None,
                         [[eps]], [[Fraction(0)]], [[ui]], [[eps * eps * ui]])
    if kind[0] == "twodim":
        _, i, j = kind
        if i == j:
            raise ValueError("two-dimensional kind needs distinct eigenvalue indices")
        ui, uj = params.u[i - 1], params.u[j - 1]
        if ui == uj:
            raise ArithmeticError(f"u_{i} = u_{j}; parameters not generic")
        pref = uj / (uj - ui)
        matT = [
            [pref * delta, pref * (q - ui * params.q_inv * scalar_inv(uj))],
            [pref * (params.q_inv - q * ui * scalar_inv(uj)),
             pref * (-delta * ui * scalar_inv(uj))],
        ]
        zero = Fraction(0)
        return Br2Module(kind, 2, params.rho, params.rho_inv, None, None,
                         matT, [[zero, zero], [zero, zero]],
                         mat_diag([ui, uj]), mat_diag([uj, ui]))
    if kind[0] == "big":
        indices = kind[1] if kind[1] is not None else tuple(range(1, params.r + 1))
        v = tuple(params.u[i - 1] for i in indices)
        d = len(v)
        if len(set(v)) != d:
            raise ValueError("eigenvalues must be distinct")
        if d % 2 == 0:
            raise ValueError("even eigenvalue counts are out of scope")
        prod_v = Fraction(1) if isinstance(params.q, Fraction) else params.q ** 0
        for x in v:
            prod_v = prod_v * x
        rho_inv = prod_v if params.alpha == 1 else -prod_v
        rho = scalar_inv(rho_inv)
        dr = params.delta_inv * rho
        gamma = []
        for i in range(d):
            g = 1 + dr * (v[i] * v[i] - 1) * prod_v * scalar_inv(v[i])
            for j in range(d):
                if j != i:
                    g = g * (v[i] * v[j] - 1) / (v[i] - v[j])
            gamma.append(g)
        matE = [[gamma[i] for i in range(d)] for _ in range(d)]
        matT = [
            [delta * (gamma[i] - (1 if i == j else 0)) / (v[i] * v[j] - 1)
             for i in range(d)]
            for j in range(d)
        ]
        return Br2Module(kind, d, rho, rho_inv, v, gamma, matT, matE,
                         mat_diag(list(v)),
                         mat_diag([scalar_inv(x) for x in v]))
    raise ValueError(f"unknown kind {kind!r}")


def br2_verify(mod: Br2Module, params: GroundParams) -> dict:
    """Exact check of the defining relations at n = 2 and of the row-sum
    identities of the big kind on one two-strand module.
    """
    omega = mod.omega_local if mod.v is not None else params.omega
    merged = _check_relations(defining_relations(2, params, mod.rho, omega),
                              [mod.matX1, mod.matX2], [mod.matT], [mod.matE],
                              params.delta)
    results = [{"name": name, "pass": ok} for name, ok in merged.items()]
    if mod.v is not None:
        dr = params.delta_inv * mod.rho
        for j, vj in enumerate(mod.v):
            lhs = sum(g / (vj * vk - 1) for vk, g in zip(mod.v, mod.gamma))
            ok = lhs == dr + Fraction(1) / (vj * vj - 1)
            results.append({"name": f"row-sum({j + 1})", "pass": ok})
    return {"ok": all(r["pass"] for r in results),
            "kind": mod.kind, "dim": mod.dim, "relations": results}


def br2_all(params: GroundParams) -> dict:
    """Build and verify every two-strand irreducible; check the dimension
    census sum of squares = 3 r^2.
    """
    r = params.r
    kinds = [("onedim", sign, i) for sign in (1, -1) for i in range(1, r + 1)]
    kinds += [("twodim", i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    kinds.append(("big", None))
    modules = []
    total = 0
    for kind in kinds:
        mod = br2_build(kind, params)
        rep = br2_verify(mod, params)
        total += mod.dim ** 2
        modules.append({"kind": kind, "dim": mod.dim, "ok": rep["ok"],
                        "report": rep})
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
    num = Fraction(1) if isinstance(v[0], Fraction) else v[0] ** 0
    for k in range(d):
        for j in range(k + 1, d):
            num = num * (v[k] - v[j]) ** 2
    den = num ** 0 if not isinstance(num, Fraction) else Fraction(1)
    for k in range(d):
        for j in range(d):
            den = den * (v[k] * v[j] - 1)
    return num / den


def det_Ad_brute(v) -> Fraction:
    """Gaussian-elimination determinant of the same matrix."""
    _check_det_domain(v)
    d = len(v)
    m = [[scalar_inv(v[i] * v[j] - 1) for j in range(d)] for i in range(d)]
    det = Fraction(1)
    for col in range(d):
        pivot = next((row for row in range(col, d) if m[row][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = scalar_inv(m[col][col])
        for row in range(col + 1, d):
            factor = m[row][col] * inv
            for j in range(col, d):
                m[row][j] = m[row][j] - factor * m[col][j]
    return det
