from collections import Counter
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw import seminormal
from cycbmw.matrices import dense, mat_mul, sparse_diag
from cycbmw.params import GroundParams, generic_specialization, wtilde_rational
from cycbmw.scalars import RatFunc
from cycbmw.seminormal import (
    E_diag,
    W_rational,
    _gauged_roots,
    ab_coeffs,
    br2_all,
    br2_build,
    br2_verify,
    build_module,
    defining_relations,
    det_Ad,
    det_Ad_brute,
    identity_suite,
    omega_k_table,
    relation_table,
    verify_relations,
    x_shift_relations,
)
from cycbmw.tableaux import (
    Node,
    UpDownTableau,
    content,
    enumerate_updown,
    neighbors_k,
    rp_empty,
    shapes_with_f,
    sk_action,
)


def updown(r, *signed_nodes):
    return UpDownTableau(r, tuple((s, Node(*nd)) for s, nd in signed_nodes))


def table_weight(m, kind, k, i, j):
    """M_ij M_ji of the orthonormal generator, from the residue layer of the
    module's family: e_s e_t (E_diag) on two k-neighbours with equal flanks,
    times (delta / (c_s c_t - 1))^2 for T_k; b_s(k)^2 (ab_coeffs) on a
    swapped pair for T_k; 0 elsewhere.
    """
    p = m.params
    s, t = m.basis[i], m.basis[j]
    if s.shape(k - 1) == s.shape(k + 1):
        if t not in neighbors_k(s, k):
            return 0
        w = E_diag(s, k, p) * E_diag(t, k, p)
        if kind == "E":
            return w
        return w * (p.delta / (s.content(k, p) * t.content(k, p) - 1)) ** 2
    if kind == "E" or sk_action(s, k) != t:
        return 0
    return ab_coeffs(s, k, p)[1]


def gauge_defects(m):
    """Entries (kind, k, i, j), i < j, at which T_k or E_k fails to be the
    gauge of a symmetric matrix: g_i M_ji = M_ij g_j, and M_ij M_ji equal to
    the table weight.  The gauge g may have either sign.
    """
    g = m.gauge
    out = []
    for kind, mats in (("T", m.matT), ("E", m.matE)):
        for k, rows in enumerate(mats, 1):
            M = dense(rows, m.dim)
            for i in range(m.dim):
                for j in range(i + 1, m.dim):
                    if (g[i] * M[j][i] != M[i][j] * g[j]
                            or M[i][j] * M[j][i] != table_weight(m, kind, k, i, j)):
                        out.append((kind, k, i, j))
    return out


def stored_zeros(m):
    """Exact zeros stored in a module's generators: an X_i diagonal entry or
    a sparse T_k or E_k entry, each of which must be nonzero.
    """
    assert all(len(diag) == m.dim for diag in m.matX)
    assert all(len(rows) == m.dim and all(type(row) is dict for row in rows)
               for rows in m.matT + m.matE)
    return ([("X", i, j) for i, diag in enumerate(m.matX, 1) for j, x in enumerate(diag) if not x]
            + [(kind, k, i, j) for kind, mats in (("T", m.matT), ("E", m.matE))
               for k, rows in enumerate(mats, 1) for i, row in enumerate(rows)
               for j, x in row.items() if not x])


def assert_gauged_modules(r, n, p):
    for f, lam in shapes_with_f(n, r):
        m = build_module(lam, f, p)
        assert all(g > 0 for g in m.gauge), (f, lam)
        assert gauge_defects(m) == [], (f, lam)
        assert stored_zeros(m) == [], (f, lam)


def y_coeffs(poly):
    """Ascending coefficients of a polynomial in y."""
    split = poly.terms
    assert min(split) >= 0
    out = [F(0)] * (max(split) + 1)
    for e, c in split.items():
        out[e] = c
    return out


def at(coeffs, c):
    return sum(a * c ** i for i, a in enumerate(coeffs))


def divide_root(coeffs, c):
    """Quotient by y - c by synthetic division; the remainder must vanish."""
    acc, quotient = F(0), []
    for a in reversed(coeffs):
        acc = acc * c + a
        quotient.append(acc)
    assert quotient.pop() == 0
    return quotient[::-1]


class TestWRational:
    def test_one_row_equals_one_strand_series(self):
        # over the empty flanking shape the node product has one factor per
        # component, matching the closed one-strand generating function
        p = generic_specialization(3, 2)
        s = enumerate_updown(2, rp_empty(3))[0]
        assert W_rational(s, 1, p) == wtilde_rational(p, "+")

    def test_r1_single_factor(self):
        p = generic_specialization(1, 2)
        s = enumerate_updown(2, rp_empty(1))[0]
        y = RatFunc.y()
        one = RatFunc.const(1)
        u = RatFunc.const(p.u[0])
        dr = RatFunc.const(p.delta_inv * p.rho)
        expected = (y * y / (y * y - one) - dr
                    + (dr * u + y / (y * y - one)) * u * (y - one / u) / (y - u))
        assert W_rational(s, 1, p) == expected

    def test_bad_k(self):
        p = generic_specialization(1, 2)
        s = enumerate_updown(2, rp_empty(1))[0]
        with pytest.raises(ValueError):
            W_rational(s, 0, p)
        with pytest.raises(ValueError):
            W_rational(s, 3, p)


class TestEDiag:
    def test_single_neighbor_is_omega0(self):
        p = generic_specialization(1, 2)
        s = enumerate_updown(2, rp_empty(1))[0]
        assert E_diag(s, 1, p) == p.omega(0)

    def test_matches_normalized_residue(self):
        # third route: cancel the pole of W/y at y = c by exact division by
        # y - c, then evaluate (W/y)(y - c) at c
        p = generic_specialization(3, 2)
        for s in enumerate_updown(2, rp_empty(3)):
            c = s.content(1, p)
            w = W_rational(s, 1, p)
            num, den = y_coeffs(w.num), divide_root(y_coeffs(w.den), c)
            while at(den, c) == 0:  # a factor y - c common to both
                num, den = divide_root(num, c), divide_root(den, c)
            assert E_diag(s, 1, p) == at(num, c) / (at(den, c) * c)

    def test_error_when_flanks_differ(self):
        p = generic_specialization(3, 2)
        s = enumerate_updown(2, ((2,), (), ()))[0]
        with pytest.raises(ValueError, match="flanking shapes differ"):
            E_diag(s, 1, p)

    def test_last_step_unconditional(self):
        p = generic_specialization(1, 2)
        s = enumerate_updown(2, ((2,),))[0]
        assert E_diag(s, 2, p) != 0

    def test_reciprocal_product(self):
        # repeating an add/remove pair gives mutually inverse residues
        p = generic_specialization(1, 4)
        s = updown(1, (1, (1, 1, 1)), (-1, (1, 1, 1)), (1, (1, 1, 1)), (-1, (1, 1, 1)))
        assert E_diag(s, 1, p) * E_diag(s, 2, p) == 1

    def test_wrong_w_fails_the_residue_cross_check(self, monkeypatch):
        # the residue of W/y is taken from parts kept per shape: W doubled
        # over one shape must fail the cross-check there, after another
        # shape's parts are cached, and leave the other shapes untouched
        p = generic_specialization(1, 2)
        target = ((1,),)
        w_shape = seminormal._w_shape
        monkeypatch.setattr(seminormal, "_w_shape",
                            lambda shape, params: w_shape(shape, params)
                            * (2 if shape == target else 1))
        assert build_module(((1,),), 0, p).dim == 1  # reads the empty shape only
        with pytest.raises(ArithmeticError, match="disagrees with product form"):
            build_module(rp_empty(1), 1, p)  # the last step flanks (1)

    def test_nonzero_everywhere(self):
        p = generic_specialization(3, 3)
        for f, lam in shapes_with_f(3, 3):
            for s in enumerate_updown(3, lam):
                for k in range(1, 4):
                    if k == 3 or s.shape(k - 1) == s.shape(k + 1):
                        assert E_diag(s, k, p) != 0


class TestAbCoeffs:
    def test_same_row_degenerate(self):
        p = generic_specialization(1, 2)
        s = updown(1, (1, (1, 1, 1)), (1, (1, 1, 2)))
        a, bsq = ab_coeffs(s, 1, p)
        assert a == p.q and bsq == 0

    def test_same_column_degenerate(self):
        p = generic_specialization(1, 2)
        s = updown(1, (1, (1, 1, 1)), (1, (1, 2, 1)))
        a, bsq = ab_coeffs(s, 1, p)
        assert a == -p.q_inv and bsq == 0

    def test_swap_complement(self):
        p = generic_specialization(3, 2)
        s = updown(3, (1, (1, 1, 1)), (1, (2, 1, 1)))
        w = updown(3, (1, (2, 1, 1)), (1, (1, 1, 1)))
        a_s, bsq_s = ab_coeffs(s, 1, p)
        a_w, bsq_w = ab_coeffs(w, 1, p)
        assert a_w == p.delta - a_s
        assert bsq_w == bsq_s

    def test_symbolic_factorization(self):
        # b^2 = (c1 - q^-2 c0)(c1 - q^2 c0) / (c1 - c0)^2 as rational functions
        # of (q, c0, c1).  Both sides are homogeneous of degree 0 in (c0, c1),
        # so c0 = 1, c1 = y loses nothing.  Times q^2 (y - 1)^2 both sides
        # are polynomials of degree <= 2 in q^2 over Q[y], so equality as
        # rational functions of y at three q with distinct q^2 proves the
        # identity for every q.
        c0, c1 = 1, RatFunc.y()
        for q in (F(2), F(3), F(1, 5)):
            delta = q - 1 / q
            a = delta * c1 / (c1 - c0)
            bsq = 1 - a * a + delta * a
            assert bsq == (c1 - c0 / (q * q)) * (c1 - q * q * c0) / (c1 - c0) ** 2

    def test_error_on_equal_flanks(self):
        p = generic_specialization(1, 2)
        s = enumerate_updown(2, rp_empty(1))[0]
        with pytest.raises(ValueError, match="coincide"):
            ab_coeffs(s, 1, p)


class TestBuildModule:
    def test_one_dimensional_module(self):
        p = generic_specialization(1, 2)
        m = build_module(rp_empty(1), 1, p)
        u, w0 = p.u[0], p.omega(0)
        assert m.dim == 1
        assert m.matX[0] == [u] and m.matX[1] == [1 / u]
        assert m.matE[0] == [{0: w0}]
        assert m.matT[0] == [{0: p.delta * (w0 - 1) / (u * u - 1)}]

    def test_x_diagonal_contents(self):
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        for i in (1, 2):
            assert m.matX[i - 1] == [s.content(i, p) for s in m.basis]

    def test_e_column_zero_when_flanks_differ(self):
        p = generic_specialization(1, 4)
        m = build_module(((2,),), 1, p)
        for k in range(1, 4):
            for j, s in enumerate(m.basis):
                if k < 4 and s.shape(k - 1) != s.shape(k + 1):
                    assert all(j not in row for row in m.matE[k - 1])

    def test_exact_backend_is_rational(self):
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        assert all(isinstance(g, F) and g > 0 for g in m.gauge)
        assert all(isinstance(x, F) for diag in m.matX for x in diag)
        assert all(isinstance(x, F) for rows in m.matT + m.matE
                   for row in rows for x in row.values())

    @pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (1, 4), (3, 2), (3, 3), (5, 2), (5, 3)])
    def test_gauge_symmetric_with_table_weights(self, r, n):
        # the criterion-06 grid plus r = 5: every T_k and E_k is D A D^{-1}
        # with D = diag(sqrt(g_s)), g_s > 0, and A symmetric with the
        # orthonormal form's squared entries; no generator stores a zero
        assert_gauged_modules(r, n, generic_specialization(r, n))

    @given(st.sampled_from([(1, 3), (3, 2), (3, 3)]), st.integers(1, 2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_gauge_symmetric_over_seeds(self, rn, seed):
        r, n = rn
        assert_gauged_modules(r, n, generic_specialization(r, n, seed=seed))

    @pytest.mark.parametrize("kind", ["T", "E"])
    def test_gauge_check_catches_perturbed_entry(self, kind):
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        mat = (m.matT if kind == "T" else m.matE)[0]
        assert mat[0].get(1) and gauge_defects(m) == []
        mat[0][1] += 1
        assert gauge_defects(m) == [(kind, 1, 0, 1)]

    def test_gauge_rejects_non_square_cycle(self):
        # a triangle whose weights multiply to 2 around the cycle has no
        # rational gauge
        edges = [(1, 1, 0, F(2), None), (1, 0, 1, F(2), None),
                 (2, 2, 0, F(1), None), (2, 0, 2, F(1), None),
                 (3, 2, 1, F(1), None), (3, 1, 2, F(1), None)]
        with pytest.raises(ArithmeticError, match=r"k=3, pair \(2, 1\)"):
            _gauged_roots(3, edges)

    def test_be_real_violated_for_minus_sign(self):
        base = generic_specialization(3, 3)
        p = GroundParams(3, base.q, base.u, alpha=-1)
        with pytest.raises(ValueError, match="be-real violated"):
            build_module(((1,), (), ()), 1, p)


class TestRelations:
    @pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (3, 2)])
    def test_all_labels_pass(self, r, n):
        p = generic_specialization(r, n)
        for f, lam in shapes_with_f(n, r):
            m = build_module(lam, f, p)
            rep = verify_relations(m)
            assert rep["ok"], (f, lam, [x for x in rep["relations"] if not x["pass"]])
            assert all(set(x) == {"name", "pass"} for x in rep["relations"])

    def test_broken_generator_fails(self):
        # one perturbed off-diagonal entry of T_1 breaks the Kauffman relation
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        assert m.matT[0][0].get(1)
        m.matT[0][0][1] += 1
        rep = verify_relations(m)
        assert not rep["ok"]
        assert "kauffman" in [x["name"] for x in rep["relations"] if not x["pass"]]
        kauffman = next(x for x in rep["relations"] if x["name"] == "kauffman")
        assert kauffman["instance"] == 0 and kauffman["k"] == 1
        i, j = kauffman["entry"]
        assert 0 <= i < m.dim and 0 <= j < m.dim
        assert kauffman["residual"] != 0
        assert all(set(x) == {"name", "pass"} for x in rep["relations"] if x["pass"])

    def test_failing_residual_is_exact(self):
        # a non-integer perturbation of T_1 makes the Kauffman residual
        # T T - delta T + delta rho E - 1 a fraction; the reported entry is
        # the first nonzero one of the dense Fraction residual
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        m.matT[0][0][1] += F(1, 7)
        d = m.dim
        T, E = dense(m.matT[0], d), dense(m.matE[0], d)
        expected = [[sum((T[i][l] * T[l][j] for l in range(d)), F(0))
                     - p.delta * T[i][j] + p.delta * p.rho * E[i][j] - (i == j)
                     for j in range(d)] for i in range(d)]
        kauffman = next(x for x in verify_relations(m)["relations"]
                        if x["name"] == "kauffman")
        assert kauffman["k"] == 1
        first = next((i, j) for i in range(d) for j in range(d) if expected[i][j])
        assert kauffman["entry"] == first
        assert kauffman["residual"] == expected[first[0]][first[1]]
        assert kauffman["residual"].denominator != 1

    def test_relation_steps(self):
        # per-step relations carry their k, the others None
        p = generic_specialization(3, 3)
        table = defining_relations(3, p) + x_shift_relations(3, p)
        steps: dict = {}
        for name, k, _ in table:
            steps.setdefault(name, set()).add(k)
        for name in ("x-inverse", "x-commute", "cyclotomic", "e-x-e"):
            assert steps.pop(name) == {None}
        for name in ("braid", "e-e-braid", "e-sandwich"):
            assert steps.pop(name) == {1}
        assert all(ks == {1, 2} for ks in steps.values()), steps


def dense_residual(terms, m, delta):
    """Sum of c·word over the terms, every word multiplied out densely in
    Fractions from the module's generators expanded to dense matrices: X_i^a
    from the diagonal of X_i, T_k^{-1} as T_k - delta + delta E_k.
    """
    d = m.dim
    identity = [[F(int(i == j)) for j in range(d)] for i in range(d)]

    def token(tok):
        kind, i, e = tok
        if kind == "X":
            return [[m.matX[i - 1][j] ** e if j == l else F(0) for l in range(d)]
                    for j in range(d)]
        mat = dense((m.matT if kind == "T" else m.matE)[i - 1], d)
        if e == 1:
            return mat
        E = dense(m.matE[i - 1], d)
        return [[x - delta * one + delta * y for x, one, y in zip(rt, ri, re)]
                for rt, ri, re in zip(mat, identity, E)]

    total = [[F(0)] * d for _ in range(d)]
    for c, word in terms:
        product = identity
        for tok in word:
            b = token(tok)
            product = [[sum((row[l] * b[l][j] for l in range(d)), F(0)) for j in range(d)]
                       for row in product]
        total = [[x + c * y for x, y in zip(rt, rp)] for rt, rp in zip(total, product)]
    return total


def oracle_failures(m, p) -> set:
    """Check the module's relation report against the dense oracle: every
    failing relation's first failing instance, its step, first nonzero entry
    in row-major order and residual.  Returns the failing names.
    """
    table = relation_table(m.n, p)
    report = {x["name"]: x for x in verify_relations(m, table)["relations"]}
    failing = {name for name, x in report.items() if not x["pass"]}
    instances: dict = {}
    expected: dict = {}
    for name, k, terms in table:
        instance = instances.get(name, 0)
        instances[name] = instance + 1
        if name not in failing or name in expected:
            continue
        residual = dense_residual(terms, m, p.delta)
        entry = next(((a, b) for a in range(m.dim) for b in range(m.dim)
                      if residual[a][b]), None)
        if entry is not None:
            expected[name] = {"instance": instance, "k": k, "entry": entry,
                              "residual": residual[entry[0]][entry[1]]}
    for name in failing:
        got = {key: report[name][key] for key in ("instance", "k", "entry", "residual")}
        assert got == expected[name], name
    return failing


class TestFailureReports:
    def test_perturbed_t2_and_e1(self):
        p = generic_specialization(3, 3)
        m = build_module(((1,), (), ()), 1, p)
        T2, E1 = m.matT[1], m.matE[0]
        i, j = next((i, j) for i in range(m.dim) for j in sorted(T2[i]) if i != j)
        T2[i][j] += F(1, 7)
        i, j = next((i, j) for i in range(m.dim) for j in sorted(E1[i]))
        E1[i][j] -= F(2, 3)
        failing = oracle_failures(m, p)
        # the x-shift words with X^{-a}, T^{-1}, E_1 X_1^a E_1 and the braid
        assert {"x-shift-4", "x-shift-5", "x-shift-6", "t-inverse", "e-x-e",
                "braid"} <= failing

    def test_perturbed_x2(self):
        # the integer powers X_2^{+-a} follow a perturbed diagonal of X_2, so
        # X_2 X_2^{-1} = 1 still holds while the x-shift words fail
        p = generic_specialization(3, 3)
        m = build_module(((1,), (), ()), 1, p)
        m.matX[1][0] *= 3
        failing = oracle_failures(m, p)
        assert {"x-shift-4", "x-shift-5"} <= failing
        assert "x-inverse" not in failing


class TestOmegaTable:
    def test_first_row_is_omega(self):
        p = generic_specialization(3, 2)
        t = omega_k_table(rp_empty(3), 1, p, a_max=8)
        assert t.values[(1, rp_empty(3))] == [p.omega(a) for a in range(9)]

    def test_constant_term_is_omega0(self):
        p = generic_specialization(1, 4)
        t = omega_k_table(((2,),), 1, p, a_max=4)
        for coeffs in t.values.values():
            assert coeffs[0] == p.omega(0)

    def test_first_coefficient_recursion(self):
        p = generic_specialization(1, 4)
        t = omega_k_table(rp_empty(1), 2, p, a_max=2)
        for s in enumerate_updown(4, rp_empty(1)):
            for k in range(1, 4):
                c = s.content(k, p)
                assert (t.values[(k + 1, s.shape(k))][1]
                        == t.values[(k, s.shape(k - 1))][1]
                        + p.delta * p.rho_inv * (c - 1 / c))

    def test_matrix_eigenvalue_cross_check(self):
        # the sandwiched X-power acts on each column by the table value for
        # the shape below step k
        p = generic_specialization(1, 4)
        lam, f = rp_empty(1), 2
        t = omega_k_table(lam, f, p, a_max=3)
        m = build_module(lam, f, p)
        for k in range(1, 4):
            E = m.matE[k - 1]
            dense_e = dense(E, m.dim)
            for a in range(4):
                xa = sparse_diag([s.content(k, p) ** a for s in m.basis])
                lhs = dense(mat_mul(mat_mul(E, xa), E), m.dim)
                scaled = [
                    [dense_e[i][j] * t.values[(k, s.shape(k - 1))][a]
                     for j, s in enumerate(m.basis)]
                    for i in range(m.dim)
                ]
                assert lhs == scaled

    def test_alpha_minus_table(self):
        base = generic_specialization(3, 2)
        p = GroundParams(3, base.q, base.u, alpha=-1)
        t = omega_k_table(rp_empty(3), 1, p, a_max=6)
        assert t.values[(1, rp_empty(3))] == [p.omega(a) for a in range(7)]

    def test_wrong_content_factor_depends_on_the_walk(self, monkeypatch):
        # route one is built once per step prefix from its parent prefix: a
        # factor that is wrong at one content (removing the box in row 2,
        # column 1) must still make the table depend on the walk
        p = generic_specialization(1, 4)
        wrong = content(Node(1, 2, 1), "remove", p)
        factor = seminormal._content_factor
        monkeypatch.setattr(seminormal, "_content_factor",
                            lambda params, c: factor(params, c) * (2 if c == wrong else 1))
        with pytest.raises(ValueError, match="depends on the walk at k=4"):
            omega_k_table(rp_empty(1), 2, p, a_max=4)


    @pytest.mark.parametrize("target, k", [(rp_empty(1), 1), (((1,),), 2), (((2,),), 3)])
    def test_wrong_w_fails_route_two(self, monkeypatch, target, k):
        # route two is expanded once per shape: W doubled over one shape
        # must fail at the first walk that reaches it, at the first nonzero
        # coefficient, and nowhere before
        p = generic_specialization(1, 4)
        a_max = 4
        basis = enumerate_updown(4, rp_empty(1))
        s = next(t for t in basis if t.shape(k - 1) == target)
        coeffs = seminormal.expand_series(W_rational(s, k, p), a_max, at="inf")
        a = next(a for a, x in enumerate(coeffs) if x != 0)
        w_shape = seminormal._w_shape
        monkeypatch.setattr(seminormal, "_w_shape",
                            lambda shape, params: w_shape(shape, params)
                            * (2 if shape == target else 1))
        with pytest.raises(ValueError) as exc:
            omega_k_table(rp_empty(1), 2, p, a_max)
        assert str(exc.value) == f"omega table mismatch at s={s!r}, k={k}, a={a}"


class TestIdentitySuite:
    @pytest.mark.parametrize("r,n", [(1, 3), (1, 4), (3, 2)])
    def test_all_labels_pass(self, r, n):
        p = generic_specialization(r, n)
        for f, lam in shapes_with_f(n, r):
            rep = identity_suite(lam, f, p)
            assert rep["ok"], (f, lam, rep["failures"][:3])

    def test_instance_coverage(self):
        p = generic_specialization(3, 3)
        rep = identity_suite(((1,), (), ()), 1, p)
        assert rep["ok"]
        for name in (
            "partial-fractions", "neighbor-sum-linear", "neighbor-sum-quadratic",
            "neighbor-sum-cross", "e-reciprocal", "b-e-transport",
            "swap-symmetry", "b-squared-form", "content-product", "e-nonzero",
        ):
            assert rep["checks"][name]["instances"] > 0, name
            assert rep["checks"][name]["failures"] == 0, name

    def test_alpha_minus_exact(self):
        base = generic_specialization(3, 3)
        p = GroundParams(3, base.q, base.u, alpha=-1)
        rep = identity_suite(((1,), (), ()), 1, p)
        assert rep["ok"], rep["failures"][:3]

    def test_wrong_bsq_fails_every_instance_of_its_step_pair(self, monkeypatch):
        # b^2 is checked once per step pair and the result replayed: a wrong
        # b^2 at one content pair must fail at every (s, k) with that pair,
        # on every label that shares the parameters, each failure naming its
        # own walk
        base = generic_specialization(3, 3)
        p = GroundParams(3, base.q, base.u)  # nothing cached yet
        target = (p.u[1], p.u[2])  # add box (2,1,1), then box (3,1,1)
        ab = seminormal.ab_coeffs

        def wrong_ab(s, k, params):
            a, bsq = ab(s, k, params)
            if (s.content(k, params), s.content(k + 1, params)) == target:
                bsq += 1
            return a, bsq

        monkeypatch.setattr(seminormal, "ab_coeffs", wrong_ab)
        n, labels = 3, 0
        for f, lam in shapes_with_f(n, 3):
            expected = [
                f"b-squared-form: s={s!r}, k={k}"
                for s in enumerate_updown(n, lam) for k in range(1, n)
                if s.shape(k - 1) != s.shape(k + 1)
                and (s.content(k, p), s.content(k + 1, p)) == target
            ]
            rep = identity_suite(lam, f, p)
            form = rep["checks"].get("b-squared-form", {"failures": 0})
            assert form["failures"] == len(expected), lam
            reported = [x for x in rep["failures"] if x.startswith("b-squared-form:")]
            assert reported == expected[:len(reported)]
            assert len(set(reported)) == len(reported)
            assert rep["ok"] == (not expected)
            labels += bool(expected)
        assert labels == 7

    def test_wrong_residue_fails_every_window_that_reads_it(self, monkeypatch):
        # e-reciprocal is checked once per window (shape(k-1), steps k..k+2):
        # a diagonal residue that is wrong over one shape only must fail at
        # exactly the (s, k) whose window reads it, counted walk by walk
        base = generic_specialization(3, 4)
        p = GroundParams(3, base.q, base.u)  # nothing cached yet
        shape, wrong = rp_empty(3), p.u[0]
        e_diag = seminormal.E_diag

        def wrong_e(s, k, params):
            e = e_diag(s, k, params)
            return 2 * e if (s.shape(k - 1), s.content(k, params)) == (shape, wrong) else e

        monkeypatch.setattr(seminormal, "E_diag", wrong_e)
        n, failing = 4, 0
        for f, lam in shapes_with_f(n, 3):
            expected = [
                f"e-reciprocal: s={s!r}, k={k}"
                for s in enumerate_updown(n, lam) for k in range(1, n - 1)
                if s.shape(k - 1) == s.shape(k + 1) and s.shape(k) == s.shape(k + 2)
                and wrong_e(s, k, p) * wrong_e(s, k + 1, p) != 1
            ]
            rep = identity_suite(lam, f, p)
            recip = rep["checks"].get("e-reciprocal", {"failures": 0})
            assert recip["failures"] == len(expected), lam
            reported = [x for x in rep["failures"] if x.startswith("e-reciprocal:")]
            assert reported == expected[:len(reported)]
            failing += len(expected)
        assert failing == 6

    @pytest.mark.parametrize("shape, index", [(rp_empty(3), 0), (((1,), (), ()), 2)])
    def test_wrong_residue_fails_every_residue_sum_that_reads_it(self, monkeypatch,
                                                                 shape, index):
        # partial fractions and the neighbor sums run on integers over one
        # denominator: a residue wrong at one (shape, content) must fail them
        # at exactly the keys whose Fraction oracle fails, all of them over
        # that shape, each key counted once per label
        base = generic_specialization(3, 4)
        p = GroundParams(3, base.q, base.u)  # nothing cached yet
        wrong = seminormal._flank_steps(shape, p)[index][1]
        e_value = seminormal._e_diag_value

        def wrong_e(sh, c, params):
            e = e_value(sh, c, params)
            return 2 * e if (sh, c) == (shape, wrong) else e

        monkeypatch.setattr(seminormal, "_e_diag_value", wrong_e)
        dr = p.delta_inv * p.rho

        def flank(sh):
            return [(wrong_e(sh, ct, p), ct) for _, ct in seminormal._flank_steps(sh, p)]

        def partial_fractions(sh):
            y = RatFunc.y()
            rhs = sum((e / (y - ct) for e, ct in flank(sh)), RatFunc.const(0))
            return seminormal._w_shape(sh, p) / y == rhs

        def linear(sh, cs):
            return sum(e / (cs * ct - 1) for e, ct in flank(sh)) == dr + 1 / (cs * cs - 1)

        def quadratic(sh, cs):
            rhs = ((cs * cs + 1) / (cs * cs - 1) ** 2 - dr
                   + (p.delta_inv ** 2 - cs * cs / (cs * cs - 1) ** 2) / wrong_e(sh, cs, p))
            return sum(e / (cs * ct - 1) ** 2 for e, ct in flank(sh)) == rhs

        def cross(sh, cs, ctp):
            total = sum(e / ((cs * ct - 1) * (ct * ctp - 1)) for e, ct in flank(sh))
            return total == (cs * ctp + 1) / ((cs * cs - 1) * (ctp * ctp - 1)) - dr

        names = ("partial-fractions", "neighbor-sum-linear", "neighbor-sum-quadratic",
                 "neighbor-sum-cross")
        n, totals = 4, Counter()
        for f, lam in shapes_with_f(n, 3):
            expected, seen = Counter(), set()
            for s in enumerate_updown(n, lam):
                shapes = s.partitions()
                for k in range(1, n + 1):
                    sh = shapes[k - 1]
                    if k < n and sh != shapes[k + 1]:
                        continue
                    if sh not in seen:
                        seen.add(sh)
                        expected[names[0]] += not partial_fractions(sh)
                    if k == n:
                        continue
                    step, cs = s.steps[k - 1], s.content(k, p)
                    if (sh, step) not in seen:
                        seen.add((sh, step))
                        expected[names[1]] += not linear(sh, cs)
                        expected[names[2]] += not quadratic(sh, cs)
                    if k < n - 1 and shapes[k] != shapes[k + 2]:
                        for partner, ctp in seminormal._flank_steps(sh, p):
                            if partner != step and (sh, step, partner) not in seen:
                                seen.add((sh, step, partner))
                                expected[names[3]] += not cross(sh, cs, ctp)
            rep = identity_suite(lam, f, p)
            for name in names:
                assert rep["checks"].get(name, {"failures": 0})["failures"] == expected[name]
            assert all(x.startswith(f"{x.split(':')[0]}: shape={shape}")
                       for x in rep["failures"] if x.startswith(names))
            totals += expected
        assert all(totals[name] for name in names), totals

    def test_wrong_bsq_fails_swap_symmetry_and_transport_where_read(self, monkeypatch):
        # swap-symmetry and b-e-transport compare b^2 on integers: a b^2
        # wrong at one content pair must fail both at exactly the (s, k) whose
        # Fraction oracle fails, each failure naming its own walk
        base = generic_specialization(3, 4)
        p = GroundParams(3, base.q, base.u)  # nothing cached yet
        target = (p.u[1], p.u[2])  # add box (2,1,1), then box (3,1,1)
        ab = seminormal.ab_coeffs

        def wrong_ab(s, k, params):
            a, bsq = ab(s, k, params)
            if (s.content(k, params), s.content(k + 1, params)) == target:
                bsq += 1
            return a, bsq

        monkeypatch.setattr(seminormal, "ab_coeffs", wrong_ab)

        def swap_holds(s, k):
            w = sk_action(s, k)
            (a, bsq), (aw, bsqw) = wrong_ab(s, k, p), wrong_ab(w, k, p)
            return (s.content(k, p) == w.content(k + 1, p)
                    and s.content(k + 1, p) == w.content(k, p)
                    and aw == p.delta - a and bsqw == bsq)

        def transport_failures(s, k):
            # the walks that differ from s at step k+1, carried to the walks
            # that differ from s at step k
            transported = {}
            for t in neighbors_k(s, k + 1):
                if t.shape(k - 1) != t.shape(k + 1) and sk_action(t, k) is not None:
                    transported[sk_action(t, k)] = wrong_ab(t, k, p)[1] * E_diag(t, k + 1, p)
            failures = 0
            for u in neighbors_k(s, k):
                if u.shape(k) != u.shape(k + 2) and sk_action(u, k + 1) in transported:
                    failures += (transported[sk_action(u, k + 1)]
                                 != wrong_ab(u, k + 1, p)[1] * E_diag(u, k, p))
            return failures

        n, totals = 4, Counter()
        for f, lam in shapes_with_f(n, 3):
            swap, transport = [], 0
            for s in enumerate_updown(n, lam):
                for k in range(1, n):
                    if (s.shape(k - 1) != s.shape(k + 1) and sk_action(s, k) is not None
                            and not swap_holds(s, k)):
                        swap.append(f"swap-symmetry: s={s!r}, k={k}")
                for k in range(1, n - 1):
                    if s.shape(k - 1) == s.shape(k + 1) and s.shape(k) == s.shape(k + 2):
                        transport += transport_failures(s, k)
            rep = identity_suite(lam, f, p)
            checks = rep["checks"]
            assert checks.get("swap-symmetry", {"failures": 0})["failures"] == len(swap), lam
            reported = [x for x in rep["failures"] if x.startswith("swap-symmetry:")]
            assert reported == swap[:len(reported)]
            assert checks.get("b-e-transport", {"failures": 0})["failures"] == transport, lam
            totals.update(swap=len(swap), transport=transport)
        assert totals["swap"] and totals["transport"], totals

    def test_single_term_linear_instance(self):
        # r=1 over the empty flank: w0/(u^2-1) = rho/delta + 1/(u^2-1)
        p = generic_specialization(1, 2)
        u = p.u[0]
        assert p.omega(0) / (u * u - 1) == p.delta_inv * p.rho + F(1) / (u * u - 1)


def br2_label(kind, r):
    """The f = 0 label at n = 2 that br2_all reports under kind."""
    return next(lam for f, lam in shapes_with_f(2, r)
                if not f and seminormal._br2_kind(lam) == kind)


def big_gamma(v, params):
    """gamma_t of the big two-strand module over the eigenvalues v from its
    closed product form, kept as the oracle of the empty-shape residues:
    1 + dr (v_t^2 - 1) prod(v)/v_t times prod_{s != t} (v_t v_s - 1)/(v_t - v_s),
    with dr = delta^{-1} rho and rho^{-1} = alpha prod(v).
    """
    prod_v = prod(v)
    dr = params.delta_inv / (params.alpha * prod_v)
    gamma = []
    for t, vt in enumerate(v):
        g = 1 + dr * (vt * vt - 1) * prod_v / vt
        for s, vs in enumerate(v):
            if s != t:
                g = g * (vt * vs - 1) / (vt - vs)
        gamma.append(g)
    return gamma


class TestBr2:
    def test_onedim_example(self):
        p = generic_specialization(3, 2)
        m = build_module(br2_label(("onedim", 1, 2), 3), 0, p)
        assert m.matT == [[{0: p.q}]]
        assert m.matE == [[{}]]
        assert m.matX == [[p.u[1]], [p.q ** 2 * p.u[1]]]
        assert br2_verify(m)["ok"]

    def test_onedim_minus(self):
        p = generic_specialization(3, 2)
        m = build_module(br2_label(("onedim", -1, 1), 3), 0, p)
        assert m.matT == [[{0: -p.q_inv}]]
        assert br2_verify(m)["ok"]

    def test_twodim_matrices(self):
        # build_module's two-dimensional module is the closed form below
        # conjugated by its diagonal gauge: equal diagonals and equal
        # products of the off-diagonal entries
        p = generic_specialization(3, 2)
        i, j = 1, 3
        m = build_module(br2_label(("twodim", i, j), 3), 0, p)
        ui, uj = p.u[i - 1], p.u[j - 1]
        pref = uj / (uj - ui)
        closed = [[pref * p.delta, pref * (p.q - ui * p.q_inv / uj)],
                  [pref * (p.q_inv - p.q * ui / uj), pref * (-p.delta * ui / uj)]]
        T = dense(m.matT[0], 2)
        assert T[0][0] == closed[0][0] and T[1][1] == closed[1][1]
        assert T[0][1] * T[1][0] == closed[0][1] * closed[1][0]
        assert m.matE == [[{}, {}]]
        assert m.matX == [[ui, uj], [uj, ui]]
        assert gauge_defects(m) == []
        assert br2_verify(m)["ok"]

    def test_broken_generator_fails(self):
        p = generic_specialization(3, 2)
        m = build_module(br2_label(("twodim", 1, 2), 3), 0, p)
        m.matT[0][0][1] += 1
        rep = br2_verify(m)
        assert not rep["ok"]
        assert "kauffman" in [x["name"] for x in rep["relations"] if not x["pass"]]

    def test_big_d1(self):
        p = generic_specialization(3, 2)
        m = br2_build(("big", (2,)), p)
        v = p.u[1]
        rho = 1 / v if p.alpha == 1 else -1 / v
        gamma1 = 1 + (rho / p.delta) * (v * v - 1)
        assert m.matE == [[{0: gamma1}]]
        assert m.matT == [[{0: rho}]]
        assert m.gauge == [1 / gamma1]
        assert br2_verify(m)["ok"]

    def test_big_full_matches_ground_omega(self):
        # over all of u the family is the ground one, and the weighted power
        # sums of the eigenvalues by the E row are its moments
        p = generic_specialization(3, 2)
        m = br2_build(("big", None), p)
        assert m.params is p
        gamma = list(m.matE[0][0].values())
        for a in range(-4, 5):
            assert sum(x ** a * g for x, g in zip(m.matX[0], gamma)) == p.omega(a)

    @pytest.mark.parametrize("alpha", [1, -1])
    @pytest.mark.parametrize("indices", [(1,), (4,), (2, 3, 5), (5, 1, 3), (1, 2, 3, 4, 5)])
    def test_big_is_the_empty_shape_module_of_its_family(self, alpha, indices):
        # over any odd subset of u the big kind is the (1, empty) module of
        # the sub-family: rho^{-1} = alpha prod(v), the moments are the
        # weighted power sums sum_t v_t^a gamma_t of the eigenvalues, the E
        # row is the empty shape's residues, and the module passes that
        # family's relations
        base = generic_specialization(5, 2)
        p = GroundParams(5, base.q, base.u, alpha=alpha)
        m = br2_build(("big", indices), p)
        v = [p.u[i - 1] for i in indices]
        gamma = big_gamma(v, p)
        fam = m.params
        assert (fam.r, fam.q, fam.u, fam.alpha) == (len(v), p.q, tuple(v), alpha)
        assert (m.lam, m.f, m.n, m.dim) == (rp_empty(len(v)), 1, 2, len(v))
        assert m.matX == [v, [1 / x for x in v]]
        assert fam.rho * alpha * prod(v) == 1
        for a in range(-6, 7):
            assert fam.omega(a) == sum(x ** a * g for x, g in zip(v, gamma)), a
        assert all(row == dict(enumerate(gamma)) for row in m.matE[0])
        assert gamma == [seminormal._e_diag_value(rp_empty(len(v)), x, fam) for x in v]
        assert gamma == [E_diag(s, 1, fam) for s in m.basis]
        rep = br2_verify(m)
        assert rep["ok"] and [x["name"] for x in rep["relations"][-len(v):]] == [
            f"row-sum({j})" for j in range(1, len(v) + 1)]

    @pytest.mark.parametrize("r", [1, 3, 5])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_big_gauge(self, r, alpha):
        # G M^T = M G with g = 1/gamma, and the residue layer's weights; on
        # these parameters every gamma_t, and so every g_t, is negative at
        # alpha = -1
        base = generic_specialization(r, 2)
        p = GroundParams(r, base.q, base.u, alpha=alpha)
        m = br2_build(("big", None), p)
        assert all(g * e == 1 for g, e in zip(m.gauge, m.matE[0][0].values()))
        assert all((g > 0) == (alpha == 1) for g in m.gauge)
        assert gauge_defects(m) == []
        assert stored_zeros(m) == []

    def test_big_reciprocal_pair_raises(self):
        # the CLI's genericity gate answers first, but br2_build keeps its
        # own guard against a zero denominator in T
        p = GroundParams(3, 2, [F(4), F(1, 4), F(2) ** 10])
        with pytest.raises(ValueError, match=r"singular entry: v_1 v_2 = 1"):
            br2_build(("big", None), p)
        with pytest.raises(ValueError, match=r"singular entry: v_1 v_2 = 1"):
            br2_build(("big", (2, 1, 3)), p)

    @given(st.sampled_from([1, 3, 5]), st.sampled_from([1, -1]), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_generators_store_no_zero(self, r, alpha, seed):
        # every module, as br2_all builds them
        base = generic_specialization(r, 2, seed=seed)
        p = GroundParams(r, base.q, base.u, alpha=alpha)
        mods = [build_module(lam, 0, p) for f, lam in shapes_with_f(2, r) if not f]
        for m in mods + [br2_build(("big", None), p)]:
            assert stored_zeros(m) == [], m.lam
            assert br2_verify(m)["ok"], m.lam

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_census(self, r, alpha):
        base = generic_specialization(r, 2)
        p = GroundParams(r, base.q, base.u, alpha=alpha)
        rep = br2_all(p)
        assert rep["ok"]
        assert rep["total_dim_sq"] == rep["expected"] == 3 * r * r

    def test_kinds_cover_the_f0_labels(self):
        # one kind per f = 0 label at n = 2, in br2_all's order
        p = generic_specialization(3, 2)
        kinds = [m["kind"] for m in br2_all(p)["modules"]]
        assert kinds == [("onedim", 1, 1), ("onedim", 1, 2), ("onedim", 1, 3),
                         ("onedim", -1, 1), ("onedim", -1, 2), ("onedim", -1, 3),
                         ("twodim", 1, 2), ("twodim", 1, 3), ("twodim", 2, 3),
                         ("big", None)]
        labels = [lam for f, lam in shapes_with_f(2, 3) if not f]
        assert sorted(seminormal._br2_kind(lam) for lam in labels) == sorted(kinds[:-1])

    def test_errors(self):
        p = generic_specialization(3, 2)
        with pytest.raises(ValueError, match="distinct"):
            br2_build(("big", (1, 1, 2)), p)
        with pytest.raises(ValueError, match="out of scope"):
            br2_build(("big", (1, 2)), p)
        # the one- and two-dimensional kinds are build_module's f = 0 labels
        with pytest.raises(ValueError, match="unknown kind"):
            br2_build(("twodim", 1, 2), p)
        with pytest.raises(ValueError, match="unknown kind"):
            br2_build(("threedim",), p)


@st.composite
def distinct_eigenvalues(draw, max_d=5):
    d = draw(st.integers(1, max_d))
    vals: list = []
    while len(vals) < d:
        x = F(draw(st.integers(2, 40)), draw(st.integers(1, 7)))
        if x not in vals and x * x != 1 and all(x * y != 1 for y in vals):
            vals.append(x)
    return vals


class TestDetAd:
    def test_d1(self):
        v = [F(3)]
        assert det_Ad(v) == F(1) / (v[0] ** 2 - 1)

    def test_d2(self):
        v1, v2 = F(3), F(5, 2)
        expected = (v1 - v2) ** 2 / ((v1 ** 2 - 1) * (v2 ** 2 - 1) * (v1 * v2 - 1) ** 2)
        assert det_Ad([v1, v2]) == expected
        # cofactor oracle
        a, b, c = 1 / (v1 * v1 - 1), 1 / (v1 * v2 - 1), 1 / (v2 * v2 - 1)
        assert det_Ad([v1, v2]) == a * c - b * b

    @given(distinct_eigenvalues())
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_elimination(self, v):
        assert det_Ad(v) == det_Ad_brute(v)

    def test_errors(self):
        with pytest.raises(ValueError, match="distinct"):
            det_Ad([F(2), F(2)])
        with pytest.raises(ValueError, match="singular"):
            det_Ad([F(2), F(1, 2)])
