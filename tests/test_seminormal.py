from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw.matrices import mat_diag, mat_mul
from cycbmw.params import GroundParams, generic_specialization, wtilde_rational
from cycbmw.scalars import RatFunc
from cycbmw.seminormal import (
    Br2Module,
    E_diag,
    W_rational,
    _gauged_roots,
    ab_coeffs,
    br2_all,
    br2_build,
    br2_verify,
    build_module,
    det_Ad,
    det_Ad_brute,
    identity_suite,
    omega_k_table,
    verify_relations,
)
from cycbmw.tableaux import (
    Node,
    UpDownTableau,
    enumerate_updown,
    neighbors_k,
    rp_empty,
    shapes_with_f,
    sk_action,
)


def updown(r, *signed_nodes):
    return UpDownTableau(r, tuple((s, Node(*nd)) for s, nd in signed_nodes))


def table_weight(m, kind, k, i, j):
    """M_ij M_ji of the orthonormal generator, from the residue table:
    e_s e_t on two k-neighbours with equal flanks, times
    (delta / (c_s c_t - 1))^2 for T_k; b_s(k)^2 on a swapped pair for T_k;
    0 elsewhere.
    """
    p, tab = m.params, m.table
    s, t = m.basis[i], m.basis[j]
    if s.shape(k - 1) == s.shape(k + 1):
        if t not in neighbors_k(s, k):
            return 0
        w = tab.e_diag[(i, k)] * tab.e_diag[(j, k)]
        if kind == "E":
            return w
        return w * (p.delta / (s.content(k, p) * t.content(k, p) - 1)) ** 2
    if kind == "E" or sk_action(s, k) != t:
        return 0
    return tab.bsq[(i, k)]


def gauge_defects(m):
    """Entries (kind, k, i, j), i < j, at which T_k or E_k fails to be the
    gauge of a symmetric matrix: g_i M_ji = M_ij g_j, and M_ij M_ji equal to
    the table weight.
    """
    g = m.gauge
    out = []
    for kind, mats in (("T", m.matT), ("E", m.matE)):
        for k, M in enumerate(mats, 1):
            for i in range(m.dim):
                for j in range(i + 1, m.dim):
                    if (g[i] * M[j][i] != M[i][j] * g[j]
                            or M[i][j] * M[j][i] != table_weight(m, kind, k, i, j)):
                        out.append((kind, k, i, j))
    return out


def assert_gauged_modules(r, n, p):
    for f, lam in shapes_with_f(n, r):
        m = build_module(lam, f, p)
        assert all(g > 0 for g in m.gauge), (f, lam)
        assert gauge_defects(m) == [], (f, lam)


def y_coeffs(poly):
    """Ascending coefficients of a polynomial in y alone."""
    split = poly.coeff_split("y")
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
        y = RatFunc.var("y")
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
        q = RatFunc.var("q")
        c0 = RatFunc.var("c0")
        c1 = RatFunc.var("c1")
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
        assert m.matX[0] == [[u]] and m.matX[1] == [[1 / u]]
        assert m.matE[0] == [[w0]]
        assert m.matT[0] == [[p.delta * (w0 - 1) / (u * u - 1)]]

    def test_x_diagonal_contents(self):
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        for i in (1, 2):
            expected = mat_diag([s.content(i, p) for s in m.basis])
            assert m.matX[i - 1] == expected

    def test_e_column_zero_when_flanks_differ(self):
        p = generic_specialization(1, 4)
        m = build_module(((2,),), 1, p)
        for k in range(1, 4):
            for j, s in enumerate(m.basis):
                if k < 4 and s.shape(k - 1) != s.shape(k + 1):
                    assert all(m.matE[k - 1][i][j] == 0 for i in range(m.dim))

    def test_exact_backend_is_rational(self):
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        assert all(isinstance(g, F) and g > 0 for g in m.gauge)
        mats = m.matX + m.matT + m.matE
        assert all(isinstance(x, F) for mat in mats for row in mat for x in row)
        assert all(isinstance(v, F) for v in m.table.e_diag.values())

    @pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (1, 4), (3, 2), (3, 3), (5, 2), (5, 3)])
    def test_gauge_symmetric_with_table_weights(self, r, n):
        # the criterion-06 grid plus r = 5: every T_k and E_k is D A D^{-1}
        # with D = diag(sqrt(g_s)), g_s > 0, and A symmetric with the
        # orthonormal form's squared entries
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
        assert mat[0][1] != 0 and gauge_defects(m) == []
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
            assert all(x["max_width"] == 0 for x in rep["relations"])

    def test_broken_generator_fails(self):
        # one perturbed off-diagonal entry of T_1 breaks the Kauffman relation
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        assert m.matT[0][0][1] != 0
        m.matT[0][0][1] += 1
        rep = verify_relations(m)
        assert not rep["ok"]
        assert "kauffman" in [x["name"] for x in rep["relations"] if not x["pass"]]


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
            for a in range(4):
                xa = mat_diag([s.content(k, p) ** a for s in m.basis])
                lhs = mat_mul(mat_mul(E, xa), E)
                scaled = [
                    [E[i][j] * t.values[(k, s.shape(k - 1))][a]
                     for j, s in enumerate(m.basis)]
                    for i in range(m.dim)
                ]
                assert lhs == scaled

    def test_alpha_minus_table(self):
        base = generic_specialization(3, 2)
        p = GroundParams(3, base.q, base.u, alpha=-1)
        t = omega_k_table(rp_empty(3), 1, p, a_max=6)
        assert t.values[(1, rp_empty(3))] == [p.omega(a) for a in range(7)]


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

    def test_single_term_linear_instance(self):
        # r=1 over the empty flank: w0/(u^2-1) = rho/delta + 1/(u^2-1)
        p = generic_specialization(1, 2)
        u = p.u[0]
        assert p.omega(0) / (u * u - 1) == p.delta_inv * p.rho + F(1) / (u * u - 1)


class TestBr2:
    def test_onedim_example(self):
        p = generic_specialization(3, 2)
        m = br2_build(("onedim", 1, 2), p)
        assert m.matT == [[p.q]]
        assert m.matE == [[0]]
        assert m.matX1 == [[p.u[1]]]
        assert m.matX2 == [[p.q ** 2 * p.u[1]]]
        assert br2_verify(m, p)["ok"]

    def test_onedim_minus(self):
        p = generic_specialization(3, 2)
        m = br2_build(("onedim", -1, 1), p)
        assert m.matT == [[-p.q_inv]]
        assert br2_verify(m, p)["ok"]

    def test_twodim_matrices(self):
        p = generic_specialization(3, 2)
        i, j = 1, 3
        m = br2_build(("twodim", i, j), p)
        ui, uj = p.u[i - 1], p.u[j - 1]
        pref = uj / (uj - ui)
        assert m.matT == [
            [pref * p.delta, pref * (p.q - ui * p.q_inv / uj)],
            [pref * (p.q_inv - p.q * ui / uj), pref * (-p.delta * ui / uj)],
        ]
        assert m.matX1 == mat_diag([ui, uj])
        assert m.matX2 == mat_diag([uj, ui])
        assert br2_verify(m, p)["ok"]

    def test_broken_generator_fails(self):
        p = generic_specialization(3, 2)
        m = br2_build(("twodim", 1, 2), p)
        m.matT[0][1] += 1
        rep = br2_verify(m, p)
        assert not rep["ok"]
        assert "kauffman" in [x["name"] for x in rep["relations"] if not x["pass"]]

    def test_big_d1(self):
        p = generic_specialization(3, 2)
        m = br2_build(("big", (2,)), p)
        v = p.u[1]
        rho = 1 / v if p.alpha == 1 else -1 / v
        gamma1 = 1 + (rho / p.delta) * (v * v - 1)
        assert m.gamma == [gamma1]
        assert m.matE == [[gamma1]]
        assert m.matT == [[rho]]
        assert br2_verify(m, p)["ok"]

    def test_big_full_matches_ground_omega(self):
        p = generic_specialization(3, 2)
        m = br2_build(("big", None), p)
        for a in range(-4, 5):
            assert m.omega_local(a) == p.omega(a)

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_census(self, r, alpha):
        base = generic_specialization(r, 2)
        p = GroundParams(r, base.q, base.u, alpha=alpha)
        rep = br2_all(p)
        assert rep["ok"]
        assert rep["total_dim_sq"] == rep["expected"] == 3 * r * r

    def test_errors(self):
        p = generic_specialization(3, 2)
        with pytest.raises(ValueError, match="distinct"):
            br2_build(("twodim", 2, 2), p)
        with pytest.raises(ValueError, match="distinct"):
            br2_build(("big", (1, 1, 2)), p)
        with pytest.raises(ValueError, match="out of scope"):
            br2_build(("big", (1, 2)), p)
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
