from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw.params import (
    GroundParams,
    check_admissible,
    certify_generic,
    elem_symmetric,
    generic_specialization,
    parse_preset,
    q_poly,
    scalar_inv,
    wtilde_closed,
    wtilde_rational,
)
from cycbmw.scalars import LaurentPoly, RatFunc, expand_series


def exponents(params):
    """The k_i with u_i = q^(2 k_i), read back from u when q = 2."""
    return tuple(
        (u.numerator.bit_length() - u.denominator.bit_length()) // 2 for u in params.u
    )


def gamma_weights(params, v):
    """Independent oracle: the eigenvector weights gamma_i of the d-dim
    two-strand module on eigenvalues v, for d = len(v) odd.
    """
    d = len(v)
    assert d % 2 == 1
    dr = params.delta_inv * params.rho
    out = []
    for i in range(d):
        prod_v = F(1)
        for j in range(d):
            if j != i:
                prod_v *= v[j]
        g = 1 + dr * (v[i] ** 2 - 1) * prod_v
        for j in range(d):
            if j != i:
                g *= (v[i] * v[j] - 1) / (v[i] - v[j])
        out.append(g)
    return out


def omega_oracle(params, a):
    """omega_a as the weighted power sum sum_j v_j^a gamma_j with v = u."""
    gam = gamma_weights(params, list(params.u))
    return sum(v ** a * g for v, g in zip(params.u, gam))


class TestElemSymmetric:
    def test_values(self):
        u = [F(2), F(3), F(5)]
        assert elem_symmetric(u, 0) == 1
        assert elem_symmetric(u, 1) == 10
        assert elem_symmetric(u, 2) == 31
        assert elem_symmetric(u, 3) == 30

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elem_symmetric([F(1)], 2)

    @given(st.lists(st.fractions(min_value=1, max_value=9, max_denominator=4),
                    min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_generating_product(self, u):
        # oracle: prod (1 + u_i t) has coefficient sigma_i at t^i
        t = LaurentPoly.var("t")
        prod = LaurentPoly.const(1)
        for x in u:
            prod = prod * (1 + x * t)
        for i in range(len(u) + 1):
            assert prod.coeff_split("t").get(i, F(0)) == elem_symmetric(u, i)


class TestQPoly:
    def test_negative_index(self):
        assert q_poly(-3, [F(2)]) == 0

    def test_symbolic_r1(self):
        x = LaurentPoly.var("x")
        assert q_poly(0, [x]) == x
        assert q_poly(1, [x]) == x ** 2 - 1
        assert q_poly(2, [x]) == x ** 3 - x

    def test_series_multiplication_oracle(self):
        # oracle: sum Q_a y^a times the reciprocal series is 1
        u = [F(2), F(3), F(7)]
        y = LaurentPoly.var("y")
        N = 8
        f = RatFunc.const(1)
        for x in u:
            f = f * RatFunc.from_poly(y - x) / RatFunc.from_poly(x * y - 1)
        s = expand_series(f, "y", N, at="zero")
        assert s.coeffs == [q_poly(a, u) for a in range(N + 1)]
        sp = expand_series(RatFunc.const(1) / f, "y", N, at="zero")
        assert sp.coeffs == [q_poly(a, u, primed=True) for a in range(N + 1)]

    def test_primed_is_inverse_substitution(self):
        u = [RatFunc.var(f"u{i}") for i in (1, 2, 3)]
        for a in range(0, 7):
            assert q_poly(a, u, primed=True) == q_poly(a, [scalar_inv(x) for x in u])


class TestGroundParams:
    def test_rejects_even_r(self):
        with pytest.raises(ValueError):
            GroundParams(2, F(2), [F(4), F(16)])

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            GroundParams(1, F(2), [F(4)], alpha=2)

    def test_rejects_q_one(self):
        with pytest.raises(ValueError):
            GroundParams(1, F(1), [F(4)])

    def test_rho_inverse_relation(self):
        for alpha in (1, -1):
            p = GroundParams(3, F(2), [F(2) ** 20, F(2) ** -12, F(2) ** 4], alpha=alpha)
            assert p.rho_inv == alpha * p.u_prod
            assert p.rho * p.rho_inv == 1

    def test_omega_zero_both_closed_forms(self):
        for alpha in (1, -1):
            p = generic_specialization(3, 2)
            p = GroundParams(3, p.q, p.u, alpha=alpha)
            w0 = p.omega(0)
            assert w0 == 1 - p.delta_inv * (p.rho - p.rho_inv)
            assert w0 == p.delta_inv * p.rho * (p.u_prod ** 2 - 1) + 1

    def test_omega_r1_gamma_oracle(self):
        p = generic_specialization(1, 2)
        v = p.u[0]
        gamma1 = 1 + p.delta_inv * p.rho * (v ** 2 - 1)
        assert p.omega(1) == v * gamma1

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("alpha", [1, -1])
    def test_omega_weighted_power_sum_oracle(self, r, alpha):
        base = generic_specialization(r, 2)
        p = GroundParams(r, base.q, base.u, alpha=alpha)
        for a in range(-2 * r - 2, 2 * r + 3):
            assert p.omega(a) == omega_oracle(p, a), a

    def test_memo_referentially_transparent(self):
        p = generic_specialization(3, 2)
        first = p.omega(5)
        assert p.omega(5) == first == p._omega_closed_form(5)


class TestAdmissibility:
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_both_families_pass(self, r):
        p = generic_specialization(r, 2)
        rep = check_admissible(p, b_range=(-2 * r, 2 * r), a_max=3 * r)
        assert rep["ok"]

    def test_alpha_minus_passes(self):
        base = generic_specialization(3, 2)
        p = GroundParams(3, base.q, base.u, alpha=-1)
        assert check_admissible(p)["ok"]

    def test_empty_recursion_instance(self):
        p = generic_specialization(1, 2)
        rep = check_admissible(p, b_range=(0, 0), a_max=0)
        assert all(e["pass"] for e in rep["entries"] if e["family"] == 2)

    def test_perturbation_detected_at_first_equation(self):
        p = generic_specialization(3, 2)
        bad = lambda a: p.omega(a) + (1 if a == 1 else 0)
        rep = check_admissible(p, omega=bad)
        assert not rep["ok"]
        first = next(e for e in rep["entries"] if not e["pass"])
        # omega_1 first enters family 1 at s = r, i.e. b = 1 - r
        assert first == {"family": 1, "b": 1 - p.r, "pass": False}


class TestWtilde:
    @pytest.mark.parametrize("r", [1, 3])
    def test_plus_matches_omega(self, r):
        p = generic_specialization(r, 2)
        s = wtilde_closed(p, "+", 4 * r)
        assert s.coeffs == [p.omega(a) for a in range(4 * r + 1)]

    @pytest.mark.parametrize("r", [1, 3])
    def test_minus_matches_omega(self, r):
        p = generic_specialization(r, 2)
        s = wtilde_closed(p, "-", 4 * r)
        assert s.coeffs[0] == 0
        assert s.coeffs[1:] == [p.omega(-a) for a in range(1, 4 * r + 1)]

    def test_product_identity(self):
        p = generic_specialization(3, 2)
        y = RatFunc.var("y")
        one = RatFunc.const(1)
        dr = RatFunc.const(p.delta_inv * p.rho)
        lhs = (wtilde_rational(p, "+") - y * y / (y * y - one) + dr) * (
            wtilde_rational(p, "-") - one / (y * y - one) - dr
        )
        rhs = y * y / ((one - y * y) ** 2) - RatFunc.const(p.delta_inv ** 2)
        assert lhs == rhs
        # and as a truncated series identity to order 8
        N = 8
        ls = expand_series(lhs, "y", N, at="inf")
        rs = expand_series(rhs, "y", N, at="inf")
        assert ls == rs

    def test_bad_sign(self):
        p = generic_specialization(1, 2)
        with pytest.raises(ValueError):
            wtilde_closed(p, "*", 2)


class TestGenericSpecialization:
    def test_spec_patterns(self):
        assert exponents(generic_specialization(1, 2)) == (2,)
        assert exponents(generic_specialization(3, 2)) == (10, -6, 2)

    @pytest.mark.parametrize("r,n", [(1, 4), (3, 3), (5, 2)])
    def test_certified(self, r, n):
        p = generic_specialization(r, n)
        assert p.certificate["ok"]
        k = exponents(p)
        assert all(abs(k[i]) > abs(k[i + 1]) for i in range(r - 1))
        assert abs(k[-1]) >= n
        assert all(abs(k[i]) - abs(k[i + 1]) >= 2 * n for i in range(r - 1))
        assert all((k[i] > 0) == (i % 2 == 0) for i in range(r))

    def test_seeded_jitter_still_certified(self):
        for seed in (1, 7, 42):
            p = generic_specialization(3, 3, seed=seed)
            assert p.certificate["ok"]

    def test_certifier_catches_violation(self):
        rep = certify_generic(F(2), [F(4), F(16), F(2) ** 20], n=2)
        assert not rep["ok"]  # u1 u2^{-1} = q^{-2}, |d|=1 < 4

    def test_rejects_even_r(self):
        with pytest.raises(ValueError):
            generic_specialization(2, 2)


class TestPreset:
    def test_roundtrip(self, tmp_path):
        f = tmp_path / "preset.txt"
        f.write_text("# comment\nr = 3\nq = 2\nk = 10,-6,2\nalpha = 1\n")
        p = parse_preset(str(f))
        assert p.r == 3 and p.q == 2 and exponents(p) == (10, -6, 2)
        assert p.u == generic_specialization(3, 2).u

    def test_missing_key(self, tmp_path):
        f = tmp_path / "preset.txt"
        f.write_text("r = 3\n")
        with pytest.raises(ValueError, match="missing key"):
            parse_preset(str(f))

    def test_wrong_count(self, tmp_path):
        f = tmp_path / "preset.txt"
        f.write_text("r = 3\nk = 1,2\n")
        with pytest.raises(ValueError, match="expected r=3"):
            parse_preset(str(f))
