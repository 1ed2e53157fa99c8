from fractions import Fraction as F
from math import factorial

import pytest

from cycbmw.cellular import (
    RANK_PRIMES,
    FaithfulRep,
    build_rep,
    cell_datum,
    cell_word,
    classify,
    delta_index,
    e_arcs_word,
    eval_word,
    eval_word_blocks,
    full_rank_mod_p,
    gram_half,
    m_word,
    rank_certify,
    target_dimension,
    token_matrix,
    word_star,
)
from cycbmw.matrices import mat_identity, mat_mul, mat_sub
from cycbmw.params import generic_specialization
from cycbmw.seminormal import build_module
from cycbmw.tableaux import (
    enumerate_cosets,
    enumerate_kappa,
    rp_empty,
    shapes_with_f,
    std_tableaux,
)


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class TestCellDatum:
    @pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (3, 2), (3, 3), (5, 2)])
    def test_square_sum(self, r, n):
        cd = cell_datum(n, r)
        assert cd.total_sq == target_dimension(n, r)
        assert target_dimension(n, r) == r ** n * double_factorial(2 * n - 1)

    def test_block_size_factorization(self):
        cd = cell_datum(3, 3)
        for f, lam, n_std, n_kappa, n_cosets, size in cd.blocks:
            assert size == n_std * n_kappa * n_cosets
            assert n_kappa == 3 ** f
            assert n_cosets == factorial(3) // (factorial(3 - 2 * f) * factorial(f) * 2 ** f)
            assert len(delta_index(f, lam, 3, 3)) == size

    def test_delta_index_size_error(self):
        with pytest.raises(ValueError):
            delta_index(1, ((2,),), 2, 1)


class TestWords:
    def test_m_word_shift_product(self):
        lam = ((1,), (), ())
        s = std_tableaux(lam)[0]
        assert m_word(s, s, 3) == (("Xshift", 1, 2), ("Xshift", 1, 3))

    def test_m_word_empty_shape(self):
        t = tuple(() for _ in range(3))
        assert m_word(t, t, 3) == ()

    def test_m_word_shape_mismatch(self):
        a = std_tableaux(((1,), (), ()))[0]
        b = std_tableaux(((), (1,), ()))[0]
        with pytest.raises(ValueError, match="shapes"):
            m_word(a, b, 3)

    def test_m_word_row_stabilizer(self):
        lam = ((2,),)
        s = std_tableaux(lam)[0]
        assert m_word(s, s, 1) == (("rowsum", lam),)

    def test_cell_word_example(self):
        # single-arc word on two strands: arc idempotent then one eigenvector
        # power on the first strand
        triv = enumerate_cosets(1, 2)[0]
        t = tuple(() for _ in range(3))
        left = (t, (0, 0), triv)
        right = (t, (1, 0), triv)
        assert cell_word(1, rp_empty(3), left, right, 2, 3) == (("E", 1, 1), ("X", 1, 1))

    def test_star_involutive(self):
        lam = ((2, 1),)
        s, t = std_tableaux(lam)[:2]
        w = m_word(s, t, 1)
        assert word_star(word_star(w)) == w
        assert w != word_star(w)

    def test_star_reversal_matches_transposed_pair(self):
        # the seed word of the swapped pair evaluates like the starred word
        p = generic_specialization(1, 3)
        rep = build_rep(3, 1, p)
        lam = ((2, 1),)
        s, t = std_tableaux(lam)[:2]
        lhs = eval_word_blocks(word_star(m_word(s, t, 1)), rep)
        rhs = eval_word_blocks(m_word(t, s, 1), rep)
        assert lhs == rhs


class TestEvalWord:
    def test_empty_word_identity(self):
        p = generic_specialization(1, 2)
        rep = build_rep(2, 1, p)
        flat = eval_word((), rep)
        expected = []
        for _, _, m in rep.blocks:
            for row in mat_identity(m.dim):
                expected.extend(row)
        assert flat == expected
        assert len(flat) == rep.total_dim == 3

    def test_arc_word_block_values(self):
        p = generic_specialization(1, 2)
        rep = build_rep(2, 1, p)
        blocks = eval_word_blocks((("E", 1, 1),), rep)
        for (f, lam, m), b in zip(rep.blocks, blocks):
            if f == 1:
                assert b == [[p.omega(0)]]
            else:
                assert b == [[0]]

    def test_x1x2_identity_on_empty_shape_block(self):
        p = generic_specialization(3, 2)
        rep = build_rep(2, 3, p)
        blocks = eval_word_blocks((("X", 1, 1), ("X", 2, 1)), rep)
        for (f, lam, m), b in zip(rep.blocks, blocks):
            if f == 1:
                assert b == mat_identity(m.dim)

    def test_token_index_out_of_range(self):
        p = generic_specialization(1, 2)
        rep = build_rep(2, 1, p)
        for bad in ((("T", 2, 1),), (("E", 0, 1),), (("X", 3, 1),), (("bogus",),)):
            with pytest.raises(ValueError):
                eval_word(bad, rep)

    def test_homomorphism_property(self):
        p = generic_specialization(1, 3)
        rep = build_rep(3, 1, p)
        words = [
            (("T", 1, 1), ("E", 2, 1)),
            (("X", 2, -1), ("T", 2, 1), ("T", 1, -1)),
            (("E", 1, 1), ("X", 1, 2), ("T", 2, 1)),
        ]
        for w1 in words:
            for w2 in words:
                concat = eval_word_blocks(w1 + w2, rep)
                split = [
                    mat_mul(a, b)
                    for a, b in zip(eval_word_blocks(w1, rep), eval_word_blocks(w2, rep))
                ]
                assert concat == split

    def test_tinv_token_inverts_t(self):
        p = generic_specialization(3, 2)
        rep = build_rep(2, 3, p)
        prod = eval_word_blocks((("T", 1, 1), ("T", 1, -1)), rep)
        idents = [mat_identity(m.dim) for _, _, m in rep.blocks]
        assert prod == idents

    @pytest.mark.parametrize("r,n", [(3, 2), (3, 3), (1, 4)])
    def test_seed_commutes_with_arc_factors(self, r, n):
        # the seed word lives on the low strands, the arc idempotent and the
        # exponent factors on the high strands, so both products commute
        p = generic_specialization(r, n)
        rep = build_rep(n, r, p)
        for f, lam in shapes_with_f(n, r):
            if f == 0:
                continue
            arcs = e_arcs_word(f, n)
            for s in std_tableaux(lam):
                mw = m_word(s, s, r)
                lhs = eval_word_blocks(mw + arcs, rep)
                rhs = eval_word_blocks(arcs + mw, rep)
                assert lhs == rhs
                for kappa in enumerate_kappa(f, n, r)[:4]:
                    xw = tuple(("X", i + 1, e) for i, e in enumerate(kappa) if e != 0)
                    lhs = eval_word_blocks(mw + xw, rep)
                    rhs = eval_word_blocks(xw + mw, rep)
                    assert lhs == rhs

    def test_rowsum_matrix_is_symmetrizer_sum(self):
        # two-box row: identity plus the adjacent transposition matrix
        p = generic_specialization(1, 2)
        rep = build_rep(2, 1, p)
        m = rep.blocks[1][2] if rep.blocks[1][0] == 0 else rep.blocks[0][2]
        lam = m.lam
        got = token_matrix(("rowsum", lam), m)
        if lam == ((2,),):
            expected = [[1 + m.matT[0][0][0]]]
            assert mat_sub(got, expected) == [[0]]


class TestRankCertify:
    @staticmethod
    def mixed_component_rows():
        p = generic_specialization(3, 3)
        lam = ((), (1,), (1, 1))
        rep = FaithfulRep(3, 3, p, [(0, lam, build_module(lam, 0, p))])
        idx = delta_index(0, lam, 3, 3)
        return [
            eval_word(cell_word(0, lam, left, right, 3, 3), rep)
            for left in idx
            for right in idx
        ]

    def test_mixed_component_block_independent(self):
        # a shape with a two-box component next to a one-box component once
        # produced dependent images under a wrong permutation convention
        rows = self.mixed_component_rows()
        assert len(rows) == 9
        assert full_rank_mod_p(rows)

    def test_duplicated_row_not_certified(self):
        rows = self.mixed_component_rows()
        rows[4] = rows[7]
        assert not full_rank_mod_p(rows)

    def test_unlucky_and_dividing_primes_skipped(self):
        p1 = RANK_PRIMES[0]
        # the determinant p1 vanishes modulo p1 only
        assert full_rank_mod_p([[F(p1), F(0)], [F(0), F(1)]])
        # a denominator divisible by p1 rules p1 out
        assert full_rank_mod_p([[F(1, p1), F(0)], [F(0), F(1)]])
        assert not full_rank_mod_p([[F(1, p1), F(1)], [F(1, p1), F(1)]])

    @pytest.mark.parametrize("r,n,d", [(1, 2, 3), (1, 3, 15), (3, 2, 27)])
    def test_full_rank(self, r, n, d):
        p = generic_specialization(r, n)
        rep = rank_certify(n, r, p)
        assert rep["certified"] is True
        assert rep["D"] == d
        assert set(rep) == {"D", "certified", "elapsed"}


class TestGramHalf:
    def test_n2_single_moment(self):
        p = generic_specialization(3, 2)
        for ell in range(-2, 3):
            g = gram_half(2, ell, p)
            assert g["value"] == p.omega(ell)
            assert g["form_zero"] is False

    def test_n4_squared_moment(self):
        p = generic_specialization(3, 4)
        g = gram_half(4, 1, p)
        assert g["value"] == p.omega(1) ** 2

    def test_odd_n_error(self):
        p = generic_specialization(1, 3)
        with pytest.raises(ValueError, match="even"):
            gram_half(3, 0, p)

    def test_exponent_window_error(self):
        p = generic_specialization(3, 2)
        with pytest.raises(ValueError, match="window"):
            gram_half(2, 3, p)

    def test_zero_moments_flagged(self):
        p = generic_specialization(3, 2)
        g = gram_half(2, 1, p, omega=lambda a: 0)
        assert g["value"] == 0 and g["form_zero"] is True


class TestClassify:
    def test_generic_all_labels(self):
        p = generic_specialization(3, 3)
        c = classify(3, 3, p)
        assert c["labels"] == list(shapes_with_f(3, 3))
        assert c["excluded"] == []

    def test_even_generic_keeps_top_layer(self):
        p = generic_specialization(3, 2)
        c = classify(2, 3, p)
        assert (1, rp_empty(3)) in c["labels"]

    def test_even_zero_moments_excludes_top_layer(self):
        p = generic_specialization(3, 2)
        c = classify(2, 3, p, omega=lambda a: 0)
        assert (1, rp_empty(3)) not in c["labels"]
        assert c["excluded"] == [(1, rp_empty(3))]
        assert all(f == 0 for f, _ in c["labels"])
