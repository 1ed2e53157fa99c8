from math import factorial

import pytest

from cycbmw import cellular
from cycbmw.cellular import (
    RANK_PRIMES,
    FaithfulRep,
    _gram_matrix_check,
    _t_word_of_coset,
    _x_power_word,
    build_rep,
    cell_datum,
    cell_word,
    certify_full_rank,
    classify,
    delta_index,
    e_arcs_word,
    eval_word_blocks,
    full_rank_mod_p,
    gram_half,
    left_word,
    m_word,
    rank_certify,
    residue_matrix,
    right_word,
    target_dimension,
    token_matrix,
    token_residues,
    word_star,
)
from cycbmw.matrices import dense, frac_rows, mat_identity, mat_mul, mat_sub
from cycbmw.params import generic_specialization
from cycbmw.seminormal import build_module
from cycbmw.tableaux import (
    enumerate_cosets,
    enumerate_kappa,
    rp_empty,
    shapes_with_f,
    std_tableaux,
)


def sparse(a):
    """Sparse rows of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def eval_word(w, rep):
    """Flattened block-diagonal image of a word: each block of
    eval_word_blocks read row by row, in block order.
    """
    return [x for mat in eval_word_blocks(w, rep) for row in mat for x in row]


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

    @pytest.mark.parametrize("r,n", [(1, 2), (1, 3), (3, 2), (5, 2), (1, 4)])
    def test_cell_word_is_left_then_right(self, r, n):
        # the seed element m_word sits between the arc idempotent and the
        # right exponents, split between the two halves
        for f, lam in shapes_with_f(n, r):
            idx = delta_index(f, lam, n, r)
            for s, rho, e in idx:
                for t, kappa, d in idx:
                    word = cell_word(f, lam, (s, rho, e), (t, kappa, d), n, r)
                    assert word == (left_word(f, (s, rho, e), n, r)
                                    + right_word(f, (t, kappa, d), n))
                    assert word == (word_star(_t_word_of_coset(e, n))
                                    + _x_power_word(rho, f, n) + e_arcs_word(f, n)
                                    + m_word(s, t, r) + _x_power_word(kappa, f, n)
                                    + _t_word_of_coset(d, n))

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
                    dense(mat_mul(sparse(a), sparse(b)), len(b[0]))
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
        got = dense(frac_rows(*token_matrix(("rowsum", lam), m)), m.dim)
        if lam == ((2,),):
            expected = [[1 + m.matT[0][0][0]]]
            assert mat_sub(got, expected) == [[0]]


class TestRankCertify:
    @staticmethod
    def mixed_component_rep(monkeypatch):
        """The images of one label on its own block alone: a square matrix."""
        p = generic_specialization(3, 3)
        lam = ((), (1,), (1, 1))
        monkeypatch.setattr(cellular, "shapes_with_f", lambda n, r: [(0, lam)])
        return FaithfulRep(3, 3, p, [(0, lam, build_module(lam, 0, p))])

    @staticmethod
    def arc_rep(arc_token):
        """The n = 2, r = 1 representation with the arc idempotent's token on
        its one-arc block replaced by arc_token.  The images there are the
        words rowsum, () and E_1, and E_1 vanishes on the other two blocks, so
        the images have full rank modulo p exactly when E_1 does not vanish
        there modulo p.
        """
        rep = build_rep(2, 1, generic_specialization(1, 2))
        (m,) = [m for f, _, m in rep.blocks if f == 1]
        m._word_cache[("E", 1, 1)] = arc_token
        return rep

    def test_mixed_component_block_independent(self, monkeypatch):
        # a shape with a two-box component next to a one-box component once
        # produced dependent images under a wrong permutation convention
        rep = self.mixed_component_rep(monkeypatch)
        a = residue_matrix(rep, RANK_PRIMES[0])
        assert len(a) == 9 and {len(row) for row in a} == {9}
        assert certify_full_rank(rep)

    def test_duplicated_row_not_certified(self, monkeypatch):
        rep = self.mixed_component_rep(monkeypatch)
        for p in RANK_PRIMES:
            a = residue_matrix(rep, p)
            assert full_rank_mod_p([row[:] for row in a], p)
            # row 4 becomes row 7, and row 7 the same row shifted by
            # multiples of p
            a[4], a[7] = a[7], [x + j * p for j, x in enumerate(a[7])]
            assert not full_rank_mod_p(a, p)

    def test_unlucky_and_dividing_primes_skipped(self):
        p1, p2, p3 = RANK_PRIMES
        # the arc image p1 vanishes modulo p1 only
        rep = self.arc_rep(([{0: p1}], 1))
        assert not full_rank_mod_p(residue_matrix(rep, p1), p1)
        assert certify_full_rank(rep)
        # a token denominator divisible by p1 rules p1 out
        rep = self.arc_rep(([{0: 1}], p1))
        assert residue_matrix(rep, p1) is None
        assert certify_full_rank(rep)
        assert not certify_full_rank(self.arc_rep(([{0: p2 * p3}], p1)))
        # p1 divides the token's den but not its reduced denominator, so p1
        # is still used; it is the only prime at which p2·p3 is a unit
        assert certify_full_rank(self.arc_rep(([{0: p1 * p2 * p3}], p1)))

    def test_token_after_a_vanishing_prefix_still_rules_out_a_prime(self, monkeypatch):
        # every left factor E_1·T_1 vanishes on the blocks without an arc, so
        # T_1 is never multiplied there; its denominator p1 must still rule
        # p1 out, since a prefix that vanishes mod p1 times T_1 need not
        p1 = RANK_PRIMES[0]
        rep = build_rep(2, 1, generic_specialization(1, 2))
        for f, _, m in rep.blocks:
            if f == 0:
                m._word_cache[("T", 1, 1)] = ([{0: 1}], p1)
        monkeypatch.setattr(cellular, "left_word", lambda *args: (("E", 1, 1), ("T", 1, 1)))
        assert residue_matrix(rep, p1) is None
        assert residue_matrix(rep, RANK_PRIMES[1]) is not None

    def test_reduced_denominator_over_a_whole_block(self):
        # the token (p1·p2·p3, x)/p1 over a 2x2 block: its content gcd with the
        # denominator is taken over every entry of the block
        p1, p2, p3 = RANK_PRIMES

        def rows(x):
            return [{0: p1 * p2 * p3, 1: x}, {}]

        assert token_residues(rows(p1), p1, p1) == [{0: p2 * p3 % p1, 1: 1}, {}]
        # x = 1 leaves the entry 1/p1, whose reduced denominator is p1
        assert token_residues(rows(1), p1, p1) is None
        inv = pow(p1, -1, p2)
        assert token_residues(rows(1), p1, p2) == [{1: inv}, {}]

    def test_residues_match_oracle_where_some_left_factors_vanish(self, monkeypatch):
        # a label's left factors vanish on a block all together or not at all
        # at every size up to D = 405; here only the first left factor E_1 of
        # the one-arc label vanishes on the blocks without an arc
        n, r = 3, 1
        rep = build_rep(n, r, generic_specialization(r, n))
        lam = ((1,),)
        idx = delta_index(1, lam, n, r)

        def left(f, x, n, r):
            if f == 0:
                return left_word(f, x, n, r)
            return (("E", 1, 1),) if x == idx[0] else ()

        monkeypatch.setattr(cellular, "left_word", left)
        prime = RANK_PRIMES[0]
        # the one-arc label comes last
        rows = residue_matrix(rep, prime)[-len(idx) ** 2:]
        expected = [[x.numerator * pow(x.denominator, -1, prime) % prime
                     for x in eval_word(left(1, a, n, r) + right_word(1, b, n), rep)]
                    for a in idx for b in idx]
        assert [[x % prime for x in row] for row in rows] == expected
        # the blocks without an arc come first and take 1 + 4 + 1 entries
        assert not any(expected[0][:6]) and any(expected[-1][:6])

    def test_elimination_reduces_each_pivot_row(self):
        # each update subtracts c·y with c and the pivot row's y reduced, so
        # an entry grows by less than p^2 per update
        p = RANK_PRIMES[0]
        rep = build_rep(3, 1, generic_specialization(1, 3))
        a = residue_matrix(rep, p)
        bound = max(abs(x) for row in a for x in row) + len(a) * p * p
        assert full_rank_mod_p(a, p)
        assert max(abs(x) for row in a for x in row) < bound

    @pytest.mark.parametrize("r,n", [(1, 3), (3, 2)])
    def test_residues_match_word_by_word_oracle(self, r, n):
        # the residue rows are the residues of the cell words evaluated token
        # by token, also on the blocks where every left factor vanishes
        p = generic_specialization(r, n)
        rep = build_rep(n, r, p)
        prime = RANK_PRIMES[0]
        expected = []
        vanishing = 0
        for f, lam in shapes_with_f(n, r):
            idx = delta_index(f, lam, n, r)
            for b in range(len(rep.blocks)):
                lefts = [eval_word_blocks(left_word(f, x, n, r), rep)[b] for x in idx]
                vanishing += not any(x for mat in lefts for row in mat for x in row)
            for left in idx:
                for right in idx:
                    row = eval_word(cell_word(f, lam, left, right, n, r), rep)
                    expected.append(
                        [x.numerator * pow(x.denominator, -1, prime) % prime for x in row])
        assert vanishing == {(1, 3): 3, (3, 2): 44}[r, n]
        rows = residue_matrix(rep, prime)
        assert [[x % prime for x in row] for row in rows] == expected

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

    @pytest.mark.parametrize("n", [2, 4])
    def test_matrix_check_rejects_a_wrong_value(self, n):
        # the residual arcs·X^kappa·arcs - value·arcs vanishes at the true
        # value only
        p = generic_specialization(3, n)
        value = p.omega(1) ** (n // 2)
        _gram_matrix_check(n, 1, p, value)
        with pytest.raises(ArithmeticError, match="gram value mismatch in the block image"):
            _gram_matrix_check(n, 1, p, value + 1)

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
