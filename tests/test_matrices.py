import copy
from collections import Counter
from fractions import Fraction as F
from math import lcm, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw import cellular, seminormal
from cycbmw.cellular import (
    FaithfulRep,
    build_rep,
    cell_word,
    delta_index,
    eval_word_blocks,
    rank_certify,
    token_matrix,
)
from cycbmw.matrices import dense, frac_rows, int_rows, mat_mul, sparse_diag
from cycbmw.params import generic_specialization
from cycbmw.seminormal import (
    build_module,
    generator_matrix,
    relation_table,
    verify_relations,
    word_sum,
)
from cycbmw.tableaux import rp_empty, shapes_with_f

NONZERO = st.one_of(
    st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9)),
    st.integers(-5, 5).filter(bool),
)
# three zero branches out of five: most entries are exact zeros, as in the
# seminormal generators, and both exact-zero types occur
SPARSE = st.one_of(st.just(F(0)), st.just(F(0)), st.just(0), NONZERO, NONZERO)
DIMS = st.integers(1, 6)


def dense_mul(a, b):
    """Reference product: every term of the triple loop, zeros included."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def matrix(rows, cols):
    return st.lists(st.lists(SPARSE, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def product_pair(draw):
    n, k, m = draw(DIMS), draw(DIMS), draw(DIMS)
    return draw(matrix(n, k)), draw(matrix(k, m))


@st.composite
def sum_pair(draw):
    n, m = draw(DIMS), draw(DIMS)
    return draw(matrix(n, m)), draw(matrix(n, m))


@st.composite
def chain(draw):
    dims = draw(st.lists(DIMS, min_size=2, max_size=6))
    return [draw(matrix(rows, cols)) for rows, cols in zip(dims, dims[1:])]


def sparse(a):
    """Sparse rows of a dense matrix, the form the generators are built in."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def no_zero_stored(a):
    return all(x != 0 for row in a for x in row.values())


def integer_pair(pair):
    rows, den = pair
    return (type(den) is int and den > 0
            and all(type(x) is int for row in rows for x in row.values()))


class TestSparseRows:
    @given(product_pair())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, pair):
        a, _ = pair
        s = sparse(a)
        assert no_zero_stored(s)
        assert dense(s, len(a[0])) == a

    def test_diag_stores_no_zero(self):
        assert sparse_diag([F(2), 0, F(0), -1]) == [{0: F(2)}, {}, {}, {3: -1}]


class TestMatMul:
    @given(product_pair())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_reference(self, pair):
        a, b = pair
        out = mat_mul(sparse(a), sparse(b))
        assert len(out) == len(a)
        assert no_zero_stored(out)
        assert dense(out, len(b[0])) == dense_mul(a, b)

    @given(product_pair(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_zero_row_and_column_give_fraction_zero(self, pair, data):
        a, b = pair
        i = data.draw(st.integers(0, len(a) - 1))
        j = data.draw(st.integers(0, len(b[0]) - 1))
        a[i] = [0] * len(a[i])
        for row in b:
            row[j] = F(0)
        out = mat_mul(sparse(a), sparse(b))
        assert out[i] == {} and all(j not in row for row in out)
        full = dense(out, len(b[0]))
        assert full == dense_mul(a, b)
        zeros = full[i] + [row[j] for row in full]
        assert all(type(x) is F and x == 0 for x in zeros)

    def test_cancelling_product_stores_no_zero(self):
        # (1, 1)·(1, -1)ᵀ = 0 and (1/2, 1/3)·(2, -3)ᵀ = 0 entry by entry
        a = sparse([[1, 1], [F(1, 2), F(1, 3)]])
        b = sparse([[1, F(2)], [-1, F(-3)]])
        assert mat_mul(a, b) == [{1: -1}, {0: F(1, 6)}]
        assert mat_mul(sparse([[1, 1]]), sparse([[F(1)], [F(-1)]])) == [{}]

    def test_operands_unchanged(self):
        a = sparse([[1, 2], [0, 3]])
        b = sparse([[F(1, 2), 0], [-1, 1]])
        a0, b0 = copy.deepcopy(a), copy.deepcopy(b)
        mat_mul(a, b)
        assert (a, b) == (a0, b0)


def one_block(pairs):
    """matrix_of for word_sum's one-block case over {token: (rows, den)}."""
    def matrix_of(tok):
        rows, den = pairs[tok]
        return rows, (den,)
    return matrix_of


def block_sum(terms, pairs, dim):
    """(rows, den) of word_sum on one block of size dim."""
    rows, (den,) = word_sum(terms, one_block(pairs), [dim])
    return rows, den


def pair_terms(*terms):
    """(terms, pairs) for word_sum over one-token words: each (c, pair)
    becomes (c, (token,)) with pairs[token] == pair.
    """
    return ([(c, (("M", i, 1),)) for i, (c, _) in enumerate(terms)],
            {("M", i, 1): pair for i, (_, pair) in enumerate(terms)})


class TestMatAcc:
    """Accumulating c·a into a sum, as word_sum does for every term."""

    @given(sum_pair(), SPARSE)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_reference(self, pair, c):
        a, b = pair
        pa, pb = int_rows(sparse(a)), int_rows(sparse(b))
        before = copy.deepcopy(pb)
        rows, total = block_sum(*pair_terms((1, pa), (c, pb)), len(a))
        assert no_zero_stored(rows)
        assert pb == before
        expected = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert dense(frac_rows(rows, total), len(a[0])) == expected

    def test_cancelling_sum_stores_no_zero(self):
        a, b = int_rows(sparse([[1, F(2)], [0, 5]])), int_rows(sparse([[1, F(2)], [0, 0]]))
        assert block_sum(*pair_terms((1, a), (-1, b)), 2) == ([{}, {1: 5}], 1)
        c = int_rows(sparse([[0, 0], [0, -25]]))
        assert block_sum(*pair_terms((1, a), (-1, b), (F(1, 5), c)), 2) == ([{}, {}], 5)


class TestIntRows:
    @given(product_pair())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, pair):
        a, _ = pair
        rows, den = int_rows(sparse(a))
        assert integer_pair((rows, den)) and no_zero_stored(rows)
        assert den == lcm(*(F(x).denominator for row in a for x in row))
        assert dense(frac_rows(rows, den), len(a[0])) == a

    @given(chain())
    @settings(max_examples=100, deadline=None)
    def test_chain_product_matches_dense_reference(self, mats):
        # a one-term word_sum multiplies int rows and their denominators
        pairs = {("M", i, 1): int_rows(sparse(a)) for i, a in enumerate(mats)}
        rows, den = block_sum([(1, tuple(pairs))], pairs, len(mats[0]))
        assert integer_pair((rows, den)) and no_zero_stored(rows)
        assert den == prod(den for _, den in pairs.values())
        expected = mats[0]
        for b in mats[1:]:
            expected = dense_mul(expected, b)
        assert dense(frac_rows(rows, den), len(mats[-1][0])) == expected

    @given(sum_pair(), NONZERO, NONZERO)
    @settings(max_examples=100, deadline=None)
    def test_combine_matches_dense_reference(self, pair, c, d):
        # word_sum reads its terms from a generator and fixes the lcm of
        # their denominators before it sums them
        a, b = pair
        pa, pb = int_rows(sparse(a)), int_rows(sparse(b))
        terms, pairs = pair_terms((c, pa), (d, pb), (F(1, 13), pa))
        rows, total = block_sum((t for t in terms), pairs, len(a))
        assert integer_pair((rows, total)) and no_zero_stored(rows)
        assert total == lcm(F(c).denominator * pa[1], F(d).denominator * pb[1], 13 * pa[1])
        expected = [[(c + F(1, 13)) * x + d * y for x, y in zip(ra, rb)]
                    for ra, rb in zip(a, b)]
        assert dense(frac_rows(rows, total), len(a[0])) == expected

    @given(sum_pair(), NONZERO)
    @settings(max_examples=100, deadline=None)
    def test_combine_cancelling_terms_leave_empty_rows(self, pair, c):
        a, b = pair
        pa, pb = int_rows(sparse(a)), int_rows(sparse(b))
        rows, _ = block_sum(*pair_terms((c, pa), (1, pb), (-1, pb), (-c, pa)), len(a))
        assert rows == [{} for _ in a]

    @given(sum_pair(), NONZERO)
    @settings(max_examples=100, deadline=None)
    def test_combine_skips_zero_coefficients(self, pair, c):
        # a zero term adds neither entries nor its denominator 11 to the lcm
        a, b = pair
        pa, pb = int_rows(sparse(a)), int_rows(sparse(b))
        odd = ([{0: 1}] + [{} for _ in a[1:]], 11)
        rows, total = block_sum(*pair_terms((0, odd), (c, pa), (F(0), pb)), len(a))
        assert total == F(c).denominator * pa[1]
        assert dense(frac_rows(rows, total), len(a[0])) == [[c * x for x in row] for row in a]

    def test_combine_of_no_terms_is_zero(self):
        assert block_sum(*pair_terms((0, ([{0: 3}], 2))), 1) == ([{}], 1)
        assert block_sum([], {}, 2) == ([{}, {}], 1)

    def test_token_matrices_are_integer_pairs(self):
        # relation generators and cell-word tokens carry no Fraction entries
        n, r = 3, 1
        rep = build_rep(n, r, generic_specialization(r, n))
        for f, lam in shapes_with_f(n, r):
            idx = delta_index(f, lam, n, r)
            for left in idx[:2]:
                eval_word_blocks(cell_word(f, lam, left, idx[-1], n, r), rep)
        for _, _, m in rep.blocks:
            assert m._word_cache and all(map(integer_pair, m._word_cache.values()))


COEFFS = st.one_of(st.just(0), st.just(F(0)), NONZERO)


@st.composite
def word_terms(draw):
    """(dim, dense token matrices, terms) over a vocabulary of dense tokens
    ("M", i, 1) and diagonal tokens ("D", i, 1); words may hold X_i^0, which
    is skipped, and may be empty (the identity).
    """
    dim = draw(st.integers(1, 4))
    dense_tokens = draw(st.lists(matrix(dim, dim), min_size=1, max_size=3))
    diagonals = draw(st.lists(st.lists(SPARSE, min_size=dim, max_size=dim),
                              min_size=1, max_size=3))
    mats = {("M", i, 1): m for i, m in enumerate(dense_tokens)}
    for i, entries in enumerate(diagonals):
        mats[("D", i, 1)] = [[x if j == k else F(0) for k in range(dim)]
                             for j, x in enumerate(entries)]
    vocab = sorted(mats) + [("X", 1, 0)]
    terms = draw(st.lists(
        st.tuples(COEFFS, st.lists(st.sampled_from(vocab), max_size=4).map(tuple)),
        min_size=1, max_size=5))
    return dim, mats, terms


def dense_word_sum(dim, mats, terms):
    """Reference: every word multiplied out densely in Fractions."""
    identity = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    total = [[F(0)] * dim for _ in range(dim)]
    for c, word in terms:
        product = identity
        for tok in word:
            if tok[0] != "X":
                product = dense_mul(product, mats[tok])
        total = [[x + c * y for x, y in zip(rt, rp)] for rt, rp in zip(total, product)]
    return total


class TestWordSum:
    @given(word_terms())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, drawn):
        # word_sum reads its terms from a generator and fixes the lcm of
        # their denominators before it sums them
        dim, mats, terms = drawn
        pairs = {tok: int_rows(sparse(m)) for tok, m in mats.items()}
        before = copy.deepcopy(pairs)
        rows, total = block_sum((t for t in terms), pairs, dim)
        assert integer_pair((rows, total)) and no_zero_stored(rows)
        assert total == lcm(*(F(c).denominator
                              * prod(pairs[tok][1] for tok in word if tok[0] != "X")
                              for c, word in terms if c))
        assert dense(frac_rows(rows, total), dim) == dense_word_sum(dim, mats, terms)
        assert pairs == before

    @given(word_terms())
    @settings(max_examples=100, deadline=None)
    def test_cancelling_terms_leave_empty_rows(self, drawn):
        dim, mats, terms = drawn
        pairs = {tok: int_rows(sparse(m)) for tok, m in mats.items()}
        negated = [(-c, word) for c, word in reversed(terms)]
        rows, _ = block_sum(terms + negated, pairs, dim)
        assert rows == [{} for _ in range(dim)]

    def test_no_terms_over_blocks_is_zero(self):
        assert word_sum([], None, [2, 1]) == ([{}, {}, {}], [1, 1])

    def test_identity_and_skipped_tokens(self):
        # () and (X_1^0,) are both the identity; a zero coefficient is
        # skipped even when its word names no known token
        x2 = ([{0: 3}, {1: -1}], 2)
        rows, total = block_sum([(F(1, 3), ()), (1, (("X", 1, 0),)), (0, (("?", 0, 1),)),
                                 (-2, (("D", 0, 1), ("X", 2, 0), ("D", 0, 1)))],
                                {("D", 0, 1): x2}, 2)
        # 4/3 - 2·diag(9/4, 1/4) = diag(-19/6, 5/6) over L = lcm(3, 1, 2·2),
        # which is not reduced
        assert (rows, total) == ([{0: -38}, {1: 10}], 12)

    def test_dim_one(self):
        rows, total = block_sum([(F(1, 2), (("M", 0, 1), ("M", 0, 1))), (-1, ())],
                                {("M", 0, 1): ([{0: 2}], 1)}, 1)
        # (1/2)·2·2 - 1 = 2/2
        assert (rows, total) == ([{0: 2}], 2)
        assert block_sum([(2, ()), (-2, ())], {}, 1) == ([{}], 1)

    @given(chain(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_word_product_with_diagonal_factors(self, mats, data):
        # diagonal factors, zero entries included, are applied as column
        # scalings; the product still matches the dense one
        square = [len(a[0]) for a in mats]
        for i in range(1, len(mats)):
            if data.draw(st.booleans()):
                n = square[i - 1]
                entries = data.draw(st.lists(SPARSE, min_size=n, max_size=n))
                mats.insert(i, [[x if j == k else F(0) for k in range(n)]
                                for j, x in enumerate(entries)])
                square.insert(i, n)
        pairs = {("M", i, 1): int_rows(sparse(a)) for i, a in enumerate(mats)}
        rows, den = block_sum([(1, tuple(pairs))], pairs, len(mats[0]))
        assert integer_pair((rows, den)) and no_zero_stored(rows)
        expected = mats[0]
        for b in mats[1:]:
            expected = dense_mul(expected, b)
        assert dense(frac_rows(rows, den), len(mats[-1][0])) == expected

    @given(st.lists(word_terms(), min_size=2, max_size=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_one_block_sums(self, blocks, data):
        # a direct sum of blocks, each with its own token matrices, sums
        # every block as word_sum on that block alone would, each over its
        # own denominator
        dims = [dim for dim, _, _ in blocks]
        offsets = [sum(dims[:b]) for b in range(len(dims))]
        vocab = sorted(set().union(*(mats for _, mats, _ in blocks)))
        pairs = []
        for dim, mats, _ in blocks:
            # a token a block lacks is a random diagonal there
            for tok in vocab:
                if tok not in mats:
                    entries = data.draw(st.lists(SPARSE, min_size=dim, max_size=dim))
                    mats[tok] = [[x if j == k else F(0) for k in range(dim)]
                                 for j, x in enumerate(entries)]
            pairs.append({tok: int_rows(sparse(m)) for tok, m in mats.items()})
        terms = [t for _, _, block_terms in blocks for t in block_terms]
        stacked = {tok: ([{j + off: x for j, x in row.items()}
                          for block, off in zip(pairs, offsets) for row in block[tok][0]],
                         [block[tok][1] for block in pairs])
                   for tok in vocab}
        rows, dens = word_sum(terms, stacked.__getitem__, dims)
        assert no_zero_stored(rows) and len(rows) == sum(dims)
        for b, (block, off, dim) in enumerate(zip(pairs, offsets, dims)):
            alone, den = block_sum(terms, block, dim)
            assert dens[b] == den
            assert rows[off:off + dim] == [{j + off: x for j, x in row.items()} for row in alone]


class TestGeneratorMatrix:
    @pytest.mark.parametrize("e", [-3, -2, -1, 0, 1, 2, 3])
    def test_x_powers_match_fraction_powers(self, e):
        # contents of either sign, with the sign of a negative power moved to
        # the numerator so that the denominator stays positive
        entries = [F(-2, 3), F(5, 7), F(-1), F(4), F(1, -6)]
        module = SimpleNamespace(matX=[entries], matT=[], matE=[])
        rows, den = generator_matrix(("X", 1, e), module)
        assert integer_pair((rows, den)) and no_zero_stored(rows)
        assert den == lcm(*((x ** e).denominator for x in entries))
        assert frac_rows(rows, den) == [{i: x ** e} for i, x in enumerate(entries)]


class TestTokenTable:
    def test_each_generator_converted_once(self, monkeypatch):
        # the relation check and then the cell words read one table per
        # module: every generator token is converted exactly once
        n, r = 3, 3
        p = generic_specialization(r, n)
        m = build_module(((1,), (), ()), 1, p)
        calls = Counter()
        convert = seminormal.generator_matrix

        def counted(tok, module):
            calls[tok] += 1
            return convert(tok, module)

        monkeypatch.setattr(seminormal, "generator_matrix", counted)
        assert verify_relations(m)["ok"]
        generators = {tok for _, _, terms in relation_table(n, p) for _, w in terms
                      for tok in w if tok[0] != "X" or tok[2]}
        assert set(calls) == generators and set(calls.values()) == {1}
        rep = FaithfulRep(n, r, p, [(1, m.lam, m)])
        for f, lam in shapes_with_f(n, r):
            idx = delta_index(f, lam, n, r)
            for left in idx[:2]:
                eval_word_blocks(cell_word(f, lam, left, idx[-1], n, r), rep)
        for tok in generators:
            assert token_matrix(tok, m) is m._word_cache[tok]
        assert set(calls.values()) == {1}
        assert set(calls) == {tok for tok in m._word_cache if tok[0] in ("X", "T", "E")}


class TestCachesNotMutated:
    def test_verify_relations_twice(self):
        p = generic_specialization(3, 2)
        m = build_module(rp_empty(3), 1, p)
        mats = copy.deepcopy((m.matX, m.matT, m.matE))
        first = verify_relations(m)
        assert first["ok"]
        assert verify_relations(m) == first
        assert (m.matX, m.matT, m.matE) == mats

    def test_eval_word_blocks_around_rank_certify(self, monkeypatch):
        # rank_certify evaluates every cell word on this representation, so
        # it reuses and extends the token caches of its modules
        n, r = 3, 1
        p = generic_specialization(r, n)
        rep = build_rep(n, r, p)
        words = []
        for f, lam in shapes_with_f(n, r):
            idx = delta_index(f, lam, n, r)
            words += [cell_word(f, lam, left, right, n, r)
                      for left in idx[:3] for right in idx[:3]]
        before = [eval_word_blocks(w, rep) for w in words]
        caches = [copy.deepcopy(m._word_cache) for _, _, m in rep.blocks]
        monkeypatch.setattr(cellular, "build_rep", lambda *args: rep)
        assert rank_certify(n, r, p)["certified"]
        assert [eval_word_blocks(w, rep) for w in words] == before
        for (_, _, m), cache in zip(rep.blocks, caches):
            assert {tok: m._word_cache[tok] for tok in cache} == cache
