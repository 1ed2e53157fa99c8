import copy
from fractions import Fraction as F
from math import lcm, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw import cellular
from cycbmw.cellular import build_rep, cell_word, delta_index, eval_word_blocks, rank_certify
from cycbmw.matrices import (
    combine,
    dense,
    frac_rows,
    int_rows,
    mat_acc,
    mat_mul,
    sparse,
    sparse_diag,
)
from cycbmw.params import generic_specialization
from cycbmw.seminormal import build_module, verify_relations, word_product
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


class TestMatAcc:
    @given(sum_pair(), SPARSE)
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_reference(self, pair, c):
        a, b = pair
        acc, addend = sparse(a), sparse(b)
        before = copy.deepcopy(addend)
        mat_acc(acc, c, addend)
        assert no_zero_stored(acc)
        assert addend == before
        expected = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert dense(acc, len(a[0])) == expected

    def test_cancelling_sum_stores_no_zero(self):
        acc = sparse([[1, F(2)], [0, 5]])
        mat_acc(acc, -1, sparse([[1, F(2)], [0, 0]]))
        assert acc == [{}, {1: 5}]
        mat_acc(acc, F(1, 5), sparse([[0, 0], [0, -25]]))
        assert acc == [{}, {}]


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
        # the word product multiplies int rows and their denominators
        pairs = [int_rows(sparse(a)) for a in mats]
        word = tuple(("M", i, 1) for i in range(len(mats)))
        rows, den = word_product(word, lambda tok: pairs[tok[1]], len(mats[0]))
        assert integer_pair((rows, den)) and no_zero_stored(rows)
        assert den == prod(den for _, den in pairs)
        expected = mats[0]
        for b in mats[1:]:
            expected = dense_mul(expected, b)
        assert dense(frac_rows(rows, den), len(mats[-1][0])) == expected

    @given(sum_pair(), NONZERO, NONZERO)
    @settings(max_examples=100, deadline=None)
    def test_combine_matches_dense_reference(self, pair, c, d):
        # read from a generator, and rescaled when a later term grows the lcm
        a, b = pair
        pa, pb = int_rows(sparse(a)), int_rows(sparse(b))
        rows, total = combine(((x, p) for x, p in [(c, pa), (d, pb), (F(1, 13), pa)]),
                              len(a))
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
        rows, _ = combine([(c, pa), (1, pb), (-1, pb), (-c, pa)], len(a))
        assert rows == [{} for _ in a]

    @given(sum_pair(), NONZERO)
    @settings(max_examples=100, deadline=None)
    def test_combine_skips_zero_coefficients(self, pair, c):
        # a zero term adds neither entries nor its denominator 11 to the lcm
        a, b = pair
        pa, pb = int_rows(sparse(a)), int_rows(sparse(b))
        odd = ([{0: 1}] + [{} for _ in a[1:]], 11)
        rows, total = combine([(0, odd), (c, pa), (F(0), pb)], len(a))
        assert total == F(c).denominator * pa[1]
        assert dense(frac_rows(rows, total), len(a[0])) == [[c * x for x in row] for row in a]

    def test_combine_of_no_terms_is_zero(self):
        assert combine([(0, ([{0: 3}], 2))], 1) == ([{}], 1)

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
