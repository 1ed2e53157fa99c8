from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw.matrices import mat_mul
from cycbmw.scalars import BallContext, BallReal

CTX = BallContext(64)

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


def matrix(rows, cols, entry=SPARSE):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def product_pair(draw, entry=SPARSE):
    n, k, m = draw(DIMS), draw(DIMS), draw(DIMS)
    return draw(matrix(n, k, entry)), draw(matrix(k, m, entry))


def is_exact_zero(x):
    return isinstance(x, (int, F)) and x == 0


class TestMatMul:
    @given(product_pair())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_reference(self, pair):
        a, b = pair
        out = mat_mul(a, b)
        assert out == dense_mul(a, b)
        assert [len(row) for row in out] == [len(b[0])] * len(a)

    @given(product_pair(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_zero_row_and_column_give_fraction_zero(self, pair, data):
        a, b = pair
        i = data.draw(st.integers(0, len(a) - 1))
        j = data.draw(st.integers(0, len(b[0]) - 1))
        a[i] = [0] * len(a[i])
        for row in b:
            row[j] = F(0)
        out = mat_mul(a, b)
        assert out == dense_mul(a, b)
        zeros = out[i] + [row[j] for row in out]
        assert all(type(x) is F and x == 0 for x in zeros)

    @given(product_pair(entry=st.tuples(SPARSE, st.booleans())))
    @settings(max_examples=100, deadline=None)
    def test_interval_entries_enclose_exact_product(self, pair):
        # each entry is (exact value, as interval?); an interval entry,
        # even one enclosing 0, is never skipped, so every output entry
        # with an interval term is an interval enclosing the exact value
        a, b = pair
        exact_a = [[x for x, _ in row] for row in a]
        exact_b = [[x for x, _ in row] for row in b]

        def mixed(m):
            return [[CTX.from_fraction(x) if ball else x for x, ball in row] for row in m]

        out = mat_mul(mixed(a), mixed(b))
        expected = dense_mul(exact_a, exact_b)
        for i, row in enumerate(out):
            for j, x in enumerate(row):
                terms = [
                    (a[i][k], b[k][j]) for k in range(len(b))
                    if not (is_exact_zero(a[i][k][0]) and not a[i][k][1])
                    and not (is_exact_zero(b[k][j][0]) and not b[k][j][1])
                ]
                if any(ball_a or ball_b for (_, ball_a), (_, ball_b) in terms):
                    assert isinstance(x, BallReal)
                    assert x.contains_fraction(expected[i][j])
                else:
                    assert x == expected[i][j]
