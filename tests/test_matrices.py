from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from cycbmw.matrices import mat_mul

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
