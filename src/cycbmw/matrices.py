"""Matrix helpers over exact scalars.

A module's generators are sparse rows: a list with one ``{column: entry}``
dict per row that never stores an exact zero.  The seminormal generators are
mostly zeros (X_i is diagonal, T_k and E_k have a few entries per row), so
they are assembled in this form and words are multiplied in it, touching
nonzero entries only.  ``sparse_diag`` writes a diagonal matrix in it, and
``dense`` expands it to rows of Fractions for output.

Products run fraction-free: a matrix is a pair ``(rows, den)`` of sparse
rows of ints and one positive int denominator, standing for rows/den.
``mat_mul`` uses only ``*``, ``+`` and truthiness, so it multiplies int rows
with no gcd per entry, and the denominators of a product multiply.  Sums of
words are formed by ``seminormal.word_sum``.  ``int_rows`` and
``frac_rows`` convert at the boundary.  The dense ``mat_*`` helpers serve
the Gram check and the benchmark tracer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list


def mat_zero(n: int) -> Matrix:
    return [[Fraction(0)] * n for _ in range(n)]


def mat_identity(n: int) -> Matrix:
    return mat_diag([Fraction(1)] * n)


def mat_diag(entries) -> Matrix:
    n = len(entries)
    out = mat_zero(n)
    for i, x in enumerate(entries):
        out[i][i] = x
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


# -- sparse rows --------------------------------------------------------------


def sparse_diag(entries) -> list:
    """Sparse rows of the diagonal matrix with the given entries."""
    return [{i: x} if x else {} for i, x in enumerate(entries)]


def dense(a: list, ncols: int) -> Matrix:
    """Dense rows of a sparse-row matrix; absent entries are ``Fraction(0)``."""
    out = []
    for row in a:
        full = [Fraction(0)] * ncols
        for j, x in row.items():
            full[j] = x
        out.append(full)
    return out


def int_rows(rows: list) -> tuple[list, int]:
    """(int rows, den) of sparse rational rows; den is the lcm of the entry
    denominators.
    """
    den = lcm(*(x.denominator for row in rows for x in row.values()))
    return [{j: x.numerator * (den // x.denominator) for j, x in row.items()}
            for row in rows], den


def frac_rows(rows: list, den: int) -> list:
    """Sparse Fraction rows of the pair (rows, den)."""
    return [{j: Fraction(x, den) for j, x in row.items()} for row in rows]


def mat_mul(a: list, b: list) -> list:
    """Sparse-row product a·b: every term pairs a nonzero of a with a nonzero
    of b, and entries that cancel to zero are dropped.
    """
    out = []
    for row in a:
        if len(row) == 1:
            # a product of two nonzeros is nonzero
            (k, x), = row.items()
            out.append({j: x * y for j, y in b[k].items()})
            continue
        acc: dict = {}
        for k, x in row.items():
            for j, y in b[k].items():
                if j in acc:
                    acc[j] += x * y
                else:
                    acc[j] = x * y
        out.append({j: v for j, v in acc.items() if v})
    return out
