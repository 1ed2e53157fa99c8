"""Matrix helpers over exact scalars, with a zero-skipping product.

Matrices are plain lists of rows of Fractions (or ints).  The seminormal
generators are mostly zeros (X_i is diagonal, T_k and E_k are block-sparse),
so ``mat_mul`` forms each output row from the nonzero entries of both
factors only.
"""

from __future__ import annotations

from fractions import Fraction

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product a·b that skips every term with a zero factor.

    Output entries that receive no term are ``Fraction(0)``.
    """
    m = len(b[0])
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * m
        for x, b_row in zip(row, b_rows):
            if not b_row or not x:
                continue
            for j, y in b_row:
                acc[j] += x * y
        out.append(acc)
    return out
