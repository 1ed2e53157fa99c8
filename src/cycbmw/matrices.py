"""Matrix helpers generic over the scalar backend, with a zero-skipping
product.

Matrices are plain lists of rows; entries may be Fractions, symbolic
scalars, or interval reals, mixed freely as long as + and * compose.
The seminormal generators are mostly exact zeros (X_i is diagonal, T_k
and E_k are block-sparse), so ``mat_mul`` forms each output row from the
nonzero entries of both factors only.  An exact zero is an ``int`` or
``Fraction`` equal to 0; an interval entry is never skipped, even when it
encloses 0, so products of the interval oracle stay enclosures.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list

_EXACT = (int, Fraction)


def mat_zero(n: int, zero=Fraction(0)) -> Matrix:
    return [[zero for _ in range(n)] for _ in range(n)]


def mat_identity(n: int, one=Fraction(1), zero=Fraction(0)) -> Matrix:
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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
    """Product a·b that skips every term with an exact-zero factor.

    Output entries that receive no term are ``Fraction(0)``.
    """
    m = len(b[0])
    b_rows = [
        [(j, y) for j, y in enumerate(row) if not (isinstance(y, _EXACT) and not y)]
        for row in b
    ]
    out = []
    for row in a:
        acc = [Fraction(0)] * m
        for x, b_row in zip(row, b_rows):
            if not b_row or (isinstance(x, _EXACT) and not x):
                continue
            for j, y in b_row:
                acc[j] += x * y
        out.append(acc)
    return out
