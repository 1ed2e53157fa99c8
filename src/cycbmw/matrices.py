"""Small dense-matrix helpers generic over the scalar backend.

Matrices are plain lists of rows; entries may be Fractions, symbolic
scalars, or interval reals, mixed freely as long as + and * compose.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list


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
    n = len(a)
    m = len(b[0])
    inner = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_equal_exact(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
