"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each."""

import os
import random
import time
from fractions import Fraction as F
from math import factorial

import pytest

from cycbmw.cellular import gram_half, rank_certify, target_dimension
from cycbmw.params import (
    check_admissible,
    generic_specialization,
    wtilde_closed,
    wtilde_rational,
)
from cycbmw.scalars import RatFunc, expand_series
from cycbmw.seminormal import (
    br2_all,
    br2_build,
    br2_verify,
    build_module,
    det_Ad,
    det_Ad_brute,
    identity_suite,
    omega_k_table,
    verify_relations,
)
from cycbmw.tableaux import count_updown, enumerate_cosets, shapes_with_f


def report(num: int, desc: str, ok: bool, elapsed: float, budget: float):
    line = (f"criterion {num:2d} [{'PASS' if ok and elapsed < budget else 'FAIL'}] "
            f"{desc} ({elapsed:.2f}s / budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_two_strand_census():
    t0 = time.perf_counter()
    p = generic_specialization(3, 2)
    rep = br2_all(p)
    ok = rep["ok"] and rep["total_dim_sq"] == 27
    ok = ok and all(m["ok"] for m in rep["modules"])
    ok = ok and sum(1 for m in rep["modules"] if m["dim"] == 1) == 2 * 3
    ok = ok and sum(1 for m in rep["modules"] if m["dim"] == 2) == 3
    report(1, "two-strand modules verified exactly, sum dim^2 = 27",
           ok, time.perf_counter() - t0, 5)


def test_criterion_02_dimension_identity():
    t0 = time.perf_counter()
    ok = True
    for r, n_max in [(1, 6), (3, 4), (5, 3)]:
        for n in range(2, n_max + 1):
            counts = count_updown(n, r)
            ok = ok and sum(c * c for c in counts.values()) == target_dimension(n, r)
    report(2, "sum of squared walk counts = r^n (2n-1)!! on all listed (r,n)",
           ok, time.perf_counter() - t0, 30)


def test_criterion_03_coset_counts():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 9):
        for f in range(0, n // 2 + 1):
            expected = factorial(n) // (factorial(n - 2 * f) * factorial(f) * 2 ** f)
            ok = ok and len(enumerate_cosets(f, n)) == expected
    report(3, "arc coset counts match n!/((n-2f)! f! 2^f) for n <= 8",
           ok, time.perf_counter() - t0, 5)


def test_criterion_04_admissibility():
    t0 = time.perf_counter()
    ok = True
    for r in (1, 3, 5):
        p = generic_specialization(r, 2)
        rep = check_admissible(p, b_range=(-2 * r, 2 * r), a_max=3 * r)
        ok = ok and rep["ok"]
    report(4, "both admissibility equation families hold exactly at r in {1,3,5}",
           ok, time.perf_counter() - t0, 10)


def test_criterion_05_generating_series():
    t0 = time.perf_counter()
    ok = True
    for r in (1, 3):
        p = generic_specialization(r, 2)
        plus = wtilde_closed(p, "+", 4 * r)
        minus = wtilde_closed(p, "-", 4 * r)
        ok = ok and plus == [p.omega(a) for a in range(4 * r + 1)]
        ok = ok and minus[1:] == [p.omega(-a) for a in range(1, 4 * r + 1)]
    p = generic_specialization(3, 2)
    y = RatFunc.y()
    one = RatFunc.const(1)
    dr = RatFunc.const(p.delta_inv * p.rho)
    lhs = (wtilde_rational(p, "+") - y * y / (y * y - one) + dr) * (
        wtilde_rational(p, "-") - one / (y * y - one) - dr
    )
    rhs = y * y / ((one - y * y) ** 2) - RatFunc.const(p.delta_inv ** 2)
    ok = ok and expand_series(lhs, 8, at="inf") == expand_series(rhs, 8, at="inf")
    report(5, "closed series reproduce all moments; product identity to order 8",
           ok, time.perf_counter() - t0, 10)


def test_criterion_06_seminormal_relations():
    t0 = time.perf_counter()
    ok = True
    for r, n_max in [(1, 4), (3, 3)]:
        for n in range(2, n_max + 1):
            p = generic_specialization(r, n)
            for f, lam in shapes_with_f(n, r):
                m = build_module(lam, f, p)
                rel = verify_relations(m)
                ok = ok and rel["ok"]
    report(6, "all defining relations vanish exactly over Q on every module",
           ok, time.perf_counter() - t0, 300)


def test_criterion_07_exact_identity_suites():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 5):
        p = generic_specialization(3, n)
        for f, lam in shapes_with_f(n, 3):
            rep = identity_suite(lam, f, p)
            ok = ok and rep["ok"]
    report(7, "residue, transport, and content identity suites exact at r=3, n <= 4",
           ok, time.perf_counter() - t0, 120)


def test_criterion_08_omega_consistency():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 4):
        p = generic_specialization(3, n)
        for f, lam in shapes_with_f(n, 3):
            try:
                table = omega_k_table(lam, f, p, a_max=4 * 3)
            except (ValueError, ArithmeticError):
                ok = False
                continue
            ok = ok and all(v[0] == p.omega(0) for v in table.values.values())
    report(8, "recursion route equals residue route to order 12 at r=3, n <= 3",
           ok, time.perf_counter() - t0, 60)


def test_criterion_09_rank_certification():
    t0 = time.perf_counter()
    ok = True
    for r, n, d in [(1, 2, 3), (1, 3, 15), (3, 2, 27), (1, 4, 105)]:
        p = generic_specialization(r, n)
        rep = rank_certify(n, r, p)
        ok = ok and rep["certified"] and rep["D"] == d
    report(9, "cellular images certified full rank at D = 3, 15, 27, 105",
           ok, time.perf_counter() - t0, 600)


@pytest.mark.skipif(not os.environ.get("BMW_EXTENDED"),
                    reason="extended D=405 run; set BMW_EXTENDED=1 to enable")
def test_criterion_09_extended_rank_405():
    p = generic_specialization(3, 3)
    rep = rank_certify(3, 3, p)
    assert rep["certified"] and rep["D"] == 405


@pytest.mark.skipif(not os.environ.get("BMW_EXTENDED"),
                    reason="extended D=945 and D=1875 runs; set BMW_EXTENDED=1 to enable")
@pytest.mark.parametrize("r,n,d", [(1, 5, 945), (5, 3, 1875)])
def test_criterion_09_extended_rank_large(r, n, d):
    p = generic_specialization(r, n)
    rep = rank_certify(n, r, p)
    assert rep["certified"] and rep["D"] == d


def test_criterion_10_gram_values():
    t0 = time.perf_counter()
    p = generic_specialization(3, 2)
    ok = all(gram_half(2, ell, p)["value"] == p.omega(ell) for ell in range(-2, 3))
    p4 = generic_specialization(3, 4)
    ok = ok and gram_half(4, 1, p4)["value"] == p4.omega(1) ** 2
    zero = gram_half(2, 1, p, omega=lambda a: 0)
    ok = ok and zero["value"] == 0 and zero["form_zero"] is True
    report(10, "top-layer Gram values are moment powers; zero case flagged",
           ok, time.perf_counter() - t0, 60)


def test_criterion_11_determinant_and_row_sums():
    t0 = time.perf_counter()
    rng = random.Random(11)
    ok = True
    for d in range(1, 6):
        vals = []
        while len(vals) < d:
            x = F(rng.randint(2, 50), rng.randint(1, 9))
            if x not in vals and x * x != 1 and all(x * y != 1 for y in vals):
                vals.append(x)
        ok = ok and det_Ad(vals) == det_Ad_brute(vals)
    p = generic_specialization(5, 2)
    for d in (1, 3, 5):
        mod = br2_build(("big", tuple(range(1, d + 1))), p)
        ok = ok and br2_verify(mod)["ok"]
    report(11, "eigenvalue determinant closed form and row-sum identity exact, d <= 5",
           ok, time.perf_counter() - t0, 30)
