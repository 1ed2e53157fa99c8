"""Workload definitions: the CLI operations each workload runs per pass.

Every operation is one ``cycbmw.cli.run(argv)`` call.  A workload seed fixes
the ``--seed`` of every operation: each operation gets its own seed drawn from
``random.Random(f"{workload}:{seed}")``, never 0, so that every workload seed
draws its parameters from the same distribution (seed 0 is a special case of
``generic_specialization`` with the smallest exponents) and the per-operation
variation of the parameters averages over the operations of a pass.
"""

from __future__ import annotations

import random

# Operations are listed cheapest first, so that a short prefix is a cheap
# slice of the workload that still reaches every command it runs.
WORKLOADS = {
    "relations": {
        "why": (
            "rep on the criterion-06 grid: dense BallReal mat_mul and Fraction "
            "coercions, the target of the exact gauge and sparse products; "
            "no word evaluation, no elimination"
        ),
        "ops": [
            ["rep", "--r", "1", "--n", "2"],
            ["rep", "--r", "1", "--n", "3"],
            ["rep", "--r", "3", "--n", "2"],
            ["rep", "--r", "1", "--n", "4"],
            ["rep", "--r", "3", "--n", "3"],
        ],
        "slice": 2,
    },
    "cellular": {
        "why": (
            "rank at D=3..105: cell-word evaluation, token cache and interval "
            "elimination; no verify_relations. Left out: D=405 (BMW_EXTENDED, "
            "~155 s per op) and gram r=3 n=4 (fails on 2 of 64 exponent draws)"
        ),
        "ops": [
            ["rank", "--r", "1", "--n", "2"],
            ["rank", "--r", "1", "--n", "3"],
            ["rank", "--r", "3", "--n", "2"],
            ["rank", "--r", "5", "--n", "2"],
            ["rank", "--r", "1", "--n", "4"],
        ],
        "slice": 4,
    },
    "exact": {
        "why": (
            "identities, omega, params, br2, tabs, basis, classify: exact Q "
            "arithmetic in LaurentPoly/RatFunc/TruncSeries and tableau "
            "enumeration; no BallReal, the bypass for matrix-path changes"
        ),
        "ops": [
            ["params", "--r", "5"],
            ["br2", "--r", "5"],
            ["tabs", "--r", "3", "--n", "5"],
            ["basis", "--r", "5", "--n", "4"],
            ["classify", "--r", "3", "--n", "3"],
            ["omega", "--r", "1", "--n", "4"],
            ["identities", "--r", "3", "--n", "4"],
            ["omega", "--r", "3", "--n", "3"],
            ["identities", "--r", "5", "--n", "3"],
        ],
        "slice": 7,
    },
}

# Left out on purpose; recorded in every report.
UNMEASURED = (
    "rank at D=405 (r=3, n=4; the BMW_EXTENDED gate case) is not measured: "
    "one operation takes about 155 s, which leaves no room for two passes "
    "inside the 180 s limit of one benchmark run. "
    "gram --r 3 --n 4 --ell 1 is not measured: it raises 'gram value mismatch "
    "in the block image' when generic_specialization draws the exponents "
    "k = (28, -17, 7) or (29, -18, 7), 2 of its 64 draws (e.g. --seed 81, "
    "--seed 11), because _gram_matrix_check compares interval widths with an "
    "absolute tolerance; test_bench.py keeps that defect as an expected failure"
)


def operations(workload: str, seed: int, limit: int | None = None) -> list[list[str]]:
    """The argv of every operation of one pass, each with its own --seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = spec["ops"] if limit is None else spec["ops"][:limit]
    return [argv + ["--seed", str(rng.randrange(1, 2**31))] for argv in ops]
