"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cycbmw.matrices  # noqa: E402
import cycbmw.seminormal  # noqa: E402
from run import END_TO_END_UNITS, Checker  # noqa: E402
from tracer import Tracer, layer_metrics, layer_unit  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

COUNTS = """\
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from run import Checker, run_pass
from tracer import EXACT_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS, operations
ops = operations(sys.argv[3], 7, limit=WORKLOADS[sys.argv[3]]["slice"])
tracer = Tracer()
p = run_pass(ops, Checker(ops), tracer)
assert not p["failures"], p["failures"]
m = layer_metrics(tracer.aggregate(*p["spans"]), p["counters"], p["pass_s"])
print(json.dumps({k: m[k] for k in EXACT_METRICS}))
"""


def traced_counts(workload: str, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-c", COUNTS, str(BENCH), str(ROOT / "src"), workload],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_exactly(workload):
    # Two fresh interpreters with different string-hash seeds, one workload seed.
    first, second = (traced_counts(workload, h) for h in ("1", "2"))
    assert first == second
    assert first["trace.spans"] > 0


def test_tracer_restores_originals():
    tracer = Tracer()
    with tracer.installed():
        assert cycbmw.seminormal.mat_mul is not cycbmw.matrices.mat_mul
    assert cycbmw.seminormal.mat_mul is cycbmw.matrices.mat_mul
    assert len(tracer) == 0


def _report(**fields) -> str:
    return json.dumps(fields)


def test_checker_rejects_bad_outputs():
    ops = [["rank", "--r", "3", "--n", "2", "--seed", "5"],
           ["gram", "--r", "1", "--n", "2", "--ell", "0", "--seed", "5"],
           ["rep", "--r", "1", "--n", "2", "--seed", "5"]]
    checker = Checker(ops)
    good_rank = _report(D=27, certified=True, precision_bits=512, elapsed=0.1)
    assert checker.check(0, ops[0], 0, good_rank) is None
    # elapsed is volatile and left out of the digest
    assert checker.check(0, ops[0], 0, _report(
        D=27, certified=True, precision_bits=512, elapsed=0.2)) is None
    assert checker.check(0, ops[0], 0, _report(D=26, certified=True)) is not None
    assert checker.check(0, ops[0], 0, _report(D=27, certified=False)) is not None
    assert checker.check(1, ops[1], 0, _report(value=checker.expected[1])) is None
    assert checker.check(1, ops[1], 0, _report(value="7/3")) is not None
    assert checker.check(2, ops[2], 0, _report(ok=True, blocks=[1])) is None
    assert checker.check(2, ops[2], 0, _report(ok=True, blocks=[2])) == \
        "output changed between passes"
    assert checker.check(2, ops[2], 0, _report(ok=False)) is not None
    assert checker.check(2, ops[2], 1, _report(ok=True)) is not None


@pytest.mark.xfail(raises=ArithmeticError, strict=True,
                   reason="known defect: absolute interval tolerance in _gram_matrix_check")
def test_gram_r3_n4_largest_exponents():
    # --seed 11 draws k = (29, -18, 7); the defect keeps gram out of the
    # cellular workload (see workloads.UNMEASURED).
    import cycbmw.cli

    with contextlib.redirect_stdout(io.StringIO()):
        cycbmw.cli.run(["gram", "--r", "3", "--n", "4", "--ell", "1", "--seed", "11"])


def test_operations_follow_the_seed():
    assert operations("cellular", 3) == operations("cellular", 3)
    assert operations("cellular", 3) != operations("cellular", 4)
    assert all(int(argv[-1]) > 0 for argv in operations("exact", 0))


def test_declared_metrics_match_reported():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    names = list(layer_metrics({"total": {}}, Counter(), 1.0)) + ["trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: layer_unit(k) for k in names}
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in declared["workloads"]] == [
        w["why"] for w in WORKLOADS.values()]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
