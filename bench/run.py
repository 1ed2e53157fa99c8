"""cycbmw benchmark: run one workload of CLI operations, check every output,
and print its metrics.

    python3 bench/run.py --workload relations --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/cycbmw``; the program is
imported from that source tree, nothing is installed.

An operation is one in-process ``cycbmw.cli.run(argv)`` call with stdout
captured.  The loop is closed with one client: the next operation starts when
the previous one returns.  A pass runs every operation of the workload once;
passes repeat until ``--seconds`` have been measured, and there are always at
least two passes, so that the per-operation output digests of two passes can
be compared.  Every operation builds its own ``GroundParams`` through the CLI,
so no cache carries over from one operation to the next.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median of
several fresh interpreters importing ``cycbmw.cli`` and finishing one
``params --r 1``), ``pass_ref`` (the median over passes of the pass's wall
time divided by the mean time of a reference loop sampled during that pass;
see ``HostSpeed``) and ``peak_rss_mb`` (this process's ``ru_maxrss``).  The
raw wall seconds per pass, ``pass_s``, and the per-command sums are printed
with their quartiles and sample counts and kept in the report file.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (see ``tracer.py``) plus the tracing overhead,
traced over untraced ``pass_s``.  Counts are per pass and repeat exactly;
times are per-pass medians.

Human-readable lines go to stdout first, a JSON report with every sample and
the run context goes to ``bench/out/``, and the last stdout line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any operation failed its check, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from workloads import UNMEASURED, WORKLOADS, operations  # noqa: E402

END_TO_END_UNITS = {"pass_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_RUNS = 9
SETUP_CODE = """\
import contextlib, io, time
t0 = time.perf_counter()
import cycbmw.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cycbmw.cli.run(["params", "--r", "1"])
elapsed = time.perf_counter() - t0
if code != 0:
    raise SystemExit(f"params --r 1 exited {code}")
print(elapsed)
"""


def _flags(argv: list[str]) -> dict:
    return {argv[i][2:]: int(argv[i + 1]) for i in range(1, len(argv) - 1, 2)}


def target_dimension(r: int, n: int) -> int:
    """r^n (2n-1)!!, recomputed here rather than taken from the program."""
    out = r ** n
    for k in range(1, 2 * n, 2):
        out *= k
    return out


class Checker:
    """Checks each operation's output; remembers digests across passes."""

    def __init__(self, ops: list[list[str]]):
        from cycbmw.params import generic_specialization

        self.digests: dict[int, str] = {}
        self.expected: dict[int, str] = {}
        for i, argv in enumerate(ops):
            if argv[0] == "gram":
                f = _flags(argv)
                p = generic_specialization(f["r"], max(f["n"], 2), seed=f["seed"])
                self.expected[i] = str(p.omega(f["ell"]) ** (f["n"] // 2))

    def check(self, i: int, argv: list[str], code, text: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if "ok" in report and report["ok"] is not True:
            return "ok is not true"
        cmd, f = argv[0], _flags(argv)
        if cmd == "params" and report.get("admissible") is not True:
            return "admissible is not true"
        if cmd == "rank":
            if report.get("certified") is not True:
                return "rank not certified"
            if report.get("D") != target_dimension(f["r"], f["n"]):
                return f"D={report.get('D')} != r^n (2n-1)!!"
            report.pop("elapsed", None)
        if cmd == "gram" and report.get("value") != self.expected[i]:
            return f"gram value {report.get('value')} != {self.expected[i]}"
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            return "output changed between passes"
        return None


REF_EVERY_S = 0.05


def reference_loop() -> dict:
    """Fixed work whose duration tracks the host's current speed, mixing the
    program's two kinds of scalar work: integer arithmetic (the mantissas of
    interval endpoints) and Fraction products accumulated in a dict (the
    exact polynomial code).
    """
    s = 0
    for i in range(5_000):
        s += i * i % 7
    terms: dict = {0: s}
    for i in range(1, 12):
        for j in range(1, 12):
            k = (i + j) % 11
            terms[k] = terms.get(k, 0) + Fraction(i, j) * Fraction(j + 1, i + 2)
    return terms


class HostSpeed:
    """Runs ``reference_loop`` on a timer signal every ``REF_EVERY_S`` seconds
    while untraced operations run, and records how long each run took.

    On a shared host the speed of this interpreter swings by 10-20% over
    seconds to minutes, and those swings hit the program and the reference
    loop alike.  A pass time divided by the mean reference time measured
    during that pass (``pass_ref``) cancels them; the time the handler takes
    is subtracted from the operation it interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_op(argv: list[str]):
    """One operation: (wall seconds, exit code, captured stdout)."""
    import cycbmw.cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cycbmw.cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        traceback.print_exc()
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, buf.getvalue()


def run_pass(ops, checker: Checker, tracer=None, first_op: int = 0) -> dict:
    """Run every operation once.  Untraced, sample the host speed; traced,
    record spans and counters instead.
    """
    times, failures = [], []
    traced = tracer is not None
    speed = HostSpeed()
    if traced:
        lo = len(tracer)
        tracer.counters = Counter()
    with tracer.installed() if traced else speed.sampling():
        for i, argv in enumerate(ops):
            if traced:
                tracer.op_id = first_op + i
            spent = speed.spent
            seconds, code, text = run_op(argv)
            times.append(seconds - (speed.spent - spent))
            reason = checker.check(i, argv, code, text)
            if reason:
                failures.append({"op": " ".join(argv), "reason": reason})
    out = {"traced": traced, "first_op": first_op, "pass_s": sum(times), "op_s": times,
           "failures": failures}
    if speed.samples:
        out["ref_s"] = statistics.fmean(speed.samples)
        out["ref_samples"] = len(speed.samples)
        out["pass_ref"] = out["pass_s"] / out["ref_s"]
    if traced:
        out["spans"] = (lo, len(tracer))
        out["counters"] = tracer.counters
    return out


def measure_setup() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q[0], "median": statistics.median(values), "p75": q[2],
            "samples": len(values)}


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def run_context(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "cycbmw").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "mpmath": _version("mpmath"),
        "sympy": _version("sympy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "why": WORKLOADS[workload]["why"],
        "unmeasured": UNMEASURED,
        "loop": "closed, one client, single-threaded, in-process cli.run calls",
    }


def command_seconds(ops, passes) -> dict:
    """Median over passes of the summed seconds of each command's operations."""
    out = {}
    for cmd in sorted({argv[0] for argv in ops}):
        per_pass = [sum(t for argv, t in zip(ops, p["op_s"]) if argv[0] == cmd)
                    for p in passes]
        out[f"{cmd}_s"] = quartiles(per_pass)
    return out


def baseline(agg: dict, last: dict, ops) -> dict:
    """The ROADMAP baseline claims, recomputed from one traced pass: the
    mat_mul share of the pass, the coercion share of mat_mul and how many
    coercions are of exact zeros, and for each rank operation the split
    between word evaluation and elimination (rank_certify's self time plus
    the coercions it makes directly, which are the elimination's).
    """
    layer = last["layer"]

    def under(name, parent, op=None):
        return sum(v for (o, n, p), v in agg["by_parent"].items()
                   if n == name and p == parent and op in (None, o)) / 1e9

    mm_s = layer["matrices.mat_mul_s"]
    out = {
        "mat_mul_share_of_traced_pass": layer["matrices.mat_mul_share"],
        "coerce_share_of_mat_mul": (
            under("scalars.ball_coerce", "matrices.mat_mul") / mm_s if mm_s else None),
        "coerce_calls": layer["scalars.ball_coerce_calls"],
        "coerce_zero_ratio": layer["scalars.ball_coerce_zero_ratio"],
    }
    for i, argv in enumerate(ops):
        if argv[0] != "rank":
            continue
        op = last["first_op"] + i
        per_op = agg["per_op"]
        eval_s = per_op.get((op, "cellular.eval_word"), (0, 0, 0))[1] / 1e9
        elim_s = (per_op.get((op, "cellular.rank_certify"), (0, 0, 0))[2] / 1e9
                  + under("scalars.ball_coerce", "cellular.rank_certify", op))
        f = _flags(argv)
        out[f"rank_D{target_dimension(f['r'], f['n'])}"] = {
            "eval_word_s": eval_s,
            "elimination_s": elim_s,
            "build_rep_s": per_op.get((op, "cellular.build_rep"), (0, 0, 0))[1] / 1e9,
            "eval_share": eval_s / (eval_s + elim_s) if eval_s + elim_s else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cycbmw" / "cli.py").is_file():
        print(f"error: no cycbmw source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import EXACT_METRICS, RATIO_BASES, Tracer, layer_metrics, layer_unit

    context = run_context(args.workload, args.seed)
    ops = operations(args.workload, args.seed)
    setup = measure_setup() if not args.trace else []
    checker = Checker(ops)
    tracer = Tracer() if args.trace else None

    passes = []
    t0 = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t0 < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        p = run_pass(ops, checker, tracer if traced else None, len(passes) * len(ops))
        passes.append(p)
        print(f"pass {len(passes)}{' traced' if traced else ''}: {p['pass_s']:.3f} s"
              f"{'; FAILED ' + json.dumps(p['failures']) if p['failures'] else ''}",
              flush=True)

    attempted = len(passes) * len(ops)
    failed = sum(len(p["failures"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    detail = {
        "context": context,
        "ops": [" ".join(a) for a in ops],
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "counters")}
                   for p in passes],
        "pass_s": quartiles([p["pass_s"] for p in plain]),
        "pass_ref": quartiles([p["pass_ref"] for p in plain]),
        "commands": command_seconds(ops, plain),
        "ops_failed_frac": failed / attempted,
    }
    if tracer is not None:
        traced_passes = [p for p in passes if p["traced"]]
        for p in traced_passes:
            agg = tracer.aggregate(*p["spans"])
            p["layer"] = layer_metrics(agg, p["counters"], p["pass_s"])
        first = traced_passes[0]["layer"]
        metrics = {
            k: v if k in EXACT_METRICS
            else statistics.median(p["layer"][k] for p in traced_passes)
            for k, v in first.items()
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["pass_s"] for p in traced_passes) / detail["pass_s"]["median"])
        detail["counts_repeat_across_passes"] = all(
            p["layer"][k] == first[k] for p in traced_passes for k in EXACT_METRICS)
        detail["layer_per_pass"] = [p["layer"] for p in traced_passes]
        detail["baseline"] = baseline(agg, traced_passes[-1], ops)
        detail["ratio_bases"] = {
            k: (base, metrics.get(base)) for k, base in RATIO_BASES.items()}
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {
            "pass_ref": detail["pass_ref"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        detail["setup_s"] = quartiles(setup)
        units = END_TO_END_UNITS

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(f"{stem}.spans.tsv.gz", {
            p["first_op"] + i: argv for p in passes if p["traced"]
            for i, argv in enumerate(ops)})

    for key, value in context.items():
        print(f"context {key}: {value}")
    q = detail["pass_s"]
    print(f"pass_s untraced: median {q['median']:.4f} s, p25 {q['p25']:.4f}, "
          f"p75 {q['p75']:.4f}, {q['samples']} passes of {len(ops)} ops")
    q = detail["pass_ref"]
    print(f"pass_ref untraced: median {q['median']:.1f}, p25 {q['p25']:.1f}, "
          f"p75 {q['p75']:.1f} reference loops")
    for cmd, q in detail["commands"].items():
        print(f"{cmd}: median {q['median']:.4f} s per pass over {q['samples']} passes")
    print(f"ops_failed_frac: {failed}/{attempted}")
    if tracer is not None:
        for k, (base, n) in detail["ratio_bases"].items():
            print(f"{k}: {metrics[k]:.4f} over {base}"
                  f"{f' = {n}' if n is not None else ''} per traced pass")
        print("baseline:", json.dumps(detail["baseline"], sort_keys=True))
        print("counts repeat across traced passes:", detail["counts_repeat_across_passes"])
    print(f"report: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
