"""Span tracer for traced benchmark passes.

Each traced function is wrapped at the attribute through which its consumer
reaches it: the module global of the importing module (``cycbmw.seminormal
.mat_mul``) or the class attribute (``BallContext.from_fraction``).  Nothing in
``src/`` is edited; ``Tracer.installed()`` patches on entry and restores the
originals on exit.

A span is (name, start, end, parent span, operation id), kept in flat arrays
in memory.  No traced function calls itself, so a name's inclusive time is the
plain sum of its spans' durations.  Self time is a span's duration minus the
durations of its direct children: the program is single-threaded, so the
children of a span never overlap one another.  Counters are taken before a
span starts or after it ends, so their cost lands in the caller's self time.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from collections import Counter, defaultdict
from fractions import Fraction

import cycbmw.cellular
import cycbmw.cli
import cycbmw.params
import cycbmw.seminormal
from cycbmw.params import GroundParams
from cycbmw.scalars import BallContext, LaurentPoly

ELEMENTWISE = ("mat_add", "mat_sub", "mat_scale", "mat_diag", "mat_identity")


def _is_exact_zero(x) -> bool:
    return isinstance(x, (int, Fraction)) and x == 0


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    # -- recording -------------------------------------------------------------

    def _wrap(self, span_name, fn, before=None, after=None):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        start, end, names, parents, ops = self.start, self.end, self.name, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters measured at the boundary ---------------------------------------

    def _count_mat_mul(self, args):
        a, b = args
        rows, inner, cols = len(a), len(b), len(b[0])
        col_nonzero = [0] * inner
        for row in a:
            for k, x in enumerate(row):
                if not _is_exact_zero(x):
                    col_nonzero[k] += 1
        useful = 0
        for k, row in enumerate(b):
            if col_nonzero[k]:
                useful += col_nonzero[k] * sum(1 for x in row if not _is_exact_zero(x))
        self.counters["matrices.entry_mults"] += rows * inner * cols
        self.counters["matrices.useful_mults"] += useful

    def _count_coerce(self, args):
        if args[1] == 0:
            self.counters["scalars.coerce_zero"] += 1

    def _count_token(self, args):
        tok, module = args
        if tok in getattr(module, "_word_cache", ()):
            self.counters["cellular.token_hits"] += 1

    def _count_word(self, args):
        self.counters["cellular.word_tokens"] += len(args[0])

    def _count_walks(self, result):
        self.counters["tableaux.walks"] += len(result)

    def _targets(self):
        """(span name, owner, attribute, before, after) for every wrapped call."""
        cli, sem, cel, par = cycbmw.cli, cycbmw.seminormal, cycbmw.cellular, cycbmw.params
        out = [
            ("cli.run", cli, "run", None, None),
            ("params.generic_specialization", cli, "generic_specialization", None, None),
            ("params.omega", GroundParams, "omega", None, None),
            ("seminormal.verify_relations", cli, "verify_relations", None, None),
            ("seminormal.identity_suite", cli, "identity_suite", None, None),
            ("seminormal.omega_k_table", cli, "omega_k_table", None, None),
            ("cellular.rank_certify", cli, "rank_certify", None, None),
            ("cellular.build_rep", cel, "build_rep", None, None),
            ("cellular.eval_word", cel, "eval_word_blocks", self._count_word, None),
            ("cellular.token_matrix", cel, "token_matrix", self._count_token, None),
            ("scalars.ball_coerce", BallContext, "from_fraction", self._count_coerce, None),
            ("scalars.ball_sqrt", sem, "ball_sqrt", None, None),
            ("scalars.poly_mul", LaurentPoly, "__mul__", None, None),
            ("scalars.poly_mul", LaurentPoly, "__rmul__", None, None),
        ]
        for owner in (cli, sem):
            out.append(("tableaux.enumerate_updown", owner, "enumerate_updown",
                        None, self._count_walks))
        for owner in (cli, cel):
            out.append(("seminormal.build_module", owner, "build_module", None, None))
        for owner in (sem, par):
            out.append(("scalars.expand_series", owner, "expand_series", None, None))
        for owner in (sem, cel):
            out.append(("matrices.mat_mul", owner, "mat_mul", self._count_mat_mul, None))
            for attr in ELEMENTWISE:
                out.append((f"matrices.{attr}", owner, attr, None, None))
        return out

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for span_name, owner, attr, before, after in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span_name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-name count, inclusive and self nanoseconds over spans [lo, hi),
        in total and per operation, plus inclusive nanoseconds per
        (operation, name, parent name).
        """
        start, end, name, parent, op = self.start, self.end, self.name, self.parent, self.op
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        total = defaultdict(lambda: [0, 0, 0])
        per_op = defaultdict(lambda: [0, 0, 0])
        by_parent = Counter()
        names = self.names
        for i in range(lo, hi):
            dur = end[i] - start[i]
            n = names[name[i]]
            for acc in (total[n], per_op[(op[i], n)]):
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - child[i - lo]
            p = parent[i]
            by_parent[(op[i], n, names[name[p]] if p >= 0 else None)] += dur
        return {"total": dict(total), "per_op": dict(per_op), "by_parent": by_parent}

    def write(self, path, op_argv: dict) -> None:
        """Write every span as a gzipped TSV: name, start_ns, end_ns, parent
        span index (-1 for an operation root), operation id; operation ids
        are resolved to argv in the header lines.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for op_id, argv in sorted(op_argv.items()):
                fh.write(f"# op {op_id} {' '.join(argv)}\n")
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            fh.writelines(
                f"{names[n]}\t{s}\t{e}\t{p}\t{o}\n"
                for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.op)
            )


def layer_metrics(agg: dict, counters: Counter, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass, in seconds and counts."""
    tot = agg["total"]

    def calls(n):
        return tot.get(n, (0, 0, 0))[0]

    def incl(n):
        return tot.get(n, (0, 0, 0))[1] / 1e9

    def self_s(n):
        return tot.get(n, (0, 0, 0))[2] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    mults = counters["matrices.entry_mults"]
    return {
        "matrices.mat_mul_calls": calls("matrices.mat_mul"),
        "matrices.mat_mul_s": incl("matrices.mat_mul"),
        "matrices.mat_mul_entry_mults": mults,
        "matrices.mat_mul_useful_ratio": ratio(counters["matrices.useful_mults"], mults),
        "matrices.mat_mul_share": ratio(incl("matrices.mat_mul"), pass_s),
        "matrices.elementwise_s": sum(incl(f"matrices.{a}") for a in ELEMENTWISE),
        "scalars.ball_coerce_calls": calls("scalars.ball_coerce"),
        "scalars.ball_coerce_s": incl("scalars.ball_coerce"),
        "scalars.ball_coerce_zero_ratio": ratio(
            counters["scalars.coerce_zero"], calls("scalars.ball_coerce")),
        "scalars.ball_sqrt_calls": calls("scalars.ball_sqrt"),
        "scalars.poly_mul_calls": calls("scalars.poly_mul"),
        "scalars.poly_mul_s": incl("scalars.poly_mul"),
        "scalars.expand_series_calls": calls("scalars.expand_series"),
        "scalars.expand_series_s": incl("scalars.expand_series"),
        "seminormal.build_module_calls": calls("seminormal.build_module"),
        "seminormal.build_module_s": incl("seminormal.build_module"),
        "seminormal.verify_relations_self_s": self_s("seminormal.verify_relations"),
        "seminormal.identity_suite_s": incl("seminormal.identity_suite"),
        "seminormal.omega_k_table_s": incl("seminormal.omega_k_table"),
        "cellular.build_rep_s": incl("cellular.build_rep"),
        "cellular.eval_word_calls": calls("cellular.eval_word"),
        "cellular.eval_word_s": incl("cellular.eval_word"),
        "cellular.word_tokens": counters["cellular.word_tokens"],
        "cellular.token_matrix_calls": calls("cellular.token_matrix"),
        "cellular.token_cache_hit_ratio": ratio(
            counters["cellular.token_hits"], calls("cellular.token_matrix")),
        "cellular.elim_s": self_s("cellular.rank_certify"),
        "tableaux.enumerate_updown_calls": calls("tableaux.enumerate_updown"),
        "tableaux.enumerate_updown_s": incl("tableaux.enumerate_updown"),
        "tableaux.walks": counters["tableaux.walks"],
        "params.specialize_s": incl("params.generic_specialization"),
        "params.omega_calls": calls("params.omega"),
        "cli.self_s": self_s("cli.run"),
        "trace.spans": sum(v[0] for v in tot.values()),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_share")) else "count"


# The count each ratio is taken over.
RATIO_BASES = {
    "matrices.mat_mul_useful_ratio": "matrices.mat_mul_entry_mults",
    "matrices.mat_mul_share": "traced pass_s",
    "scalars.ball_coerce_zero_ratio": "scalars.ball_coerce_calls",
    "cellular.token_cache_hit_ratio": "cellular.token_matrix_calls",
    "trace.overhead_ratio": "untraced pass_s",
}

# Counts must repeat exactly between runs of one seed; times need not.
EXACT_METRICS = tuple(
    k for k in layer_metrics({"total": {}}, Counter(), 1.0)
    if k.endswith(("_calls", "_mults", "_ratio", "word_tokens", "walks", "spans"))
)
