"""Command-line front end producing reproducible JSON/CSV reports."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from .cellular import cell_datum, classify, gram_half, rank_certify, target_dimension
from .params import (
    GroundParams,
    certify_generic,
    check_admissible,
    generic_specialization,
    parse_preset,
)
from .seminormal import (
    br2_all,
    build_module,
    identity_suite,
    omega_k_table,
    relation_table,
    verify_relations,
)
from .tableaux import count_updown, enumerate_updown, rp_size, shapes_with_f

DEFAULT_MAX_N = 6


def _shape_str(lam) -> str:
    return "|".join(".".join(str(p) for p in comp) if comp else "-" for comp in lam)


def _fraction_str(x) -> str:
    """json.dumps' default: a Fraction as its string."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _emit(report: dict, args, parser, csv_table=None) -> None:
    if args.format == "csv":
        rows, header = csv_table
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(report, default=_fraction_str, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"cannot write --out {args.out}: {exc}")
    else:
        sys.stdout.write(text)


def _load_params(args, parser) -> GroundParams:
    if args.preset:
        try:
            p = parse_preset(args.preset)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read preset {args.preset}: {exc}")
        if p.r != args.r:
            parser.error(f"preset has r={p.r} but --r is {args.r}")
        return p
    try:
        return generic_specialization(args.r, max(args.n, 2), seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))


# -- command handlers -----------------------------------------------------------
# Each returns (report, every check passed); the commands in _CSV_COMMANDS
# also return their CSV table as (rows, header).


def _cmd_params(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    adm = check_admissible(p)
    report = {
        "r": p.r,
        "q": p.q,
        "u": list(p.u),
        "alpha": p.alpha,
        "rho": p.rho,
        "rho_inv": p.rho_inv,
        "delta": p.delta,
        "omega": {str(a): p.omega(a) for a in range(-2 * p.r, 2 * p.r + 1)},
        "admissible": adm["ok"],
        "admissible_equations": len(adm["entries"]),
    }
    return report, adm["ok"]


def _cmd_tabs(args, parser) -> tuple[dict, bool, tuple]:
    if args.list and args.format == "csv":
        parser.error("tabs --list needs --format json: the CSV table has no column for walks")
    r, n = args.r, args.n
    counts = count_updown(n, r)
    total_sq = sum(c * c for c in counts.values())
    expected = target_dimension(n, r)
    rows = []
    labels = []
    for f, lam in shapes_with_f(n, r):
        c = counts.get(lam, 0)
        entry = {"f": f, "shape": _shape_str(lam), "count": c}
        if args.list:
            entry["tableaux"] = [
                [[sign * node.comp, node.row, node.col] for sign, node in t.steps]
                for t in enumerate_updown(n, lam)
            ]
        labels.append(entry)
        rows.append([r, n, f, _shape_str(lam), c])
    ok = total_sq == expected
    report = {
        "r": r,
        "n": n,
        "labels": labels,
        "total_sq": total_sq,
        "expected": expected,
        "ok": ok,
    }
    return report, ok, (rows, ["r", "n", "f", "shape", "count"])


def _per_label(args, check) -> tuple[list, bool]:
    """One block per label (f, lam): check(f, lam) returns the block, and a
    label whose check raises gets an error block.  Returns (blocks, all ok).
    """
    blocks = []
    for f, lam in shapes_with_f(args.n, args.r):
        try:
            block = check(f, lam)
        except (ValueError, ArithmeticError) as exc:
            block = {"ok": False, "error": str(exc)}
        blocks.append({"f": f, "shape": _shape_str(lam), **block})
    return blocks, all(b["ok"] for b in blocks)


# rep checks the labels' modules as direct sums of at most this many rows (a
# larger module is checked alone), which bounds the memory that the modules
# and their token tables hold at once; 81 rows, the largest relations grid
# of the benchmark (r = 3, n = 3), still goes in one direct sum.  See
# BENCH_direct_sum_relations.json for the measurements behind the value.
REP_GROUP_ROWS = 81


def _cmd_rep(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    # the seminormal modules exist only at generic parameters
    error = _not_generic(args, p)
    if error:
        return error, False
    # every module on n strands checks the same table
    relations = relation_table(args.n, p)
    blocks = []
    group = []  # (block, module) of the labels built since the last check

    def check():
        # one pass of the relation table over the group's direct sum
        try:
            reports = verify_relations([m for _, m in group], relations)
        except (ValueError, ArithmeticError) as exc:
            # a check that raises fails every label of the group
            for block, _ in group:
                block.update(ok=False, error=str(exc))
            reports = []
        for (block, m), rel in zip(group, reports):
            failing = [x for x in rel["relations"] if not x["pass"]]
            block.update(dim=m.dim, ok=rel["ok"], failing=[x["name"] for x in failing])
            if failing:
                block["residuals"] = [
                    {key: x[key] for key in ("name", "instance", "k", "entry", "residual")}
                    for x in failing
                ]
        group.clear()

    for f, lam in shapes_with_f(args.n, args.r):
        block = {"f": f, "shape": _shape_str(lam)}
        blocks.append(block)
        try:
            m = build_module(lam, f, p)
        except (ValueError, ArithmeticError) as exc:
            block.update(ok=False, error=str(exc))
            continue
        if group and sum(g.dim for _, g in group) + m.dim > REP_GROUP_ROWS:
            check()
        group.append((block, m))
    if group:
        check()
    ok = all(b["ok"] for b in blocks)
    return {"r": args.r, "n": args.n, "blocks": blocks, "ok": ok}, ok


def _cmd_identities(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    # the identities hold only at generic parameters, which a preset need not be
    error = _not_generic(args, p)
    if error:
        return error, False
    blocks, ok = _per_label(args, lambda f, lam: identity_suite(lam, f, p))
    return {"r": args.r, "n": args.n, "blocks": blocks, "ok": ok}, ok


def _not_generic(args, p: GroundParams) -> dict | None:
    """The {r, n, error} report of a preset that fails certify_generic, else
    None; generic_specialization certifies its own parameters.
    """
    if not args.preset:
        return None
    cert = certify_generic(p.q, p.u, args.n)
    if cert["ok"]:
        return None
    named = "; ".join(kind if where is None else f"{kind} at {where}"
                      for kind, where in cert["violations"])
    return {"r": args.r, "n": args.n, "error": f"parameters not generic: {named}"}


def _cmd_omega(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    # a table computed at non-generic parameters is no check of the identities
    error = _not_generic(args, p)
    if error:
        return error, False
    a_max = 4 * p.r

    def check(f, lam):
        table = omega_k_table(lam, f, p, a_max)
        values = {
            f"k={k} below={_shape_str(shape)}": coeffs
            for (k, shape), coeffs in table.values.items()
        }
        return {"ok": True, "values": values}

    blocks, ok = _per_label(args, check)
    return {"r": args.r, "n": args.n, "a_max": a_max, "blocks": blocks, "ok": ok}, ok


def _cmd_br2(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    try:
        rep = br2_all(p)
    except (ValueError, ArithmeticError) as exc:
        return {"r": p.r, "ok": False, "error": str(exc)}, False
    report = {
        "r": p.r,
        "modules": [
            {"kind": list(mod["kind"]), "dim": mod["dim"], "ok": mod["ok"]}
            for mod in rep["modules"]
        ],
        "total_dim_sq": rep["total_dim_sq"],
        "expected": rep["expected"],
        "ok": rep["ok"],
    }
    return report, rep["ok"]


def _cmd_basis(args, parser) -> tuple[dict, bool, tuple]:
    cd = cell_datum(args.n, args.r)
    expected = target_dimension(args.n, args.r)
    ok = cd.total_sq == expected
    rows = [
        [f, _shape_str(lam), n_std, n_kappa, n_cosets, size]
        for f, lam, n_std, n_kappa, n_cosets, size in cd.blocks
    ]
    report = {
        "r": args.r,
        "n": args.n,
        "blocks": [
            {"f": f, "shape": _shape_str(lam), "std": n_std, "kappa": n_kappa,
             "cosets": n_cosets, "size": size}
            for f, lam, n_std, n_kappa, n_cosets, size in cd.blocks
        ],
        "total_sq": cd.total_sq,
        "expected": expected,
        "ok": ok,
    }
    return report, ok, (rows, ["f", "shape", "std", "kappa", "cosets", "size"])


def _cmd_rank(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    error = _not_generic(args, p)
    if error:
        return error, False
    try:
        rep = rank_certify(args.n, args.r, p)
    except (ValueError, ArithmeticError) as exc:
        return {"D": target_dimension(args.n, args.r), "certified": False,
                "error": str(exc)}, False
    return {**rep, "elapsed": round(rep["elapsed"], 6)}, bool(rep["certified"])


def _cmd_gram(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    if args.n % 2 != 0:
        parser.error("gram needs an even --n: the top layer needs an even strand count")
    if abs(args.ell) > p.r - 1:
        parser.error(f"--ell must satisfy |ell| <= r - 1 = {p.r - 1}")
    report = {"r": args.r, "n": args.n, "ell": args.ell}
    error = _not_generic(args, p)
    if error:
        report["error"] = error["error"]
        return report, False
    try:
        g = gram_half(args.n, args.ell, p)
    except (ValueError, ArithmeticError) as exc:
        report["error"] = str(exc)
        return report, False
    report.update(value=g["value"], form_zero=g["form_zero"])
    return report, True


def _cmd_classify(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    # the census holds only at generic parameters, which a preset need not be
    error = _not_generic(args, p)
    if error:
        return error, False
    c = classify(args.n, args.r, p)
    report = {
        "r": args.r,
        "n": args.n,
        "labels": [[f, _shape_str(lam)] for f, lam in c["labels"]],
        "excluded": [[f, _shape_str(lam)] for f, lam in c["excluded"]],
    }
    return report, True


_COMMANDS = {
    "params": _cmd_params,
    "tabs": _cmd_tabs,
    "rep": _cmd_rep,
    "identities": _cmd_identities,
    "omega": _cmd_omega,
    "br2": _cmd_br2,
    "basis": _cmd_basis,
    "rank": _cmd_rank,
    "gram": _cmd_gram,
    "classify": _cmd_classify,
}

_CSV_COMMANDS = {"tabs", "basis"}

# Commands that build seminormal modules, which need at least one strand.
_MODULE_COMMANDS = {"rep", "rank", "gram"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first run and reused by every later
    one in the same process.
    """
    parser = argparse.ArgumentParser(
        prog="cycbmw",
        description="Exact-arithmetic workbench for cyclotomic BMW algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("params", "dump ground parameters and check admissibility"),
        ("tabs", "enumerate and count up-down tableaux"),
        ("rep", "build seminormal modules and verify the defining relations"),
        ("identities", "run the exact residue and transport identity suites"),
        ("omega", "tabulate sandwich eigenvalues by both routes"),
        ("br2", "build all two-strand modules and check the dimension census"),
        ("basis", "count the cellular basis index sets"),
        ("rank", "certify linear independence of the evaluated basis"),
        ("gram", "top-layer Gram pairing value"),
        ("classify", "irreducible-label census"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--r", type=int, default=1)
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--preset", type=str, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", type=str, default=None)
        if name == "tabs":
            sp.add_argument("--count", action="store_true",
                            help="counts only (default behavior)")
            sp.add_argument("--list", action="store_true",
                            help="include the walks themselves")
        if name == "gram":
            sp.add_argument("--ell", type=int, default=0)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.r % 2 == 0 or args.r <= 0:
        parser.error("--r must be an odd positive integer")
    try:
        max_n = int(os.environ.get("BMW_MAX_N", DEFAULT_MAX_N))
    except ValueError:
        parser.error(f"BMW_MAX_N must be an integer, got {os.environ['BMW_MAX_N']!r}")
    if not 0 <= args.n <= max_n:
        parser.error(f"--n must be in 0..{max_n} (override with BMW_MAX_N)")
    if args.n == 0 and args.command in _MODULE_COMMANDS:
        parser.error(f"{args.command} needs --n >= 1: a module needs at least one strand")
    if args.format == "csv" and args.command not in _CSV_COMMANDS:
        parser.error(f"--format csv is only supported for {sorted(_CSV_COMMANDS)}")
    report, ok, *csv_table = _COMMANDS[args.command](args, parser)
    _emit(report, args, parser, *csv_table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run())
