"""Command-line front end producing reproducible JSON/CSV reports."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .cellular import cell_datum, classify, gram_half, rank_certify, target_dimension
from .params import (
    GroundParams,
    check_admissible,
    generic_specialization,
    parse_preset,
)
from .seminormal import (
    br2_all,
    build_module,
    identity_suite,
    omega_k_table,
    verify_relations,
)
from .tableaux import count_updown, enumerate_updown, rp_size, shapes_with_f

DEFAULT_MAX_N = 6


def _shape_str(lam) -> str:
    return "|".join(".".join(str(p) for p in comp) if comp else "-" for comp in lam)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float):
        return round(x, 6)
    return x


def _emit(report: dict, args, csv_table=None) -> None:
    if args.format == "csv":
        rows, header = csv_table
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def _cmd_rep(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    blocks = []
    ok = True
    for f, lam in shapes_with_f(args.n, args.r):
        try:
            m = build_module(lam, f, p)
            rel = verify_relations(m)
        except (ValueError, ArithmeticError) as exc:
            ok = False
            blocks.append({"f": f, "shape": _shape_str(lam), "ok": False,
                           "error": str(exc)})
            continue
        ok = ok and rel["ok"]
        blocks.append(
            {
                "f": f,
                "shape": _shape_str(lam),
                "dim": m.dim,
                "ok": rel["ok"],
                "failing": [x["name"] for x in rel["relations"] if not x["pass"]],
                "max_width": max((x["max_width"] for x in rel["relations"]), default=0.0),
            }
        )
    return {"r": args.r, "n": args.n, "blocks": blocks, "ok": ok}, ok


def _cmd_identities(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    blocks = []
    ok = True
    for f, lam in shapes_with_f(args.n, args.r):
        try:
            rep = identity_suite(lam, f, p)
        except (ValueError, ArithmeticError) as exc:
            ok = False
            blocks.append({"f": f, "shape": _shape_str(lam), "ok": False,
                           "error": str(exc)})
            continue
        ok = ok and rep["ok"]
        blocks.append(
            {
                "f": f,
                "shape": _shape_str(lam),
                "ok": rep["ok"],
                "checks": {
                    name: stats for name, stats in sorted(rep["checks"].items())
                },
                "failures": rep["failures"],
            }
        )
    return {"r": args.r, "n": args.n, "blocks": blocks, "ok": ok}, ok


def _cmd_omega(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    a_max = 4 * p.r
    blocks = []
    ok = True
    for f, lam in shapes_with_f(args.n, args.r):
        try:
            table = omega_k_table(lam, f, p, a_max=a_max)
            values = {
                f"k={k} below={_shape_str(shape)}": coeffs
                for (k, shape), coeffs in sorted(table.values.items())
            }
            blocks.append({"f": f, "shape": _shape_str(lam), "ok": True,
                           "values": values})
        except (ValueError, ArithmeticError) as exc:
            ok = False
            blocks.append({"f": f, "shape": _shape_str(lam), "ok": False,
                           "error": str(exc)})
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
    try:
        rep = rank_certify(args.n, args.r, p)
    except (ValueError, ArithmeticError) as exc:
        return {"D": target_dimension(args.n, args.r), "certified": False,
                "error": str(exc)}, False
    return rep, bool(rep["certified"])


def _cmd_gram(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
    if args.n % 2 != 0:
        parser.error("gram needs an even --n: the top layer needs an even strand count")
    if abs(args.ell) > p.r - 1:
        parser.error(f"--ell must satisfy |ell| <= r - 1 = {p.r - 1}")
    report = {"r": args.r, "n": args.n, "ell": args.ell}
    try:
        g = gram_half(args.n, args.ell, p)
    except (ValueError, ArithmeticError) as exc:
        report["error"] = str(exc)
        return report, False
    report.update(value=g["value"], form_zero=g["form_zero"])
    return report, True


def _cmd_classify(args, parser) -> tuple[dict, bool]:
    p = _load_params(args, parser)
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


def _build_parser() -> argparse.ArgumentParser:
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
    max_n = int(os.environ.get("BMW_MAX_N", DEFAULT_MAX_N))
    if not 0 <= args.n <= max_n:
        parser.error(f"--n must be in 0..{max_n} (override with BMW_MAX_N)")
    if args.n == 0 and args.command in _MODULE_COMMANDS:
        parser.error(f"{args.command} needs --n >= 1: a module needs at least one strand")
    if args.format == "csv" and args.command not in _CSV_COMMANDS:
        parser.error(f"--format csv is only supported for {sorted(_CSV_COMMANDS)}")
    report, ok, *csv_table = _COMMANDS[args.command](args, parser)
    _emit(report, args, *csv_table)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run())
