import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycbmw import cli
from cycbmw.cellular import RANK_PRIMES, build_rep, residue_matrix
from cycbmw.cli import run
from cycbmw.params import GroundParams, certify_generic, generic_specialization
from cycbmw.seminormal import build_module, relation_table, verify_relations
from cycbmw.tableaux import shapes_with_f


def run_cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestCommands:
    def test_rep_passes(self, capsys):
        code, report = run_json(capsys, "rep", "--r", "1", "--n", "3")
        assert code == 0 and report["ok"] is True
        assert all(b["ok"] and "max_width" not in b for b in report["blocks"])
        assert "precision" not in report

    def test_basis_total(self, capsys):
        code, report = run_json(capsys, "basis", "--r", "3", "--n", "2")
        assert code == 0
        assert report["total_sq"] == report["expected"] == 27

    def test_tabs_count(self, capsys):
        code, report = run_json(capsys, "tabs", "--r", "1", "--n", "4", "--count")
        assert code == 0
        assert report["total_sq"] == report["expected"] == 105

    def test_tabs_list_steps(self, capsys):
        code, report = run_json(capsys, "tabs", "--r", "3", "--n", "2", "--list")
        assert code == 0
        empty = next(b for b in report["labels"] if b["shape"] == "-|-|-")
        assert empty["count"] == 3
        # signed steps: add box in component s at (1,1), then remove it
        assert [[1, 1, 1], [-1, 1, 1]] in empty["tableaux"]

    def test_params_admissible(self, capsys):
        code, report = run_json(capsys, "params", "--r", "3")
        assert code == 0 and report["admissible"] is True
        p = generic_specialization(3, 2)
        assert F(report["omega"]["1"]) == p.omega(1)
        assert F(report["q"]) == p.q

    def test_identities(self, capsys):
        code, report = run_json(capsys, "identities", "--r", "3", "--n", "2")
        assert code == 0 and report["ok"] is True

    def test_omega(self, capsys):
        code, report = run_json(capsys, "omega", "--r", "1", "--n", "3")
        assert code == 0 and report["ok"] is True
        assert report["a_max"] == 4

    def test_br2(self, capsys):
        code, report = run_json(capsys, "br2", "--r", "3")
        assert code == 0
        assert report["total_dim_sq"] == 27
        assert len(report["modules"]) == 2 * 3 + 3 + 1

    def test_rank(self, capsys):
        code, report = run_json(capsys, "rank", "--r", "1", "--n", "2")
        assert code == 0
        assert report["D"] == 3 and report["certified"] is True
        assert set(report) == {"D", "certified", "elapsed"}

    def test_gram(self, capsys):
        code, report = run_json(capsys, "gram", "--r", "3", "--n", "2", "--ell", "1")
        assert code == 0
        assert F(report["value"]) == generic_specialization(3, 2).omega(1)
        assert report["form_zero"] is False

    @pytest.mark.parametrize("seed", [11, 81])
    def test_gram_r3_n4_largest_exponents(self, capsys, seed):
        # these seeds draw the largest exponents k = (29, -18, 7) and
        # (28, -17, 7), where an interval tolerance once rejected the value
        code, report = run_json(capsys, "gram", "--r", "3", "--n", "4", "--ell", "1",
                                "--seed", str(seed))
        assert code == 0
        p = generic_specialization(3, 4, seed=seed)
        assert F(report["value"]) == p.omega(1) ** 2

    def test_classify(self, capsys):
        code, report = run_json(capsys, "classify", "--r", "3", "--n", "3")
        assert code == 0
        assert report["excluded"] == []
        assert [1, "1|-|-"] in report["labels"]
        assert {f for f, _ in report["labels"]} == {0, 1}

    def test_runs_without_mpmath(self):
        # the program has no runtime dependency: a fresh interpreter runs a
        # command without loading mpmath
        code = (
            "import contextlib, io, sys\n"
            "import cycbmw.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cycbmw.cli.run(['params', '--r', '1']) == 0\n"
            "assert 'mpmath' not in sys.modules\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_imports_only_stdlib(self):
        # pyproject declares no dependencies: importing the CLI in a fresh
        # interpreter loads nothing outside the stdlib and cycbmw.  -S keeps
        # site-packages off the path and its startup hooks out of sys.modules.
        code = (
            "import sys\n"
            "import cycbmw.cli\n"
            "roots = {name.partition('.')[0] for name in sys.modules}\n"
            "print(sorted(roots - set(sys.stdlib_module_names) - {'__main__', 'cycbmw'}))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestRunsInOneProcess:
    # run builds its parser once per process, and process-wide memos such as
    # _rowsum_terms carry over from one run to the next; back-to-back runs
    # must print exactly what fresh interpreters print (rank's volatile
    # elapsed dropped)
    SEQUENCES = {
        "tabs": [["tabs", "--r", "3", "--n", "2", "--list"], ["tabs", "--r", "3", "--n", "2"]],
        "basis": [["basis", "--r", "3", "--n", "2", "--format", "csv"],
                  ["basis", "--r", "3", "--n", "2"]],
        "rep": [["rep", "--r", "2"], ["params", "--r", "3"]],
        "rank": [["rank", "--r", "3", "--n", "2"], ["rank", "--r", "3", "--n", "2"]],
        "br2": [["br2", "--r", "3"], ["br2", "--r", "5"]],
        "rep-gram": [["rep", "--r", "1", "--n", "3"], ["gram", "--r", "3", "--n", "2", "--ell", "1"]],
    }

    @staticmethod
    def stable(argv, out):
        if argv[0] != "rank":
            return out
        report = json.loads(out)
        report.pop("elapsed")
        return report

    @classmethod
    def fresh(cls, argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        # bytes, so that the CSV's \r\n line ends are compared as written
        done = subprocess.run([sys.executable, "-m", "cycbmw.cli", *argv], env=env,
                              capture_output=True)
        return done.returncode, cls.stable(argv, done.stdout.decode()), done.stderr.decode()

    @pytest.mark.parametrize("sequence", SEQUENCES.values(), ids=SEQUENCES.keys())
    def test_back_to_back_runs_match_fresh_interpreters(self, capsys, sequence):
        for argv in sequence:
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, self.stable(argv, captured.out), captured.err) == self.fresh(argv), argv


class TestTabsAndBasis:
    # the two counting commands over random sizes and seeds: the counts square
    # to the algebra's dimension, and the CSV table holds the JSON counts
    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from(["tabs", "basis"]), r=st.sampled_from([1, 3, 5]),
           n=st.integers(0, 5), seed=st.integers(0, 2**31 - 1))
    def test_counts_square_to_the_dimension(self, command, r, n, seed):
        argv = [command, "--r", str(r), "--n", str(n), "--seed", str(seed)]
        listed = command == "tabs" and n <= 4
        outputs = []
        for extra in (["--list"] if listed else [], ["--format", "csv"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(argv + extra)
            assert code == 0
            outputs.append(out.getvalue())
        report = json.loads(outputs[0])
        assert report["ok"] is True and report["total_sq"] == report["expected"]
        rows = [line.split(",") for line in outputs[1].splitlines()[1:]]
        if command == "tabs":
            labels = report["labels"]
            assert rows == [[str(r), str(n), str(label["f"]), label["shape"], str(label["count"])]
                            for label in labels]
            assert sum(label["count"] ** 2 for label in labels) == report["total_sq"]
            if listed:
                assert all(len(label["tableaux"]) == label["count"] for label in labels)
        else:
            keys = ("f", "shape", "std", "kappa", "cosets", "size")
            assert rows == [[str(b[key]) for key in keys] for b in report["blocks"]]
            assert sum(b["size"] ** 2 for b in report["blocks"]) == report["total_sq"]


class TestOutputs:
    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "tabs", "--r", "1", "--n", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,n,f,shape,count"
        counts = [int(line.split(",")[-1]) for line in lines[1:]]
        assert sum(c * c for c in counts) == 105

    def test_basis_csv(self, capsys):
        code, out = run_cli(capsys, "basis", "--r", "3", "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "f,shape,std,kappa,cosets,size"
        sizes = [int(line.split(",")[-1]) for line in lines[1:]]
        assert sum(s * s for s in sizes) == 27

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "tabs", "--r", "1", "--n", "2",
                            "--out", str(target))
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["ok"] is True

    def test_determinism(self, capsys):
        _, first = run_cli(capsys, "params", "--r", "3", "--seed", "7")
        _, second = run_cli(capsys, "params", "--r", "3", "--seed", "7")
        assert first == second
        _, third = run_cli(capsys, "tabs", "--r", "3", "--n", "3")
        _, fourth = run_cli(capsys, "tabs", "--r", "3", "--n", "3")
        assert third == fourth


class TestErrors:
    def test_even_r_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rep", "--r", "2", "--n", "2"])
        assert exc.value.code == 2

    def test_n_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["tabs", "--r", "1", "--n", "9"])
        assert exc.value.code == 2

    def test_n_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BMW_MAX_N", "9")
        code, report = run_json(capsys, "tabs", "--r", "1", "--n", "8")
        assert code == 0 and report["ok"] is True

    def test_csv_unsupported(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["rank", "--r", "1", "--n", "2", "--format", "csv"])
        assert exc.value.code == 2

    def test_tabs_list_csv_rejected(self, capsys):
        # the CSV table has one row per label and no column for the walks
        with pytest.raises(SystemExit) as exc:
            run(["tabs", "--r", "1", "--n", "2", "--list", "--format", "csv"])
        assert exc.value.code == 2
        assert "--list needs --format json" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_gram_odd_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gram", "--r", "1", "--n", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["rep", "rank", "gram"])
    def test_module_commands_reject_zero_strands(self, capsys, command):
        # nothing can be checked on zero strands: a usage error, not a failure
        with pytest.raises(SystemExit) as exc:
            run([command, "--r", "1", "--n", "0"])
        assert exc.value.code == 2
        assert "at least one strand" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tabs", "basis", "identities", "omega"])
    def test_census_commands_accept_zero_strands(self, capsys, command):
        code, _ = run_json(capsys, command, "--r", "1", "--n", "0")
        assert code == 0

    def test_gram_ell_outside_window(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gram", "--r", "3", "--n", "2", "--ell", "3"])
        assert exc.value.code == 2

    def test_preset_missing_file(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["params", "--r", "3", "--preset", str(tmp_path / "absent.txt")])
        assert exc.value.code == 2
        assert "cannot read preset" in capsys.readouterr().err

    @pytest.mark.parametrize("q", ["x", "1/0"])
    def test_preset_malformed(self, capsys, tmp_path, q):
        preset = tmp_path / "preset.txt"
        preset.write_text(f"r = 3\nq = {q}\nk = 10, -6, 2\n")
        with pytest.raises(SystemExit) as exc:
            run(["params", "--r", "3", "--preset", str(preset)])
        assert exc.value.code == 2
        assert "cannot read preset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rank", "rep"])
    def test_preset_r_mismatch(self, capsys, tmp_path, command):
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 10, -6, 2\n")
        with pytest.raises(SystemExit) as exc:
            run([command, "--r", "1", "--n", "2", "--preset", str(preset)])
        assert exc.value.code == 2
        assert "preset has r=3 but --r is 1" in capsys.readouterr().err

    def test_check_failure_exit_one(self, capsys, tmp_path):
        # the opposite sign choice makes a seminormal radicand negative, so
        # the module build fails and the command reports it with exit 1
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 10, -6, 2\nalpha = -1\n")
        code, report = run_json(capsys, "rep", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 1 and report["ok"] is False
        assert any("be-real" in b.get("error", "") for b in report["blocks"])

    def test_gram_check_failure_exit_one(self, capsys, tmp_path):
        # the negative radicand fails the module build of the Gram cross
        # check: a check failure, not a usage error
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 10, -6, 2\nalpha = -1\n")
        code, report = run_json(capsys, "gram", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 1
        assert set(report) == {"r", "n", "ell", "error"}
        assert "be-real violated" in report["error"]

    @pytest.mark.parametrize("command", ["rank", "identities", "gram", "br2"])
    def test_non_generic_preset_exit_one(self, capsys, tmp_path, command):
        # k = 1, 1, 2 makes u_1 = u_2 and puts one content on several nodes,
        # so the module builds fail: exit 1 with JSON detail, no traceback
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 1, 1, 2\n")
        code, out = run_cli(capsys, command, "--r", "3", "--n", "2",
                            "--preset", str(preset))
        assert code == 1
        report = json.loads(out)
        assert report.get("ok", report.get("certified", False)) is False
        assert "parameters not generic" in out

    @pytest.mark.parametrize("command", ["rep", "rank", "gram"])
    def test_module_commands_check_genericity_first(self, capsys, tmp_path, command):
        # u = 4, 4, 16 is caught before any module is built: one report
        # naming the violations, not a build error per block
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 1, 1, 2\n")
        code, report = run_json(capsys, command, "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 1
        expected = {"r": 3, "n": 2, "error": report["error"]}
        if command == "gram":
            expected["ell"] = 0
        assert report == expected
        assert report["error"].startswith("parameters not generic: ")
        assert "u_i u_j^{+-1}=q^{2d} at (1, 2, 0)" in report["error"]

    def test_rep_rank_generic_preset_exit_zero(self, capsys, tmp_path):
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 10, -6, 2\n")
        code, report = run_json(capsys, "rep", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 0
        assert "error" not in report and report["ok"] is True
        assert len(report["blocks"]) == 10
        code, report = run_json(capsys, "rank", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 0
        assert "error" not in report and report["certified"] is True
        assert report["D"] == 27

    def test_classify_non_generic_preset_exit_one(self, capsys, tmp_path):
        # u = 4, 4, 16 breaks the genericity the census rests on: the report
        # names the violations instead of certifying every label
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 1, 1, 2\n")
        code, report = run_json(capsys, "classify", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 1
        assert set(report) == {"r", "n", "error"}
        assert report["error"].startswith("parameters not generic: ")
        assert "u_i u_j^{+-1}=q^{2d} at (1, 2, 0)" in report["error"]

    def test_classify_generic_preset_exit_zero(self, capsys, tmp_path):
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 10, -6, 2\n")
        code, report = run_json(capsys, "classify", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 0
        assert "error" not in report and report["excluded"] == []
        assert len(report["labels"]) == 10

    def test_omega_non_generic_preset_exit_one(self, capsys, tmp_path):
        # the table can be computed at u = 4, 4, 16, but it certifies nothing
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 1, 1, 2\n")
        code, report = run_json(capsys, "omega", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 1
        assert report == {"r": 3, "n": 2, "error": report["error"]}
        assert report["error"].startswith("parameters not generic: ")
        assert "u_i u_j^{+-1}=q^{2d} at (1, 2, 0)" in report["error"]

    def test_omega_generic_preset_exit_zero(self, capsys, tmp_path):
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 10, -6, 2\n")
        code, report = run_json(capsys, "omega", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 0
        assert "error" not in report and report["ok"] is True
        assert len(report["blocks"]) == 10

    @pytest.mark.parametrize("k, n, violation", [
        ("1, 1, 2", "2", "u_i u_j^{+-1}=q^{2d} at (1, 2, 0)"),
        ("10, -6, 2", "3", "u=+-q^d at (3, 4)"),
    ])
    def test_identities_non_generic_preset_exit_one(self, capsys, tmp_path, k, n, violation):
        # the identities fail at non-generic values for want of genericity,
        # not of the identities: the report names the violations instead of
        # one error block per label
        preset = tmp_path / "preset.txt"
        preset.write_text(f"r = 3\nq = 2\nk = {k}\n")
        code, report = run_json(capsys, "identities", "--r", "3", "--n", n,
                                "--preset", str(preset))
        assert code == 1
        assert report == {"r": 3, "n": int(n), "error": report["error"]}
        assert report["error"].startswith("parameters not generic: ")
        assert violation in report["error"]

    def test_identities_generic_preset_exit_zero(self, capsys, tmp_path):
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = 2\nk = 10, -6, 2\n")
        code, report = run_json(capsys, "identities", "--r", "3", "--n", "2",
                                "--preset", str(preset))
        assert code == 0
        assert "error" not in report and report["ok"] is True
        assert len(report["blocks"]) == 10
        assert all(b["ok"] and not b["failures"] for b in report["blocks"])

    @pytest.mark.parametrize("r, k, violations", [
        pytest.param("3", "2, -2, 5", "; ".join(f"u_i u_j^{{+-1}}=q^{{2d}} at {at}" for at in (
            "(1, 2, 0)", "(1, 3, -3)", "(2, 1, 0)", "(2, 3, 3)", "(3, 1, 3)", "(3, 2, 3)")),
            id="3-2, -2, 5-v_1 v_2"),
        pytest.param("1", "0", "u=+-q^d at (1, 0)", id="1-0-v_1 v_1"),
    ])
    def test_br2_reciprocal_eigenvalues_exit_one(self, capsys, tmp_path, r, k, violations):
        # u_i u_j = 1 would put a zero denominator into T on the big module;
        # the genericity gate names it before any module is built
        preset = tmp_path / "preset.txt"
        preset.write_text(f"r = {r}\nq = 2\nk = {k}\n")
        code, report = run_json(capsys, "br2", "--r", r, "--preset", str(preset))
        assert code == 1
        assert report == {"r": int(r), "n": 2,
                          "error": f"parameters not generic: {violations}"}

    @pytest.mark.parametrize("n, k, violation", [("0", "1", "u=+-q^d at (1, 2)"),
                                                  ("1", "1", "u=+-q^d at (1, 2)"),
                                                  ("3", "-2", None)])
    def test_br2_certifies_two_strands(self, capsys, tmp_path, n, k, violation):
        # br2's modules have two strands, whatever --n says: u = q^2 is
        # generic on one strand but not on two, u = q^-4 on two but not on
        # three
        preset = tmp_path / "preset.txt"
        preset.write_text(f"r = 1\nq = 2\nk = {k}\n")
        code, report = run_json(capsys, "br2", "--r", "1", "--n", n, "--preset", str(preset))
        if violation is None:
            assert code == 0 and report["ok"] is True
        else:
            assert code == 1
            assert report == {"r": 1, "n": int(n), "error": f"parameters not generic: {violation}"}

    def test_max_n_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("BMW_MAX_N", "abc")
        with pytest.raises(SystemExit) as exc:
            run(["rep", "--r", "1", "--n", "2"])
        assert exc.value.code == 2
        assert "BMW_MAX_N" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["10, -6, 2", "1, 2, 3"])
    def test_preset_q_zero(self, capsys, tmp_path, k):
        # a negative exponent divides by q, a positive one makes u_i = 0
        preset = tmp_path / "preset.txt"
        preset.write_text(f"r = 3\nq = 0\nk = {k}\n")
        with pytest.raises(SystemExit) as exc:
            run(["params", "--r", "3", "--preset", str(preset)])
        assert exc.value.code == 2
        assert "q must be nonzero" in capsys.readouterr().err

    def test_out_unwritable(self, capsys, tmp_path):
        target = tmp_path / "absent" / "report.json"
        with pytest.raises(SystemExit) as exc:
            run(["params", "--out", str(target)])
        assert exc.value.code == 2
        assert "cannot write --out" in capsys.readouterr().err

    def test_rep_failing_relation_detail(self, capsys, monkeypatch):
        # a perturbed off-diagonal entry of T_1 on the (1, empty) block makes
        # rep name the failing relations with their first nonzero residual
        def perturbed(lam, f, p):
            m = build_module(lam, f, p)
            if f == 1:
                m.matT[0][0][1] += 1
            return m

        monkeypatch.setattr(cli, "build_module", perturbed)
        code, report = run_json(capsys, "rep", "--r", "3", "--n", "2")
        assert code == 1 and report["ok"] is False
        for block in report["blocks"]:
            if block["f"] == 0:
                assert block["ok"] and "residuals" not in block
                continue
            assert [x["name"] for x in block["residuals"]] == block["failing"]
            kauffman = next(x for x in block["residuals"] if x["name"] == "kauffman")
            assert kauffman["instance"] == 0 and kauffman["k"] == 1
            assert len(kauffman["entry"]) == 2
            assert F(kauffman["residual"]) != 0

    def test_rep_failing_relation_in_the_middle_of_a_group(self, capsys, monkeypatch):
        # rep checks the ten (3, 2) labels as one direct sum; a perturbed
        # T_1 on the two-row f = 0 label at position 5 shows in its own block
        # only, in its own coordinates and over its own denominator
        labels = list(shapes_with_f(2, 3))
        f, lam = labels[5]
        assert f == 0 and len(labels) == 10
        params = generic_specialization(3, 2)
        alone = build_module(lam, f, params)
        assert alone.dim == 2
        perturb_t1(alone)
        expected = report_block(verify_relations(alone, relation_table(2, params)), alone)
        assert expected["failing"]

        def perturbed(lam_, f_, p):
            m = build_module(lam_, f_, p)
            if (f_, lam_) == (f, lam):
                perturb_t1(m)
            return m

        groups = []

        def spied(modules, relations):
            groups.append(len(modules))
            return verify_relations(modules, relations)

        monkeypatch.setattr(cli, "build_module", perturbed)
        monkeypatch.setattr(cli, "verify_relations", spied)
        code, report = run_json(capsys, "rep", "--r", "3", "--n", "2")
        assert code == 1 and report["ok"] is False
        assert groups == [10]
        for i, block in enumerate(report["blocks"]):
            if i == 5:
                assert block == {"f": f, "shape": cli._shape_str(lam), **expected}
            else:
                assert block["ok"] and block["failing"] == [] and "residuals" not in block


def perturb_t1(m):
    """Add 1 to the first stored entry of T_1 on the module m."""
    row = next(row for row in m.matT[0] if row)
    j = min(row)
    row[j] += 1


def report_block(rel: dict, m) -> dict:
    """rep's block fields for one module's verify_relations report, with
    the residual values as rep prints them.
    """
    failing = [x for x in rel["relations"] if not x["pass"]]
    block = {"dim": m.dim, "ok": rel["ok"], "failing": [x["name"] for x in failing]}
    if failing:
        block["residuals"] = [
            {"name": x["name"], "instance": x["instance"], "k": x["k"],
             "entry": list(x["entry"]), "residual": str(x["residual"])}
            for x in failing
        ]
    return block


class TestRepDirectSum:
    # rep checks the labels' modules as direct sums; every label's block
    # must equal verify_relations on that module alone.  Every module has
    # T_1 perturbed, so that each block reports its own residuals.
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("r, n", [(1, 2), (1, 3), (3, 2), (1, 4), (3, 3), (5, 2)])
    def test_blocks_equal_modules_checked_alone(self, capsys, monkeypatch, r, n, seed):
        groups = self.run_perturbed(capsys, monkeypatch, r, n, seed)
        assert len(groups) == 1

    def test_blocks_equal_modules_checked_alone_across_groups(self, capsys, monkeypatch):
        # a small row budget splits the 25 labels of (3, 3) into direct
        # sums of at most 7 rows, each closed by the label that would pass
        # the budget; a 9-row module is checked alone
        monkeypatch.setattr(cli, "REP_GROUP_ROWS", 7)
        groups = self.run_perturbed(capsys, monkeypatch, 3, 3, 0)
        assert len(groups) >= 2 and [9] in groups
        assert all(sum(g) <= 7 or g == [9] for g in groups)
        assert all(sum(g) + following[0] > 7 for g, following in zip(groups, groups[1:]))

    @staticmethod
    def run_perturbed(capsys, monkeypatch, r, n, seed):
        """Run rep with T_1 perturbed on every module, compare each block
        with the module checked alone, and return the dims of the modules
        of each direct sum rep checked.
        """
        params = generic_specialization(r, max(n, 2), seed=seed)
        table = relation_table(n, params)
        expected = []
        for f, lam in shapes_with_f(n, r):
            m = build_module(lam, f, params)
            perturb_t1(m)
            expected.append({"f": f, "shape": cli._shape_str(lam),
                             **report_block(verify_relations(m, table), m)})

        def perturbed(lam, f, p):
            m = build_module(lam, f, p)
            perturb_t1(m)
            return m

        groups = []

        def spied(modules, relations):
            groups.append([m.dim for m in modules])
            return verify_relations(modules, relations)

        monkeypatch.setattr(cli, "build_module", perturbed)
        monkeypatch.setattr(cli, "verify_relations", spied)
        code, report = run_json(capsys, "rep", "--r", str(r), "--n", str(n), "--seed", str(seed))
        assert code == 1 and report["ok"] is False
        assert report["blocks"] == expected
        assert all(b["failing"] for b in expected)
        return groups


@st.composite
def spread_exponents(draw):
    """Five exponents k_i with random signs whose magnitudes are the partial
    sums of steps from 2 to 8.  A preset is generic at n = 2 when every step
    after the first is at least 4, which happens often enough at r = 5;
    steps of 2 or 3 leave non-generic presets.
    """
    mags = accumulate(draw(st.lists(st.integers(2, 8), min_size=5, max_size=5)))
    return [draw(st.sampled_from([1, -1])) * m for m in mags]


class TestSignedPresets:
    # the residue layer runs on integer pairs, which carry the signs that a
    # Fraction normalises: alpha = -1, q < 0 and q < 1 must keep the exit
    # contract of identities and omega
    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["identities", "omega"]),
           r=st.sampled_from([1, 3]), n=st.integers(1, 3), alpha=st.sampled_from([1, -1]),
           q=st.sampled_from(["-3", "-2", "1/3", "3", "7/2"]),
           k=st.lists(st.integers(-12, 12), min_size=3, max_size=3))
    def test_generic_passes_non_generic_exits_one(self, command, r, n, alpha, q, k):
        k = k[:r]
        u = [F(q) ** (2 * x) for x in k]
        with tempfile.TemporaryDirectory() as tmp:
            preset = Path(tmp) / "preset.txt"
            preset.write_text(f"r = {r}\nq = {q}\nk = {', '.join(map(str, k))}\n"
                              f"alpha = {alpha}\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run([command, "--r", str(r), "--n", str(n), "--preset", str(preset)])
        report = json.loads(out.getvalue())
        if certify_generic(F(q), u, n)["ok"]:
            assert code == 0 and report["ok"] is True, report
        else:
            assert code == 1
            assert report == {"r": r, "n": n, "error": report["error"]}

    @settings(max_examples=40, deadline=None)
    @given(r=st.sampled_from([1, 3]), n=st.integers(1, 2), alpha=st.sampled_from([1, -1]),
           q=st.sampled_from(["-3", "-2", "1/3", "3", "7/2"]),
           k=st.lists(st.integers(-12, 12), min_size=3, max_size=3))
    @example(r=3, n=2, alpha=1, q="-2", k=[13, -8, 3])
    def test_rank_certifies_or_exits_one(self, r, n, alpha, q, k):
        # a generic preset is certified, or its module build fails a check
        # (a negative seminormal radicand, ROADMAP item 11)
        k = k[:r]
        code, report = self.run_preset("rank", r, n, q, k, alpha)
        if not certify_generic(F(q), [F(q) ** (2 * x) for x in k], n)["ok"]:
            assert code == 1
            assert report == {"r": r, "n": n, "error": report["error"]}
        elif code == 0:
            assert report["certified"] is True and set(report) == {"D", "certified", "elapsed"}
        else:
            assert code == 1
            assert report == {"D": report["D"], "certified": False, "error": report["error"]}
            assert report["error"].startswith("be-real violated")

    @settings(max_examples=40, deadline=None)
    @given(r=st.sampled_from([1, 3]), n=st.integers(1, 3), alpha=st.sampled_from([1, -1]),
           q=st.sampled_from(["-3", "-2", "1/3", "3", "7/2"]),
           k=st.lists(st.integers(-12, 12), min_size=3, max_size=3))
    @example(r=3, n=3, alpha=-1, q="2", k=[21, -13, 5])
    def test_rep_passes_or_exits_one(self, r, n, alpha, q, k):
        # a generic preset passes every relation on every module, or a
        # module build fails a check and that label reports its error
        k = k[:r]
        code, report = self.run_preset("rep", r, n, q, k, alpha)
        if not certify_generic(F(q), [F(q) ** (2 * x) for x in k], n)["ok"]:
            assert code == 1
            assert report == {"r": r, "n": n, "error": report["error"]}
            return
        assert set(report) == {"r", "n", "blocks", "ok"}
        assert len(report["blocks"]) == len(list(shapes_with_f(n, r)))
        errors = [b for b in report["blocks"] if "error" in b]
        assert code == (1 if errors else 0) and report["ok"] is not errors
        for block in report["blocks"]:
            if "error" in block:
                assert set(block) == {"f", "shape", "ok", "error"} and block["ok"] is False
            else:
                assert block["ok"] is True and block["failing"] == []
                assert set(block) == {"f", "shape", "dim", "ok", "failing"}

    @settings(max_examples=40, deadline=None)
    @given(r=st.sampled_from([1, 3, 5]), alpha=st.sampled_from([1, -1]),
           q=st.sampled_from(["-3", "-2", "1/3", "3", "7/2"]), k=spread_exponents())
    @example(r=3, alpha=-1, q="2", k=[21, -13, 5])
    @example(r=3, alpha=1, q="-2", k=[13, -8, 3])
    @example(r=5, alpha=-1, q="7/2", k=[30, -22, 14, -6, 2])
    def test_br2_passes_or_exits_one(self, r, alpha, q, k):
        # br2 certifies a preset first: a generic one passes every module
        # and the census, any other exits 1 naming the violations
        k = k[:r]
        code, report = self.run_preset("br2", r, 2, q, k, alpha)
        if certify_generic(F(q), [F(q) ** (2 * x) for x in k], 2)["ok"]:
            assert code == 0 and report["ok"] is True, report
            assert all(m["ok"] for m in report["modules"])
            assert report["total_dim_sq"] == report["expected"] == 3 * r * r
        else:
            assert code == 1
            assert report == {"r": r, "n": 2, "error": report["error"]}

    def test_rank_with_the_first_rank_prime_in_q(self):
        # every token denominator carries a power of p1 = RANK_PRIMES[0], so
        # the certificate skips p1 and certifies with the next prime
        p1 = RANK_PRIMES[0]
        params = GroundParams(1, F(3, p1), [F(3, p1) ** 4])
        assert certify_generic(params.q, params.u, 2)["ok"]
        assert residue_matrix(build_rep(2, 1, params), p1) is None
        code, report = self.run_preset("rank", 1, 2, f"3/{p1}", [2], 1)
        assert code == 0 and report["certified"] is True

    @settings(max_examples=60, deadline=None)
    @given(r=st.sampled_from([1, 3, 5]), n=st.sampled_from([1, 2, 2, 4]), ell=st.integers(-4, 4),
           alpha=st.sampled_from([1, -1]), q=st.sampled_from(["-3", "-2", "1/3", "3", "7/2"]),
           k=st.one_of(spread_exponents(), st.lists(st.integers(-12, 12), min_size=5, max_size=5)))
    @example(r=3, n=2, ell=1, alpha=-1, q="2", k=[21, -13, 5])
    @example(r=3, n=2, ell=0, alpha=1, q="-2", k=[13, -8, 3])
    @example(r=3, n=4, ell=-1, alpha=1, q="7/2", k=[29, -18, 7])
    @example(r=1, n=4, ell=0, alpha=1, q="1/3", k=[5])
    def test_gram_passes_or_exits_cleanly(self, r, n, ell, alpha, q, k):
        # an exact value, a usage error (exit 2, no JSON) or exit 1 with JSON,
        # never a traceback
        k = k[:r]
        code, report = self.run_preset("gram", r, n, q, k, alpha, "--ell", str(ell))
        if n % 2 or abs(ell) > r - 1:
            assert code == 2 and report is None
            return
        generic = certify_generic(F(q), [F(q) ** (2 * x) for x in k], n)["ok"]
        if code == 0:
            assert generic and set(report) == {"r", "n", "ell", "value", "form_zero"}
            assert report["form_zero"] is (F(report["value"]) == 0)
        else:
            assert code == 1
            assert report == {"r": r, "n": n, "ell": ell, "error": report["error"]}
            # the gate names a non-generic preset; on a generic one the
            # module build may fail a check (ROADMAP item 11)
            assert report["error"].startswith("parameters not generic: ") is not generic

    @settings(max_examples=40, deadline=None)
    @given(command=st.sampled_from(["classify", "params"]), r=st.sampled_from([1, 3, 5]),
           n=st.integers(1, 4), alpha=st.sampled_from([1, -1]),
           q=st.sampled_from(["-3", "-2", "1/3", "3", "7/2"]),
           k=st.one_of(spread_exponents(), st.lists(st.integers(-12, 12), min_size=5, max_size=5)))
    @example(command="classify", r=3, n=3, alpha=-1, q="2", k=[21, -13, 5])
    @example(command="classify", r=3, n=2, alpha=1, q="-2", k=[13, -8, 3])
    @example(command="params", r=3, n=2, alpha=-1, q="2", k=[21, -13, 5])
    @example(command="params", r=3, n=2, alpha=1, q="-2", k=[13, -8, 3])
    def test_classify_and_params_pass_or_exit_one(self, command, r, n, alpha, q, k):
        # classify passes a generic preset and exits 1 on any other; params
        # reports any preset and exits 1 when it is not admissible
        k = k[:r]
        code, report = self.run_preset(command, r, n, q, k, alpha)
        if command == "params":
            assert code == (0 if report["admissible"] else 1)
            assert report["alpha"] == alpha and report["u"] == [str(F(q) ** (2 * x)) for x in k]
        elif certify_generic(F(q), [F(q) ** (2 * x) for x in k], n)["ok"]:
            assert code == 0 and set(report) == {"r", "n", "labels", "excluded"}
            assert len(report["labels"]) + len(report["excluded"]) == len(shapes_with_f(n, r))
        else:
            assert code == 1
            assert report == {"r": r, "n": n, "error": report["error"]}

    @staticmethod
    def run_preset(command, r, n, q, k, alpha, *extra):
        """(exit code, JSON report) of one run on a preset; the report is None
        for a usage error, which prints no JSON.
        """
        with tempfile.TemporaryDirectory() as tmp:
            preset = Path(tmp) / "preset.txt"
            preset.write_text(f"r = {r}\nq = {q}\nk = {', '.join(map(str, k))}\n"
                              f"alpha = {alpha}\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = run([command, "--r", str(r), "--n", str(n), "--preset", str(preset),
                                *extra])
                except SystemExit as exc:
                    code = exc.code
        return code, json.loads(out.getvalue()) if out.getvalue() else None
