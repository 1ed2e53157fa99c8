import json
from fractions import Fraction as F

import pytest

from cycbmw.cli import run
from cycbmw.params import generic_specialization


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
        assert all(b["ok"] and b["max_width"] == 0 for b in report["blocks"])
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

    def test_preset_malformed(self, capsys, tmp_path):
        preset = tmp_path / "preset.txt"
        preset.write_text("r = 3\nq = x\nk = 10, -6, 2\n")
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
