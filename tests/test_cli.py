import dataclasses
import json
import math
import shutil

import pytest

import damclear.cli as cli
from damclear import oracle
from damclear.engine import ClearingError, ClearingRequest, clear
from damclear.fileio import generate, parse, write_instance

from test_fuzz import SHAPES


@pytest.fixture
def toy_tmp(toy_path, tmp_path):
    p = tmp_path / "toy.json"
    shutil.copy(toy_path, p)
    return p


def test_clear_toy(toy_tmp, tmp_path, capsys):
    assert cli.main(["clear", str(toy_tmp)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("welfare=450 ")
    assert "gap=" in out and "wall=" in out
    assert (tmp_path / "toy.solution.json").exists()
    assert (tmp_path / "toy.report.json").exists()
    assert (tmp_path / "toy.solution.prices.csv").exists()
    report = json.loads((tmp_path / "toy.report.json").read_text())
    assert report["overall_pass"] is True


def test_clear_other_objectives(toy_tmp, capsys):
    assert cli.main(["clear", str(toy_tmp), "--objective", "volume"]) == 0
    assert capsys.readouterr().out.startswith("volume=20 ")
    assert cli.main(["clear", str(toy_tmp), "--objective", "min-oc"]) == 0
    assert capsys.readouterr().out.startswith("min-oc=50 ")
    assert cli.main(["clear", str(toy_tmp), "--rules", "umfs", "--gap", "1e-7"]) == 0
    assert capsys.readouterr().out.startswith("welfare=450 ")


def test_clear_staged_heuristic(toy_tmp, capsys):
    # --heuristic is kept for compatibility: every value runs the same clear
    assert cli.main(["clear", str(toy_tmp), "--heuristic", "staged"]) == 0
    staged = capsys.readouterr().out.split(" wall=")[0]
    assert staged.startswith("welfare=450 gap=")
    for heuristic in ([], ["--heuristic", "off"]):
        assert cli.main(["clear", str(toy_tmp), *heuristic]) == 0
        assert capsys.readouterr().out.split(" wall=")[0] == staged, heuristic


def test_clear_out_prefix(toy_tmp, tmp_path, capsys):
    prefix = tmp_path / "runs" / "case7"
    prefix.parent.mkdir()
    assert cli.main(["clear", str(toy_tmp), "--out", str(prefix)]) == 0
    assert (tmp_path / "runs" / "case7.solution.json").exists()
    assert (tmp_path / "runs" / "case7.report.json").exists()


def test_verify_pass_and_tampered(toy_tmp, tmp_path, capsys):
    assert cli.main(["clear", str(toy_tmp)]) == 0
    capsys.readouterr()
    sol_path = tmp_path / "toy.solution.json"

    assert cli.main(["verify", str(toy_tmp), str(sol_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verify=PASS welfare=450 ")

    doc = json.loads(sol_path.read_text())
    doc["prices"][0][0] = 57.0
    sol_path.write_text(json.dumps(doc))
    rc = cli.main(["verify", str(toy_tmp), str(sol_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out.startswith("verify=FAIL")
    assert "failing families:" in captured.err


def test_verify_writes_report(toy_tmp, tmp_path, capsys):
    assert cli.main(["clear", str(toy_tmp)]) == 0
    rep = tmp_path / "again.report.json"
    assert cli.main([
        "verify", str(toy_tmp), str(tmp_path / "toy.solution.json"),
        "--out", str(rep),
    ]) == 0
    assert json.loads(rep.read_text())["overall_pass"] is True


def test_oracle_cmd(toy_tmp, tmp_path, capsys):
    out_path = tmp_path / "oracle.json"
    assert cli.main(["oracle", str(toy_tmp), "--out", str(out_path)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("welfare=450 selections=3 ")
    doc = json.loads(out_path.read_text())
    assert doc["n_selections"] == 4
    assert len(doc["records"]) == 3
    assert doc["optima"]["welfare"]["value"] == 450.0
    assert doc["optima"]["volume"]["accepted_blocks"] == ["D"]


def test_oracle_guard(tmp_path, capsys):
    assert cli.main([
        "generate", "--seed", "3", "--blocks", "21", "--mic", "0",
        "--out", str(tmp_path / "big.json"),
    ]) == 0
    capsys.readouterr()
    assert cli.main(["oracle", str(tmp_path / "big.json")]) == 1
    assert "too large" in capsys.readouterr().err


def test_oracle_failed_face_lp_exit_code(toy_tmp, tmp_path, monkeypatch, capsys):
    # the toy's selection () runs LPs 0 and 1; LP 2 is ("C",)'s volume probe
    calls = []
    real = oracle._Face._run

    def failing(face, cost):
        calls.append(None)
        if len(calls) == 3:
            return oracle._STATUS.kSolveError, None
        return real(face, cost)

    monkeypatch.setattr(oracle._Face, "_run", failing)
    out_path = tmp_path / "oracle.json"
    assert cli.main(["oracle", str(toy_tmp), "--out", str(out_path)]) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: oracle volume probe LP failed for accepted blocks ('C',) and MIC bids (): "
        "HiGHS model status Solve error\n"
    )
    assert not out_path.exists()


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["generate", "--seed", "6", "--out", str(a)]) == 0
    assert cli.main(["generate", "--seed", "6", "--out", str(b)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("generated hourly=20 blocks=3 mic=1 ")
    assert a.read_bytes() == b.read_bytes()
    parse(a)


def test_usage_errors(tmp_path, capsys):
    assert cli.main(["generate", "--seed", "1"]) == 1
    assert cli.main(["clear", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["clear", "--bogus-flag"]) == 1
    assert cli.main([]) == 1


@pytest.mark.parametrize(
    "flags",
    [["--seed", "-1"], ["--threads", "-3"], ["--time-limit", "-1"], ["--time-limit", "nan"], ["--gap", "nan"]],
    ids=["seed-negative", "threads-negative", "time-limit-negative", "time-limit-nan", "gap-nan"],
)
def test_out_of_range_solver_flags_report_error(toy_tmp, tmp_path, capsys, flags):
    # a clear of the binary-free instance always runs solve_mip; the toy has binaries
    plain = tmp_path / "plain.json"
    assert cli.main(["generate", "--blocks", "0", "--mic", "0", "--out", str(plain)]) == 0
    capsys.readouterr()
    for path in (plain, toy_tmp):
        assert cli.main(["clear", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "damage",
    ["block powers list", "atc capacity null", "bid not object", "period int", "network row object"],
)
def test_malformed_instance_reports_error(toy_tmp, tmp_path, capsys, damage):
    if damage == "atc capacity null":
        assert cli.main(["generate", "--seed", "2", "--out", str(toy_tmp)]) == 0
        capsys.readouterr()
    doc = json.loads(toy_tmp.read_text())
    if damage == "block powers list":
        doc["block_bids"][0]["powers"]["T1"] = [-10.0]
    elif damage == "atc capacity null":
        doc["network"]["atc"]["lines"][0]["capacity"]["T1"] = None
    elif damage == "bid not object":
        doc["hourly_bids"][0] = 7
    elif damage == "period int":
        doc["network"]["periods"] = ["T1", 7]
    else:
        doc["network"]["abstract"]["rows"] = [[{}]]
    toy_tmp.write_text(json.dumps(doc))
    assert cli.main(["clear", str(toy_tmp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_solution_reports_error(toy_tmp, tmp_path, capsys):
    assert cli.main(["clear", str(toy_tmp)]) == 0
    capsys.readouterr()
    sol_path = tmp_path / "toy.solution.json"
    doc = json.loads(sol_path.read_text())
    doc["acceptance"]["hourly"]["A"] = {}
    sol_path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(toy_tmp), str(sol_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_compare_table(toy_tmp, tmp_path, capsys):
    out_path = tmp_path / "compare.json"
    assert cli.main(["compare", str(toy_tmp), "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("objective")
    assert len([l for l in lines if l.startswith(("welfare ", "volume ", "min-oc "))]) == 3
    assert "welfare=450 volume=20 min-oc=50" in lines[-1]
    doc = json.loads(out_path.read_text())
    assert doc["welfare"]["verified"] is True
    assert doc["min-oc"]["opportunity_cost"] == pytest.approx(50.0)


def test_gap_exit_code(toy_tmp, tmp_path, monkeypatch, capsys):
    toy = parse(toy_tmp)
    real = clear(toy, ClearingRequest())
    stub = dataclasses.replace(real, solver_status="feasible_gap", solver_gap=0.01)
    monkeypatch.setattr(cli, "clear", lambda instance, request: stub)
    assert cli.main(["clear", str(toy_tmp)]) == 3
    out = capsys.readouterr().out
    assert "gap=0.01" in out
    # artifacts still land on disk for a gapped stop
    assert (tmp_path / "toy.solution.json").exists()
    assert (tmp_path / "toy.report.json").exists()


def test_solver_failure_exit_code(toy_tmp, tmp_path, monkeypatch, capsys):
    def boom(instance, request):
        raise ClearingError("no budget left")

    monkeypatch.setattr(cli, "clear", boom)
    assert cli.main(["clear", str(toy_tmp)]) == 3
    assert "solver failed: no budget left" in capsys.readouterr().err
    assert not (tmp_path / "toy.solution.json").exists()


@pytest.mark.parametrize("shape", ("mic-zero-fixed-cost", "mic-heavy-no-blocks", "large-blocks"))
def test_clear_exit_codes_on_fuzz_shapes_with_binaries(tmp_path, capsys, shape):
    path = tmp_path / "case.json"
    write_instance(generate(dataclasses.replace(SHAPES[shape], seed=1)), path)
    assert cli.main(["clear", str(path)]) == cli.EXIT_OK, shape
    line = capsys.readouterr().out
    gap = float(line.split(" gap=")[1].split()[0])
    assert math.isfinite(gap), (shape, line)
    report = json.loads((tmp_path / "case.report.json").read_text())
    assert report["overall_pass"] is True, shape
