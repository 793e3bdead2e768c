"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from damclear import backend, engine, fileio  # noqa: E402
from damclear.engine import ClearingRequest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 2
    assert result["correct"] is True and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(capsys, workload):
    result = _run(capsys, workload, trace=0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_removes_its_wrappers(capsys, workload):
    before = tracing.patched_attributes()
    backends = backend.available_backends()
    env = os.environ.get(tracing.ENV)

    result = _run(capsys, workload, trace=1)

    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + values["trace.uncovered_s"] == pytest.approx(values["trace.op_s"], rel=1e-9)
    assert values["trace.uncovered_s"] >= 0

    after = tracing.patched_attributes()
    assert all(after[key] is before[key] for key in before)
    assert backend.available_backends() == backends
    assert os.environ.get(tracing.ENV) == env
    assert backend.get_backend().name == "scipy-highs"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.xfail(strict=True, reason="engine._gap_of reports inf for a model without integer columns")
def test_sweep_family_instance_without_binaries_reports_its_gap():
    # sweep leaves this instance out; once its gap is reported, put it back
    instance = fileio.generate(workloads.sweep_config(0))
    solution = engine.clear(instance, ClearingRequest())
    assert solution.solver_status == "optimal"
    assert solution.solver_gap <= workloads.SWEEP_GAP
