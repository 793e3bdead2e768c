"""End-to-end acceptance gate.

Eight checks, one per shipped guarantee: the worked example through the
CLI, a hundred-instance enumeration sweep over every objective and rule
set, the nonlinear income condition, rule-set welfare dominance with the
decomposition identity, the binary budget of the compiled models, the
verifier's discrimination on doctored solutions, a staged full-scale run,
and the existence of objective trade-offs. A ninth check runs the same
full-scale day through the single-shot clear.
"""

import json
import shutil
import time
from types import SimpleNamespace

import pytest

import damclear.cli as cli
from damclear.backend import SolveOptions
from damclear.engine import (
    ClearingRequest,
    clear,
    compare_pab_models,
    staged_clear,
)
from damclear.fileio import GeneratorConfig, generate
from damclear.milp import build_model
from damclear.oracle import enumerate_selections
from damclear.verify import (
    opportunity_cost_summary,
    verify_equilibrium,
    verify_mic_income,
)

from conftest import make_toy, perturbation_cases

SEEDS = range(100)
RULESETS = ("pcr", "umfs")
OBJECTIVES = ("welfare", "volume", "min_opportunity_cost")

VALUE = {
    "welfare": lambda s: s.welfare,
    "volume": lambda s: s.traded_volume,
    "min_opportunity_cost": lambda s: s.total_opportunity_cost,
}


def _suite_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3)


@pytest.fixture(scope="module")
def suite():
    """Solve the seeded instance family every way it can be solved.

    One enumeration per (instance, rules), one exact clearing per
    objective on top; downstream checks slice the shared rows.
    """
    t0 = time.perf_counter()
    rows = []
    for seed in SEEDS:
        instance = generate(_suite_config(seed))
        for rules in RULESETS:
            oracle = enumerate_selections(instance, rules=rules)
            for objective in OBJECTIVES:
                solution = clear(instance, ClearingRequest(objective=objective, rules=rules))
                rows.append(SimpleNamespace(
                    seed=seed, instance=instance, rules=rules,
                    objective=objective, solution=solution, oracle=oracle,
                ))
    return SimpleNamespace(rows=rows, wall=time.perf_counter() - t0)


def test_criterion_1_worked_example_through_cli(toy_path, tmp_path, capsys):
    """The worked example clears exactly, through the shipped entry point,
    in under a second, and leaves the solution/report artifacts behind."""
    target = tmp_path / "toy.json"
    shutil.copy(toy_path, target)
    t0 = time.perf_counter()
    rc = cli.main(["clear", str(target)])
    wall = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert wall < 1.0
    assert out.startswith("welfare=450 ")

    doc = json.loads((tmp_path / "toy.solution.json").read_text())
    assert abs(doc["aggregates"]["welfare"] - 450.0) <= 1e-6
    assert abs(doc["prices"][0][0] - 50.0) <= 1e-6
    assert doc["acceptance"]["blocks"]["C"] == pytest.approx(1.0, abs=1e-9)
    assert doc["acceptance"]["blocks"]["D"] == pytest.approx(0.0, abs=1e-9)
    assert abs(doc["aggregates"]["total_opportunity_cost"] - 800.0) <= 1e-6
    report = json.loads((tmp_path / "toy.report.json").read_text())
    assert report["overall_pass"] is True


def test_criterion_2_milp_matches_enumeration(suite):
    """On 100 seeded instances, each objective under each rule set lands on
    the enumerated optimum within 1e-6 relative, with the equilibrium
    verifier passing, inside a ten-minute budget."""
    assert suite.wall < 600.0
    assert len(suite.rows) == 600
    for row in suite.rows:
        opt = row.oracle.optima[row.objective].value
        got = VALUE[row.objective](row.solution)
        assert abs(got - opt) <= 1e-6 * (1.0 + abs(opt)), (
            f"seed {row.seed} {row.rules} {row.objective}: {got} vs {opt}"
        )
        rep = verify_equilibrium(row.instance, row.solution, rules=row.rules)
        assert rep.overall_pass, (
            f"seed {row.seed} {row.rules} {row.objective}: {rep.failing_families()}"
        )


def test_criterion_3_mic_income_nonlinear(suite):
    """Active MIC bids cover fixed plus variable costs when income is
    evaluated as the actual price-quantity product (tolerance 1e-5 scaled
    by 1 + fixed cost), and every rejected MIC bid's foregone surplus is
    covered by its dual slack."""
    checked_active = 0
    checked_rejected = 0
    for row in suite.rows:
        if not row.instance.mic_bids:
            continue
        fam = verify_mic_income(row.instance, row.solution)
        assert fam.passed, (
            f"seed {row.seed} {row.rules} {row.objective}: "
            f"income residual {fam.max_residual}"
        )
        checked_active += fam.n_checked
        summary = opportunity_cost_summary(row.instance, row.solution)
        assert all(summary["mic_bound_ok"].values()), (
            f"seed {row.seed} {row.rules} {row.objective}"
        )
        checked_rejected += len(summary["per_mic_missed_surplus"])
    assert checked_active > 0
    assert checked_rejected > 0


def test_criterion_4_rule_set_dominance_and_decomposition(suite):
    """Unrestricted welfare dominates the restricted rule set on every
    instance, and both solutions satisfy the welfare decomposition
    identity to 1e-6 relative."""
    instances = {}
    for row in suite.rows:
        instances.setdefault(row.seed, row.instance)
    for seed, instance in instances.items():
        out = compare_pab_models(instance)
        w_u, w_p = out["umfs"].welfare, out["pcr"].welfare
        assert w_u >= w_p - 1e-6 * (1.0 + abs(w_u)), f"seed {seed}: {w_u} < {w_p}"
        for rules in RULESETS:
            res = out["decomposition_residuals"][rules]
            w = out[rules].welfare
            assert res <= 1e-6 * (1.0 + abs(w)), f"seed {seed} {rules}: {res}"


def test_criterion_5_binary_budget(suite):
    """The compiled model spends exactly one binary per block bid plus one
    per MIC bid, in both forms, on every instance."""
    instances = {row.seed: row.instance for row in suite.rows}
    instances["toy"] = make_toy()
    for tag, instance in instances.items():
        expected = len(instance.block_bids) + len(instance.mic_bids)
        model = build_model(instance, "umfs")
        assert int(model.integrality.sum()) == expected, tag
        pcr = build_model(instance, "pcr")
        assert int(pcr.integrality.sum()) == expected, tag


def test_criterion_6_verifier_flags_doctored_solutions():
    """Twenty hand-doctored solutions each trip exactly the intended
    condition families, controls included."""
    cases = perturbation_cases()
    assert len(cases) == 20
    for name, instance, solution, rules, expected in cases:
        rep = verify_equilibrium(instance, solution, rules=rules)
        got = frozenset(rep.failing_families())
        assert got == expected, (
            f"{name}: expected {sorted(expected)}, got {sorted(got)}"
        )


def _full_scale_day():
    """4 locations x 24 periods: 5088 hourly bids, 50 blocks, 20 MIC bids."""
    return generate(GeneratorConfig(
        seed=42,
        locations=("N1", "N2", "N3", "N4"),
        periods=tuple(f"T{h}" for h in range(1, 25)),
        demand_steps=27,
        supply_steps=26,
        n_blocks=50,
        n_mic=20,
        max_mic_suborders=24,
    ))


@pytest.mark.slow
def test_criterion_7_scale_smoke():
    """A full-size day (5088 hourly bids, 50 blocks, 20 MIC bids, 4
    locations, 24 periods) clears through the staged heuristic inside ten
    minutes at a 0.2% gap, with nondecreasing stage objectives and a
    verifying solution."""
    instance = _full_scale_day()
    assert len(instance.hourly_bids) == 5088
    assert len(instance.block_bids) == 50
    assert len(instance.mic_bids) == 20

    request = ClearingRequest(
        objective="welfare",
        rules="pcr",
        solve_options=SolveOptions(relative_gap_target=0.002, time_limit=580.0),
    )
    trace = {}
    t0 = time.perf_counter()
    solution = staged_clear(instance, request, trace=trace)
    wall = time.perf_counter() - t0
    assert wall < 600.0
    assert solution.solver_gap <= 0.002

    stages = trace["stage_objectives"]
    assert len(stages) == 3
    slack = 1e-6 * (1.0 + abs(stages[-1]))
    assert stages[0] <= stages[1] + slack
    assert stages[1] <= stages[2] + slack
    assert solution.welfare == pytest.approx(stages[2], rel=1e-6)

    rep = verify_equilibrium(instance, solution, rules="pcr")
    assert rep.overall_pass, rep.failing_families()
    assert verify_mic_income(instance, solution).passed


@pytest.mark.slow
def test_plain_clear_on_full_scale_day():
    """The single-shot clear reaches the 0.2% gap on the full-size day and
    its solution verifies."""
    instance = _full_scale_day()
    request = ClearingRequest(
        objective="welfare",
        rules="pcr",
        solve_options=SolveOptions(relative_gap_target=0.002),
    )
    solution = clear(instance, request)
    assert solution.solver_status == "optimal"
    assert solution.solver_gap <= 0.002
    rep = verify_equilibrium(instance, solution, rules="pcr")
    assert rep.overall_pass, rep.failing_families()
    assert verify_mic_income(instance, solution).passed


def test_criterion_8_objective_trade_offs(suite):
    """Maximizing traded volume can move volume above the welfare optimum's,
    and minimizing compensation can move it below the welfare optimum's:
    both trade-offs are realized on at least one instance."""
    groups = {}
    for row in suite.rows:
        groups.setdefault((row.seed, row.rules), {})[row.objective] = row.solution
    toy = make_toy()
    groups[("toy", "pcr")] = {
        objective: clear(toy, ClearingRequest(objective=objective, rules="pcr"))
        for objective in OBJECTIVES
    }

    volume_gain = oc_gain = False
    for sols in groups.values():
        if VALUE["volume"](sols["volume"]) > VALUE["volume"](sols["welfare"]) + 1e-6:
            volume_gain = True
        welf_oc = VALUE["min_opportunity_cost"](sols["welfare"])
        if VALUE["min_opportunity_cost"](sols["min_opportunity_cost"]) < welf_oc - 1e-6:
            oc_gain = True
    assert volume_gain
    assert oc_gain

    toy_sols = groups[("toy", "pcr")]
    assert toy_sols["welfare"].welfare == pytest.approx(450.0, abs=1e-6)
    assert toy_sols["volume"].traded_volume == pytest.approx(20.0, abs=1e-6)
    assert toy_sols["min_opportunity_cost"].total_opportunity_cost == pytest.approx(50.0, abs=1e-6)
