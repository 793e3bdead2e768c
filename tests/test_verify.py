import dataclasses
import json
import math

import numpy as np
import pytest

from damclear.engine import ClearingRequest, clear
from damclear.verify import (
    Tolerances,
    opportunity_cost_summary,
    verify_equilibrium,
    verify_mic_income,
)

from conftest import (
    make_crossing_pair,
    make_mic,
    make_pab_chain,
    make_toy,
    perturbation_cases,
    solution_for,
)

FAMILIES = {
    "primal", "dual", "complementarity", "price-range",
    "objective-equality", "pcr-no-loss", "mic-income",
}


def test_toy_passes_under_both_rulesets():
    toy = make_toy()
    sol = clear(toy, ClearingRequest(objective="welfare", rules="pcr"))
    rep = verify_equilibrium(toy, sol, rules="pcr")
    assert rep.overall_pass
    assert set(rep.families) == FAMILIES
    assert rep.families["pcr-no-loss"].applicable
    assert rep.welfare == pytest.approx(450.0, abs=1e-6)
    assert rep.dual_objective == pytest.approx(450.0, abs=1e-5)

    rep_u = verify_equilibrium(toy, sol, rules="umfs")
    assert rep_u.overall_pass
    assert not rep_u.families["pcr-no-loss"].applicable
    assert rep_u.families["pcr-no-loss"].passed


def test_report_dict_and_failing_list():
    import dataclasses

    toy = make_toy()
    sol = clear(toy, ClearingRequest())
    broken = dataclasses.replace(sol, prices=sol.prices + 7.0)
    rep = verify_equilibrium(toy, broken)
    assert not rep.overall_pass
    assert rep.failing_families() == sorted(rep.failing_families())
    d = rep.as_dict()
    assert d["overall_pass"] is False
    assert set(d["families"]) == FAMILIES
    fam = d["families"]["complementarity"]
    assert fam["passed"] is False
    assert fam["violations"] and "condition" in fam["violations"][0]
    assert fam["max_residual"] > fam["tolerance"]


def test_perturbations_flag_exact_family_sets():
    for name, instance, solution, rules, expected in perturbation_cases():
        rep = verify_equilibrium(instance, solution, rules=rules)
        got = frozenset(rep.failing_families())
        assert got == expected, f"{name}: expected {sorted(expected)}, got {sorted(got)}"


@pytest.mark.parametrize("field, family", [
    ("prices", "price-range"), ("x", "primal"), ("s_hourly", "dual"),
    ("s_block", "dual"), ("y", "primal"), ("u", "primal"),
])
def test_a_nan_fails_the_family_that_reads_it(field, family):
    # NaN compares false against every tolerance; it must count as a violation
    inst = make_mic(1000.0) if field == "u" else make_toy()
    sol = clear(inst, ClearingRequest())
    values = np.array(getattr(sol, field), dtype=float)
    values.flat[0] = np.nan
    rep = verify_equilibrium(inst, dataclasses.replace(sol, **{field: values}))
    assert not rep.overall_pass
    assert family in rep.failing_families()
    doc = json.loads(json.dumps(rep.as_dict(), indent=2))
    fam = doc["families"][family]
    assert fam["passed"] is False and math.isinf(fam["max_residual"])
    assert any(math.isinf(v["residual"]) for v in fam["violations"])


def test_mic_income_on_cleared_instance():
    inst = make_mic(1000.0)
    sol = clear(inst, ClearingRequest())
    assert sol.u[0] == 1.0
    fam = verify_mic_income(inst, sol)
    assert fam.passed
    assert fam.n_checked == 2  # income bound and the exactness identity


def test_mic_income_shortfall_detected():
    inst = make_mic(1200.0)
    sol = solution_for(inst, x=[1.0], x_mic=[1.0], y=[], u=[1.0],
                       prices=[[30.0]], s_hourly=[7000.0])
    fam = verify_mic_income(inst, sol)
    assert not fam.passed
    # deficit 200 against 1 + fixed cost
    assert fam.max_residual == pytest.approx(200.0 / 1201.0, rel=1e-9)


def test_mic_income_vacuous_when_rejected_or_absent():
    fam = verify_mic_income(make_toy(), clear(make_toy(), ClearingRequest()))
    assert fam.passed and fam.n_checked == 0
    deep = make_mic(11000.0)
    sol = clear(deep, ClearingRequest())
    assert sol.u[0] == 0.0
    assert verify_mic_income(deep, sol).passed


def test_opportunity_cost_summary_toy():
    toy = make_toy()
    sol = clear(toy, ClearingRequest(objective="welfare", rules="pcr"))
    summary = opportunity_cost_summary(toy, sol)
    assert summary["per_block_opportunity_cost"] == {
        "C": pytest.approx(0.0, abs=1e-9), "D": pytest.approx(800.0, abs=1e-6),
    }
    assert summary["per_block_loss"]["C"] == pytest.approx(0.0, abs=1e-9)
    assert summary["total_opportunity_cost"] == pytest.approx(800.0, abs=1e-6)
    assert summary["per_mic_missed_surplus"] == {}


def test_opportunity_cost_summary_rejected_mic():
    inst = make_mic(11000.0)
    sol = clear(inst, ClearingRequest())
    summary = opportunity_cost_summary(inst, sol)
    assert summary["mic_bound_ok"] == {"G": True}
    # the seller's missed surplus at any supportable price is >= 7000
    assert summary["per_mic_missed_surplus"]["G"] >= 7000.0 - 1e-6


def test_custom_tolerances_can_waive_families():
    toy = make_toy()
    sol = clear(toy, ClearingRequest())
    import dataclasses
    padded = dataclasses.replace(
        sol, s_hourly=np.array([10.0, 0.0]) + np.asarray(sol.s_hourly)
    )
    strict = verify_equilibrium(toy, padded)
    assert frozenset(strict.failing_families()) == {
        "complementarity", "objective-equality",
    }
    loose = verify_equilibrium(
        toy, padded, Tolerances(complementarity=1.0, objective_equality=1.0)
    )
    assert loose.overall_pass


def test_umfs_engine_solution_verifies_under_umfs():
    inst = make_pab_chain()
    sol = clear(inst, ClearingRequest(objective="welfare", rules="umfs"))
    rep = verify_equilibrium(inst, sol, rules="umfs")
    assert rep.overall_pass
    assert rep.welfare == pytest.approx(280.0, abs=1e-6)
    # the same point is not a pcr equilibrium
    rep_p = verify_equilibrium(inst, sol, rules="pcr")
    assert "pcr-no-loss" in rep_p.failing_families()


def test_crossing_pair_price_band():
    inst = make_crossing_pair()
    sol = clear(inst, ClearingRequest())
    assert verify_equilibrium(inst, sol).overall_pass
    assert 20.0 - 1e-6 <= float(sol.prices[0, 0]) <= 30.0 + 1e-6
