import dataclasses
import hashlib
import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from damclear.engine import ClearingRequest, clear
from damclear.fileio import GeneratorConfig, generate
from damclear.model import ClearingSolution, InstanceIndex
from damclear.verify import (
    Tolerances,
    opportunity_cost_summary,
    verify_equilibrium,
    verify_mic_income,
)

from conftest import (
    DATA_DIR,
    make_crossing_pair,
    make_mic,
    make_pab_chain,
    make_pab_point,
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


@pytest.mark.parametrize("field, value, families", [
    ("prices", math.inf, ["complementarity", "dual", "price-range"]),
    ("prices", -math.inf, ["complementarity", "dual", "pcr-no-loss", "price-range"]),
    ("x", math.inf, ["complementarity", "objective-equality", "primal"]),
])
def test_an_infinite_entry_is_reported_without_a_warning(field, value, families):
    # inf / inf and 0 * inf in the scaled residuals are NaN, which fail
    # their family; numpy must not warn about them, since a warning raised
    # as an error would stop the verifier before it reports
    inst = make_toy()
    sol = clear(inst, ClearingRequest())
    values = np.array(getattr(sol, field), dtype=float)
    values.flat[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_equilibrium(inst, dataclasses.replace(sol, **{field: values}))
    assert rep.failing_families() == families
    for family in families:
        assert math.isinf(rep.families[family].max_residual), family


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


_SHAPE_CASES = {
    "toy": make_toy,
    "mic": lambda: make_mic(1000.0),
    "three_periods": lambda: generate(GeneratorConfig(seed=1, periods=("T1", "T2", "T3"))),
}


@pytest.mark.parametrize("case, field", [
    ("toy", "u"), ("toy", "x_mic"), ("mic", "y"), ("mic", "u"), ("three_periods", "prices"),
])
def test_a_mis_sized_solution_array_is_an_error(case, field):
    # an extra entry used to be ignored and a (T, L) price array reshaped
    inst = _SHAPE_CASES[case]()
    sol = clear(inst, ClearingRequest())
    if field == "prices":
        bad = np.asarray(sol.prices).T.copy()
    else:
        bad = np.append(getattr(sol, field), 0.0)
    broken = dataclasses.replace(sol, **{field: bad})
    want = f"solution.{field} has shape {bad.shape}, expected {np.shape(getattr(sol, field))}"
    for check in (verify_equilibrium, verify_mic_income, opportunity_cost_summary):
        with pytest.raises(ValueError, match=re.escape(want)):
            check(inst, broken)


def test_unknown_rules_are_an_error():
    toy = make_toy()
    sol = clear(toy, ClearingRequest())
    for rules in ("PCR", "", "pab"):
        with pytest.raises(ValueError, match="unknown rules"):
            verify_equilibrium(toy, sol, rules=rules)


@pytest.mark.parametrize("value", [math.nan, -1e-9, -math.inf])
def test_tolerances_reject_nan_and_negative_values(value):
    for name in ("feasibility", "complementarity", "objective_equality",
                 "price_range", "pcr_no_loss", "mic_income"):
        with pytest.raises(ValueError, match=name):
            Tolerances(**{name: value})
    assert Tolerances(feasibility=0.0, mic_income=math.inf).feasibility == 0.0


_REPORT_DIGESTS = os.path.join(DATA_DIR, "verifier_report_digests.json")
_CONDITIONS = {
    *(f"primal-eq{k}" for k in range(1, 7)), *(f"dual-eq{k}" for k in range(1, 9)),
    *(f"cc-eq{k}" for k in range(1, 16) if k != 7),  # cc-eq7 is identically zero
    "price-range", "objective-equality", "pcr-d-accept", "pcr-block-loss",
    "mic-income", "mic-identity",
}


def _random_solution(instance, rng):
    """A point drawn without the engine: integral, fractional and
    out-of-range acceptances, signed slacks and some prices past the cap."""
    idx = InstanceIndex(instance)

    def acceptance(n):
        a = rng.choice([0.0, 1.0], n)
        mixed = rng.random(n) < 0.3
        a[mixed] = rng.uniform(-0.2, 1.2, mixed.sum())
        return a

    def signed(n, top):
        return np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-0.1 * top, top, n))

    cap = instance.price_cap
    prices = rng.uniform(0.0, 120.0, (idx.L, idx.T))
    past = rng.random(prices.shape) < 0.1
    prices[past] = rng.choice([-1.0, 1.0], past.sum()) * rng.uniform(cap, 1.2 * cap, past.sum())
    return ClearingSolution(
        x=acceptance(idx.n_hourly), x_mic=acceptance(idx.n_sub),
        y=acceptance(idx.n_block), u=acceptance(idx.n_mic),
        net_positions=rng.normal(0.0, 20.0, idx.n_basis), prices=prices,
        v=signed(idx.n_net_rows, 50.0), s_hourly=signed(idx.n_hourly, 2000.0),
        s_block=signed(idx.n_block, 2000.0), s_mic=signed(idx.n_mic, 2000.0),
        s_mic_sub=signed(idx.n_sub, 2000.0), d_accept=signed(idx.n_block, 500.0),
        d_reject=signed(idx.n_block, 500.0), du_reject=signed(idx.n_mic, 500.0),
        welfare=0.0, traded_volume=0.0, total_opportunity_cost=0.0,
    )


def _digest_points():
    """Seeded random points on sweep-family seeds 0-41 and the hand-built
    conftest points; none comes from the engine, none holds a NaN."""
    for seed in range(42):
        inst = generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))
        for draw in range(3):
            yield f"sweep_{seed}/draw{draw}", inst, _random_solution(
                inst, np.random.default_rng([seed, draw]))
    for comp in (150.0, 0.0):
        yield (f"pab_point_{comp:g}", *make_pab_point(comp))
    toy, short, exact, deep = make_toy(), make_mic(1200.0), make_mic(1000.0), make_mic(11000.0)
    yield "toy_cap_breach", toy, solution_for(
        toy, x=[0.0, 0.0], x_mic=[], y=[0.0, 0.0], u=[], prices=[[600.0]],
        d_reject=[5950.0, 11800.0])
    yield "mic_shortfall", short, solution_for(
        short, x=[1.0], x_mic=[1.0], y=[], u=[1.0], prices=[[30.0]], s_hourly=[7000.0])
    yield "mic_identity_drift", exact, solution_for(
        exact, x=[1.0], x_mic=[1.0], y=[], u=[1.0], prices=[[30.0]],
        s_hourly=[7000.0], s_mic=[50.0])
    yield "mic_du_underfund", deep, solution_for(
        deep, x=[0.0], x_mic=[0.0], y=[], u=[0.0], prices=[[100.0]],
        s_mic_sub=[7000.0], du_reject=[6000.0])
    yield "mic_du_on_accepted", exact, solution_for(
        exact, x=[1.0], x_mic=[1.0], y=[], u=[1.0], prices=[[30.0]],
        s_hourly=[7000.0], du_reject=[5.0])


def _canonical(report) -> str:
    """Report JSON with each family's violations sorted by (condition, element)."""
    doc = report.as_dict()
    for fam in doc["families"].values():
        fam["violations"].sort(key=lambda v: (v["condition"], v["element"]))
    return json.dumps(doc, sort_keys=True)


def _report_digests():
    """sha256 of every canonical report, the conditions that fired and the
    most violations any family listed."""
    digests, fired, most = {}, set(), 0
    for name, inst, sol in _digest_points():
        for rules in ("pcr", "umfs"):
            rep = verify_equilibrium(inst, sol, rules=rules)
            digests[f"{name}/{rules}"] = hashlib.sha256(_canonical(rep).encode()).hexdigest()
            for fam in rep.families.values():
                fired.update(v.condition for v in fam.violations)
                most = max(most, len(fam.violations))
    return digests, fired, most


def test_reports_on_points_off_the_engine_match_the_recorded_digests():
    # recorded with the per-element verifier at commit b7edb48; the order of
    # violations is not pinned, everything else in a report is
    with open(_REPORT_DIGESTS) as fh:
        want = json.load(fh)
    digests, fired, most = _report_digests()
    assert fired == _CONDITIONS
    assert most < 200  # below the cap the set of violations is order-free
    assert digests == want
