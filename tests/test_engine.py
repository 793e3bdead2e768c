from dataclasses import replace

import numpy as np
import pytest

from damclear import backend as be
from damclear import engine
from damclear.engine import (
    ClearingError,
    ClearingRequest,
    build_request_model,
    clear,
    compare_pab_models,
    staged_clear,
)
from damclear.fileio import GeneratorConfig, generate
from damclear.model import Instance, single_node_network
from damclear.verify import verify_equilibrium

from conftest import make_crossing_pair, make_day, make_mic, make_pab_chain, make_toy


TABLE = {
    # objective -> (objective value, welfare, volume, total OC, price)
    "welfare": (450.0, 450.0, 10.0, 800.0, 50.0),
    "volume": (20.0, 440.0, 20.0, 50.0, 10.0),
    "min_opportunity_cost": (50.0, 440.0, 20.0, 50.0, 10.0),
}
VALUE = {
    "welfare": lambda s: s.welfare,
    "volume": lambda s: s.traded_volume,
    "min_opportunity_cost": lambda s: s.total_opportunity_cost,
}


def test_toy_all_objectives_both_rules():
    toy = make_toy()
    for rules in ("pcr", "umfs"):
        for objective, (val, wel, vol, oc, price) in TABLE.items():
            sol = clear(toy, ClearingRequest(objective=objective, rules=rules))
            assert sol.solver_status == "optimal"
            assert sol.welfare == pytest.approx(wel, abs=1e-6), (rules, objective)
            assert sol.traded_volume == pytest.approx(vol, abs=1e-6)
            assert sol.total_opportunity_cost == pytest.approx(oc, abs=1e-6)
            assert sol.prices[0, 0] == pytest.approx(price, abs=1e-6)
            got = {
                "welfare": sol.welfare,
                "volume": sol.traded_volume,
                "min_opportunity_cost": sol.total_opportunity_cost,
            }[objective]
            assert got == pytest.approx(val, abs=1e-6)
            rep = verify_equilibrium(toy, sol, rules=rules)
            assert rep.overall_pass, (rules, objective, rep.failing_families())


def test_crossing_pair_clears_inside_band():
    inst = make_crossing_pair()
    sol = clear(inst, ClearingRequest())
    assert sol.welfare == pytest.approx(100.0, abs=1e-6)
    assert sol.traded_volume == pytest.approx(10.0, abs=1e-6)
    assert 20.0 - 1e-6 <= sol.prices[0, 0] <= 30.0 + 1e-6
    assert verify_equilibrium(inst, sol).overall_pass


def test_empty_instance_clears_to_zero():
    inst = Instance((), (), (), single_node_network(), 100.0)
    sol = clear(inst, ClearingRequest())
    assert sol.welfare == 0.0
    assert sol.traded_volume == 0.0
    assert verify_equilibrium(inst, sol).overall_pass


def test_request_validation():
    with pytest.raises(ValueError):
        ClearingRequest(objective="revenue")
    with pytest.raises(ValueError):
        ClearingRequest(rules="euphemia")


def test_mic_acceptance_threshold():
    # income tops out at 10000; fixed + variable*100 crosses it at 8000
    accepted = clear(make_mic(1000.0), ClearingRequest())
    assert accepted.u[0] == 1.0
    rejected = clear(make_mic(9000.0), ClearingRequest())
    assert rejected.u[0] == 0.0
    assert rejected.welfare == 0.0


def test_pab_gap_between_rulesets():
    inst = make_pab_chain()
    u = clear(inst, ClearingRequest(objective="welfare", rules="umfs"))
    p = clear(inst, ClearingRequest(objective="welfare", rules="pcr"))
    assert u.welfare == pytest.approx(280.0, abs=1e-6)
    assert p.welfare == pytest.approx(0.0, abs=1e-9)
    assert np.all(u.y == 1.0)
    assert np.all(p.y == 0.0)
    # the losing sell block is compensated, not priced
    assert u.d_accept[2] > 1e-6
    assert verify_equilibrium(inst, u, rules="umfs").overall_pass


def test_relaxation_start_drops_blocks_to_repair_a_rounding():
    # the chain's relaxation has B0 fractional; under pcr every rounding
    # that accepts a block is infeasible, and there is no MIC bid to drop
    inst = make_pab_chain()
    for rules in ("pcr", "umfs"):
        request = ClearingRequest(rules=rules)
        bound, start = engine._relaxation_start(build_request_model(inst, request), request)
        assert start is not None, rules
        assert start.objective <= bound + 1e-9 * (1.0 + abs(bound)), rules
        sol = clear(inst, request)
        assert sol.welfare == pytest.approx({"pcr": 0.0, "umfs": 280.0}[rules], abs=1e-6)
        assert verify_equilibrium(inst, sol, rules=rules).overall_pass, rules


def test_compare_pab_models_toy():
    toy = make_toy()
    out = compare_pab_models(toy)
    assert out["umfs"].welfare == pytest.approx(450.0, abs=1e-6)
    assert out["pcr"].welfare == pytest.approx(450.0, abs=1e-6)
    assert out["umfs"].welfare >= out["pcr"].welfare - 1e-9
    for rules, residual in out["decomposition_residuals"].items():
        assert residual <= 1e-6 * (1.0 + abs(out[rules].welfare))


def test_compare_pab_models_chain():
    out = compare_pab_models(make_pab_chain())
    assert out["umfs"].welfare == pytest.approx(280.0, abs=1e-6)
    assert out["pcr"].welfare == pytest.approx(0.0, abs=1e-9)
    assert max(out["decomposition_residuals"].values()) <= 1e-6 * 281.0


def _mic_instance():
    # 5 blocks and 2 MIC bids; under pcr welfare the start is handed off
    # (welfare 14716.86 against the bound) and stage 2 finds 15484.46
    return generate(GeneratorConfig(seed=14, n_blocks=5, n_mic=2))


def test_heuristic_mic_block_matches_exact(monkeypatch):
    inst = _mic_instance()
    request = ClearingRequest()
    _, start = engine._relaxation_start(build_request_model(inst, request), request)
    assert start.status == "feasible_gap"
    exact = clear(inst, request)
    calls = _count_mip_calls(monkeypatch)
    trace = {}
    sol = staged_clear(inst, request, trace=trace)
    assert sol.welfare == pytest.approx(exact.welfare, abs=1e-6)
    stages = trace["stage_objectives"]
    assert len(stages) == 4 and stages[0] == start.objective
    slack = 1e-9 * (1.0 + abs(stages[3]))
    # blocks-rejected stage cannot beat the full model; later stages improve
    assert stages[1] <= stages[2] + slack
    assert stages[2] > stages[0] + 1.0
    assert stages[3] >= stages[2] - slack
    # stage 3 starts from the stage-2 point, the better of the two
    assert len(calls) == 3
    assert float(build_request_model(inst, request).objective @ calls[2]) == pytest.approx(stages[2])
    assert verify_equilibrium(inst, sol).overall_pass


def test_heuristic_mic_block_kept_warm_start_reports_gap(monkeypatch):
    # a zero stage-3 time limit keeps the stage-2 point, which has no bound
    # of HiGHS's own: it gets the relaxation bound and a finite gap
    inst = _mic_instance()
    request = ClearingRequest()
    bound, _ = engine._relaxation_start(build_request_model(inst, request), request)
    _count_mip_calls(monkeypatch, zero_time_limit_on=3)
    trace = {}
    sol = staged_clear(inst, request, trace=trace)
    stages = trace["stage_objectives"]
    assert stages[3] == stages[2]
    assert sol.solver_status == "feasible_gap"
    assert sol.welfare == pytest.approx(stages[2], rel=1e-9)
    assert sol.solver_gap == pytest.approx(abs(bound - stages[2]) / (1.0 + abs(stages[2])))
    assert 0.0 < sol.solver_gap < 1.0
    assert verify_equilibrium(inst, sol).overall_pass


def test_kept_start_gets_the_relaxation_bound(monkeypatch):
    # the toy's start (welfare 450) is 0.089 below its relaxation bound
    # (490); a MIP stopped by a zero time limit keeps it without a bound
    toy = make_toy()
    request = ClearingRequest()
    bound, start = engine._relaxation_start(build_request_model(toy, request), request)
    assert start.status == "feasible_gap" and bound == pytest.approx(490.0)
    calls = _count_mip_calls(monkeypatch, zero_time_limit_on=1)
    resolves = []
    monkeypatch.setattr(be, "resolve_duals", lambda *args, **kwargs: resolves.append(args))
    sol = clear(toy, request)
    assert len(calls) == 1 and resolves == []
    assert sol.solver_status == "feasible_gap"
    assert sol.welfare == pytest.approx(450.0, abs=1e-6)
    assert sol.solver_gap == pytest.approx(40.0 / 451.0)
    assert verify_equilibrium(toy, sol).overall_pass


def test_heuristic_volume_matches_exact():
    toy = make_toy()
    trace = {}
    sol = staged_clear(toy, ClearingRequest(objective="volume"), trace=trace)
    assert sol.traded_volume == pytest.approx(20.0, abs=1e-6)
    stages = trace["stage_objectives"]
    # the start (20) is handed off; stage 1 is welfare (450); stage 2
    # re-optimizes volume on that selection
    assert stages == pytest.approx([20.0, 450.0, 10.0, 20.0], abs=1e-6)
    assert verify_equilibrium(toy, sol).overall_pass


def test_heuristic_min_oc_matches_exact():
    toy = make_toy()
    trace = {}
    sol = staged_clear(toy, ClearingRequest(objective="min_opportunity_cost"), trace=trace)
    assert sol.total_opportunity_cost == pytest.approx(50.0, abs=1e-6)
    stages = trace["stage_objectives"]
    # the start and the welfare selection {C} carry OC 800; the full
    # stage finds {D} at 50
    assert stages == pytest.approx([800.0, 450.0, 800.0, 50.0], abs=1e-6)
    assert verify_equilibrium(toy, sol).overall_pass


def test_staged_matches_exact_on_seeded_instances():
    for seed in range(1, 7):
        inst = generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))
        for rules in ("pcr", "umfs"):
            for objective, get in VALUE.items():
                request = ClearingRequest(objective=objective, rules=rules)
                staged = staged_clear(inst, request)
                exact = get(clear(inst, request))
                got = get(staged)
                case = (seed, rules, objective)
                assert abs(got - exact) <= 1e-6 * (1.0 + abs(exact)), (case, got, exact)
                rep = verify_equilibrium(inst, staged, rules=rules)
                assert rep.overall_pass, (case, rep.failing_families())


def test_staged_clear_certifies_a_day_whose_stage_1_runs_out():
    # stage 1 of this day (MIC bids only, blocks rejected) needs longer
    # than its quarter of the time limit; the start certifies the day
    inst = make_day(3)
    request = ClearingRequest(
        rules="pcr", solve_options=be.SolveOptions(relative_gap_target=0.002, time_limit=120.0)
    )
    trace = {}
    sol = staged_clear(inst, request, trace=trace)
    assert sol.solver_status == "optimal"
    assert sol.solver_gap <= 0.002
    assert len(trace["stage_objectives"]) == 1
    assert verify_equilibrium(inst, sol).overall_pass


def test_heuristics_flag_infeasible_budget():
    # a near-zero time limit leaves every stage without a point; that
    # must surface as a ClearingError, not hang
    inst = make_mic(1000.0)
    with pytest.raises(ClearingError):
        staged_clear(inst, ClearingRequest(solve_options=be.SolveOptions(time_limit=4e-9)))


def test_solution_reports_gap_and_status():
    sol = clear(make_toy(), ClearingRequest())
    assert sol.solver_status == "optimal"
    assert sol.solver_gap <= 1e-6


def _count_mip_calls(monkeypatch, zero_time_limit_on=None):
    """Record the warm start of every MIP solve that a clear makes. The
    solve numbered zero_time_limit_on (counting from 1) gets a zero time
    limit: HiGHS then stops before it has a point or a bound of its own."""
    calls = []
    real = be.ScipyHighsBackend.solve_mip

    def counted(self, model, options=be.SolveOptions()):
        calls.append(None if model.warm_start is None else model.warm_start.copy())
        if len(calls) == zero_time_limit_on:
            options = replace(options, time_limit=0.0)
        return real(self, model, options)

    monkeypatch.setattr(be.ScipyHighsBackend, "solve_mip", counted)
    return calls


def test_certified_relaxation_start_skips_the_mip(monkeypatch):
    # the start's own fixed-selection LP prices it: no MIP and no resolve
    inst = generate(GeneratorConfig(seed=4, n_blocks=4, n_mic=1))
    calls = _count_mip_calls(monkeypatch)
    resolves = []
    real_resolve = be.resolve_duals

    def resolve(*args, **kwargs):
        resolves.append(args)
        return real_resolve(*args, **kwargs)

    monkeypatch.setattr(be, "resolve_duals", resolve)
    for rules in ("pcr", "umfs"):
        sol = clear(inst, ClearingRequest(rules=rules))
        assert sol.solver_status == "optimal"
        assert sol.solver_gap <= ClearingRequest().solve_options.relative_gap_target
        assert verify_equilibrium(inst, sol, rules=rules).overall_pass
    assert calls == []
    assert resolves == []


def test_uncertified_relaxation_start_is_the_mip_warm_start(monkeypatch):
    inst = generate(GeneratorConfig(seed=5, n_blocks=5, n_mic=2))
    request = ClearingRequest()
    bound, start = engine._relaxation_start(build_request_model(inst, request), request)
    assert start.status == "feasible_gap" and start.used_warm_start
    assert start.best_bound == bound
    assert start.best_bound >= start.objective
    calls = _count_mip_calls(monkeypatch)
    sol = clear(inst, request)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], start.columns)
    assert sol.welfare >= start.objective - 1e-9 * (1.0 + abs(start.objective))
    assert verify_equilibrium(inst, sol).overall_pass


def test_binary_free_model_builds_no_lp_session(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LpSession built for a model without binaries")

    inst = generate(GeneratorConfig(seed=3, n_blocks=0, n_mic=0))
    request = ClearingRequest()
    with monkeypatch.context() as patch:
        patch.setattr(be, "LpSession", refuse)
        assert engine._relaxation_start(build_request_model(inst, request), request) == (None, None)
    sol = clear(inst, request)
    assert sol.solver_status == "optimal"
    assert verify_equilibrium(inst, sol).overall_pass


@pytest.mark.parametrize("seed", (21, 42))
def test_staged_clear_runs_no_stages_1_2_without_binaries(seed):
    # sweep-family seeds 21 and 42 have no block and no MIC bid: stages 1-2
    # could only return the LP optimum that the final solve finds
    inst = generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))
    for rules in ("pcr", "umfs"):
        for objective, get in VALUE.items():
            request = ClearingRequest(objective=objective, rules=rules)
            trace = {}
            staged = get(staged_clear(inst, request, trace=trace))
            final = trace["stage_objectives"][-1]
            assert trace["stage_objectives"] == [None, final], (rules, objective)
            assert staged == pytest.approx(final, rel=1e-9, abs=1e-9)
            assert staged == get(clear(inst, request)), (rules, objective)


def test_spent_time_limit_falls_through_to_the_mip(monkeypatch):
    # no relaxation LP runs, so the MIP is called as before, without a start
    inst = generate(GeneratorConfig(seed=4, n_blocks=4, n_mic=1))
    calls = _count_mip_calls(monkeypatch)
    with pytest.raises(ClearingError, match="time_limit_no_solution"):
        clear(inst, ClearingRequest(solve_options=be.SolveOptions(time_limit=0.0)))
    assert calls == [None]


class _CountingBackend:
    """Delegates to the bundled backend and records the kind of each call."""

    def __init__(self, calls):
        self.inner = be.get_backend("scipy-highs")
        self.calls = calls

    def solve_mip(self, model, options=be.SolveOptions()):
        self.calls.append("mip")
        return self.inner.solve_mip(model, options)

    def solve_lp(self, model, options=be.SolveOptions()):
        self.calls.append("lp")
        return self.inner.solve_lp(model, options)


def test_registry_is_the_route_to_the_backend(monkeypatch):
    calls = []
    monkeypatch.setitem(be._REGISTRY, "counting", _CountingBackend(calls))
    monkeypatch.setenv("DAMCLEAR_BACKEND", "counting")
    real_resolve = be.resolve_duals

    def resolve(*args, **kwargs):
        calls.append("resolve")
        return real_resolve(*args, **kwargs)

    monkeypatch.setattr(be, "resolve_duals", resolve)
    # an uncertified start that the MIP keeps: the start's own LP priced it
    inst = generate(GeneratorConfig(seed=5, n_blocks=5, n_mic=2))
    sol = clear(inst, ClearingRequest())
    assert verify_equilibrium(inst, sol).overall_pass
    assert sol.solver_status == "optimal"
    assert sol.solver_gap <= ClearingRequest().solve_options.relative_gap_target
    assert calls == ["mip"]
    calls.clear()
    # a MIP that beats its start: one MIP, then the resolve's LP
    inst = generate(GeneratorConfig(seed=14, n_blocks=5, n_mic=2))
    assert verify_equilibrium(inst, clear(inst, ClearingRequest())).overall_pass
    assert calls == ["mip", "resolve", "lp"]
    calls.clear()
    # stages 1 and 2, then a MIP from the better stage-2 point, re-priced
    inst = _mic_instance()
    assert verify_equilibrium(inst, staged_clear(inst, ClearingRequest())).overall_pass
    assert calls == ["mip", "mip", "mip", "resolve", "lp"]


def test_clear_matches_mip_only_reference_on_seeded_instances():
    for seed in range(1, 21):
        inst = generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))
        for rules in ("pcr", "umfs"):
            for objective, get in VALUE.items():
                request = ClearingRequest(objective=objective, rules=rules)
                model = build_request_model(inst, request)
                outcome = be.solve_mip(model, request.solve_options)
                want = get(engine._finalize(inst, model, outcome, request))
                got = get(clear(inst, request))
                case = (seed, rules, objective)
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (case, got, want)
