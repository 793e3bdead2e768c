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
)
from damclear.fileio import GeneratorConfig, generate
from damclear.model import Instance, InvalidInstanceError, single_node_network
from damclear.oracle import enumerate_selections
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


def test_clear_rejects_a_malformed_instance():
    # the model build validates the instance; the pipeline does not repeat it
    toy = make_toy()
    bad = replace(toy, hourly_bids=toy.hourly_bids + toy.hourly_bids[:1])
    with pytest.raises(InvalidInstanceError, match="duplicate hourly"):
        clear(bad, ClearingRequest())


def test_request_validation():
    with pytest.raises(ValueError):
        ClearingRequest(objective="revenue")
    with pytest.raises(ValueError):
        ClearingRequest(rules="euphemia")


def test_request_rejects_a_warm_start():
    # clear hands the MIP its own rounding; a request's warm start would
    # silently replace it
    with pytest.raises(ValueError, match="warm start"):
        ClearingRequest(solve_options=be.SolveOptions(warm_start=np.zeros(3)))


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
    # 5 blocks and 2 MIC bids; under pcr welfare the rounding (welfare
    # 14716.86) is not certified by the relaxation bound, the branch-and-
    # bound closes at 15484.46, and without it the MIP finds 15484.46
    return generate(GeneratorConfig(seed=14, n_blocks=5, n_mic=2))


def _without_branching(monkeypatch):
    """Send an uncertified rounding straight to the MIP: the branch-and-
    bound certifies these small instances, so they would never reach it."""
    monkeypatch.setattr(engine, "_BRANCH_LPS", 0)


def test_kept_start_gets_the_relaxation_bound(monkeypatch):
    # the toy's start (welfare 450) is 0.089 below its relaxation bound
    # (490); a MIP stopped by a zero time limit keeps it without a bound
    _without_branching(monkeypatch)
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


def test_clear_certifies_a_day_under_a_time_limit(monkeypatch):
    # the start certifies this 2 x 24 day, so no MIP runs under the limit
    inst = make_day(3)
    request = ClearingRequest(
        rules="pcr", solve_options=be.SolveOptions(relative_gap_target=0.002, time_limit=120.0)
    )
    calls = _count_mip_calls(monkeypatch)
    sol = clear(inst, request)
    assert calls == []
    assert sol.solver_status == "optimal"
    assert sol.solver_gap <= 0.002
    assert verify_equilibrium(inst, sol).overall_pass


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


@pytest.mark.parametrize("objective, start_value, want", (
    ("welfare", None, None),
    ("volume", 20.0, 20.0),
    ("min_opportunity_cost", 800.0, 50.0),
), ids=("welfare", "volume", "min_opportunity_cost"))
def test_uncertified_relaxation_start_is_the_mip_warm_start(monkeypatch, objective, start_value, want):
    # welfare on a seeded instance with MIC bids; the toy's volume start
    # is kept by the MIP, and its min-oc start ({C}) is beaten by {D}
    _without_branching(monkeypatch)
    if objective == "welfare":
        inst = generate(GeneratorConfig(seed=5, n_blocks=5, n_mic=2))
    else:
        inst = make_toy()
    request = ClearingRequest(objective=objective)
    model = build_request_model(inst, request)
    bound, start = engine._relaxation_start(model, request)
    assert start.status == "feasible_gap" and start.used_warm_start
    assert start.best_bound == bound
    sign = 1.0 if model.objective_sense == "max" else -1.0
    assert sign * (start.best_bound - start.objective) >= 0.0
    if start_value is not None:
        assert start.objective == pytest.approx(start_value, abs=1e-6)
    calls = _count_mip_calls(monkeypatch)
    sol = clear(inst, request)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], start.columns)
    got = VALUE[objective](sol)
    assert sign * (got - start.objective) >= -1e-9 * (1.0 + abs(start.objective))
    if want is not None:
        assert got == pytest.approx(want, abs=1e-6)
    assert sol.solver_status == "optimal"
    assert verify_equilibrium(inst, sol).overall_pass


def _lp_count(start):
    # the start's message reads "<method>, <n> LPs, <fate>"
    return int(start.message.split(", ")[1].split()[0])


def test_branch_and_bound_certifies_the_mic_instance_without_a_mip(monkeypatch):
    inst = _mic_instance()
    request = ClearingRequest()
    model = build_request_model(inst, request)
    want = engine._finalize(inst, model, be.solve_mip(model, request.solve_options), request).welfare
    _, start = engine._relaxation_start(model, request)
    assert start.status == "optimal" and start.message.startswith("LP branch-and-bound, ")
    calls = _count_mip_calls(monkeypatch)
    sol = clear(inst, request)
    assert calls == []
    assert sol.solver_status == "optimal"
    assert sol.solver_gap <= request.solve_options.relative_gap_target
    assert abs(sol.welfare - want) <= 1e-6 * (1.0 + abs(want))
    assert verify_equilibrium(inst, sol).overall_pass


@pytest.mark.parametrize("stop", ("failed leaf LP", "spent budget"))
def test_open_branch_and_bound_hands_the_rounding_to_the_mip(monkeypatch, stop):
    # the search stops: the rounding and the relaxation bound go to the MIP
    # exactly as they would without it
    inst = _mic_instance()
    request = ClearingRequest()
    model = build_request_model(inst, request)
    with monkeypatch.context() as patch:
        _without_branching(patch)
        rounding_bound, rounding = engine._relaxation_start(model, request)
    failed, branching, searched = [], [], []
    if stop == "spent budget":
        monkeypatch.setattr(engine, "_BRANCH_LPS", 3)
    else:
        real, real_branch = be.LpSession.bound, engine._branch

        def branch(*args):
            branching.append(None)
            try:
                return real_branch(*args)
            finally:
                branching.clear()

        def failing(session, lo, hi):
            if not branching:  # the rounding's fixed selections
                return real(session, lo, hi)
            if np.array_equal(lo, hi):  # a fixed selection in the search
                failed.append(None)
                return be.SolveOutcome("solver_failed", None, None, 0.0)
            searched.append(None)
            return real(session, lo, hi)

        monkeypatch.setattr(engine, "_branch", branch)
        monkeypatch.setattr(be.LpSession, "bound", failing)
    bound, start = engine._relaxation_start(model, request)
    assert len(failed) == (stop == "failed leaf LP")
    assert _lp_count(start) == _lp_count(rounding) + (3 if stop == "spent budget" else len(searched))
    assert bound == rounding_bound and start.best_bound == rounding.best_bound
    assert start.status == "feasible_gap" and start.message.startswith("LP-relaxation rounding, ")
    np.testing.assert_array_equal(start.columns, rounding.columns)
    calls = _count_mip_calls(monkeypatch)
    sol = clear(inst, request)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], rounding.columns)
    assert sol.solver_status == "optimal"
    assert verify_equilibrium(inst, sol).overall_pass


@pytest.mark.parametrize("target", (1e-6, 1e-2))
def test_branch_and_bound_bound_brackets_the_oracle_optimum(target):
    # the bound may pass the optimum only by the LP tolerance; at the looser
    # target pruned nodes leave it strictly beyond the incumbent
    separated = 0
    for inst in (make_toy(), _mic_instance()):
        for rules in ("pcr", "umfs"):
            optima = enumerate_selections(inst, rules=rules).optima
            for objective in VALUE:
                request = ClearingRequest(objective=objective, rules=rules,
                                          solve_options=be.SolveOptions(relative_gap_target=target))
                model = build_request_model(inst, request)
                bound, start = engine._relaxation_start(model, request)
                if not start.message.startswith("LP branch-and-bound, "):
                    continue
                sign = 1.0 if model.objective_sense == "max" else -1.0
                want = optima[objective].value
                case = (rules, objective)
                assert start.status == "optimal" and start.best_bound == bound, case
                assert sign * (bound - want) >= -be.LP_FEASIBILITY_TOL * (1.0 + abs(want)), case
                assert start.mip_gap <= target, case
                assert abs(start.objective - want) <= target * (1.0 + abs(want)), case
                separated += sign * (bound - start.objective) > 1e-9 * (1.0 + abs(want))
    if target > 1e-3:
        assert separated


@pytest.mark.parametrize("child", ("lower", "infeasible"))
def test_near_integral_node_keeps_its_bound(monkeypatch, child):
    # a relaxation integral at the optimal selection but worth more than
    # that selection's fixed LP: the rounding is not certified, and the
    # search's fixed child (the same selection, priced lower, or ruled out)
    # must leave the node's own objective as the bound
    inst = _mic_instance()
    request = ClearingRequest()
    model = build_request_model(inst, request)
    sel = engine._selection(model, be.solve_mip(model, request.solve_options))
    real_init, real_bound = be.LpSession.__init__, be.LpSession.bound
    lifted = []

    def init(session, model, options=be.SolveOptions()):
        real_init(session, model, options)
        fixed = session.fix(sel["y"], sel["u"])
        lifted.append(fixed.objective + 1e-3 * (1.0 + abs(fixed.objective)))
        session.relaxation = replace(fixed, objective=lifted[-1])

    branching = []
    real_branch = engine._branch

    def branch(*args):
        branching.append(None)
        return real_branch(*args)

    def node_lp(session, lo, hi):
        if branching and child == "infeasible":
            return be.SolveOutcome("infeasible", None, None, 0.0)
        return real_bound(session, lo, hi)

    monkeypatch.setattr(be.LpSession, "__init__", init)
    monkeypatch.setattr(be.LpSession, "bound", node_lp)
    monkeypatch.setattr(engine, "_branch", branch)
    bound, start = engine._relaxation_start(model, request)
    assert branching
    assert bound >= lifted[0] and start.best_bound >= lifted[0]
    assert start.status == "feasible_gap" and start.mip_gap > request.solve_options.relative_gap_target
    np.testing.assert_array_equal(np.round(engine._binaries(model, start.columns)), np.r_[sel["y"], sel["u"]])


def test_failed_node_is_split_and_the_bound_still_brackets_the_optimum(monkeypatch):
    # the first node LP of every search fails, as a stalled one does: the
    # search splits the node on its first free binary, 1 first, instead of
    # giving up, and the bound it closes with still brackets the optimum
    real_bound, real_branch = be.LpSession.bound, engine._branch
    searching, searches = [], []

    def branch(*args):
        searches.append([])
        searching.append(None)
        try:
            return real_branch(*args)
        finally:
            searching.clear()

    def node_lp(session, lo, hi):
        if searching:
            searches[-1].append((lo.copy(), hi.copy()))
            if len(searches[-1]) == 1 and not np.array_equal(lo, hi):
                return be.SolveOutcome("solver_failed", None, None, 0.0, message="Unknown")
        return real_bound(session, lo, hi)

    monkeypatch.setattr(engine, "_branch", branch)
    monkeypatch.setattr(be.LpSession, "bound", node_lp)
    split = 0
    for inst in (make_toy(), _mic_instance()):
        for rules in ("pcr", "umfs"):
            optima = enumerate_selections(inst, rules=rules).optima
            for objective in VALUE:
                request = ClearingRequest(objective=objective, rules=rules)
                model = build_request_model(inst, request)
                searches.clear()
                bound, start = engine._relaxation_start(model, request)
                if not searches or np.array_equal(*searches[0][0]):
                    continue
                boxes = searches[0]
                lo, hi = boxes[0]
                j = np.flatnonzero(lo != hi)[0]
                children = []
                for side in (1.0, 0.0):
                    child_lo, child_hi = lo.copy(), hi.copy()
                    child_lo[j] = child_hi[j] = side
                    children.append((child_lo, child_hi))
                case = (rules, objective)
                for k, (child_lo, child_hi) in enumerate(children):
                    at = [n for n, box in enumerate(boxes)
                          if np.array_equal(box[0], child_lo) and np.array_equal(box[1], child_hi)]
                    assert at and (k or at[0] == 1), case
                sign = 1.0 if model.objective_sense == "max" else -1.0
                want = optima[objective].value
                assert start.message.startswith("LP branch-and-bound, "), case
                assert start.status == "optimal" and start.best_bound == bound, case
                assert sign * (bound - want) >= -be.LP_FEASIBILITY_TOL * (1.0 + abs(want)), case
                assert abs(start.objective - want) <= 1e-6 * (1.0 + abs(want)), case
                split += 1
    assert split


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


@pytest.mark.parametrize("case, time_limit", (("seeded", 0.0), ("mic", 4e-9)), ids=("seeded", "mic"))
def test_spent_time_limit_falls_through_to_the_mip(monkeypatch, case, time_limit):
    # the relaxation finds no start inside the limit, so the MIP is called
    # without one and its empty-handed stop surfaces as a ClearingError
    if case == "seeded":
        inst = generate(GeneratorConfig(seed=4, n_blocks=4, n_mic=1))
    else:
        inst = make_mic(1000.0)
    calls = _count_mip_calls(monkeypatch)
    with pytest.raises(ClearingError, match="time_limit_no_solution"):
        clear(inst, ClearingRequest(solve_options=be.SolveOptions(time_limit=time_limit)))
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
    _without_branching(monkeypatch)
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
