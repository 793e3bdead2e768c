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
    # an instance validates itself when it is built, so a malformed one
    # never exists for clear to see
    toy = make_toy()
    with pytest.raises(InvalidInstanceError, match="duplicate hourly"):
        replace(toy, hourly_bids=toy.hourly_bids + toy.hourly_bids[:1])


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
    # 5 blocks and 2 MIC bids; under pcr welfare the rounding (welfare
    # 14716.86) is not certified by the relaxation bound, and the branch-
    # and-bound closes at 15484.46, the MIP's optimum
    return generate(GeneratorConfig(seed=14, n_blocks=5, n_mic=2))


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


def _count_mip_calls(monkeypatch):
    """Record the binary count of the model of every MIP solve a clear makes."""
    calls = []
    real = be.ScipyHighsBackend.solve_mip

    def counted(self, model, options=be.SolveOptions()):
        calls.append(model.n_binary)
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


@pytest.mark.parametrize("objective, rounding_value", (
    ("welfare", None),
    ("volume", 20.0),
    ("min_opportunity_cost", 800.0),
), ids=("welfare", "volume", "min_opportunity_cost"))
def test_uncertified_rounding_is_closed_by_the_search(monkeypatch, objective, rounding_value):
    # welfare on a seeded instance with MIC bids; the toy's volume rounding
    # is optimal but not certified, and its min-oc rounding ({C}) is
    # beaten by {D} (50)
    if objective == "welfare":
        inst = generate(GeneratorConfig(seed=5, n_blocks=5, n_mic=2))
    else:
        inst = make_toy()
    request = ClearingRequest(objective=objective)
    model = build_request_model(inst, request)
    session = be.LpSession(model, request.solve_options)
    rounding, stop = engine._round(session, model, session.relaxation)
    assert stop is None
    target = request.solve_options.relative_gap_target
    assert engine._gap(session.relaxation.objective, rounding.objective) > target
    if rounding_value is not None:
        assert rounding.objective == pytest.approx(rounding_value, abs=1e-6)
    bound, start = engine._relaxation_start(model, request)
    assert start.status == "optimal" and start.message.startswith("LP branch-and-bound, ")
    assert start.best_bound == bound and start.mip_gap <= target
    sign = 1.0 if model.objective_sense == "max" else -1.0
    assert sign * (start.objective - rounding.objective) >= -1e-9 * (1.0 + abs(rounding.objective))
    calls = _count_mip_calls(monkeypatch)
    sol = clear(inst, request)
    assert calls == []
    want = enumerate_selections(inst, rules="pcr").optima[objective].value
    assert VALUE[objective](sol) == pytest.approx(want, abs=1e-6 * (1.0 + abs(want)))
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


def test_failed_leaf_lps_are_skipped_with_their_parents_bound(monkeypatch):
    # every fixed selection in the search fails: each is skipped, its
    # parent's objective joins the bound, and the search closes with the
    # rounding as its incumbent, uncertified
    inst = _mic_instance()
    request = ClearingRequest()
    model = build_request_model(inst, request)
    session = be.LpSession(model, request.solve_options)
    rounding, _ = engine._round(session, model, session.relaxation)
    rounding_lps = session.lp_count
    real, real_branch = be.LpSession.bound, engine._branch
    failed, branching, searched = [], [], []

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
    assert failed
    assert _lp_count(start) == rounding_lps + len(searched)
    want = enumerate_selections(inst, rules="pcr").optima["welfare"].value
    assert bound - want >= -be.LP_FEASIBILITY_TOL * (1.0 + abs(want))
    assert engine._gap(bound, rounding.objective) > request.solve_options.relative_gap_target
    assert start.status == "feasible_gap" and start.best_bound == bound
    assert start.message.startswith("LP branch-and-bound, ") and " closed at gap " in start.message
    np.testing.assert_array_equal(start.columns, rounding.columns)
    calls = _count_mip_calls(monkeypatch)
    sol = clear(inst, request)
    assert calls == []
    assert sol.solver_status == "feasible_gap" and sol.solver_gap == start.mip_gap
    assert verify_equilibrium(inst, sol).overall_pass


@pytest.mark.parametrize("target", (1e-6, 1e-2))
def test_branch_and_bound_bound_brackets_the_oracle_optimum(monkeypatch, target):
    # the bound may pass the optimum only by the LP tolerance; at the looser
    # target pruned nodes leave it strictly beyond the incumbent. The same
    # holds for a search that the time limit stops after k node LPs: its
    # bound still brackets the optimum, it is feasible_gap exactly when
    # that gap exceeds the target, and without an incumbent it raises
    real_bound, real_branch = be.LpSession.bound, engine._branch
    search = {"limit": None, "lps": None}  # node LPs allowed and run; lps is None outside a search

    def branch(*args):
        search["lps"] = 0
        try:
            return real_branch(*args)
        finally:
            search["lps"] = None

    def node_lp(session, lo, hi):
        if search["lps"] is not None:
            if search["limit"] is not None and search["lps"] >= search["limit"]:
                return be.SolveOutcome("time_limit_no_solution", None, None, 0.0)
            search["lps"] += 1
        return real_bound(session, lo, hi)

    monkeypatch.setattr(engine, "_branch", branch)
    monkeypatch.setattr(be.LpSession, "bound", node_lp)
    separated = stopped = gapped = 0
    for inst in (make_toy(), _mic_instance()):
        for rules in ("pcr", "umfs"):
            optima = enumerate_selections(inst, rules=rules).optima
            for objective in VALUE:
                request = ClearingRequest(objective=objective, rules=rules,
                                          solve_options=be.SolveOptions(relative_gap_target=target))
                model = build_request_model(inst, request)
                search["limit"] = None
                bound, start = engine._relaxation_start(model, request)
                if not start.message.startswith("LP branch-and-bound, "):
                    continue
                full = _lp_count(start)
                sign = 1.0 if model.objective_sense == "max" else -1.0
                want = optima[objective].value
                tol = be.LP_FEASIBILITY_TOL * (1.0 + abs(want))
                case = (rules, objective)
                assert start.status == "optimal" and start.best_bound == bound, case
                assert sign * (bound - want) >= -tol, case
                assert start.mip_gap <= target, case
                assert abs(start.objective - want) <= target * (1.0 + abs(want)), case
                separated += sign * (bound - start.objective) > 1e-9 * (1.0 + abs(want))
                for k in range(full):
                    search["limit"] = k
                    try:
                        bound, start = engine._relaxation_start(model, request)
                    except ClearingError as exc:
                        assert "the LP branch-and-bound stopped (time_limit_no_solution)" in str(exc), case
                        assert str(exc).endswith("; no MIP was tried"), case
                        continue
                    if _lp_count(start) == full:  # the search closed within k node LPs
                        break
                    stopped += 1
                    gap = engine._gap(bound, start.objective)
                    assert sign * (bound - want) >= -tol, (case, k)
                    assert sign * (want - start.objective) >= -tol, (case, k)
                    assert start.best_bound == bound and start.mip_gap == gap, (case, k)
                    assert start.status == ("feasible_gap" if gap > target else "optimal"), (case, k)
                    if gap > target:
                        assert "stopped by time_limit_no_solution" in start.message, (case, k)
                        gapped += 1
    assert stopped and gapped
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
def test_spent_time_limit_names_the_stage_that_stopped(monkeypatch, case, time_limit):
    # the relaxation LP finds no time left, so no selection is found: the
    # error names the stage, its LPs and the status, and no MIP runs
    if case == "seeded":
        inst = generate(GeneratorConfig(seed=4, n_blocks=4, n_mic=1))
    else:
        inst = make_mic(1000.0)
    calls = _count_mip_calls(monkeypatch)
    with pytest.raises(ClearingError, match=r"the LP relaxation stopped \(time_limit_no_solution\) "
                       r"after 0 LPs; no MIP was tried"):
        clear(inst, ClearingRequest(solve_options=be.SolveOptions(time_limit=time_limit)))
    assert calls == []


@pytest.mark.parametrize("stage", ("the rounding", "the LP branch-and-bound"))
def test_a_search_without_a_selection_names_its_stage(monkeypatch, stage):
    # every LP after the relaxation finds the time spent; without the
    # rounding's selections the search starts without an incumbent
    inst = _mic_instance()
    monkeypatch.setattr(be.LpSession, "bound", lambda session, lo, hi: be.SolveOutcome(
        "time_limit_no_solution", None, None, 0.0))
    if stage == "the LP branch-and-bound":
        monkeypatch.setattr(engine, "_round", lambda session, model, relax: (None, None))
    with pytest.raises(ClearingError, match=rf"^no admissible selection: {stage} stopped "
                       r"\(time_limit_no_solution\) after 1 LPs; no MIP was tried$"):
        clear(inst, ClearingRequest())


@pytest.mark.parametrize("objective", ("volume", "min_opportunity_cost"))
def test_welfare_selection_is_the_candidate_when_the_rounding_finds_none(monkeypatch, objective):
    # the welfare clear's selection, fixed in the objective's own session,
    # is the search's first incumbent; the search then closes as usual
    real_candidate, real_branch, real_round = engine._welfare_candidate, engine._branch, engine._round
    candidates, incumbents = [], []

    def candidate(*args):
        candidates.append(real_candidate(*args))
        return candidates[-1]

    def branch(session, model, root, incumbent, target):
        incumbents.append((model.objective, incumbent))
        return real_branch(session, model, root, incumbent, target)

    monkeypatch.setattr(engine, "_welfare_candidate", candidate)
    monkeypatch.setattr(engine, "_branch", branch)
    inst = _mic_instance()
    for rules in ("pcr", "umfs"):
        # the rounding finds a selection here, so no candidate is tried
        for obj in VALUE:
            clear(inst, ClearingRequest(objective=obj, rules=rules))
        assert candidates == [], rules
        welfare_request = ClearingRequest(rules=rules)
        welfare_model = build_request_model(inst, welfare_request)
        _, welfare = engine._relaxation_start(welfare_model, welfare_request)
        want_sel = np.round(engine._binaries(welfare_model, welfare.columns))
        request = ClearingRequest(objective=objective, rules=rules)
        model = build_request_model(inst, request)
        with monkeypatch.context() as patch:
            # the welfare clear inside the candidate keeps its rounding
            patch.setattr(engine, "_round", lambda session, m, relax: (
                (None, None) if np.array_equal(m.objective, model.objective)
                else real_round(session, m, relax)))
            incumbents.clear()
            bound, start = engine._relaxation_start(model, request)
            # the welfare clear's own search runs on the welfare objective
            candidate_incumbents = [inc for c, inc in incumbents if np.array_equal(c, model.objective)]
            sol = clear(inst, request)
        assert len(candidates) == 2 and candidates[0] is not None, rules
        np.testing.assert_array_equal(np.round(engine._binaries(model, candidates[0].columns)), want_sel)
        assert candidate_incumbents in ([], [candidates[0]]), rules
        if not candidate_incumbents:
            assert start.message.startswith("welfare selection, "), rules
        want = enumerate_selections(inst, rules=rules).optima[objective].value
        assert start.status == "optimal", rules
        assert VALUE[objective](sol) == pytest.approx(want, abs=1e-6 * (1.0 + abs(want))), rules
        assert verify_equilibrium(inst, sol, rules=rules).overall_pass, rules
        candidates.clear()


def test_a_welfare_clear_that_raises_gives_no_candidate():
    inst = _mic_instance()
    request = ClearingRequest(objective="volume", solve_options=be.SolveOptions(time_limit=60.0))
    model = build_request_model(inst, request)
    session = be.LpSession(model, request.solve_options)
    session.time_left = lambda: 0.0  # the welfare relaxation gets no time
    lps = session.lp_count
    assert engine._welfare_candidate(session, model, request) is None
    assert session.lp_count == lps


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
    # a model with binaries is searched on the bundled LpSession, whose
    # LPs price the selection: no backend call
    for seed in (5, 14):
        inst = generate(GeneratorConfig(seed=seed, n_blocks=5, n_mic=2))
        sol = clear(inst, ClearingRequest())
        assert verify_equilibrium(inst, sol).overall_pass
        assert sol.solver_status == "optimal"
        assert sol.solver_gap <= ClearingRequest().solve_options.relative_gap_target
    assert calls == []
    # a model without binaries: one MIP, then the resolve's LP
    inst = generate(GeneratorConfig(seed=3, n_blocks=0, n_mic=0))
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
