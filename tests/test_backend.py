import re

import numpy as np
import pytest

from scipy.optimize import linprog
from scipy.sparse import csc_array, vstack

from damclear import backend as bk
from damclear import engine, milp
from damclear.engine import ClearingRequest, build_request_model
from damclear.fileio import GeneratorConfig, generate
from damclear.model import InstanceIndex

from conftest import make_day, make_mic, make_pab_chain, make_toy


def _tiny(row_lo=(), row_hi=(), lb=-np.inf, ub=np.inf, objective=1.0):
    """Single-column model for exercising raw status mapping; row i reads
    row_lo[i] <= z <= row_hi[i]."""
    n = len(row_lo)
    return milp.MilpModel(
        instance=None, form="umfs",
        var_names=["z"], lb=np.array([float(lb)]), ub=np.array([float(ub)]),
        integrality=np.zeros(1),
        roles={"y": slice(0, 0), "u": slice(0, 0)},
        csc=(np.array([0, n], dtype=np.int32), np.arange(n, dtype=np.int32), np.ones(n)),
        row_lo=np.array(row_lo, dtype=float), row_hi=np.array(row_hi, dtype=float),
        row_names=[f"r{i}" for i in range(n)],
        objective=np.array([objective]), objective_sense="max",
    )


def _linprog_objective(model):
    """The model's LP relaxation solved by scipy.optimize.linprog, an
    outside reference for the backend's HiGHS LP path: equality rows as
    A_eq, the others oriented to <= (a row with a finite lower side negated)."""
    start, index, value = model.constraint_csc()
    A = csc_array((value, index, start), shape=(model.n_rows, model.n_cols)).tocsr()
    lo, hi = model.row_bounds()
    eq = lo == hi
    up, down = ~eq & np.isfinite(hi), ~eq & np.isfinite(lo)
    ub = up.any() or down.any()
    c = model.objective if model.objective_sense == "min" else -model.objective
    res = linprog(
        c,
        A_ub=vstack([A[up], -A[down]]) if ub else None,
        b_ub=np.concatenate([hi[up], -lo[down]]) if ub else None,
        A_eq=A[eq] if eq.any() else None, b_eq=lo[eq] if eq.any() else None,
        bounds=np.column_stack([model.lb, model.ub]), method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    assert res.status == 0, res.message
    return float(model.objective @ res.x)


def test_options_validation():
    with pytest.raises(ValueError):
        bk.SolveOptions(relative_gap_target=-1.0)
    bad = (
        {"relative_gap_target": float("nan")},
        {"time_limit": -1.0}, {"time_limit": float("nan")},
        {"thread_count": -3}, {"random_seed": -1},
    )
    for kwargs in bad:
        with pytest.raises(ValueError):
            bk.SolveOptions(**kwargs)
    # zero is in range for each: no search time, HiGHS's own thread count, seed 0
    bk.SolveOptions(relative_gap_target=0.0, time_limit=0.0, thread_count=0, random_seed=0)


def test_missing_objective_raises():
    m = milp.build_model(make_toy(), "umfs")
    with pytest.raises(bk.BackendError):
        bk.solve_lp(m)


def test_status_mapping():
    unb = _tiny()
    assert bk.solve_lp(unb).status == "unbounded"
    assert bk.solve_mip(unb).status == "unbounded"
    inf = _tiny(row_lo=(1.0, -np.inf), row_hi=(np.inf, 0.0))  # z >= 1, z <= 0
    assert bk.solve_lp(inf).status == "infeasible"
    assert bk.solve_mip(inf).status == "infeasible"
    box = _tiny(lb=0.0, ub=3.0)
    out = bk.solve_lp(box)
    assert out.status == "optimal" and out.objective == pytest.approx(3.0)
    assert out.has_solution


def test_toy_mip_and_resolve():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    out = bk.solve_mip(m, bk.SolveOptions())
    assert out.status == "optimal"
    assert out.objective == pytest.approx(450.0, abs=1e-6)
    rd = bk.resolve_duals(m, np.array([1.0, 0.0]), np.zeros(0))
    assert rd.status == "optimal"
    assert rd.objective == pytest.approx(450.0, abs=1e-6)
    assert rd.columns[m.roles["pi"]][0] == pytest.approx(50.0, abs=1e-6)


def test_resolve_rounds_near_integer_selection():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    rd = bk.resolve_duals(m, np.array([0.9999997, 3e-7]), np.zeros(0))
    assert rd.status == "optimal"
    assert rd.objective == pytest.approx(450.0, abs=1e-6)


def test_zero_column_models():
    # HiGHS reports a model without columns as Empty, feasible or not
    def empty(rhs):
        return milp.MilpModel(
            instance=None, form="umfs", var_names=[], lb=np.zeros(0), ub=np.zeros(0),
            integrality=np.zeros(0), roles={"y": slice(0, 0), "u": slice(0, 0)},
            csc=(np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)),
            row_lo=np.array([-np.inf]), row_hi=np.array([rhs]), row_names=["r0"],
            objective=np.zeros(0), objective_sense="max",
        )

    for solve in (bk.solve_lp, bk.solve_mip):
        out = solve(empty(1.0))  # 0 <= 1
        assert out.status == "optimal" and out.objective == 0.0
        assert out.columns.shape == (0,)
        assert solve(empty(-1.0)).status == "infeasible"  # 0 <= -1


def test_resolve_invalid_selection_is_infeasible():
    # {C, D} sells 30 MW against 25 MW of demand
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    rd = bk.resolve_duals(m, np.array([1.0, 1.0]), np.zeros(0))
    assert rd.status == "infeasible"


def test_resolve_rejects_wrong_shape():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    with pytest.raises(bk.BackendError):
        bk.resolve_duals(m, np.array([1.0]), np.zeros(0))


def test_random_convex_lps_match_linprog():
    # hourly-only instances have no binaries, so the welfare model is an LP
    for seed in range(8):
        inst = generate(GeneratorConfig(seed=seed, n_blocks=0, n_mic=0))
        m = milp.set_objective(milp.build_model(inst, "umfs"), "welfare")
        assert m.n_binary == 0
        out = bk.solve_lp(m, bk.SolveOptions())
        assert out.status == "optimal"
        want = _linprog_objective(m)
        assert out.objective == pytest.approx(want, abs=1e-6 * (1 + abs(want)))
        # and the MIP path agrees with the LP on a binary-free model,
        # without reporting HiGHS's MIP placeholders (bound 0, gap inf)
        mip = bk.solve_mip(m, bk.SolveOptions())
        assert mip.objective == pytest.approx(out.objective, abs=1e-6 * (1 + abs(out.objective)))
        assert mip.best_bound is None or mip.best_bound == pytest.approx(mip.objective)
        assert mip.mip_gap is None or mip.mip_gap == 0.0


def _assert_kept_point_without_bound(out):
    # HiGHS stopped before it had a bound, and the backend solves nothing
    # else to get one: the engine gives a kept start its relaxation bound
    assert out.best_bound is None and out.mip_gap is None
    assert out.message.startswith("kept warm point; ")


def _refuse_lp_solves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_mip ran an LP solve")

    monkeypatch.setattr(bk.ScipyHighsBackend, "solve_lp", refuse)
    monkeypatch.setattr(bk, "LpSession", refuse)


def test_warm_start_vector_kept_when_solver_has_nothing(monkeypatch):
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    base = bk.solve_mip(m, bk.SolveOptions())
    _refuse_lp_solves(monkeypatch)
    out = bk.solve_mip(m, bk.SolveOptions(time_limit=0.0, warm_start=base.columns))
    assert out.status == "feasible_gap"
    assert out.used_warm_start
    assert out.objective == pytest.approx(450.0, abs=1e-6)
    np.testing.assert_allclose(out.columns, base.columns)
    _assert_kept_point_without_bound(out)


def test_invalid_warm_start_rejected_but_solve_proceeds():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    out = bk.solve_mip(m, bk.SolveOptions(warm_start=np.full(m.n_cols, 1e6)))
    assert out.status == "optimal"
    assert out.objective == pytest.approx(450.0, abs=1e-6)
    assert not out.used_warm_start
    assert "rejected" in out.message
    # wrong length is ignored silently
    out2 = bk.solve_mip(m, bk.SolveOptions(warm_start=np.zeros(3)))
    assert out2.status == "optimal"


def test_model_warm_start_slot_is_used():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    base = bk.solve_mip(m, bk.SolveOptions())
    m2 = m.copy()
    m2.warm_start = base.columns
    out = bk.solve_mip(m2, bk.SolveOptions(time_limit=0.0))
    assert out.status == "feasible_gap" and out.used_warm_start
    _assert_kept_point_without_bound(out)


def test_warm_start_within_gap_target_is_certified_by_the_solver(monkeypatch):
    inst = generate(GeneratorConfig(seed=5, n_blocks=3, n_mic=2))
    m = build_request_model(inst, ClearingRequest())
    base = bk.solve_mip(m, bk.SolveOptions())
    lp_calls = []
    real_solve_lp = bk.ScipyHighsBackend.solve_lp

    def counted_solve_lp(self, *args, **kwargs):
        lp_calls.append(args)
        return real_solve_lp(self, *args, **kwargs)

    monkeypatch.setattr(bk.ScipyHighsBackend, "solve_lp", counted_solve_lp)
    out = bk.solve_mip(m, bk.SolveOptions(warm_start=base.columns))
    assert out.status == "optimal"
    assert out.used_warm_start
    np.testing.assert_array_equal(out.columns, base.columns)
    assert out.best_bound is not None and np.isfinite(out.best_bound)
    assert out.best_bound >= out.objective - 1e-9 * (1 + abs(out.objective))
    assert out.node_count is not None
    assert lp_calls == []  # the bound is HiGHS's, not the LP relaxation's


def test_solver_stdout_is_captured(capfd):
    # HiGHS printf's transformNewIntegerFeasibleSolution while solving this model
    inst = generate(GeneratorConfig(seed=6, n_blocks=6, n_mic=0))
    m = build_request_model(inst, ClearingRequest(objective="min_opportunity_cost", rules="umfs"))
    out = bk.solve_mip(m, bk.SolveOptions())
    assert out.status == "optimal"
    assert capfd.readouterr().out == ""
    assert re.search(r"\b[1-9]\d* line\(s\) of solver stdout captured", out.message)


def test_highs_private_api_is_present():
    # the backend drives these private scipy bindings directly
    from scipy.optimize._highspy import _core

    for name in ("HighsLp", "HighsSolution", "HighsVarType", "HighsModelStatus",
                 "HighsStatus", "ObjSense", "MatrixFormat"):
        assert hasattr(_core, name), name
    assert hasattr(_core.HighsModelStatus, "kUnknown")
    highs = _core._Highs()
    for name in ("passModel", "setOptionValue", "setSolution", "run",
                 "getModelStatus", "modelStatusToString", "getInfo", "getSolution",
                 "changeColsBounds"):
        assert callable(getattr(highs, name, None)), name
    info = highs.getInfo()
    for name in ("mip_dual_bound", "mip_gap", "mip_node_count", "objective_function_value",
                 "max_primal_infeasibility", "max_dual_infeasibility"):
        assert hasattr(info, name), name
    assert hasattr(highs.getSolution(), "value_valid")


def test_registry_and_env_selection(monkeypatch):
    assert "scipy-highs" in bk.available_backends()
    assert bk.get_backend("scipy-highs") is bk.get_backend()
    with pytest.raises(bk.BackendError):
        bk.get_backend("no-such-solver")
    monkeypatch.setenv("DAMCLEAR_BACKEND", "no-such-solver")
    with pytest.raises(bk.BackendError):
        bk.get_backend()
    monkeypatch.delenv("DAMCLEAR_BACKEND")

    sentinel = object()
    monkeypatch.setitem(bk._REGISTRY, "sentinel", sentinel)
    assert bk.get_backend("sentinel") is sentinel
    monkeypatch.setenv("DAMCLEAR_BACKEND", "sentinel")
    assert bk.get_backend() is sentinel


def test_seed_and_threads_are_accepted():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    out = bk.solve_mip(m, bk.SolveOptions(random_seed=7, thread_count=1))
    assert out.status == "optimal"
    assert out.objective == pytest.approx(450.0, abs=1e-6)


def _session_models():
    inst = generate(GeneratorConfig(seed=5, n_blocks=4, n_mic=2))
    for rules in ("pcr", "umfs"):
        yield rules, build_request_model(inst, ClearingRequest(rules=rules))


def _random_selections(model, count, seed):
    rng = np.random.default_rng(seed)
    ny = model.roles["y"].stop - model.roles["y"].start
    nu = model.roles["u"].stop - model.roles["u"].start
    return [(rng.integers(0, 2, ny).astype(float), rng.integers(0, 2, nu).astype(float))
            for _ in range(count)]


def test_lp_session_relaxation_matches_linprog():
    for rules, m in _session_models():
        want = _linprog_objective(m)
        session = bk.LpSession(m)
        assert session.relaxation.status == "optimal", rules
        assert session.lp_count == 1
        got = session.relaxation.objective
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want)), (rules, got, want)


def test_lp_session_fix_agrees_with_resolve_duals():
    for rules, m in _session_models():
        session = bk.LpSession(m)
        verdicts = set()
        for y, u in _random_selections(m, 20, seed=len(rules)):
            got = session.fix(y, u)
            want = bk.resolve_duals(m, y, u)
            case = (rules, y, u)
            assert got.status == want.status, case
            verdicts.add(got.status)
            if want.status == "optimal":
                assert abs(got.objective - want.objective) <= 1e-9 * (1.0 + abs(want.objective)), case
        assert verdicts == {"optimal", "infeasible"}, rules


def test_lp_session_bound_spans_the_relaxation_and_fix():
    # [0, 1] everywhere is the relaxation, lo == hi is fix(), and a node
    # in between is bounded by the relaxation (every model here maximizes)
    for rules, m in _session_models():
        session = bk.LpSession(m)
        n = session._cols.size
        whole = session.bound(np.zeros(n), np.ones(n))
        relax = session.relaxation.objective
        assert abs(whole.objective - relax) <= 1e-9 * (1.0 + abs(relax)), rules
        lo, hi = np.zeros(n), np.ones(n)
        hi[0] = 0.0
        node = session.bound(lo, hi)
        assert node.objective <= relax + 1e-9 * (1.0 + abs(relax)), rules
        for y, u in _random_selections(m, 5, seed=3):
            sel = np.r_[y, u]
            a, b = session.bound(sel, sel), session.fix(y, u)
            assert a.status == b.status, (rules, sel)
            if a.status == "optimal":
                assert abs(a.objective - b.objective) <= 1e-9 * (1.0 + abs(b.objective)), (rules, sel)
        with pytest.raises(bk.BackendError):
            session.bound(np.zeros(n - 1), np.ones(n - 1))


def test_lp_session_verdict_does_not_depend_on_order():
    for rules, m in _session_models():
        selections = _random_selections(m, 20, seed=7)
        session = bk.LpSession(m)
        forward = [session.fix(y, u) for y, u in selections]
        session = bk.LpSession(m)
        backward = [session.fix(y, u) for y, u in reversed(selections)][::-1]
        for a, b in zip(forward, backward):
            assert a.status == b.status, rules
            if a.status == "optimal":
                assert abs(a.objective - b.objective) <= 1e-9 * (1.0 + abs(a.objective)), rules


def test_lp_session_bound_verdict_matches_a_cold_solve():
    # the branch-and-bound prunes an infeasible node: a hot-started node LP
    # must call a box infeasible exactly when a fresh solve of the bounded
    # model does, whatever boxes came before it
    models = list(_session_models())
    inst = generate(GeneratorConfig(seed=14, n_blocks=5, n_mic=2))
    models += [(objective, build_request_model(inst, ClearingRequest(objective=objective, rules="umfs")))
               for objective in ("welfare", "volume", "min_opportunity_cost")]
    rng = np.random.default_rng(11)
    verdicts = set()
    for case, m in models:
        session = bk.LpSession(m)
        n = session._cols.size
        for _ in range(30):
            free = rng.random(n) < 0.5
            lo = np.where(free, 0.0, rng.integers(0, 2, n))
            hi = np.where(free, 1.0, lo)
            hot = session.bound(lo, hi)
            cold_model = m.copy()
            cold_model.lb[session._cols] = lo
            cold_model.ub[session._cols] = hi
            cold = bk.solve_lp(cold_model)
            assert hot.status == cold.status, (case, lo, hi)
            verdicts.add(hot.status)
            if cold.status == "optimal":
                assert abs(hot.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective)), (case, lo, hi)
    assert verdicts == {"optimal", "infeasible"}


def test_lp_session_spent_time_limit_runs_nothing():
    m = build_request_model(generate(GeneratorConfig(seed=5, n_blocks=4, n_mic=2)), ClearingRequest())
    session = bk.LpSession(m, bk.SolveOptions(time_limit=0.0))
    assert session.relaxation.status == "time_limit_no_solution"
    assert not session.relaxation.has_solution
    assert session.fix(np.zeros(4), np.zeros(2)).status == "time_limit_no_solution"
    assert session.lp_count == 0
    with pytest.raises(bk.BackendError):
        session.fix(np.zeros(3), np.zeros(2))


def test_lp_session_reports_a_stopped_run_as_solver_failed():
    # an iteration limit is not a time limit: no time_limit_no_solution
    for rules, m in _session_models():
        session = bk.LpSession(m)
        bk._set_option(session._highs, "simplex_iteration_limit", 0)
        out = session.fix(np.ones(4), np.ones(2))
        assert out.status == "solver_failed" and not out.has_solution, rules
        assert "Iteration limit reached" in out.message, rules


def test_solver_failure_keeps_a_validated_warm_start(monkeypatch):
    # a zero node limit stops HiGHS at the root without a point
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    base = bk.solve_mip(m)
    real = bk._highs_options
    monkeypatch.setattr(bk, "_highs_options", lambda options: real(options) + [("mip_max_nodes", 0)])
    out = bk.solve_mip(m)
    assert out.status == "solver_failed" and not out.has_solution
    assert "Solution limit reached" in out.message
    _refuse_lp_solves(monkeypatch)
    kept = bk.solve_mip(m, bk.SolveOptions(warm_start=base.columns))
    assert kept.status == "feasible_gap" and kept.used_warm_start
    assert kept.objective == pytest.approx(450.0, abs=1e-6)
    _assert_kept_point_without_bound(kept)


def _day_model(seed):
    """The 2 x 24 benchmark day at this seed, cleared under pcr at gap 0.002."""
    request = ClearingRequest(rules="pcr", solve_options=bk.SolveOptions(relative_gap_target=0.002))
    return build_request_model(make_day(seed), request), request


def test_stalled_resolve_is_certified_in_one_solve(monkeypatch):
    # HiGHS stops this fixed-selection LP with status Unknown at a point
    # whose primal residual is 6.7e-7
    m, request = _day_model(2)
    _, start = engine._relaxation_start(m, request)
    assert start.status == "optimal"
    calls = []
    real_solve_lp = bk.ScipyHighsBackend.solve_lp

    def counted_solve_lp(self, *args, **kwargs):
        calls.append(args)
        return real_solve_lp(self, *args, **kwargs)

    monkeypatch.setattr(bk.ScipyHighsBackend, "solve_lp", counted_solve_lp)
    out = bk.resolve_duals(m, **engine._selection(m, start))
    assert out.status == "optimal"
    assert len(calls) == 1
    assert out.message.startswith("Unknown; certified optimal by its residuals"), out.message
    assert abs(out.objective - start.objective) <= 1e-9 * (1.0 + abs(start.objective))


def _mic_only_repair(monkeypatch, m, request):
    """The relaxation start with every block's margin at +inf, so that its
    repair drops MIC bids only: on day seed 8 that walks into hot-started
    LPs that stall. Returns the start and each fix's selection and status."""
    fixes = []
    real_fix = bk.LpSession.fix

    def recorded_fix(self, y, u):
        out = real_fix(self, y, u)
        fixes.append((np.copy(y), np.copy(u), out.status))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(bk.LpSession, "fix", recorded_fix)
        patch.setattr(InstanceIndex, "block_surplus", lambda self, prices: np.full(self.n_block, np.inf))
        _, start = engine._relaxation_start(m, request)
    return start, fixes


def test_stall_with_large_residuals_is_solver_failed(monkeypatch):
    # the MIC-only repair's 3rd fix on this day stops Unknown at a point
    # with primal residual 1.9e5; replayed on a fresh session it must fail
    m, request = _day_model(8)
    _, fixes = _mic_only_repair(monkeypatch, m, request)
    assert len(fixes) >= 3
    session = bk.LpSession(m, request.solve_options)
    for y, u, _ in fixes[:2]:
        session.fix(y, u)
    out = session.fix(*fixes[2][:2])
    assert session.lp_count == 4
    assert out.status == "solver_failed" and not out.has_solution
    assert out.message == "Unknown"
    assert session._highs.getInfo().max_primal_infeasibility > bk._STALL_RESIDUAL_TOL
    # a fresh solve calls the same selection infeasible
    assert bk.resolve_duals(m, *fixes[2][:2]).status == "infeasible"


def test_start_repair_goes_past_a_stalled_lp(monkeypatch):
    # the floor rounding is optimal and the single flip infeasible; the
    # repair of the flip drops MIC bids through stalled LPs until one is
    # admissible instead of abandoning the rounding at the first stall
    m, request = _day_model(8)
    start, fixes = _mic_only_repair(monkeypatch, m, request)
    statuses = [status for _, _, status in fixes]
    assert statuses[:3] == ["optimal", "infeasible", "solver_failed"]
    assert statuses[-1] == "optimal" and len(statuses) > 3
    y_flip = fixes[1][0]
    for y, u, _ in fixes[2:]:
        np.testing.assert_array_equal(y, y_flip)
        assert u.sum() < fixes[1][1].sum()
    assert start.status == "optimal"
