import numpy as np
import pytest

from scipy.sparse import csr_matrix, vstack

from damclear import backend as bk
from damclear import milp
from damclear.engine import ClearingRequest, build_request_model
from damclear.fileio import GeneratorConfig, generate

from conftest import make_mic, make_pab_chain, make_toy


def _tiny(rows=(), senses=(), rhs=(), lb=-np.inf, ub=np.inf, objective=1.0):
    """Single-column model for exercising raw status mapping."""
    return milp.MilpModel(
        instance=None, form="umfs",
        var_names=["z"], lb=np.array([float(lb)]), ub=np.array([float(ub)]),
        integrality=np.zeros(1),
        roles={"y": slice(0, 0), "u": slice(0, 0)},
        row_cols=[np.array(list(c)) for c in rows],
        row_coefs=[np.array([1.0]) for _ in rows],
        row_sense=list(senses), row_rhs=list(rhs),
        row_names=[f"r{i}" for i in range(len(rows))],
        row_roles={},
        objective=np.array([objective]), objective_sense="max",
    )


def test_options_validation():
    with pytest.raises(ValueError):
        bk.SolveOptions(lp_feasibility_tol=0.0)
    with pytest.raises(ValueError):
        bk.SolveOptions(integer_feasibility_tol=-1e-9)
    with pytest.raises(ValueError):
        bk.SolveOptions(relative_gap_target=-1.0)
    with pytest.raises(ValueError):
        bk.SolveOptions(absolute_gap_target=-0.5)


def test_missing_objective_raises():
    m = milp.build_model(make_toy(), "umfs")
    with pytest.raises(bk.BackendError):
        bk.solve_lp(m)


def test_status_mapping():
    unb = _tiny()
    assert bk.solve_lp(unb).status == "unbounded"
    assert bk.solve_mip(unb).status == "unbounded"
    inf = _tiny(rows=([0], [0]), senses=(">", "<"), rhs=(1.0, 0.0))
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


def test_resolve_invalid_selection_is_infeasible():
    # {C, D} sells 30 MW against 25 MW of demand
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    rd = bk.resolve_duals(m, np.array([1.0, 1.0]), np.zeros(0))
    assert rd.status == "infeasible"


def test_resolve_rejects_wrong_shape():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    with pytest.raises(bk.BackendError):
        bk.resolve_duals(m, np.array([1.0]), np.zeros(0))


def test_strong_duality_on_random_convex_lps():
    # hourly-only instances have no binaries, so the welfare model is an LP;
    # the oriented marginals must close the duality gap against rhs + bounds
    for seed in range(8):
        inst = generate(GeneratorConfig(seed=seed, n_blocks=0, n_mic=0))
        m = milp.set_objective(milp.build_model(inst, "umfs"), "welfare")
        assert m.n_binary == 0
        out = bk.solve_lp(m, bk.SolveOptions())
        assert out.status == "optimal"
        lb = np.where(np.isfinite(m.lb), m.lb, 0.0)
        ub = np.where(np.isfinite(m.ub), m.ub, 0.0)
        dual_value = (
            out.row_duals @ np.asarray(m.row_rhs)
            + out.lower_duals @ lb
            + out.upper_duals @ ub
        )
        assert dual_value == pytest.approx(out.objective, abs=1e-6 * (1 + abs(out.objective)))
        # and the MIP path agrees with the LP on a binary-free model
        mip = bk.solve_mip(m, bk.SolveOptions())
        assert mip.objective == pytest.approx(out.objective, abs=1e-6 * (1 + abs(out.objective)))


def _assert_kept_point_bounded(out):
    # a kept warm point still carries a valid maximisation bound and its gap
    assert out.best_bound is not None and np.isfinite(out.best_bound)
    assert out.best_bound >= out.objective - 1e-6
    assert out.mip_gap == pytest.approx(
        abs(out.best_bound - out.objective) / (1.0 + abs(out.objective))
    )


def test_warm_start_vector_kept_when_solver_has_nothing():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    base = bk.solve_mip(m, bk.SolveOptions())
    out = bk.solve_mip(m, bk.SolveOptions(time_limit=0.0, warm_start=base.columns))
    assert out.status == "feasible_gap"
    assert out.used_warm_start
    assert out.objective == pytest.approx(450.0, abs=1e-6)
    np.testing.assert_allclose(out.columns, base.columns)
    _assert_kept_point_bounded(out)


def test_warm_start_dict_form():
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    base = bk.solve_mip(m, bk.SolveOptions())
    ws = dict(zip(m.var_names, base.columns))
    out = bk.solve_mip(m, bk.SolveOptions(warm_start=ws))
    assert out.status == "optimal"
    assert out.objective == pytest.approx(450.0, abs=1e-6)


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
    _assert_kept_point_bounded(out)


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
    out = bk.solve_mip(m, bk.SolveOptions(random_seed=7, thread_count=1, node_limit=10_000))
    assert out.status == "optimal"
    assert out.objective == pytest.approx(450.0, abs=1e-6)


def _split_rows_reference(model):
    """Row-by-row split: one CSR row per stored row, '>' rows negated."""
    n = model.n_cols
    eq_rows, ub_rows, ub_sign = [], [], []
    eq_mats, ub_mats = [], []
    b_eq, b_ub = [], []
    for r in range(model.n_rows):
        cols, coefs = model.row_cols[r], model.row_coefs[r]
        row = csr_matrix((coefs, (np.zeros(len(cols), dtype=int), cols)), shape=(1, n))
        sense = model.row_sense[r]
        if sense == "=":
            eq_rows.append(r)
            eq_mats.append(row)
            b_eq.append(model.row_rhs[r])
        elif sense == "<":
            ub_rows.append(r)
            ub_sign.append(1.0)
            ub_mats.append(row)
            b_ub.append(model.row_rhs[r])
        else:
            ub_rows.append(r)
            ub_sign.append(-1.0)
            ub_mats.append(-row)
            b_ub.append(-model.row_rhs[r])
    A_eq = vstack(eq_mats, format="csr") if eq_mats else None
    A_ub = vstack(ub_mats, format="csr") if ub_mats else None
    return A_eq, np.array(b_eq), eq_rows, A_ub, np.array(b_ub), ub_rows, np.array(ub_sign)


def test_split_rows_matches_row_by_row_reference():
    instances = {
        "toy": make_toy(),
        "mic": make_mic(1000.0),
        "pab": make_pab_chain(),
        "generated": generate(GeneratorConfig(seed=5, n_blocks=3, n_mic=2)),
    }
    for tag, instance in instances.items():
        for rules in ("pcr", "umfs"):
            for objective in milp.OBJECTIVES:
                m = build_request_model(instance, ClearingRequest(objective=objective, rules=rules))
                got = bk._split_rows(m)
                ref = _split_rows_reference(m)
                case = (tag, rules, objective)
                for k in (0, 3):  # A_eq, A_ub
                    assert got[k].shape == ref[k].shape, case
                    np.testing.assert_array_equal(got[k].toarray(), ref[k].toarray(), err_msg=str(case))
                for k in (1, 4, 6):  # b_eq, b_ub, ub_sign
                    np.testing.assert_array_equal(got[k], ref[k], err_msg=str(case))
                assert list(got[2]) == ref[2] and list(got[5]) == ref[5], case
