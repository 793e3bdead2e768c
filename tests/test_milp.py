import numpy as np
import pytest
from scipy.sparse import csr_matrix

from damclear import milp
from damclear.backend import SolveOptions, resolve_duals, solve_mip
from damclear.engine import ClearingRequest, build_request_model
from damclear.fileio import GeneratorConfig, generate
from damclear.model import BlockBid, InstanceIndex, MicBid, MicSuborder

from conftest import make_mic, make_pab_chain, make_toy


def test_big_m_block_sell_example():
    b = BlockBid("C", "L1", {"T1": -10.0}, 5.0)
    assert milp.compute_big_m_block(b, 500.0) == pytest.approx(4950.0)


def test_big_m_block_buy_example():
    b = BlockBid("J", "L1", {"T1": 10.0}, 0.0)
    assert milp.compute_big_m_block(b, 500.0) == pytest.approx(5000.0)


def test_big_m_block_loss_mirrors():
    sell = BlockBid("C", "L1", {"T1": -10.0}, 5.0)
    buy = BlockBid("J", "L1", {"T1": 10.0}, 0.0)
    assert milp.compute_big_m_block_loss(sell, 500.0) == pytest.approx(5050.0)
    assert milp.compute_big_m_block_loss(buy, 500.0) == pytest.approx(5000.0)


def test_big_m_mic_example():
    c = MicBid("G", 0.0, 0.0, (MicSuborder("L1", "T1", -100.0, 30.0),))
    assert milp.compute_big_m_mic(c, 500.0) == pytest.approx(53000.0)


def test_big_m_mic_additive():
    s = MicSuborder("L1", "T1", -100.0, 30.0)
    one = MicBid("G", 0.0, 0.0, (s,))
    two = MicBid("G", 0.0, 0.0, (s, s))
    assert milp.compute_big_m_mic(two, 500.0) == pytest.approx(
        2.0 * milp.compute_big_m_mic(one, 500.0)
    )


def test_big_m_dominates_sampled_surpluses():
    # the deactivation constants must dominate any surplus reachable with
    # prices inside the cap, tested by dense random price sampling
    rng = np.random.default_rng(7)
    cap = 150.0
    for _ in range(50):
        periods = tuple(f"T{t}" for t in range(int(rng.integers(1, 4))))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        powers = {p: sign * float(rng.uniform(1, 30)) for p in periods}
        b = BlockBid("J", "L1", powers, float(rng.uniform(-cap, cap)))
        m_rej = milp.compute_big_m_block(b, cap)
        m_acc = milp.compute_big_m_block_loss(b, cap)
        pw = np.array([powers[p] for p in periods])
        for _ in range(200):
            pi = rng.uniform(-cap, cap, len(periods))
            sigma = float(pw @ (b.limit_price - pi))
            assert sigma <= m_rej + 1e-9
            assert -sigma <= m_acc + 1e-9


def test_binary_count_is_blocks_plus_mic():
    toy = make_toy()
    m = milp.build_model(toy, "umfs")
    assert m.n_binary == 2
    mic = make_mic(1000.0)
    m2 = milp.build_model(mic, "umfs")
    assert m2.n_binary == 1
    m3 = milp.build_model(mic, "pcr")
    assert m3.n_binary == 1


def test_umfs_column_roles():
    m = milp.build_model(make_toy(), "umfs")
    for role in ("x", "y", "u", "n", "pi", "v", "s_hourly", "s_block",
                 "d_accept", "d_reject"):
        assert role in m.roles
    assert m.roles["y"].stop - m.roles["y"].start == 2
    # one location x one period
    assert m.roles["pi"].stop - m.roles["pi"].start == 1


def test_pcr_form_removes_dispatch_columns():
    m = milp.build_model(make_toy(), "pcr")
    assert m.form == "pcr"
    for role in ("d_accept", "d_reject"):
        assert role not in m.roles
    assert m.n_binary == 2


def test_price_bounds_are_cap():
    toy = make_toy()
    m = milp.build_model(toy, "umfs")
    s = m.roles["pi"]
    assert np.all(m.lb[s] == -toy.price_cap)
    assert np.all(m.ub[s] == toy.price_cap)


def test_point_violations_accept_equilibrium():
    # hand-built equilibrium for selection {C}: x_A = 10/11, pi = 50
    toy = make_toy()
    m = milp.build_model(toy, "umfs")
    milp.set_objective(m, "welfare")
    point = np.zeros(m.n_cols)
    point[m.roles["x"]] = [10.0 / 11.0, 0.0]
    point[m.roles["y"]] = [1.0, 0.0]
    point[m.roles["pi"]] = [50.0]
    point[m.roles["s_block"]] = [450.0, 0.0]
    point[m.roles["d_reject"]] = [0.0, 800.0]
    assert m.point_violations(point)["max"] <= 1e-9


def test_point_violations_flags_imbalance():
    toy = make_toy()
    m = milp.build_model(toy, "umfs")
    point = np.zeros(m.n_cols)
    point[m.roles["x"]] = [1.0, 0.0]  # buys 11 MW from nobody
    viol = m.point_violations(point)
    assert viol["max"] > 1.0


def _row_violations_reference(model, point):
    """Row-by-row residuals: positive where a stored row fails at the point."""
    rows = np.zeros(model.n_rows)
    for r, (cols, coefs) in enumerate(zip(model.row_cols, model.row_coefs)):
        act = float(coefs @ point[cols])
        rhs = model.row_rhs[r]
        sense = model.row_sense[r]
        if sense == "<":
            rows[r] = act - rhs
        elif sense == ">":
            rows[r] = rhs - act
        else:
            rows[r] = abs(act - rhs)
    return np.clip(rows, 0.0, None)


def test_point_violations_match_row_by_row_reference():
    # the matrix product sums each row in another order than the loop, so
    # rows agree to a few ulps of the row's absolute activity
    rng = np.random.default_rng(11)
    instances = (
        make_toy(), make_mic(1000.0), make_pab_chain(),
        generate(GeneratorConfig(seed=5, n_blocks=3, n_mic=2)),
    )
    for instance in instances:
        for form in ("umfs", "pcr"):
            m = milp.build_model(instance, form)
            lo = np.where(np.isfinite(m.lb), m.lb, -1e3)
            hi = np.where(np.isfinite(m.ub), m.ub, 1e3)
            for _ in range(20):
                point = rng.uniform(lo - 1.0, hi + 1.0)
                got = m.point_violations(point)
                ref = _row_violations_reference(m, point)
                scale = np.array([
                    np.abs(coefs) @ np.abs(point[cols]) + abs(rhs)
                    for cols, coefs, rhs in zip(m.row_cols, m.row_coefs, m.row_rhs)
                ])
                assert np.all(np.abs(got["rows"] - ref) <= 8 * np.finfo(float).eps * scale)
                np.testing.assert_array_equal(got["lb"], np.clip(m.lb - point, 0.0, None))
                np.testing.assert_array_equal(got["ub"], np.clip(point - m.ub, 0.0, None))
                expected_max = max(ref.max(initial=0.0), got["lb"].max(), got["ub"].max())
                assert got["max"] == pytest.approx(expected_max, rel=1e-12, abs=1e-12)


def _reference_matrix(model):
    """The rows as a scipy CSR matrix, built entry by entry in stored order."""
    data, indices, indptr = [], [], [0]
    for cols, coefs in zip(model.row_cols, model.row_coefs):
        indices.extend(cols.tolist())
        data.extend(coefs.tolist())
        indptr.append(len(indices))
    return csr_matrix(
        (np.array(data), np.array(indices, dtype=int), np.array(indptr, dtype=int)),
        shape=(model.n_rows, model.n_cols),
    )


def test_constraint_csc_matches_the_row_loop_reference():
    # HiGHS must get the very arrays scipy's CSR-to-CSC conversion gives;
    # point_violations sums each row in column order instead of stored
    # order, so its rows agree with the reference product to 8 ulps of the
    # row's absolute activity plus its right-hand side
    rng = np.random.default_rng(23)
    instances = (
        make_toy(), make_mic(1000.0), make_pab_chain(),
        generate(GeneratorConfig(seed=5, n_blocks=3, n_mic=2)),
        generate(GeneratorConfig(seed=40, n_blocks=5, n_mic=1)),
    )
    for instance in instances:
        for rules in ("pcr", "umfs"):
            for objective in milp.OBJECTIVES:
                m = build_request_model(instance, ClearingRequest(objective=objective, rules=rules))
                ref = _reference_matrix(m)
                want = ref.tocsc()
                start, index, value = m.constraint_csc()
                for got, expected in ((start, want.indptr), (index, want.indices), (value, want.data)):
                    assert got.dtype == expected.dtype
                    np.testing.assert_array_equal(got, expected)
                rhs = np.asarray(m.row_rhs)
                sense = np.asarray(m.row_sense)
                lo = np.where(np.isfinite(m.lb), m.lb, -1e3)
                hi = np.where(np.isfinite(m.ub), m.ub, 1e3)
                for _ in range(20):
                    point = rng.uniform(lo - 1.0, hi + 1.0)
                    act = ref @ point
                    rows = np.where(sense == "<", act - rhs,
                                    np.where(sense == ">", rhs - act, np.abs(act - rhs)))
                    scale = abs(ref) @ np.abs(point) + np.abs(rhs)
                    got = m.point_violations(point)["rows"]
                    assert np.all(np.abs(got - np.clip(rows, 0.0, None)) <= 8 * np.finfo(float).eps * scale)


def _reference_row_bounds(model):
    """(lower, upper) per row, row by row."""
    lo = np.full(model.n_rows, -np.inf)
    hi = np.full(model.n_rows, np.inf)
    for r, (sense, rhs) in enumerate(zip(model.row_sense, model.row_rhs)):
        if sense in ("=", ">"):
            lo[r] = rhs
        if sense in ("=", "<"):
            hi[r] = rhs
    return lo, hi


def test_row_bounds_match_the_row_loop_reference():
    instances = (
        make_toy(), make_mic(1000.0), make_pab_chain(),
        generate(GeneratorConfig(seed=5, n_blocks=3, n_mic=2)),
        generate(GeneratorConfig(seed=40, n_blocks=5, n_mic=1)),
    )
    models = []
    for instance in instances:
        for form in ("pcr", "umfs"):
            models.append(milp.build_model(instance, form))
            for objective in milp.OBJECTIVES:
                models.append(build_request_model(instance, ClearingRequest(objective=objective, rules=form)))
    rowless = models[0].copy()
    rowless.row_cols, rowless.row_coefs, rowless.row_sense, rowless.row_rhs = [], [], [], []
    assert {s for m in models for s in m.row_sense} == {"<", "=", ">"}
    for m in models + [rowless]:
        for got, want in zip(m.row_bounds(), _reference_row_bounds(m)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_dispatcher_and_merged_forms_agree():
    # same optimum through the explicit-dispatcher and merged-row forms
    toy = make_toy()
    for objective in ("welfare", "volume"):
        u = milp.set_objective(milp.build_model(toy, "umfs"), objective)
        p = milp.set_objective(milp.build_model(toy, "pcr"), objective)
        ou = solve_mip(u, SolveOptions())
        op = solve_mip(p, SolveOptions())
        assert ou.status == "optimal" and op.status == "optimal"
        assert ou.objective == pytest.approx(op.objective, abs=1e-6)


def test_pab_selection_feasible_only_with_dispatchers():
    # accepting a block that loses at every supportable price requires the
    # d_accept column; the restricted form must declare it infeasible
    inst = make_pab_chain()
    y_all = np.ones(3)
    u_none = np.zeros(0)
    umfs = milp.set_objective(milp.build_model(inst, "umfs"), "welfare")
    out = resolve_duals(umfs, y_all, u_none)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(280.0, abs=1e-6)
    pcr = milp.set_objective(milp.build_model(inst, "pcr"), "welfare")
    out2 = resolve_duals(pcr, y_all, u_none)
    assert out2.status == "infeasible"


def test_min_oc_objective_requires_dispatchers():
    m = milp.build_model(make_toy(), "pcr")
    with pytest.raises(milp.ModelFormError):
        milp.set_objective(m, "min_opportunity_cost")


def test_forbid_paradoxical_acceptance_pins_compensation():
    m = milp.forbid_paradoxical_acceptance(milp.build_model(make_toy(), "umfs"))
    s = m.roles["d_accept"]
    assert np.all(m.ub[s] == 0.0)
    p = milp.build_model(make_toy(), "pcr")
    with pytest.raises(milp.ModelFormError):
        milp.forbid_paradoxical_acceptance(p)


def test_unknown_objective_rejected():
    m = milp.build_model(make_toy(), "umfs")
    with pytest.raises(ValueError):
        milp.set_objective(m, "profit")
    with pytest.raises(ValueError):
        milp.build_model(make_toy(), "euphemia")


def test_write_lp(tmp_path):
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    path = tmp_path / "toy.lp"
    milp.write_lp(m, path)
    text = path.read_text()
    assert "Maximize" in text
    assert "Subject To" in text
    assert "Binaries" in text or "Binary" in text
    assert "y_C" in text and "pi_L1_T1" in text


def test_copy_isolates_bounds():
    m = milp.build_model(make_toy(), "umfs")
    c = m.copy()
    c.lb[c.roles["y"]] = 1.0
    assert np.all(m.lb[m.roles["y"]] == 0.0)


def test_empty_instance_builds():
    from damclear.model import Instance, single_node_network

    inst = Instance((), (), (), single_node_network(), 10.0)
    m = milp.set_objective(milp.build_model(inst, "umfs"), "welfare")
    assert m.n_binary == 0
    out = solve_mip(m, SolveOptions())
    assert out.status == "optimal"
    assert out.objective == pytest.approx(0.0, abs=1e-12)
