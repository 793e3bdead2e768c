import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csc_array

from damclear import _highs, milp
from damclear.backend import SolveOptions, resolve_duals, solve_mip
from damclear.engine import ClearingRequest, build_request_model
from damclear.fileio import GeneratorConfig, generate
from damclear.model import BlockBid, InstanceIndex, MicBid, MicSuborder

from conftest import DATA_DIR, make_crossing_pair, make_day, make_mic, make_pab_chain, make_toy


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


def _instances():
    return (
        make_toy(), make_mic(1000.0), make_pab_chain(),
        generate(GeneratorConfig(seed=5, n_blocks=3, n_mic=2)),
        generate(GeneratorConfig(seed=40, n_blocks=5, n_mic=1)),
    )


def _models():
    """build_model in both forms and every request model of _instances()."""
    for instance in _instances():
        for form in ("pcr", "umfs"):
            yield milp.build_model(instance, form)
            for objective in milp.OBJECTIVES:
                yield build_request_model(instance, ClearingRequest(objective=objective, rules=form))


def _scipy_matrix(model):
    """The stored triple as a scipy CSC matrix, which checks its shape."""
    start, index, value = model.constraint_csc()
    return csc_array((value, index, start), shape=(model.n_rows, model.n_cols))


def test_constraint_csc_is_a_canonical_scipy_matrix():
    # HiGHS takes the stored arrays as they are: int32 starts and row
    # indices, one entry per (row, column), rows ascending in each column;
    # the per-row view the benchmark tracer counts is the CSR structure
    for m in _models():
        start, index, value = m.constraint_csc()
        assert (start.dtype, index.dtype, value.dtype) == (np.int32, np.int32, np.float64)
        assert not any(a.flags.writeable for a in (start, index, value, *m.row_bounds()))
        A = _scipy_matrix(m)
        assert A.has_canonical_format
        csr = A.tocsr()
        back = csr.tocsc()
        for got, want in ((start, back.indptr), (index, back.indices), (value, back.data)):
            np.testing.assert_array_equal(got, want)
        assert len(m.row_cols) == m.n_rows
        for r, cols in enumerate(m.row_cols):
            np.testing.assert_array_equal(cols, csr.indices[csr.indptr[r]:csr.indptr[r + 1]])


def test_point_violations_match_the_scipy_product():
    # point_violations sums each row through bincount, scipy in its own
    # order, so rows agree to 8 ulps of the row's absolute activity plus
    # its finite bounds
    rng = np.random.default_rng(11)
    for m in _models():
        A = _scipy_matrix(m)
        lo, hi = m.row_bounds()
        eq, upper = lo == hi, np.isinf(lo)
        scale_b = np.where(np.isfinite(lo), np.abs(lo), 0.0) + np.where(np.isfinite(hi), np.abs(hi), 0.0)
        plo = np.where(np.isfinite(m.lb), m.lb, -1e3)
        phi = np.where(np.isfinite(m.ub), m.ub, 1e3)
        for _ in range(20):
            point = rng.uniform(plo - 1.0, phi + 1.0)
            act = A @ point
            ref = np.clip(np.where(eq, np.abs(act - lo), np.where(upper, act - hi, lo - act)), 0.0, None)
            got = m.point_violations(point)
            scale = abs(A) @ np.abs(point) + scale_b
            assert np.all(np.abs(got["rows"] - ref) <= 8 * np.finfo(float).eps * scale)
            np.testing.assert_array_equal(got["lb"], np.clip(m.lb - point, 0.0, None))
            np.testing.assert_array_equal(got["ub"], np.clip(point - m.ub, 0.0, None))
            expected_max = max(ref.max(initial=0.0), got["lb"].max(), got["ub"].max())
            assert got["max"] == pytest.approx(expected_max, rel=1e-12, abs=1e-12)


# the sense of each row family
_FAMILY_SENSE = {
    "gate": "<", "balance": "=", "network": "<", "dual_x": ">", "dual_x_mic": ">",
    "dual_y": ">", "dual_u": ">", "cap_d_reject": "<", "cap_du_reject": "<",
    "cap_d_accept": "<", "dual_n": "=", "objective_equality": ">", "mic_income": ">",
}


def test_row_bounds_follow_each_row_family_sense():
    # a '<' row has lower side -inf, a '>' row upper side +inf and an '='
    # row two equal finite sides; the recorded digests pin the values
    models = list(_models())
    senses = set()
    for m in models:
        lo, hi = m.row_bounds()
        assert lo.dtype == hi.dtype == np.float64
        assert lo.shape == hi.shape == (m.n_rows,)
        # the families tile the rows in order, three fewer in the pcr form
        assert len(m.row_roles) == (13 if m.form == "umfs" else 10)
        assert set(m.row_roles) <= set(_FAMILY_SENSE)
        stops = [0] + [sl.stop for sl in m.row_roles.values()]
        assert [sl.start for sl in m.row_roles.values()] == stops[:-1]
        assert stops[-1] == m.n_rows
        for family, sl in m.row_roles.items():
            sense = _FAMILY_SENSE[family]
            senses.add(sense)
            l, h = lo[sl], hi[sl]
            if sense == "<":
                assert np.all(l == -np.inf) and np.all(np.isfinite(h)), family
            elif sense == ">":
                assert np.all(np.isfinite(l)) and np.all(h == np.inf), family
            else:
                assert np.all(l == h) and np.all(np.isfinite(l)), family
    assert senses == {"<", "=", ">"}
    base = models[0]
    rowless = replace(
        base, csc=(np.zeros(base.n_cols + 1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)),
        row_lo=np.zeros(0), row_hi=np.zeros(0), row_roles={},
    )
    lo, hi = rowless.row_bounds()
    assert lo.dtype == hi.dtype == np.float64 and lo.shape == hi.shape == (0,)
    assert rowless.row_cols == []
    viol = rowless.point_violations(np.zeros(rowless.n_cols))
    assert viol["rows"].shape == (0,) and viol["max"] == 0.0


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


def _read_back_optimum(path):
    """The optimum HiGHS finds for a model it reads from an LP file."""
    highs = _highs.core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("mip_rel_gap", 0.0)
    assert highs.readModel(str(path)) == _highs.core.HighsStatus.kOk
    highs.run()
    assert highs.getModelStatus() == _highs.core.HighsModelStatus.kOptimal
    return highs.getInfo().objective_function_value


def test_write_lp(tmp_path):
    # the file HiGHS reads back solves to solve_mip's optimum
    m = milp.set_objective(milp.build_model(make_toy(), "umfs"), "welfare")
    path = tmp_path / "toy.lp"
    milp.write_lp(m, path)
    text = path.read_text()
    assert "Maximize" in text
    assert "Subject To" in text
    assert "Binaries" in text or "Binary" in text
    # columns are named by role and rows by family, never by bid id
    assert " y_0\n y_1\n" in text and "pi_0" in text and "y_C" not in text
    assert " objective_equality_0: " in text and " dual_y_1: " in text
    instances = {
        "toy": make_toy(), "mic": make_mic(1000.0),
        "seed5": generate(GeneratorConfig(seed=5, n_blocks=3, n_mic=2)),
    }
    for label, instance in instances.items():
        for form in ("umfs", "pcr"):
            m = milp.set_objective(milp.build_model(instance, form), "welfare")
            path = tmp_path / f"{label}_{form}.lp"
            milp.write_lp(m, path)
            want = solve_mip(m, SolveOptions(relative_gap_target=0.0))
            assert want.status == "optimal"
            got = _read_back_optimum(path)
            assert got == pytest.approx(want.objective, abs=1e-6 * (1 + abs(want.objective))), (label, form)
    # LP-format rows take one side; a row with two distinct finite sides is refused
    ranged = replace(m, row_lo=np.where(np.isinf(m.row_lo), -1.0, m.row_lo), row_hi=np.full(m.n_rows, 1e9))
    with pytest.raises(ValueError, match="two sides"):
        milp.write_lp(ranged, tmp_path / "ranged.lp")


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


_DIGESTS = os.path.join(DATA_DIR, "assembled_model_digests.json")


def _digest_instances():
    """The conftest instances, sweep-family seeds 0-41 and the 2 x 24 day."""
    yield "toy", make_toy()
    yield "crossing_pair", make_crossing_pair()
    yield "mic_1000", make_mic(1000.0)
    yield "mic_9000", make_mic(9000.0)
    yield "pab_chain", make_pab_chain()
    for seed in range(42):
        yield f"sweep_{seed}", generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))
    yield "day_42", make_day(42)


def _model_digest(model):
    """sha256 over the model's matrix, row bounds, columns, objective and roles."""
    h = hashlib.sha256()
    arrays = (*model.constraint_csc(), *model.row_bounds(), model.lb, model.ub,
              model.integrality, model.objective)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr((model.form, model.objective_sense, sorted(model.roles.items()))).encode())
    return h.hexdigest()


def _assembled_digests():
    return {
        name: {
            f"{rules}/{objective}": _model_digest(
                build_request_model(instance, ClearingRequest(objective=objective, rules=rules)))
            for rules in ("pcr", "umfs") for objective in milp.OBJECTIVES
        }
        for name, instance in _digest_instances()
    }


def test_assembled_models_match_the_recorded_digests():
    # recorded from the row-by-row builder at commit 5664576 and, without
    # the names, re-recorded from the block builder at commit 679d838; the
    # builder must reproduce every array, dtype and role bit for bit
    with open(_DIGESTS) as fh:
        want = json.load(fh)
    assert _assembled_digests() == want
