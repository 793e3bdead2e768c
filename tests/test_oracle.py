import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from damclear import oracle
from damclear.backend import resolve_duals
from damclear.engine import ClearingRequest, clear
from damclear.fileio import GeneratorConfig, generate
from damclear.milp import build_model, set_objective
from damclear.model import Instance, single_node_network
from damclear.oracle import (
    GUARD,
    OracleGuardError,
    cross_check,
    enumerate_selections,
)

from conftest import make_mic, make_pab_chain, make_toy


def by_selection(result):
    return {r.accepted_blocks: r for r in result.records}


def test_toy_admissible_selections():
    res = enumerate_selections(make_toy(), rules="pcr")
    assert res.n_selections == 4
    recs = by_selection(res)
    # {C, D} oversells and must be gone
    assert set(recs) == {(), ("C",), ("D",)}
    assert recs[()].welfare == pytest.approx(0.0, abs=1e-7)
    assert recs[()].max_volume == pytest.approx(0.0, abs=1e-7)
    assert recs[("C",)].welfare == pytest.approx(450.0, abs=1e-6)
    assert recs[("C",)].max_volume == pytest.approx(10.0, abs=1e-6)
    assert recs[("C",)].min_opportunity_cost == pytest.approx(800.0, abs=1e-6)
    assert recs[("D",)].welfare == pytest.approx(440.0, abs=1e-6)
    assert recs[("D",)].max_volume == pytest.approx(20.0, abs=1e-6)
    assert recs[("D",)].min_opportunity_cost == pytest.approx(50.0, abs=1e-6)
    # the empty selection's cheapest compensation is 1250, paid at pi = 50
    assert recs[()].min_opportunity_cost == pytest.approx(1250.0, abs=1e-6)


def test_toy_optima_and_witnesses():
    res = enumerate_selections(make_toy(), rules="pcr")
    assert res.optimum("welfare") == pytest.approx(450.0, abs=1e-6)
    assert res.optimum("volume") == pytest.approx(20.0, abs=1e-6)
    assert res.optimum("min_opportunity_cost") == pytest.approx(50.0, abs=1e-6)
    assert res.optima["welfare"].accepted_blocks == ("C",)
    assert res.optima["volume"].accepted_blocks == ("D",)
    assert res.optima["min_opportunity_cost"].accepted_blocks == ("D",)
    # supporting prices ride along: fractional marginal bids pin them
    assert res.optima["welfare"].witness["prices"][0, 0] == pytest.approx(50.0, abs=1e-5)
    assert res.optima["volume"].witness["prices"][0, 0] == pytest.approx(10.0, abs=1e-5)


def test_cross_check_all_toy_combinations():
    toy = make_toy()
    for rules in ("pcr", "umfs"):
        res = enumerate_selections(toy, rules=rules)
        for objective in ("welfare", "volume", "min_opportunity_cost"):
            sol = clear(toy, ClearingRequest(objective=objective, rules=rules))
            ok, details = cross_check(toy, rules, objective, sol, res)
            assert ok, details
            assert details["milp"] == pytest.approx(details["oracle"], abs=details["tolerance"])


def test_cross_check_flags_a_wrong_value():
    import dataclasses

    toy = make_toy()
    sol = clear(toy, ClearingRequest())
    wrong = dataclasses.replace(sol, welfare=449.0)
    ok, details = cross_check(toy, "pcr", "welfare", wrong)
    assert not ok
    assert details["difference"] == pytest.approx(-1.0, abs=1e-6)


def test_mic_threshold_selections():
    # income tops out at 10000 = F + 100 V crossing at F = 8000 for V = 20
    low = enumerate_selections(make_mic(1000.0))
    assert {r.accepted_mic for r in low.records} == {(), ("G",)}
    assert low.optimum("welfare") == pytest.approx(7000.0, abs=1e-6)
    assert low.optima["welfare"].accepted_mic == ("G",)

    for fixed in (9000.0, 11000.0):
        high = enumerate_selections(make_mic(fixed))
        assert {r.accepted_mic for r in high.records} == {()}
        assert high.optimum("welfare") == pytest.approx(0.0, abs=1e-7)


def test_pab_chain_rules_differ():
    inst = make_pab_chain()
    pcr = enumerate_selections(inst, rules="pcr")
    assert {r.accepted_blocks for r in pcr.records} == {()}
    assert pcr.optimum("welfare") == pytest.approx(0.0, abs=1e-7)
    umfs = enumerate_selections(inst, rules="umfs")
    assert ("B0", "B1", "B2") in {r.accepted_blocks for r in umfs.records}
    assert umfs.optimum("welfare") == pytest.approx(280.0, abs=1e-6)


def test_guard_rejects_large_enumerations():
    blocks = tuple(
        # tiny blocks that all fit, just to push the binary count over
        __import__("damclear.model", fromlist=["BlockBid"]).BlockBid(
            f"J{k}", "L1", {"T1": -1.0}, 5.0
        )
        for k in range(GUARD + 1)
    )
    inst = Instance(
        hourly_bids=(),
        block_bids=blocks,
        mic_bids=(),
        network=single_node_network("L1", ("T1",)),
        price_cap=500.0,
    )
    with pytest.raises(OracleGuardError):
        enumerate_selections(inst)


def test_empty_instance():
    inst = Instance((), (), (), single_node_network(), 100.0)
    res = enumerate_selections(inst)
    assert res.n_selections == 1
    assert res.optimum("welfare") == 0.0
    assert res.optimum("volume") == 0.0
    assert res.optimum("min_opportunity_cost") == 0.0


def test_umfs_face_admits_more_than_pcr():
    # every pcr-admissible selection stays admissible under umfs
    toy = make_toy()
    p = {r.accepted_blocks for r in enumerate_selections(toy, rules="pcr").records}
    u = {r.accepted_blocks for r in enumerate_selections(toy, rules="umfs").records}
    assert p <= u


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
def test_every_selection_matches_the_milp_resolve(rules):
    # two independent code paths per selection: the oracle's face system
    # and the MILP with its binaries fixed; seeds 0-20 hold every
    # (blocks, MIC) shape of the sweep family once
    checked = 0
    for seed in range(21):
        inst = generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))
        n_block, n_mic = len(inst.block_bids), len(inst.mic_bids)
        model = set_objective(build_model(inst, rules), "welfare")
        records = {
            (r.accepted_blocks, r.accepted_mic): r
            for r in enumerate_selections(inst, rules=rules).records
        }
        for mask in range(2 ** (n_block + n_mic)):
            bits = [(mask >> k) & 1 for k in range(n_block + n_mic)]
            key = (
                tuple(b.id for b, on in zip(inst.block_bids, bits) if on),
                tuple(c.id for c, on in zip(inst.mic_bids, bits[n_block:]) if on),
            )
            out = resolve_duals(model, np.array(bits[:n_block]), np.array(bits[n_block:]))
            record = records.get(key)
            assert (out.status == "optimal") == (record is not None), (seed, key, out.status)
            if record is not None:
                w = record.welfare
                assert abs(out.objective - w) <= 1e-9 * (1.0 + abs(w)), (seed, key)
            checked += 1
    assert checked == 127 * 7


def _seed_111():
    # sweep family: seed 111 has 6 blocks and no MIC bid
    return generate(GeneratorConfig(seed=111, n_blocks=6, n_mic=0))


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
@pytest.mark.parametrize("make", (make_toy, _seed_111))
def test_each_face_lp_is_one_solve(monkeypatch, make, rules):
    # an admissible selection runs the volume probe and the compensation
    # LP, an inadmissible one only the probe; nothing is solved twice
    calls = []
    real = oracle.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["method"])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "linprog", counted)
    res = enumerate_selections(make(), rules=rules)
    admissible = len(res.records)
    assert len(calls) == 2 * admissible + (res.n_selections - admissible)
    assert set(calls) == {"highs"}


def test_seed_111_umfs_enumerates_and_matches_clear():
    # with presolve on, HiGHS calls the compensation LP of the selection
    # that accepts only the third block infeasible, although the volume LP
    # has just found a point on the same polytope
    inst = _seed_111()
    res = enumerate_selections(inst, rules="umfs")
    assert res.n_selections == 64
    for objective in ("welfare", "volume", "min_opportunity_cost"):
        sol = clear(inst, ClearingRequest(objective=objective, rules="umfs"))
        ok, details = cross_check(inst, "umfs", objective, sol, res)
        assert ok, details


@pytest.mark.parametrize("failing_call, lp", ((2, "volume probe"), (3, "compensation")))
def test_a_failed_face_lp_names_the_lp_and_the_selection(monkeypatch, failing_call, lp):
    # on the toy, selection () runs calls 0 and 1, selection ("C",) calls 2 and 3
    calls = []
    real = oracle.linprog

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 == failing_call:
            return OptimizeResult(status=4, message="numerical difficulties")
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "linprog", failing)
    want = (
        rf"oracle {lp} LP failed for accepted blocks \('C',\) and MIC bids \(\): "
        r"linprog status 4: numerical difficulties"
    )
    with pytest.raises(RuntimeError, match=want):
        enumerate_selections(make_toy())
