import ast
import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_array, csc_array, vstack

from damclear import oracle
from damclear.backend import resolve_duals
from damclear.engine import ClearingRequest, clear
from damclear.fileio import GeneratorConfig, generate
from damclear.milp import build_model, set_objective
from damclear.model import Instance, InstanceIndex, single_node_network
from damclear.oracle import (
    GUARD,
    OracleGuardError,
    cross_check,
    enumerate_selections,
)

from conftest import make_mic, make_pab_chain, make_toy
from test_fuzz import SEEDS as FUZZ_SEEDS, SHAPES as FUZZ_SHAPES

OPTIMA_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "optima.json"


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


def test_oracle_shares_no_code_with_the_milp_side():
    # the benchmark tracer patches oracle.linprog by name
    assert oracle.linprog is linprog
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"milp", "backend", "damclear.milp", "damclear.backend"}


def _sweep(seed):
    return generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
def test_every_selection_matches_the_milp_resolve(rules):
    # two independent code paths per selection: the oracle's face system
    # and the MILP with its binaries fixed; seeds 0-20 hold every
    # (blocks, MIC) shape of the sweep family once
    checked = 0
    for seed in range(21):
        inst = _sweep(seed)
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
    # LP, an inadmissible one only the probe; only a hot selection solved
    # again cold (resolved_cold) runs its probe twice, and a compensation
    # LP that failed hot is one of those
    probes, compensations = [], []
    real = oracle._Face._run

    def counted(face, cost):
        status, point = real(face, cost)
        (compensations if cost is face.c_compensation else probes).append(point is not None)
        return status, point

    monkeypatch.setattr(oracle._Face, "_run", counted)
    res = enumerate_selections(make(), rules=rules)
    assert len(probes) == res.n_selections + res.resolved_cold
    assert sum(compensations) == len(res.records)
    assert len(compensations) - sum(compensations) <= res.resolved_cold


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


def _failing_calls(monkeypatch, failing):
    """Make the face LPs whose call numbers (from 0) are in failing end
    with a solve error."""
    calls = []
    real = oracle._Face._run

    def run(face, cost):
        calls.append(None)
        if len(calls) - 1 in failing:
            return oracle._STATUS.kSolveError, None
        return real(face, cost)

    monkeypatch.setattr(oracle._Face, "_run", run)


# the toy's walk is (), ("C",), ("C", "D"), ("D",): () runs calls 0 and 1
# cold, ("C",) its hot probe (2) and hot compensation LP (3); a failed hot
# LP sends ("C",) to a cold probe and compensation LP
@pytest.mark.parametrize("failing, lp", (
    pytest.param((2, 3), "volume probe", id="2-volume probe"),
    pytest.param((3, 5), "compensation", id="3-compensation"),
))
def test_a_failed_face_lp_names_the_lp_and_the_selection(monkeypatch, failing, lp):
    _failing_calls(monkeypatch, failing)

    want = (
        rf"oracle {lp} LP failed for accepted blocks \('C',\) and MIC bids \(\): "
        r"HiGHS model status Solve error"
    )
    with pytest.raises(RuntimeError, match=want):
        enumerate_selections(make_toy())


@pytest.mark.parametrize("failing", ((2,), (3,)), ids=("probe", "compensation"))
def test_a_failed_hot_lp_is_solved_again_cold(monkeypatch, failing):
    want = enumerate_selections(make_toy())
    _failing_calls(monkeypatch, failing)
    got = enumerate_selections(make_toy())
    assert got.resolved_cold == want.resolved_cold + 1
    assert [r.accepted_blocks for r in got.records] == [r.accepted_blocks for r in want.records]
    for g, w in zip(got.records, want.records):
        for name in ("welfare", "max_volume", "min_opportunity_cost"):
            assert getattr(g, name) == pytest.approx(getattr(w, name), abs=1e-9 * (1 + abs(getattr(w, name))))


@pytest.mark.parametrize("seed, admissible, rules", (
    pytest.param(4, 32, "umfs", id="4-32"),
    pytest.param(68, 128, "umfs", id="68-128"),
    pytest.param(104, 155, "umfs", id="104-155"),
    pytest.param(167, 122, "umfs", id="167-122"),
    pytest.param(291, 16, "umfs", id="291-16"),
    pytest.param(314, 37, "pcr", id="314-37"),
))
def test_cold_started_face_lps_match_the_recorded_enumeration(seed, admissible, rules):
    # with the basis kept from the previous selection and HiGHS's word
    # taken, one of seed 291's 16 admissible selections was called
    # infeasible under umfs (a prototype that kept it lost one of seed 4's
    # 32) and compensation LPs of seeds 68, 104, 167 and 314 failed; a hot
    # infeasible verdict stands only with a certifying dual ray, and a
    # failed hot LP is solved again cold
    with open(OPTIMA_PATH, encoding="utf-8") as fh:
        want = json.load(fh)["instances"][str(seed)][rules]
    res = enumerate_selections(_sweep(seed), rules=rules)
    assert len(res.records) == want["admissible"] == admissible
    for objective in ("welfare", "volume", "min_opportunity_cost"):
        v = want[objective]
        assert abs(res.optimum(objective) - v) <= 1e-6 * (1.0 + abs(v)), objective


def _mask(bits) -> int:
    """The selection mask of a 0/1 vector of acceptances, blocks then MIC bids."""
    return int(np.asarray(bits) @ (1 << np.arange(len(bits))))


def _accepted_ids(instance, mask):
    nJ, nb = len(instance.block_bids), len(instance.block_bids) + len(instance.mic_bids)
    bits = ((mask >> np.arange(nb)) & 1).astype(bool)
    return (tuple(b.id for b, on in zip(instance.block_bids, bits[:nJ]) if on),
            tuple(c.id for c, on in zip(instance.mic_bids, bits[nJ:]) if on))


def _cpus(monkeypatch, count):
    """Let the oracle see count usable CPUs, whatever this machine has."""
    monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(count)))


class _HighsSpy:
    """Forwards to a HiGHS object and logs the calls that set bounds, drop
    the basis or solve. A bounds call over all n columns is logged with
    the selection's mask, read from the bounds of the last nb columns (y,
    then u); a bounds call over fewer with the set of its columns."""

    LOGGED = ("changeColsBounds", "clearSolver", "run")

    def __init__(self, highs, log, nb, n):
        self._highs, self._log, self._nb, self._n = highs, log, nb, n

    def __getattr__(self, name):
        attr = getattr(self._highs, name)
        if name not in self.LOGGED:
            return attr

        def logged(*args):
            if name == "changeColsBounds" and args[0] == self._n:
                self._log.append((name, _mask(args[2][self._n - self._nb:])))
            elif name == "changeColsBounds":
                self._log.append((name, set(args[1].tolist())))
            else:
                self._log.append(name)
            return attr(*args)

        return logged


def _binary_columns(face, k):
    """The columns whose bounds binary k (blocks, then MIC bids) sets: a
    block's acceptance and compensations, a MIC bid's acceptance, slack and
    suborders."""
    cols, nJ = face.cols, face.idx.n_block
    if k < nJ:
        return {cols["y"][k], cols["dr"][k], *cols["da"][k: k + 1]}
    return {cols["u"][k - nJ], cols["dur"][k - nJ], *cols["xm"][face.idx.mic_slices[k - nJ]]}


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
@pytest.mark.parametrize("make", (make_toy, _seed_111))
def test_each_selection_clears_the_basis_once_before_its_volume_probe(monkeypatch, make, rules):
    # a selection clears the basis only where it starts cold: a run's
    # first selection sets every bound and drops the basis; each further
    # one sets the bounds of the one binary it flips and solves hot, and
    # drops the basis only before a cold re-solve of a hot outcome that
    # did not stand. Each worker's HiGHS object has its own log, since the
    # workers' calls interleave: every log must be whole per-selection
    # sequences of its runs in walk order
    inst = make()
    face = oracle._Face(inst, rules)
    n_cols, nb = face.lo.size, len(inst.block_bids) + len(inst.mic_bids)
    logs = []
    real = oracle._face_highs

    def spied(*args):
        logs.append([])
        return _HighsSpy(real(*args), logs[-1], nb, n_cols)

    monkeypatch.setattr(oracle, "_face_highs", spied)
    _cpus(monkeypatch, 2)
    res = enumerate_selections(inst, rules=rules)
    n, run = res.n_selections, oracle.RUN
    runs = -(-n // run)
    assert len(logs) == min(2, runs)
    admissible = {(r.accepted_blocks, r.accepted_mic) for r in res.records}
    resolved = certified = 0
    for w, log in enumerate(logs):
        groups = []  # one per selection, from its bounds call on
        for entry in log:
            if isinstance(entry, tuple):
                groups.append([entry])
            else:
                groups[-1].append(entry)
        walk = [pos for r in range(w, runs, len(logs)) for pos in range(r * run, min(n, r * run + run))]
        assert len(groups) == len(walk)
        for pos, group in zip(walk, groups):
            mask = pos ^ (pos >> 1)
            solves = ["run"] * (1 + (_accepted_ids(inst, mask) in admissible))
            if pos % run == 0:
                assert group == [("changeColsBounds", mask), "clearSolver"] + solves, pos
                continue
            assert group[0] == ("changeColsBounds", _binary_columns(face, (pos & -pos).bit_length() - 1))
            if "clearSolver" in group:
                cold = group.index("clearSolver")
                assert group[1:cold] in (["run"], ["run", "run"]), pos
                assert group[cold:] == ["clearSolver"] + solves, pos
                resolved += 1
            else:
                assert group[1:] == solves, pos
                certified += len(solves) == 1
    assert (resolved, certified) == (res.resolved_cold, res.certified_infeasible)


# sweep-family seeds with 6-8 binaries (64-256 selections)
_MANY_BINARIES = tuple(s for s in range(21) if s % 7 + s % 3 >= 6)


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
def test_several_workers_match_one_worker(monkeypatch, rules):
    # four workers, more than this machine may have cores, with the
    # interpreter switching threads as often as it can; the results must
    # be exactly those of one worker, witnesses included
    made = []
    real = oracle._face_highs
    monkeypatch.setattr(oracle, "_face_highs", lambda *args: made.append(args) or real(*args))
    instances = [_sweep(seed) for seed in _MANY_BINARIES]
    _cpus(monkeypatch, 4)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = [enumerate_selections(inst, rules=rules) for inst in instances]
    finally:
        sys.setswitchinterval(switch)
    assert len(made) == 4 * len(instances)  # one HiGHS object per worker

    made.clear()
    _cpus(monkeypatch, 1)
    for seed, inst, got in zip(_MANY_BINARIES, instances, many):
        want = enumerate_selections(inst, rules=rules)
        assert got.n_selections == want.n_selections, seed
        assert got.records == want.records, seed
        assert got.optima.keys() == want.optima.keys(), seed
        for objective, optimum in want.optima.items():
            other = got.optima[objective]
            assert (other.value, other.accepted_blocks, other.accepted_mic) == (
                optimum.value, optimum.accepted_blocks, optimum.accepted_mic), (seed, objective)
            assert other.witness.keys() == optimum.witness.keys()
            for key, array in optimum.witness.items():
                assert np.array_equal(other.witness[key], array), (seed, objective, key)
    assert len(made) == len(instances)  # one worker each


@pytest.mark.parametrize("failing, raised", (
    pytest.param((20,), 20, id="second-worker"),
    pytest.param((20, 40), 20, id="both-lowest-in-second"),
    pytest.param((20, 5), 5, id="both-lowest-in-first"),
))
def test_a_face_lp_failed_in_a_worker_is_raised_after_the_workers_stop(monkeypatch, failing, raised):
    # seed 111 has 6 blocks: two workers split its 64 walk positions, in
    # runs of 16, the calling thread runs 0 and 2 and the second worker
    # runs 1 and 3. Every LP of the selections at the positions in
    # failing fails, hot and cold; the lowest position is raised, the one
    # a single worker would have met first
    inst = _seed_111()
    failing_masks = {pos ^ (pos >> 1) for pos in failing}
    ran_by = {}
    real_extremes, real_step, real_run = oracle._Face.extremes, oracle._Face.step, oracle._Face._run

    def extremes(face, y, u):
        face.mask = _mask(np.concatenate((y, u)))
        ran_by[face.mask] = threading.get_ident()
        return real_extremes(face, y, u)

    def step(face, k, y, u):
        face.mask = _mask(np.concatenate((y, u)))
        ran_by[face.mask] = threading.get_ident()
        return real_step(face, k, y, u)

    def run(face, cost):
        if face.mask in failing_masks:
            return oracle._STATUS.kSolveError, None
        return real_run(face, cost)

    monkeypatch.setattr(oracle._Face, "extremes", extremes)
    monkeypatch.setattr(oracle._Face, "step", step)
    monkeypatch.setattr(oracle._Face, "_run", run)
    _cpus(monkeypatch, 2)
    threads = threading.active_count()
    raised_mask = raised ^ (raised >> 1)
    blocks, _ = _accepted_ids(inst, raised_mask)
    want = (
        rf"oracle volume probe LP failed for accepted blocks {re.escape(str(blocks))} "
        r"and MIC bids \(\): HiGHS model status Solve error"
    )
    with pytest.raises(RuntimeError, match=want):
        enumerate_selections(inst)
    assert threading.active_count() == threads
    assert (ran_by[raised_mask] == threading.get_ident()) == (raised // oracle.RUN % 2 == 0)
    assert failing_masks <= ran_by.keys()


def _reference_face_csc(instance, rules):
    """The face's rows [A_ub; A_eq] as scipy builds them: coo_array per row
    kind, then vstack(...).tocsc(); returns (indptr, indices, data, n_ub)."""
    idx = InstanceIndex(instance)
    nI, nS, nJ, nC = idx.n_hourly, idx.n_sub, idx.n_block, idx.n_mic
    K, LT, M = idx.n_basis, idx.LT, idx.n_net_rows
    a = instance.network.constraint_rows
    w = np.asarray(instance.network.capacities, dtype=float)
    e = idx.injection_flat
    block_welfare = idx.block_total * idx.block_limit
    cols = {}
    pos = 0
    for name, count in (
        ("x", nI), ("xm", nS), ("n", K), ("pi", LT), ("v", M),
        ("si", nI), ("sh", nS), ("sj", nJ), ("sc", nC),
        ("da", nJ if rules == "umfs" else 0), ("dr", nJ), ("dur", nC),
        ("y", nJ), ("u", nC),
    ):
        cols[name] = np.arange(pos, pos + count)
        pos += count
    n = pos
    entries = {"eq": ([], [], []), "ub": ([], [], [])}

    def put(kind, rows, at, vals):
        r, c, v = entries[kind]
        r.append(np.broadcast_to(rows, np.shape(at)))
        c.append(at)
        v.append(np.broadcast_to(vals, np.shape(at)).astype(float))

    ek, elt = np.nonzero(e)
    am, ak = np.nonzero(a)
    bj, bt = np.nonzero(idx.block_powers)
    put("eq", idx.hourly_lt, cols["x"], idx.hourly_power)
    put("eq", idx.sub_lt, cols["xm"], idx.sub_power)
    put("eq", idx.block_loc[bj] * idx.T + bt, cols["y"][bj], idx.block_powers[bj, bt])
    put("eq", elt, cols["n"][ek], -e[ek, elt])
    put("eq", LT + ak, cols["v"][am], a[am, ak])
    put("eq", LT + ek, cols["pi"][elt], -e[ek, elt])
    pin = LT + K
    c_primal = np.concatenate((idx.hourly_power * idx.hourly_limit, idx.sub_power * idx.sub_limit))
    put("eq", pin, np.concatenate((cols["x"], cols["xm"])), c_primal)
    for name in ("si", "sj", "sc"):
        put("eq", pin, cols[name], -1.0)
    wm = np.nonzero(w)[0]
    put("eq", pin, cols["v"][wm], -w[wm])
    put("eq", pin, cols["da"], 1.0)
    put("eq", pin, cols["y"], block_welfare)
    r_hourly = M
    r_sub = r_hourly + nI
    r_block = r_sub + nS
    r_mic = r_block + nJ
    r_income = r_mic + nC
    put("ub", am, cols["n"][ak], a[am, ak])
    put("ub", r_hourly + np.arange(nI), cols["si"], -1.0)
    put("ub", r_hourly + np.arange(nI), cols["pi"][idx.hourly_lt], -idx.hourly_power)
    put("ub", r_sub + np.arange(nS), cols["sh"], -1.0)
    put("ub", r_sub + np.arange(nS), cols["pi"][idx.sub_lt], -idx.sub_power)
    put("ub", r_block + np.arange(nJ), cols["sj"], -1.0)
    put("ub", r_block + bj, cols["pi"][idx.block_loc[bj] * idx.T + bt], -idx.block_powers[bj, bt])
    put("ub", r_block + np.arange(len(cols["da"])), cols["da"], 1.0)
    put("ub", r_block + np.arange(nJ), cols["dr"], -1.0)
    put("ub", r_mic + np.arange(nC), cols["sc"], -1.0)
    put("ub", r_mic + idx.sub_owner, cols["sh"], 1.0)
    put("ub", r_mic + np.arange(nC), cols["dur"], -1.0)
    put("ub", r_income + np.arange(nC), cols["sc"], -1.0)
    put("ub", r_income + idx.sub_owner, cols["xm"],
        -idx.sub_power * (idx.mic_variable[idx.sub_owner] - idx.sub_limit))
    put("ub", r_income + np.arange(nC), cols["u"], idx.mic_fixed)

    def matrix(kind, n_rows):
        r, c, v = (np.concatenate(part) for part in entries[kind])
        return coo_array((v, (r, c)), shape=(n_rows, n))

    A = vstack((matrix("ub", r_income + nC), matrix("eq", pin + 1))).tocsc()
    return A.indptr, A.indices, A.data, r_income + nC


def _export_cases():
    yield "toy", make_toy()
    for fixed in (1000.0, 9000.0):
        yield f"mic-{fixed:g}", make_mic(fixed)
    yield "pab-chain", make_pab_chain()
    for name, config in FUZZ_SHAPES.items():
        for seed in FUZZ_SEEDS:
            yield f"{name}-{seed}", generate(replace(config, seed=seed))
    for seed in range(42):
        yield f"sweep-{seed}", _sweep(seed)


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
def test_face_export_equals_scipys_stacked_csc(rules):
    # the numpy export hands HiGHS exactly the arrays scipy.sparse gave it
    checked = 0
    for case, inst in _export_cases():
        face = oracle._Face(inst, rules)
        *want, n_ub = _reference_face_csc(inst, rules)
        assert face.n_ub == n_ub, case
        assert face.csc[0].size == face.lo.size + 1, case
        for got, ref in zip(face.csc, want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref), case
        checked += 1
    assert checked == 4 + 2 * len(FUZZ_SHAPES) + 42


def test_csc_sums_duplicates_and_keeps_zeros_like_scipy():
    # dyadic values, so the sum of repeated entries is exact in any order
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_rows, n_cols, nnz = rng.integers(1, 6), rng.integers(1, 6), rng.integers(0, 30)
        rows, cols = rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz)
        vals = rng.integers(-2, 3, nnz) / 4.0
        got = oracle._csc(rows, cols, vals, n_cols)
        ref = coo_array((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsc()
        for g, r in zip(got, (ref.indptr, ref.indices, ref.data)):
            assert np.array_equal(g, r), (rows, cols, vals)


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
def test_face_extremes_match_a_one_shot_linprog(rules):
    # the persistent HiGHS object against linprog on the same A_ub/A_eq
    # face, built by scipy from the face's export, selection by selection,
    # on every shape of the sweep family
    checked = 0
    for seed in range(21):
        inst = _sweep(seed)
        face = oracle._Face(inst, rules)
        start, index, value = face.csc
        A = csc_array((value, index, start), shape=(face.n_ub + face.b_eq.size, face.lo.size))
        A_ub, A_eq = A[: face.n_ub], A[face.n_ub:]
        nJ, nb = len(inst.block_bids), len(inst.block_bids) + len(inst.mic_bids)
        for mask in range(2 ** nb):
            bits = ((mask >> np.arange(nb)) & 1).astype(float)
            y, u = bits[:nJ], bits[nJ:]
            got = face.extremes(y, u)
            bounds = np.column_stack(face.bounds(y, u))

            def one_shot(cost):
                return linprog(cost, A_ub=A_ub, b_ub=face.b_ub, A_eq=A_eq,
                               b_eq=face.b_eq, bounds=bounds, method="highs",
                               options={"presolve": False, "primal_feasibility_tolerance": 1e-9,
                                        "dual_feasibility_tolerance": 1e-9})

            vol = one_shot(-face.c_volume)
            case = (seed, rules, mask)
            assert vol.status in (0, 2), case
            assert (got is None) == (vol.status == 2), case
            if got is not None:
                comp = one_shot(face.c_compensation)
                assert comp.status == 0, case
                want = (face.c_welfare @ vol.x, face.c_volume @ vol.x, face.c_compensation @ comp.x)
                for g, w in zip(got[:3], want):
                    assert abs(g - w) <= 1e-9 * (1.0 + abs(w)), (case, g, w)
            checked += 1
    assert checked == 127 * 7


@pytest.mark.parametrize("rules", ("pcr", "umfs"))
def test_no_ray_certifies_an_admissible_selection(rules):
    # an admissible selection's polytope has a point, so no row
    # multipliers prove it empty: neither random ones nor the dual ray
    # HiGHS gives with an infeasible selection one binary away, which
    # does prove some of those neighbours empty
    rng = np.random.default_rng(27)
    refused = certified_own = 0
    for seed in range(21):
        inst = _sweep(seed)
        face = oracle._Face(inst, rules)
        nJ, nb = len(inst.block_bids), len(inst.block_bids) + len(inst.mic_bids)
        n_ub, n_rows = face.n_ub, face.row_lo.size
        boxes, rays = {}, {}
        for mask in range(2 ** nb):
            bits = ((mask >> np.arange(nb)) & 1).astype(float)
            if face.extremes(bits[:nJ], bits[nJ:]) is not None:
                boxes[mask] = face.bounds(bits[:nJ], bits[nJ:])
                continue
            _, has_ray, ray = face._highs.getDualRay()
            if has_ray:
                rays[mask] = np.array(ray)
                certified_own += oracle._ray_certifies(
                    face.csc, face.row_lo, face.row_hi, *face.bounds(bits[:nJ], bits[nJ:]), rays[mask])
        for mask, box in boxes.items():
            signed = rng.normal(size=n_rows)
            signed[:n_ub] = np.abs(signed[:n_ub])  # the <= rows' finite side
            candidates = [rng.normal(size=n_rows), signed]
            candidates += [rays[mask ^ (1 << k)] for k in range(nb) if mask ^ (1 << k) in rays]
            for ray in candidates:
                assert not oracle._ray_certifies(face.csc, face.row_lo, face.row_hi, *box, ray), (seed, mask)
                refused += 1
    assert refused > 2 * 7 * 127 // 4 and certified_own > 100


class _ForcedRay:
    """Forwards to a HiGHS object; getDualRay hands out ray, once, when the
    test has set one."""

    def __init__(self, highs):
        self._highs, self.ray = highs, None

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def getDualRay(self):
        if self.ray is None:
            return self._highs.getDualRay()
        ray, self.ray = self.ray, None
        return oracle._highspy.HighsStatus.kOk, True, ray


@pytest.mark.parametrize("ray", ("row-duals", "random"))
def test_a_hot_infeasible_verdict_without_a_proof_is_solved_again_cold(monkeypatch, ray):
    # every hot probe that found a point is made to report Infeasible,
    # with the row duals at that point, or random multipliers, as its
    # dual ray. The certificate refuses each, so the selection is solved
    # cold and stays admissible. Sweep seed 291 under umfs lost one of its
    # 16 admissible selections when HiGHS's word was taken on a kept basis
    rng = np.random.default_rng(11)
    cases = [(_sweep(seed), rules) for seed, rules in ((291, "umfs"), (20, "pcr"), (20, "umfs"))]
    want = [enumerate_selections(inst, rules=rules) for inst, rules in cases]
    forced = []
    real_highs, real_run = oracle._face_highs, oracle._Face._run
    real_step, real_cold = oracle._Face.step, oracle._Face._cold

    def step(face, k, y, u):
        face.hot = True
        return real_step(face, k, y, u)

    def cold(face, y, u):
        face.hot = False
        return real_cold(face, y, u)

    def run(face, cost):
        status, point = real_run(face, cost)
        if face.hot and point is not None and cost is not face.c_compensation:
            face._highs.ray = (np.array(face._highs.getSolution().row_dual) if ray == "row-duals"
                               else rng.normal(size=face.row_lo.size))
            forced.append(None)
            return oracle._STATUS.kInfeasible, None
        return status, point

    monkeypatch.setattr(oracle, "_face_highs", lambda *args: _ForcedRay(real_highs(*args)))
    monkeypatch.setattr(oracle._Face, "step", step)
    monkeypatch.setattr(oracle._Face, "_cold", cold)
    monkeypatch.setattr(oracle._Face, "_run", run)
    for (inst, rules), w in zip(cases, want):
        forced.clear()
        got = enumerate_selections(inst, rules=rules)
        assert forced and got.resolved_cold >= len(forced)
        assert [(r.accepted_blocks, r.accepted_mic) for r in got.records] == [
            (r.accepted_blocks, r.accepted_mic) for r in w.records]
        for objective in ("welfare", "volume", "min_opportunity_cost"):
            v = w.optimum(objective)
            assert abs(got.optimum(objective) - v) <= 1e-6 * (1.0 + abs(v)), objective


def test_a_zero_coefficient_adds_nothing_on_an_infinite_bound():
    lo, hi = np.array([-np.inf, 0.0, 1.0]), np.array([np.inf, 2.0, np.inf])
    assert oracle._interval(np.array([0.0, 3.0, 0.0]), lo, hi) == (0.0, 6.0)
    assert oracle._interval(np.array([0.0, -3.0, -1.0]), lo, hi) == (-np.inf, -1.0)


def test_a_ray_weighting_an_infinite_row_side_does_not_certify():
    # x in [0, 1] and the row x <= 5 have points. The ray -1 gives -x in
    # [-1, 0] and, over s <= 5, -s in [-5, +inf): it weights the row's
    # infinite side, so the intervals meet. With the row at x = 5 the
    # same ray proves the set empty, also beside a row x <= 5 it weights 0
    csc = oracle._csc(np.array([0, 1]), np.array([0, 0]), np.array([1.0, 1.0]), 1)
    box = np.array([0.0]), np.array([1.0])
    at_most, exactly = (-np.inf, 5.0), (5.0, 5.0)
    for rows, ray, certifies in (
        ((at_most, at_most), [-1.0, 0.0], False),
        ((at_most, at_most), [-0.5, -0.5], False),
        ((exactly, at_most), [-1.0, 0.0], True),
        ((at_most, exactly), [0.0, -1.0], True),
    ):
        row_lo, row_hi = np.array(rows).T
        assert oracle._ray_certifies(csc, row_lo, row_hi, *box, np.array(ray)) is certifies, (rows, ray)


@pytest.mark.parametrize("share, certifies", ((0.99, True), (1.01, False)))
def test_a_ray_term_within_ray_zero_of_its_size_is_rounding(share, certifies):
    # x0 free and x1 in [2, 3] meet no point of the rows x0 + x1 = 0 and
    # -x0 = 0. The ray (1, 1 - e) leaves r_0 = e on the free column, a
    # sum of terms of size 2 - e: below RAY_ZERO * (2 - e) it is taken as
    # 0 and the ray proves the set empty; above, r . x is unbounded
    csc = oracle._csc(np.array([0, 1, 0]), np.array([0, 0, 1]), np.array([1.0, -1.0, 1.0]), 2)
    e = share * oracle.RAY_ZERO * 2.0
    box = np.array([-np.inf, 2.0]), np.array([np.inf, 3.0])
    ray = np.array([1.0, 1.0 - e])
    assert oracle._ray_certifies(csc, np.zeros(2), np.zeros(2), *box, ray) is certifies


@pytest.mark.parametrize("gap, certifies", ((1e-12, False), (1e-6, True)))
def test_intervals_apart_by_less_than_the_rounding_margin_do_not_certify(gap, certifies):
    # x in [0, 1] and the row x = 1 + gap have no point; the ray 1 gives
    # x in [0, 1] against s = 1 + gap, apart by gap, which must exceed
    # RAY_ZERO * (1 * 1 + 1 * (1 + gap))
    csc = oracle._csc(np.array([0]), np.array([0]), np.array([1.0]), 1)
    side = np.array([1.0 + gap])
    got = oracle._ray_certifies(csc, side, side, np.array([0.0]), np.array([1.0]), np.array([1.0]))
    assert got is certifies
