"""Exhaustive ground truth for small instances.

Enumerates every block/MIC acceptance selection and decides, from first
principles, whether it supports equilibrium prices. A selection is
admissible exactly when its joint polytope is nonempty. The polytope
couples the primal-optimal face with the dual-optimal face of the
parametrized LP pair: primal dispatch rows, dual feasibility rows, prices
boxed at the cap, one row pinning the primal objective to the dual
objective, and the linear income rows of accepted MIC bids. Weak duality
across those rows makes every point of the polytope primal- and
dual-optimal; a selection that cannot be dispatched at all leaves it empty.

The polytope's matrix does not depend on the selection, so it is assembled
once per instance and rule set, with every column, into one HiGHS object.
The acceptances y and u are columns fixed by their bounds, so a selection
changes only column bounds: y and u themselves, the suborder caps of its
MIC bids and the dual slacks it switches off. Two LPs run over it, each a
cold-started HiGHS solve that changes only the cost (see _Face._run and
_LP_OPTIONS):

1. traded volume is maximized, which doubles as the feasibility probe;
   the selection's welfare is read at that point;
2. the rejected-block compensation sum is minimized.

Both extremes are taken over the joint polytope, because the income rows
couple the two faces and extremes taken over either face alone could be
unreachable. The optimum per objective is then the best over admissible
selections. This module intentionally builds its LPs directly on scipy,
sharing no assembly code with the MILP builder it is meant to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._highs import core as _highspy
from .model import ClearingSolution, Instance, InstanceIndex, validate_instance

GUARD = 20

# the face sits on the objective-equality hyperplane and has no relative
# interior; with presolve on, HiGHS called such a face infeasible although
# it had a point (sweep-family seed 111 under umfs), so presolve stays off
_LP_OPTIONS = {"output_flag": False, "log_to_console": False, "presolve": "off",
               "primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}
_STATUS = _highspy.HighsModelStatus


class OracleGuardError(ValueError):
    pass


def __getattr__(name):
    # linprog is not called here (every face LP runs on the enumeration's
    # own HiGHS object, see _Face._run), but the benchmark tracer in
    # perfbench/tracing.py patches oracle.linprog by name. It is resolved on
    # first access, so importing the oracle does not import scipy.optimize.
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SelectionRecord:
    """One admissible selection with its per-objective extremes."""

    accepted_blocks: tuple
    accepted_mic: tuple
    welfare: float
    max_volume: float
    min_opportunity_cost: float


@dataclass(frozen=True)
class OracleOptimum:
    value: float
    accepted_blocks: tuple
    accepted_mic: tuple
    witness: dict


@dataclass(frozen=True)
class SelectionOracleResult:
    rules: str
    n_selections: int
    records: tuple
    optima: dict

    def optimum(self, objective: str) -> float:
        return self.optima[objective].value


def _face_highs(A_ub, b_ub, A_eq, b_eq, lo, hi):
    """One HiGHS object (_LP_OPTIONS) holding the rows [A_ub; A_eq] as
    interval rows, in the order linprog stacks them, with zero cost."""
    from scipy.sparse import vstack

    A = vstack((A_ub, A_eq)).tocsc()
    lp = _highspy.HighsLp()
    lp.num_row_, lp.num_col_ = A.shape
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = A.shape
    lp.col_cost_ = np.zeros(A.shape[1])
    lp.col_lower_ = lo
    lp.col_upper_ = hi
    lp.row_lower_ = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
    lp.row_upper_ = np.concatenate((b_ub, b_eq))
    lp.a_matrix_.format_ = _highspy.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    highs = _highspy._Highs()
    for name, value in _LP_OPTIONS.items():
        if highs.setOptionValue(name, value) != _highspy.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected the oracle option {name}={value!r}")
    if highs.passModel(lp) == _highspy.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the oracle's face model")
    return highs


class _Face:
    """Joint primal/dual optimal polytope of one instance under one rule set.

    Columns, in order: hourly acceptances x, suborder acceptances xm,
    network basis flows n, prices pi, network row duals v, the dual slacks
    si, sh, sj, sc of hourly bids, suborders, blocks and MIC bids, then per
    block da (umfs only: the compensation of a paradoxically accepted
    block), per block dr (a rejected block's compensation) and per MIC bid
    dur (the slack of a rejected MIC bid), and last the acceptances y per
    block and u per MIC bid, which the selection fixes. Equality rows:
    balance per (location, period), dual feasibility per basis flow, and
    the optimality pin (primal objective plus the accepted-block welfare
    minus the dual objective equals 0). Inequality rows, stored as <=:
    network capacities, dual feasibility per hourly bid, suborder, block
    and MIC bid, and one income row per MIC bid (void for a rejected bid,
    whose suborders are capped at 0). A_ub, b_ub, A_eq, b_eq, lo and hi
    are the face as linprog would take it; the HiGHS object holds the
    same rows and columns.
    """

    def __init__(self, instance: Instance, rules: str):
        # scipy.sparse is imported here, not with the module: only an
        # enumeration needs it
        from scipy.sparse import coo_array

        idx = self.idx = InstanceIndex(instance)
        nI, nS, nJ, nC = idx.n_hourly, idx.n_sub, idx.n_block, idx.n_mic
        K, LT, M = idx.n_basis, idx.LT, idx.n_net_rows
        a = instance.network.constraint_rows
        w = np.asarray(instance.network.capacities, dtype=float)
        e = idx.injection_flat
        cap = instance.price_cap
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
        self.cols = cols
        n = pos
        self._all = np.arange(n, dtype=np.int32)

        entries = {"eq": ([], [], []), "ub": ([], [], [])}

        def put(kind, rows, at, vals):
            r, c, v = entries[kind]
            r.append(np.broadcast_to(rows, np.shape(at)))
            c.append(at)
            v.append(np.broadcast_to(vals, np.shape(at)).astype(float))

        # equality rows: balance (LT), basis-flow dual feasibility (K), pin
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

        # inequality rows, negated to <= where the row reads >=
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
        put("ub", r_block + bj, cols["pi"][idx.block_loc[bj] * idx.T + bt],
            -idx.block_powers[bj, bt])
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

        self.A_eq = matrix("eq", pin + 1)
        self.A_ub = matrix("ub", r_income + nC)
        self.b_eq = np.zeros(pin + 1)
        self.b_ub = np.concatenate((
            w,
            -idx.hourly_power * idx.hourly_limit,
            -idx.sub_power * idx.sub_limit,
            -block_welfare,
            np.zeros(2 * nC),
        ))
        self.lo = np.zeros(n)
        self.hi = np.full(n, np.inf)
        self.hi[cols["x"]] = 1.0
        self.lo[cols["n"]] = -np.inf
        self.lo[cols["pi"]] = -cap
        self.hi[cols["pi"]] = cap

        # y and u are fixed by their bounds, so their terms are constants
        self.c_welfare = np.zeros(n)
        self.c_welfare[: len(c_primal)] = c_primal
        self.c_welfare[cols["y"]] = block_welfare
        self.c_volume = np.zeros(n)
        self.c_volume[cols["x"]] = np.clip(idx.hourly_power, 0.0, None)
        self.c_volume[cols["y"]] = np.clip(idx.block_powers, 0.0, None).sum(axis=1)
        self.c_compensation = np.zeros(n)
        self.c_compensation[cols["dr"]] = 1.0
        self._highs = _face_highs(self.A_ub, self.b_ub, self.A_eq, self.b_eq, self.lo, self.hi)

    def bounds(self, y, u):
        """Column bounds (lo, hi) of the face at the selection (y, u)."""
        idx, cols = self.idx, self.cols
        lo, hi = self.lo.copy(), self.hi.copy()
        lo[cols["y"]] = hi[cols["y"]] = y
        lo[cols["u"]] = hi[cols["u"]] = u
        hi[cols["xm"]] = u[idx.sub_owner]
        if len(cols["da"]):
            hi[cols["da"]] = np.where(y > 0, np.inf, 0.0)
        hi[cols["dr"]] = np.where(y > 0, 0.0, np.inf)
        hi[cols["dur"]] = np.where(u > 0, 0.0, np.inf)
        return lo, hi

    def _run(self, cost):
        """One LP over the face at its current bounds, from a cold start.

        Returns HiGHS's model status and, when it is optimal, the point
        (None otherwise). clearSolver drops the previous LP's basis: kept,
        it changed verdicts (sweep-family seed 291 under umfs lost one of
        its 16 admissible selections) and failed compensation LPs.
        """
        highs = self._highs
        highs.changeColsCost(cost.size, self._all, cost)
        highs.clearSolver()
        highs.run()
        status = highs.getModelStatus()
        if status != _STATUS.kOptimal:
            return status, None
        return status, np.array(highs.getSolution().col_value)

    def extremes(self, y, u):
        """(welfare, max volume, min compensation, witness) at a selection.

        Returns None when the volume probe finds the polytope empty
        (selection not supportable); any other non-optimal LP raises.
        Optimality is pinned intrinsically by the pin row; no externally
        computed welfare value enters the system, so the face is exact: a
        pinning corridor of width e would be amplified into the
        compensation minimum by the rejected blocks' price sensitivity.
        """
        cols = self.cols
        lo, hi = self.bounds(y, u)
        self._highs.changeColsBounds(lo.size, self._all, lo, hi)
        status, vol = self._run(-self.c_volume)
        if status == _STATUS.kInfeasible:
            return None
        if vol is None:
            raise self._failure("volume probe", status, y, u)
        status, comp = self._run(self.c_compensation)
        if comp is None:
            raise self._failure("compensation", status, y, u)
        witness = {
            "x": vol[cols["x"]],
            "x_mic": vol[cols["xm"]],
            "prices": vol[cols["pi"]].reshape(self.idx.L, self.idx.T),
        }
        return (
            float(self.c_welfare @ vol),
            float(self.c_volume @ vol),
            float(self.c_compensation @ comp),
            witness,
        )

    def _failure(self, lp: str, status, y, u) -> RuntimeError:
        blocks, mic = _accepted(self.idx.instance, y, u)
        return RuntimeError(f"oracle {lp} LP failed for accepted blocks {blocks} and MIC bids {mic}: "
                            f"HiGHS model status {self._highs.modelStatusToString(status)}")


def _accepted(instance: Instance, y, u) -> tuple:
    return (tuple(b.id for b, on in zip(instance.block_bids, y) if on),
            tuple(c.id for c, on in zip(instance.mic_bids, u) if on))


def enumerate_selections(instance: Instance, rules: str = "pcr") -> SelectionOracleResult:
    """Ground-truth optima for every objective under one rule set.

    Guard-limited to #blocks + #MIC <= GUARD (enumeration is exponential).
    Records come in selection order, so results are deterministic.
    """
    validate_instance(instance)
    if rules not in ("pcr", "umfs"):
        raise ValueError(f"unknown rules {rules!r}")
    nJ, nb = len(instance.block_bids), len(instance.block_bids) + len(instance.mic_bids)
    if nb > GUARD:
        raise OracleGuardError(f"{nb} binaries exceed the enumeration guard of {GUARD}")
    face = _Face(instance, rules)

    records = []
    witnesses = []
    for mask in range(2 ** nb):
        bits = ((mask >> np.arange(nb)) & 1).astype(float)
        y, u = bits[:nJ], bits[nJ:]
        got = face.extremes(y, u)
        if got is None:
            continue
        welfare, vol, oc, witness = got
        records.append(SelectionRecord(*_accepted(instance, y, u), welfare, vol, oc))
        witnesses.append(witness)
    if not records:
        raise RuntimeError("no admissible selection; the all-rejected one must exist")

    def pick(key, better):
        best = 0
        for k in range(1, len(records)):
            if better(key(records[k]), key(records[best])):
                best = k
        r = records[best]
        return OracleOptimum(
            value=key(r), accepted_blocks=r.accepted_blocks,
            accepted_mic=r.accepted_mic, witness=witnesses[best],
        )

    optima = {
        "welfare": pick(lambda r: r.welfare, lambda a, b: a > b),
        "volume": pick(lambda r: r.max_volume, lambda a, b: a > b),
        "min_opportunity_cost": pick(
            lambda r: r.min_opportunity_cost, lambda a, b: a < b
        ),
    }
    return SelectionOracleResult(
        rules=rules, n_selections=2 ** nb, records=tuple(records), optima=optima
    )


def cross_check(
    instance: Instance,
    rules: str,
    objective: str,
    milp_solution: ClearingSolution,
    oracle_result: Optional[SelectionOracleResult] = None,
) -> tuple[bool, dict]:
    """Compare a MILP solution's objective against the enumerated optimum."""
    res = oracle_result or enumerate_selections(instance, rules)
    opt = res.optimum(objective)
    got = {
        "welfare": milp_solution.welfare,
        "volume": milp_solution.traded_volume,
        "min_opportunity_cost": milp_solution.total_opportunity_cost,
    }[objective]
    tol = 1e-6 * (1.0 + abs(opt))
    details = {
        "objective": objective,
        "rules": rules,
        "milp": got,
        "oracle": opt,
        "difference": got - opt,
        "tolerance": tol,
        "oracle_selection": {
            "blocks": res.optima[objective].accepted_blocks,
            "mic": res.optima[objective].accepted_mic,
        },
    }
    return bool(abs(got - opt) <= tol), details
