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
once per instance and rule set, with every column. A selection changes
only bounds (the suborder caps of its MIC bids and the dual slacks it
switches off) and right-hand sides (the accepted blocks' balance and
welfare terms, the accepted MIC bids' fixed costs). Two LPs run over it:

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
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .model import ClearingSolution, Instance, InstanceIndex, validate_instance

GUARD = 20

# the face sits on the objective-equality hyperplane and has no relative
# interior; tight simplex can stall or mis-declare it infeasible, so fall
# through to gentler configurations and trust an infeasible verdict only
# from the last rung
_RUNGS = (("highs", 1e-9), ("highs", 1e-7), ("highs-ipm", 1e-9))


class OracleGuardError(ValueError):
    pass


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


class _Face:
    """Joint primal/dual optimal polytope of one instance under one rule set.

    Columns, in order: hourly acceptances x, suborder acceptances xm,
    network basis flows n, prices pi, network row duals v, the dual slacks
    si, sh, sj, sc of hourly bids, suborders, blocks and MIC bids, then per
    block da (umfs only: the compensation of a paradoxically accepted
    block), per block dr (a rejected block's compensation) and per MIC bid
    dur (the slack of a rejected MIC bid). Equality rows: balance per (location,
    period), dual feasibility per basis flow, and the optimality pin
    (primal objective minus dual objective equals minus the accepted-block
    welfare). Inequality rows, stored as <=: network capacities, dual
    feasibility per hourly bid, suborder, block and MIC bid, and one income
    row per MIC bid (void for a rejected bid, whose suborders are capped
    at 0).
    """

    def __init__(self, instance: Instance, rules: str):
        idx = self.idx = InstanceIndex(instance)
        nI, nS, nJ, nC = idx.n_hourly, idx.n_sub, idx.n_block, idx.n_mic
        K, LT, M = idx.n_basis, idx.LT, idx.n_net_rows
        a = instance.network.constraint_rows
        w = np.asarray(instance.network.capacities, dtype=float)
        e = idx.injection_flat
        cap = instance.price_cap
        self.block_welfare = idx.block_total * idx.block_limit

        cols = {}
        pos = 0
        for name, count in (
            ("x", nI), ("xm", nS), ("n", K), ("pi", LT), ("v", M),
            ("si", nI), ("sh", nS), ("sj", nJ), ("sc", nC),
            ("da", nJ if rules == "umfs" else 0), ("dr", nJ), ("dur", nC),
        ):
            cols[name] = np.arange(pos, pos + count)
            pos += count
        self.cols = cols
        n = pos

        entries = {"eq": ([], [], []), "ub": ([], [], [])}

        def put(kind, rows, at, vals):
            r, c, v = entries[kind]
            r.append(np.broadcast_to(rows, np.shape(at)))
            c.append(at)
            v.append(np.broadcast_to(vals, np.shape(at)).astype(float))

        # equality rows: balance (LT), basis-flow dual feasibility (K), pin
        ek, elt = np.nonzero(e)
        am, ak = np.nonzero(a)
        put("eq", idx.hourly_lt, cols["x"], idx.hourly_power)
        put("eq", idx.sub_lt, cols["xm"], idx.sub_power)
        put("eq", elt, cols["n"][ek], -e[ek, elt])
        put("eq", LT + ak, cols["v"][am], a[am, ak])
        put("eq", LT + ek, cols["pi"][elt], -e[ek, elt])
        pin = LT + K
        self.c_primal = np.concatenate(
            (idx.hourly_power * idx.hourly_limit, idx.sub_power * idx.sub_limit)
        )
        put("eq", pin, np.concatenate((cols["x"], cols["xm"])), self.c_primal)
        for name in ("si", "sj", "sc"):
            put("eq", pin, cols[name], -1.0)
        wm = np.nonzero(w)[0]
        put("eq", pin, cols["v"][wm], -w[wm])
        put("eq", pin, cols["da"], 1.0)

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
        bj, bt = np.nonzero(idx.block_powers)
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
            -self.block_welfare,
            np.zeros(2 * nC),
        ))
        self.income = slice(r_income, r_income + nC)
        self.lo = np.zeros(n)
        self.hi = np.full(n, np.inf)
        self.hi[cols["x"]] = 1.0
        self.lo[cols["n"]] = -np.inf
        self.lo[cols["pi"]] = -cap
        self.hi[cols["pi"]] = cap

        # accepted blocks' balance terms and welfare move to the rhs
        self.block_balance = np.zeros((LT, nJ))
        self.block_balance[idx.block_loc[bj] * idx.T + bt, bj] = idx.block_powers[bj, bt]
        self.block_buy_volume = np.clip(idx.block_powers, 0.0, None).sum(axis=1)
        self.c_volume = np.zeros(n)
        self.c_volume[cols["x"]] = np.clip(idx.hourly_power, 0.0, None)
        self.c_compensation = np.zeros(n)
        self.c_compensation[cols["dr"]] = 1.0

    def _solve(self, c, b_ub, b_eq, bounds):
        res = None
        for method, tol in _RUNGS:
            res = linprog(
                c, A_ub=self.A_ub, b_ub=b_ub,
                A_eq=self.A_eq, b_eq=b_eq, bounds=bounds, method=method,
                options={"presolve": True, "primal_feasibility_tolerance": tol,
                         "dual_feasibility_tolerance": tol},
            )
            if res.status in (0, 3):
                return res
        return res

    def extremes(self, y, u):
        """(welfare, max volume, min compensation, witness) at a selection.

        Returns None when the polytope is empty (selection not
        supportable). Optimality is pinned intrinsically by the pin row; no
        externally computed welfare value enters the system, so the face
        is exact: a pinning corridor of width e would be amplified into
        the compensation minimum by the rejected blocks' price sensitivity.
        """
        idx, cols = self.idx, self.cols
        b_eq = self.b_eq.copy()
        b_eq[: idx.LT] = -(self.block_balance @ y)
        b_eq[-1] = -float(self.block_welfare @ y)
        b_ub = self.b_ub.copy()
        b_ub[self.income] = -idx.mic_fixed * u
        hi = self.hi.copy()
        hi[cols["xm"]] = u[idx.sub_owner]
        if len(cols["da"]):
            hi[cols["da"]] = np.where(y > 0, np.inf, 0.0)
        hi[cols["dr"]] = np.where(y > 0, 0.0, np.inf)
        hi[cols["dur"]] = np.where(u > 0, 0.0, np.inf)
        bounds = np.column_stack((self.lo, hi))

        vol = self._solve(-self.c_volume, b_ub, b_eq, bounds)
        if vol.status == 2:
            return None
        comp = self._solve(self.c_compensation, b_ub, b_eq, bounds) if vol.status == 0 else vol
        if comp.status != 0:
            raise RuntimeError("face LPs failed at every solver rung")
        witness = {
            "x": vol.x[cols["x"]],
            "x_mic": vol.x[cols["xm"]],
            "prices": vol.x[cols["pi"]].reshape(idx.L, idx.T),
        }
        return (
            float(self.c_primal @ vol.x[: len(self.c_primal)]) + float(self.block_welfare @ y),
            float(self.c_volume @ vol.x) + float(self.block_buy_volume @ y),
            float(self.c_compensation @ comp.x),
            witness,
        )


def enumerate_selections(instance: Instance, rules: str = "pcr") -> SelectionOracleResult:
    """Ground-truth optima for every objective under one rule set.

    Guard-limited to #blocks + #MIC <= GUARD (enumeration is exponential).
    Records come in selection order, so results are deterministic.
    """
    validate_instance(instance)
    if rules not in ("pcr", "umfs"):
        raise ValueError(f"unknown rules {rules!r}")
    block_ids = [b.id for b in instance.block_bids]
    mic_ids = [c.id for c in instance.mic_bids]
    nJ, nb = len(block_ids), len(block_ids) + len(mic_ids)
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
        records.append(SelectionRecord(
            accepted_blocks=tuple(b for b, on in zip(block_ids, y) if on),
            accepted_mic=tuple(c for c, on in zip(mic_ids, u) if on),
            welfare=welfare,
            max_volume=vol,
            min_opportunity_cost=oc,
        ))
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
