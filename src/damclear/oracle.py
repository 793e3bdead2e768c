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
MIC bids and the dual slacks it switches off. Two LPs run over it, and
each changes only the cost (see _Face.extremes and _LP_OPTIONS):

1. traded volume is maximized, which doubles as the feasibility probe;
   the selection's welfare is read at that point;
2. the rejected-block compensation sum is minimized, hot-started from
   the probe's optimal basis at the same bounds.

Both extremes are taken over the joint polytope, because the income rows
couple the two faces and extremes taken over either face alone could be
unreachable. The optimum per objective is then the best over admissible
selections. This module intentionally builds its LPs directly on scipy's
HiGHS bindings, in numpy, sharing no assembly code with the MILP builder
it is meant to check.

The selections are walked in Gray-code order (position p is the mask
p ^ (p >> 1)), cut into runs of RUN consecutive positions. A run's first
selection is solved cold: all column bounds are set and the basis is
dropped. Each further selection differs from the previous one in one
binary, so only that binary's columns change bounds and the probe starts
hot from the previous basis (see _Face.step). A kept basis once changed
verdicts (sweep-family seed 291 under umfs lost one of its 16 admissible
selections), so a hot infeasible verdict counts only when the dual ray
HiGHS returns with it proves the polytope empty in plain arithmetic
(_ray_certifies, after Neumaier and Shcherbina, "Safe bounds in linear and
mixed-integer linear programming", Math. Programming 99, 2004). Any other
hot outcome that is not a pair of optimal LPs is solved again cold, and
the cold verdict and errors stand.

HiGHS releases the interpreter lock while it solves, so the runs are
split over worker threads, one per usable CPU but no more than one per
run. The face's arrays are built once; each extra worker solves on its
own HiGHS object over them, and of w workers each takes every w-th run.
A selection's result lands in the slot of its mask, and every run starts
cold, so records, witnesses and optima come out in mask order and are the
same for any worker count.
"""

from __future__ import annotations

import copy
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._highs import core as _highspy
from .model import ClearingSolution, Instance, InstanceIndex

GUARD = 20
# Gray-code positions per run: a run starts cold, so a longer run keeps the
# basis more often, and runs are what the worker threads share out
RUN = 16
# a dual ray's (A^T ray)_j within this share of (|A|^T |ray|)_j is taken as
# 0, and the intervals a ray separates must lie apart by more than this
# share of the size of their terms (see _ray_certifies)
RAY_ZERO = 1e-9

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
    # hot infeasible verdicts proved by their dual ray, and hot selections
    # solved again cold (see _Face.step)
    certified_infeasible: int
    resolved_cold: int

    def optimum(self, objective: str) -> float:
        return self.optima[objective].value


def _csc(rows, cols, vals, n_cols):
    """Entries (rows, cols, vals) as compressed-column arrays (start, index, value).

    Columns hold their rows in ascending order, repeated (row, column)
    entries are summed and explicit zeros are kept: the arrays scipy's
    coo-to-csc conversion gives for the same entries.
    """
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if not first.all():
        vals = np.add.reduceat(vals, np.flatnonzero(first))
        rows, cols = rows[first], cols[first]
    start = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=start[1:])
    return start, rows, vals


def _column_sums(start, terms):
    """Sum of terms over each column's segment start[j]:start[j + 1] of the
    compressed-column entries; an empty column sums to 0."""
    sums = np.add.reduceat(np.append(terms, 0.0), start[:-1])
    sums[start[:-1] == start[1:]] = 0.0
    return sums


def _interval(coef, lo, hi):
    """(min, max) of coef . z over the box lo <= z <= hi. A zero
    coefficient adds 0, also where its bound is infinite."""
    at = np.flatnonzero(coef)
    c = coef[at]
    ends = c * lo[at], c * hi[at]
    return float(np.minimum(*ends).sum()), float(np.maximum(*ends).sum())


def _magnitude(lo, hi):
    """The largest finite |bound| of each element of the box lo, hi, 0
    where both bounds are infinite."""
    return np.maximum(np.where(np.isfinite(lo), np.abs(lo), 0.0),
                      np.where(np.isfinite(hi), np.abs(hi), 0.0))


def _ray_certifies(csc, row_lo, row_hi, lo, hi, ray) -> bool:
    """Whether the row multipliers ray prove {x : lo <= x <= hi,
    row_lo <= A x <= row_hi} empty, A the compressed-column matrix csc.

    Every point x of the set has ray . (A x) = r . x with r = A^T ray, so
    the set is empty when the interval of r . x over the column box and
    the interval of ray . s over the row box are disjoint. An r_j within
    RAY_ZERO of (|A|^T |ray|)_j, the size of the terms it sums, is
    rounding in the ray and is taken as 0. The intervals must lie apart
    by more than RAY_ZERO times the size of everything summed, each
    size_j or |ray_i| times its largest finite bound: intervals that
    merely touch (a ray that supports a nonempty set) can come out a few
    units in the last place apart.
    """
    start, index, value = csc
    terms = value * ray[index]
    r = _column_sums(start, terms)
    size = _column_sums(start, np.abs(terms))
    r[np.abs(r) <= RAY_ZERO * size] = 0.0
    r_lo, r_hi = _interval(r, lo, hi)
    s_lo, s_hi = _interval(ray, row_lo, row_hi)
    margin = float(RAY_ZERO * (size @ _magnitude(lo, hi) + np.abs(ray) @ _magnitude(row_lo, row_hi)))
    return r_hi + margin < s_lo or s_hi + margin < r_lo


def _face_highs(csc, row_lo, row_hi, lo, hi):
    """One HiGHS object (_LP_OPTIONS) holding the compressed-column rows
    row_lo <= A x <= row_hi and the column bounds lo, hi, with zero cost."""
    lp = _highspy.HighsLp()
    lp.num_row_ = lp.a_matrix_.num_row_ = row_lo.size
    lp.num_col_ = lp.a_matrix_.num_col_ = lo.size
    lp.col_cost_ = np.zeros(lo.size)
    lp.col_lower_ = lo
    lp.col_upper_ = hi
    lp.row_lower_ = row_lo
    lp.row_upper_ = row_hi
    lp.a_matrix_.format_ = _highspy.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = csc
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
    whose suborders are capped at 0). ``csc`` holds the rows [A_ub; A_eq]
    as compressed-column arrays (start, index, value), the first ``n_ub``
    of them the <= rows; with b_ub, b_eq, lo and hi they are the face as
    linprog would take it, and the HiGHS object holds the same rows, as
    row_lo <= A x <= row_hi, and columns. flips[k] holds the columns whose
    bounds binary k (blocks, then MIC bids) sets, with their bounds (lo,
    hi) when it is 0 and when it is 1. The face counts the hot infeasible
    verdicts it certified and the hot selections it solved again cold.
    """

    def __init__(self, instance: Instance, rules: str):
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
            # rows and vals are scalars or arrays shaped like the columns at
            r, c, v = entries[kind]
            r.append(np.full(at.shape, rows) if np.isscalar(rows) else rows)
            c.append(at)
            v.append(np.full(at.shape, vals, dtype=float) if np.isscalar(vals)
                     else np.asarray(vals, dtype=float))

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

        # the <= rows first, then the equality rows, as linprog stacks them
        self.n_ub = r_income + nC
        r_ub, c_ub, v_ub = (np.concatenate(part) for part in entries["ub"])
        r_eq, c_eq, v_eq = (np.concatenate(part) for part in entries["eq"])
        self.csc = _csc(np.r_[r_ub, r_eq + self.n_ub], np.r_[c_ub, c_eq], np.r_[v_ub, v_eq], n)
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
        self.row_lo = np.concatenate((np.full(self.n_ub, -np.inf), self.b_eq))
        self.row_hi = np.concatenate((self.b_ub, self.b_eq))
        self._highs = _face_highs(self.csc, self.row_lo, self.row_hi, self.lo, self.hi)

        owned = [(cols["y"][j], cols["dr"][j], *cols["da"][j: j + 1]) for j in range(nJ)]
        owned += [(cols["u"][c], cols["dur"][c], *cols["xm"][idx.mic_slices[c]]) for c in range(nC)]
        sides = (self.bounds(np.zeros(nJ), np.zeros(nC)), self.bounds(np.ones(nJ), np.ones(nC)))
        self.flips = []
        for columns in owned:
            at = np.array(columns, dtype=np.int32)
            self.flips.append((at, [(lo[at], hi[at]) for lo, hi in sides]))
        self.certified = self.resolved = 0

    def twin(self) -> "_Face":
        """The same face over its own HiGHS object, sharing every array, for
        another thread to solve on."""
        twin = copy.copy(self)
        twin._highs = _face_highs(self.csc, self.row_lo, self.row_hi, self.lo, self.hi)
        twin.certified = twin.resolved = 0
        return twin

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
        """One LP over the face at its current bounds and basis.

        Returns HiGHS's model status and, when it is optimal, the point
        (None otherwise). Only the cost changes, so HiGHS starts from the
        basis the previous LP left, unless _cold has cleared it.
        """
        highs = self._highs
        highs.changeColsCost(cost.size, self._all, cost)
        highs.run()
        status = highs.getModelStatus()
        if status != _STATUS.kOptimal:
            return status, None
        return status, np.array(highs.getSolution().col_value)

    def extremes(self, y, u):
        """(welfare, max volume, min compensation, witness) at a selection,
        solved cold.

        Sets every column bound and solves from no basis (_cold). Returns
        None when the volume probe finds the polytope empty (selection not
        supportable); any other non-optimal LP raises. Optimality is pinned
        intrinsically by the pin row; no externally computed welfare value
        enters the system, so the face is exact: a pinning corridor of
        width e would be amplified into the compensation minimum by the
        rejected blocks' price sensitivity.
        """
        self._lo, self._hi = self.bounds(y, u)
        self._highs.changeColsBounds(self._lo.size, self._all, self._lo, self._hi)
        return self._cold(y, u)

    def step(self, k, y, u):
        """extremes at a selection (y, u) that differs from the face's
        previous one in binary k alone, solved hot where that is sound.

        Only binary k's columns change bounds, and the volume probe starts
        from the basis the previous selection left. An infeasible probe
        stands when its dual ray certifies the polytope empty; an optimal
        one is followed by the compensation LP from its basis. Anything
        else, an uncertified verdict, another status or a failed
        compensation LP, is solved again by _cold, whose result or error
        stands.
        """
        at, sides = self.flips[k]
        lo, hi = sides[int(y[k] if k < y.size else u[k - y.size])]
        self._lo[at], self._hi[at] = lo, hi
        self._highs.changeColsBounds(at.size, at, lo, hi)
        status, vol = self._run(-self.c_volume)
        if vol is not None:
            status, comp = self._run(self.c_compensation)
            if comp is not None:
                return self._values(vol, comp)
        elif status == _STATUS.kInfeasible:
            _, has_ray, ray = self._highs.getDualRay()
            if has_ray and _ray_certifies(self.csc, self.row_lo, self.row_hi, self._lo, self._hi,
                                          np.asarray(ray)):
                self.certified += 1
                return None
        self.resolved += 1
        return self._cold(y, u)

    def _cold(self, y, u):
        """Both LPs at the current bounds, the volume probe from no basis:
        clearSolver drops the previous LP's. The compensation LP changes
        only the cost, so it starts from the probe's optimal basis, which
        is primal feasible at the same bounds."""
        self._highs.clearSolver()
        status, vol = self._run(-self.c_volume)
        if status == _STATUS.kInfeasible:
            return None
        if vol is None:
            raise self._failure("volume probe", status, y, u)
        status, comp = self._run(self.c_compensation)
        if comp is None:
            raise self._failure("compensation", status, y, u)
        return self._values(vol, comp)

    def _values(self, vol, comp):
        cols = self.cols
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


def _solve_runs(face: _Face, runs: range, slots: list, failures: list) -> None:
    """Walk the selections of runs, in order, on face: slots[mask] gets
    (record, witness) for an admissible selection and stays None for the
    others. The first error stops the walk and is appended to failures as
    (walk position, error)."""
    instance = face.idx.instance
    nJ, nb = face.idx.n_block, face.idx.n_block + face.idx.n_mic
    for run in runs:
        for pos in range(run * RUN, min(len(slots), run * RUN + RUN)):
            mask = pos ^ (pos >> 1)
            bits = ((mask >> np.arange(nb)) & 1).astype(float)
            y, u = bits[:nJ], bits[nJ:]
            try:
                if pos % RUN:
                    # the previous position's mask differs in pos's lowest set bit
                    got = face.step((pos & -pos).bit_length() - 1, y, u)
                else:
                    got = face.extremes(y, u)
            except Exception as exc:  # raised by enumerate_selections once every worker has stopped
                failures.append((pos, exc))
                return
            if got is not None:
                welfare, vol, oc, witness = got
                slots[mask] = SelectionRecord(*_accepted(instance, y, u), welfare, vol, oc), witness


def enumerate_selections(instance: Instance, rules: str = "pcr") -> SelectionOracleResult:
    """Ground-truth optima for every objective under one rule set.

    Guard-limited to #blocks + #MIC <= GUARD (enumeration is exponential).
    Records come in mask order, whichever worker thread solved them, so
    results are deterministic. A face LP that fails raises after every
    worker has stopped; of several failed selections, the one with the
    lowest walk position is raised, the one a single worker would have
    met first.
    """
    if rules not in ("pcr", "umfs"):
        raise ValueError(f"unknown rules {rules!r}")
    nb = len(instance.block_bids) + len(instance.mic_bids)
    if nb > GUARD:
        raise OracleGuardError(f"{nb} binaries exceed the enumeration guard of {GUARD}")
    face = _Face(instance, rules)

    n = 2 ** nb
    runs = -(-n // RUN)
    workers = min(len(os.sched_getaffinity(0)), runs)
    faces = [face] + [face.twin() for _ in range(1, workers)]
    slots = [None] * n
    failures = []
    threads = [
        threading.Thread(target=_solve_runs, args=(faces[w], range(w, runs, workers), slots, failures))
        for w in range(1, workers)
    ]
    started = []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        _solve_runs(face, range(0, runs, workers), slots, failures)
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    records = [slot[0] for slot in slots if slot is not None]
    witnesses = [slot[1] for slot in slots if slot is not None]
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
        rules=rules, n_selections=n, records=tuple(records), optima=optima,
        certified_infeasible=sum(f.certified for f in faces),
        resolved_cold=sum(f.resolved for f in faces),
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
