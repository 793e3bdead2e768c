"""The clearing pipeline.

clear() builds the primal-dual model for the requested rules and
objective and rounds its LP relaxation into an admissible selection. A
rounding that the relaxation bound does not certify is closed by a
depth-first LP branch-and-bound on the same LP. A start certified either
way keeps the prices and surpluses of the LP that checked its selection.
Otherwise (the search failed or ran out of LPs) one MILP solve starts
from the rounding. Unless that solve keeps the start, the LP is re-solved
with the winning selection fixed to get clean prices (duals are never
trusted from the integer search).

Solutions come back canonicalized: coordinates the equilibrium leaves free
(an accepted block's split between surplus and compensation, a rejected
bid's slack levels) are set to their minimal witnesses, computed from the
solved prices. Pinned coordinates keep their solver values.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import backend as be
from . import milp
from .model import ClearingSolution, Instance, InstanceIndex

RULESETS = ("pcr", "umfs")


class ClearingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClearingRequest:
    """What to optimize and under which market rules.

    rules='pcr' forbids paradoxically accepted blocks (no losses, no
    compensations); rules='umfs' allows them, compensated through d_accept.
    solve_options.time_limit bounds a clear as a whole: the relaxation
    start runs under it, and the MIP gets what the start left.
    solve_options.warm_start must be None: clear builds its own start.
    """

    objective: str = "welfare"
    rules: str = "pcr"
    solve_options: be.SolveOptions = be.SolveOptions()

    def __post_init__(self):
        if self.objective not in milp.OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.rules not in RULESETS:
            raise ValueError(f"unknown rules {self.rules!r}")
        if self.solve_options.warm_start is not None:
            raise ValueError("a clearing request takes no warm start; clear builds its own")


def build_request_model(instance: Instance, request: ClearingRequest) -> milp.MilpModel:
    """The MILP for a request, assembled once in its target form.

    The opportunity-cost objective needs the d_reject columns, so it stays
    on the unrestricted form; pcr rules are then imposed by pinning the
    d_accept columns to zero instead of eliminating them.
    """
    if request.objective == "min_opportunity_cost":
        model = milp.build_model(instance, "umfs")
        if request.rules == "pcr":
            milp.forbid_paradoxical_acceptance(model)
    else:
        model = milp.build_model(instance, request.rules)
    milp.set_objective(model, request.objective)
    return model


def _gap(bound: float, value: float) -> float:
    """The relative gap between a bound and an objective value, |b-v|/(1+|v|)."""
    return abs(bound - value) / (1.0 + abs(value))


def _gap_of(outcome: be.SolveOutcome) -> float:
    # inf means no bound is known: a MIP outcome without the solver's
    # bound carries the relaxation bound (see clear); a model without
    # integer columns has neither
    if outcome.mip_gap is not None:
        return float(outcome.mip_gap)
    if outcome.best_bound is not None and outcome.objective is not None:
        return _gap(outcome.best_bound, outcome.objective)
    return float("inf")


def assemble_solution(
    instance: Instance,
    model: milp.MilpModel,
    columns: np.ndarray,
    solver_gap: float = 0.0,
    solver_status: str = "optimal",
) -> ClearingSolution:
    """Turn a feasible primal-dual column vector into a ClearingSolution.

    Free dual coordinates are canonicalized to their minimal witnesses
    against the solved prices; this preserves the objective-equality row
    exactly (an accepted block's s - d_accept difference is kept) and makes
    rejected-bid slacks equal their actual missed surplus.
    """
    idx = InstanceIndex(instance)
    r = model.roles
    cols = np.asarray(columns, dtype=float)

    def grab(role):
        return cols[r[role]].copy() if role in r else np.zeros(0)

    x = np.clip(grab("x"), 0.0, 1.0)
    xm = np.clip(grab("x_mic"), 0.0, 1.0)
    y = np.round(grab("y"))
    u = np.round(grab("u"))
    n = grab("n")
    piflat = grab("pi")
    v = np.clip(grab("v"), 0.0, None)
    si = np.clip(grab("s_hourly"), 0.0, None)
    prices = piflat.reshape(idx.L, idx.T)

    gain = idx.block_surplus(prices) if idx.n_block else np.zeros(0)
    acc = y > 0.5
    sj = np.where(acc, np.clip(gain, 0.0, None), 0.0)
    da = np.where(acc, np.clip(-gain, 0.0, None), 0.0)
    dr = np.where(acc, 0.0, np.clip(gain, 0.0, None))
    if "d_accept" not in r:
        da = np.zeros(idx.n_block)  # the restricted form has no compensation

    sub_gain = idx.sub_surplus(prices) if idx.n_sub else np.zeros(0)
    sh = np.zeros(idx.n_sub)
    scv = np.zeros(idx.n_mic)
    dur = np.zeros(idx.n_mic)
    for c in range(idx.n_mic):
        sl = idx.mic_slices[c]
        g = np.clip(sub_gain[sl.start: sl.stop], 0.0, None)
        if u[c] > 0.5:
            # pinned: full suborders carry their surplus, fractional ones none
            sh[sl.start: sl.stop] = np.where(xm[sl.start: sl.stop] > 0.5, g, 0.0)
            scv[c] = float(sh[sl.start: sl.stop].sum())
        else:
            sh[sl.start: sl.stop] = g
            dur[c] = float(g.sum())

    welfare = idx.welfare_value(x, xm, y)
    volume = idx.buy_volume(x, xm, y)
    total_oc = float(dr.sum())
    return ClearingSolution(
        x=x, x_mic=xm, y=y, u=u, net_positions=n, prices=prices, v=v,
        s_hourly=si, s_block=sj, s_mic=scv, s_mic_sub=sh,
        d_accept=da, d_reject=dr, du_reject=dur,
        welfare=welfare, traded_volume=volume, total_opportunity_cost=total_oc,
        solver_gap=float(solver_gap), solver_status=solver_status,
    )


def _finalize(
    instance: Instance,
    model: milp.MilpModel,
    outcome: be.SolveOutcome,
    request: ClearingRequest,
) -> ClearingSolution:
    if not outcome.has_solution:
        raise ClearingError(f"no feasible solution within budget (solver: {outcome.status})")
    options = replace(request.solve_options, time_limit=None)
    resolved = be.resolve_duals(model, **_selection(model, outcome), options=options)
    if resolved.status != "optimal":
        raise ClearingError(
            f"dual resolve failed for the incumbent selection: {resolved.status}"
        )
    return assemble_solution(
        instance, model, resolved.columns,
        solver_gap=_gap_of(outcome), solver_status=outcome.status,
    )


_START_LPS = 16  # LPs the relaxation-rounding start may run, the relaxation included
_BRANCH_LPS = 512  # LPs the branch-and-bound behind an uncertified start may run
_FULL_ROUNDINGS = 3  # up to this many fractional binaries, every rounding is tried


def _margins(model: milp.MilpModel, columns: np.ndarray) -> np.ndarray:
    """Each bid's margin at the point's prices, blocks first: a block's
    surplus if accepted, a MIC bid's income minus its costs with its
    suborders dispatched per unit of the bid's acceptance."""
    idx = InstanceIndex(model.instance)
    r = model.roles
    pi = columns[r["pi"]]
    u = columns[r["u"]][idx.sub_owner]
    x = np.clip(np.divide(columns[r["x_mic"]], u, out=np.zeros_like(u), where=u > 0), 0.0, 1.0)
    mic = idx.mic_income(x, pi) - idx.mic_fixed - idx.mic_variable * idx.mic_sold_volume(x)
    return np.r_[idx.block_surplus(pi), mic]


def _roundings(k: int):
    """Which of k fractional binaries to round up: every rounding for a few
    (floor first), else the floor and then each single flip."""
    if k <= _FULL_ROUNDINGS:
        return [np.array(bits, dtype=bool) for bits in itertools.product((False, True), repeat=k)]
    return [np.zeros(k, dtype=bool)] + [np.arange(k) == j for j in range(k)]


def _binaries(model: milp.MilpModel, columns: np.ndarray) -> np.ndarray:
    """The point's y and u columns, in the order LpSession.bound takes them."""
    return np.r_[columns[model.roles["y"]], columns[model.roles["u"]]]


def _children(lo: np.ndarray, hi: np.ndarray, j: int, sides) -> list:
    """Search nodes for the box [lo, hi] with binary j fixed to each side;
    the depth-first search pops the last one first."""
    children = []
    for side in sides:
        child_lo, child_hi = lo.copy(), hi.copy()
        child_lo[j] = child_hi[j] = side
        children.append((child_lo, child_hi, None))
    return children


def _branch(session: be.LpSession, model: milp.MilpModel, root: be.SolveOutcome,
            incumbent: Optional[be.SolveOutcome], target: float) -> Optional[tuple]:
    """Depth-first LP branch-and-bound over the y/u binaries on the start's
    session, from its relaxation root, as (bound, incumbent).

    Every node is one hot-started LP with the binaries bounded to [lo, hi]
    (LpSession.bound). An infeasible node is pruned, and so is a node whose
    objective is within target of the incumbent (the gap |a-b|/(1+|b|)).
    A node with integral binaries is followed by its selection fixed, which
    becomes the incumbent unless it is pruned, so an incumbent is always
    priced by the LP that checked its selection; the node's own objective
    joins the pruned ones, since it bounds the integer points of its box
    that the fixed LP does not cover. Any other node branches on its most
    fractional binary, nearer side first. A node whose LP fails
    (solver_failed, as when HiGHS stalls) is split on its first free
    binary, 1 first; it adds no bound, since its children cover its box.
    bound is the sense-aware worst of the pruned nodes' objectives and the
    incumbent's. None when a node LP ends in any other status, when a
    node without free binaries fails, when _BRANCH_LPS LPs are spent, or
    when the search closes without an incumbent.
    """
    sign = 1.0 if model.objective_sense == "max" else -1.0
    stop = session.lp_count + _BRANCH_LPS
    pruned = []
    nodes = [(np.zeros(model.n_binary), np.ones(model.n_binary), root)]
    while nodes:
        lo, hi, out = nodes.pop()
        if out is None:
            if session.lp_count >= stop:
                return None
            out = session.bound(lo, hi)
        if out.status == "infeasible":
            continue
        if out.status != "optimal":
            free = np.flatnonzero(lo != hi)
            if out.status != "solver_failed" or not free.size:
                return None
            nodes += _children(lo, hi, free[0], (0.0, 1.0))
            continue
        if incumbent is not None and (sign * (out.objective - incumbent.objective)
                                      <= target * (1.0 + abs(incumbent.objective))):
            pruned.append(out.objective)
        elif np.array_equal(lo, hi):
            incumbent = out
        else:
            z = _binaries(model, out.columns)
            frac = np.abs(z - np.round(z))
            j = int(np.argmax(frac))
            if frac[j] <= be.INTEGER_FEASIBILITY_TOL:
                # the fixed LP may come out infeasible or lower: this
                # node's objective still bounds its subtree
                pruned.append(out.objective)
                nodes.append((np.round(z), np.round(z), None))
                continue
            near = np.round(z[j])
            nodes += _children(lo, hi, j, (1.0 - near, near))
    if incumbent is None:
        return None
    return sign * max(sign * np.r_[pruned, incumbent.objective]), incumbent


def _relaxation_start(model: milp.MilpModel, request: ClearingRequest) -> tuple:
    """The best proven bound and the best admissible selection found from
    the LP relaxation, as (bound, start).

    One LpSession solves the relaxation and checks each candidate selection
    by fixing its binaries. Integral binaries keep their value; fractional
    ones are rounded (see _roundings). MIC bids whose minimum-income margin
    is negative at the relaxation prices are rejected. While a selection
    stays infeasible (or its hot-started LP fails), the accepted bid with
    the weakest margin at the relaxation prices is dropped (_margins).
    The rounding stops after _START_LPS LPs or the request's time limit.
    A rounding that the relaxation bound does not certify is closed by an
    LP branch-and-bound on the same session (_branch); when that search
    stops early, the rounding and the relaxation bound stand as they were.
    The start carries the bound as best_bound and is 'optimal' when it is
    within relative_gap_target of it, 'feasible_gap' otherwise. Either
    part is None when it was not found: a model without binaries runs no
    LP.
    """
    if not model.n_binary:
        return None, None
    session = be.LpSession(model, request.solve_options)
    relax = session.relaxation
    if relax.status != "optimal":
        return None, None
    n_y = model.roles["y"].stop - model.roles["y"].start
    z = _binaries(model, relax.columns)
    frac = np.flatnonzero(np.abs(z - np.round(z)) > be.INTEGER_FEASIBILITY_TOL)
    floor = np.round(z)
    floor[frac] = 0.0
    margin = _margins(model, relax.columns)
    sign = 1.0 if model.objective_sense == "max" else -1.0
    best, tried = None, set()
    for up in _roundings(frac.size):
        sel = floor.copy()
        sel[frac[up]] = 1.0
        sel[n_y:][margin[n_y:] < 0] = 0.0
        while session.lp_count < _START_LPS and sel.tobytes() not in tried:
            tried.add(sel.tobytes())
            out = session.fix(sel[:n_y], sel[n_y:])
            if out.status == "optimal":
                if best is None or sign * out.objective > sign * best.objective:
                    best = out
                break
            accepted = np.flatnonzero(sel > 0.5)
            if out.status not in ("infeasible", "solver_failed") or not accepted.size:
                break
            sel[accepted[np.argmin(margin[accepted])]] = 0.0
    bound, how = relax.objective, "LP-relaxation rounding"
    target = request.solve_options.relative_gap_target
    if best is None or _gap(bound, best.objective) > target:
        closed = _branch(session, model, relax, best, target)
        if closed is not None:
            (bound, best), how = closed, "LP branch-and-bound"
    if best is None:
        return bound, None
    gap = _gap(bound, best.objective)
    certified = gap <= target
    return bound, replace(
        best, status="optimal" if certified else "feasible_gap",
        best_bound=bound, mip_gap=gap, used_warm_start=True,
        message=f"{how}, {session.lp_count} LPs, "
        + ("certified by its bound" if certified else "handed to the MIP as its start"),
    )


def clear(instance: Instance, request: ClearingRequest = ClearingRequest()) -> ClearingSolution:
    """Single-shot clearing under the requested objective and rules.

    A model with binaries first gets a start from its LP relaxation
    (_relaxation_start): a rounding within relative_gap_target of the
    relaxation bound, or else the incumbent of an LP branch-and-bound that
    closes within that target, is certified and the MIP is skipped. When
    neither certifies a start, the rounding becomes the MIP's warm start
    and the MIP gets what is left of the time limit. A certified start, or
    one the MIP keeps, is priced by the LP that checked its selection and
    carries the relaxation bound when the MIP has none of its own; any
    other MIP outcome is priced by _finalize. The model build validates
    the instance.
    """
    model = build_request_model(instance, request)
    t0 = time.perf_counter()
    bound, start = _relaxation_start(model, request)
    outcome = start
    if start is None or start.status != "optimal":
        model.warm_start = None if start is None else start.columns
        limit = request.solve_options.time_limit
        left = None if limit is None else max(0.0, limit - (time.perf_counter() - t0))
        outcome = be.solve_mip(model, replace(request.solve_options, time_limit=left))
        if outcome.best_bound is None:
            outcome = replace(outcome, best_bound=bound)
    if start is None or not np.array_equal(outcome.columns, start.columns):
        return _finalize(instance, model, outcome, request)
    return assemble_solution(instance, model, start.columns, _gap_of(outcome), outcome.status)


def _selection(model: milp.MilpModel, outcome: be.SolveOutcome) -> dict:
    return {role: np.round(outcome.columns[model.roles[role]]) for role in ("y", "u")}


def compare_pab_models(instance: Instance, request: ClearingRequest = ClearingRequest()) -> dict:
    """Welfare clearing under both rule sets, with the decomposition check.

    The identity welfare = sum s_hourly + sum s_block + sum s_mic
    + capacities . v - sum d_accept must hold for each solution; the
    unrestricted welfare always dominates the restricted one.
    """
    out = {}
    residuals = {}
    for rules in RULESETS:
        req = replace(request, rules=rules, objective="welfare")
        sol = clear(instance, req)
        idx = InstanceIndex(instance)
        dual_value = float(
            sol.s_hourly.sum() + sol.s_block.sum() + sol.s_mic.sum() - sol.d_accept.sum()
        )
        if idx.n_net_rows:
            dual_value += float(instance.network.capacities @ sol.v)
        residuals[rules] = abs(sol.welfare - dual_value)
        out[rules] = sol
    out["decomposition_residuals"] = residuals
    return out
