"""Clearing pipelines.

clear() and staged_clear() share one pipeline. It builds the primal-dual
model for the requested rules and objective and rounds its LP relaxation
into an admissible selection (stage 0). A start that the relaxation
bound certifies keeps the prices and surpluses of the LP that checked its
selection. Otherwise one MILP solve starts from it; staged_clear() first
runs two objective-specific stages (1 and 2) and starts that solve
(stage 3) from the better of the start and the stage-2 point. Unless the
solve keeps the start, the LP is re-solved with the winning selection
fixed to get clean prices (duals are never trusted from the integer
search).

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
from .model import ClearingSolution, Instance, InstanceIndex, validate_instance

RULESETS = ("pcr", "umfs")


class ClearingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClearingRequest:
    """What to optimize and under which market rules.

    rules='pcr' forbids paradoxically accepted blocks (no losses, no
    compensations); rules='umfs' allows them, compensated through d_accept.
    solve_options.time_limit bounds a clear as a whole: staged_clear()
    gives stages 1 and 2 a quarter of it each, and the MIP gets what the
    earlier stages left.
    """

    objective: str = "welfare"
    rules: str = "pcr"
    solve_options: be.SolveOptions = be.SolveOptions()

    def __post_init__(self):
        if self.objective not in milp.OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.rules not in RULESETS:
            raise ValueError(f"unknown rules {self.rules!r}")


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


def _mip_options(request: ClearingRequest, time_limit: Optional[float]) -> be.SolveOptions:
    return replace(request.solve_options, time_limit=time_limit)


def _gap_of(outcome: be.SolveOutcome) -> float:
    # inf means no bound is known: a MIP outcome without the solver's
    # bound carries the relaxation bound (see _clear); a model without
    # integer columns has neither
    if outcome.mip_gap is not None:
        return float(outcome.mip_gap)
    if outcome.best_bound is not None and outcome.objective is not None:
        return abs(outcome.best_bound - outcome.objective) / (1.0 + abs(outcome.objective))
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
    options = replace(request.solve_options, time_limit=None, warm_start=None)
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


def _relaxation_start(model: milp.MilpModel, request: ClearingRequest) -> tuple:
    """The LP-relaxation bound and the best admissible selection rounded
    from the relaxation, as (bound, start).

    One LpSession solves the relaxation and checks each candidate selection
    by fixing its binaries. Integral binaries keep their value; fractional
    ones are rounded (see _roundings). MIC bids whose minimum-income margin
    is negative at the relaxation prices are rejected. While a selection
    stays infeasible (or its hot-started LP fails), the accepted bid with
    the weakest margin at the relaxation prices is dropped (_margins).
    The search stops after _START_LPS LPs or the request's time limit. The
    start carries the bound as best_bound and is 'optimal' when it is
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
    ys, us = model.roles["y"], model.roles["u"]
    n_y = ys.stop - ys.start
    z = np.r_[relax.columns[ys], relax.columns[us]]
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
    bound = relax.objective
    if best is None:
        return bound, None
    gap = abs(bound - best.objective) / (1.0 + abs(best.objective))
    certified = gap <= request.solve_options.relative_gap_target
    return bound, replace(
        best, status="optimal" if certified else "feasible_gap",
        best_bound=bound, mip_gap=gap, used_warm_start=True,
        message=f"LP-relaxation rounding, {session.lp_count} LPs, "
        + ("certified by the relaxation bound" if certified else "handed to the MIP as its start"),
    )


def _clear(
    instance: Instance, request: ClearingRequest, staged: bool, trace: Optional[dict] = None
) -> ClearingSolution:
    """The pipeline behind clear and staged_clear (see staged_clear)."""
    validate_instance(instance)
    model = build_request_model(instance, request)
    t0 = time.perf_counter()
    bound, start = _relaxation_start(model, request)
    outcome = warm = start
    objectives = [None if start is None else start.objective]
    if start is None or start.status != "optimal":
        limit = request.solve_options.time_limit
        if staged and model.n_binary:  # without binaries stages 1-2 can only return the LP optimum
            stages = _mic_then_blocks if request.objective == "welfare" else _welfare_then_target
            out1, out2 = stages(model, _mip_options(request, None if limit is None else 0.25 * limit))
            objectives += [out1.objective, out2.objective]
            sign = 1.0 if model.objective_sense == "max" else -1.0
            # on a tie within rounding noise the start, already priced, stays
            if out2.has_solution and (start is None or sign * (out2.objective - start.objective)
                                      > 1e-9 * (1.0 + abs(start.objective))):
                warm = out2
        model.warm_start = None if warm is None else warm.columns
        left = None if limit is None else max(0.0, limit - (time.perf_counter() - t0))
        outcome = be.solve_mip(model, _mip_options(request, left))
        objectives.append(outcome.objective)
        if outcome.best_bound is None:
            outcome = replace(outcome, best_bound=bound)
    if trace is not None:
        trace["stage_objectives"] = objectives
    if start is None or not np.array_equal(outcome.columns, start.columns):
        return _finalize(instance, model, outcome, request)
    return assemble_solution(instance, model, start.columns, _gap_of(outcome), outcome.status)


def clear(instance: Instance, request: ClearingRequest = ClearingRequest()) -> ClearingSolution:
    """Single-shot clearing under the requested objective and rules.

    A model with binaries first gets a start rounded from its LP relaxation
    (_relaxation_start). A start within relative_gap_target of the
    relaxation bound is certified and the MIP is skipped; otherwise the
    start becomes the MIP's warm start and the MIP gets what is left of the
    time limit. A certified start, or one the MIP keeps, is priced by the
    LP that checked its selection; any other MIP outcome by _finalize.
    """
    return _clear(instance, request, staged=False)


def _pinned(model: milp.MilpModel, **values) -> milp.MilpModel:
    """A copy of the model with each named column group fixed to its values."""
    out = model.copy()
    for role, value in values.items():
        out.lb[out.roles[role]] = value
        out.ub[out.roles[role]] = value
    return out


def _selection(model: milp.MilpModel, outcome: be.SolveOutcome) -> dict:
    return {role: np.round(outcome.columns[model.roles[role]]) for role in ("y", "u")}


def _mic_then_blocks(model, options):
    """Stages 1 and 2 for welfare: MIC bids with every block rejected, then
    the blocks under that frozen MIC selection, warm-started."""
    out1 = be.solve_mip(_pinned(model, y=0.0), options)
    if not out1.has_solution:
        return out1, out1  # no MIC selection to freeze
    m2 = _pinned(model, u=_selection(model, out1)["u"])
    m2.warm_start = out1.columns
    return out1, be.solve_mip(m2, options)


def _welfare_then_target(model, options):
    """Stages 1 and 2 for volume and min-oc: maximize welfare on a copy of
    the model, then re-optimize the request's objective over that selection."""
    welfare = model.copy()
    milp.set_objective(welfare, "welfare")
    out1 = be.solve_mip(welfare, options)
    if not out1.has_solution:
        return out1, out1  # no selection to re-optimize over
    return out1, be.resolve_duals(model, **_selection(model, out1), options=replace(options, warm_start=None))


def staged_clear(
    instance: Instance, request: ClearingRequest = ClearingRequest(), trace: Optional[dict] = None
) -> ClearingSolution:
    """clear with two objective-specific stages in front of its MIP.

    Stage 0 is clear's relaxation-rounding start; a certified start is
    returned as it is, and the later stages do not run. Otherwise:
    welfare: stage 1 fixes every block to rejected and settles the MIC
    binaries, stage 2 freezes that MIC selection and frees the blocks
    (MIC bids dominate hardness, so settling them early prunes the tree).
    volume and min_opportunity_cost: stage 1 maximizes welfare, stage 2
    re-optimizes the request's objective as an LP over the welfare
    selection (resolve_duals). Stages 1 and 2 get a quarter of the
    request's time limit each; a stage that finds nothing leaves the start
    alone. Stage 3 is clear's MIP on the full model, warm-started from the
    better of the start and the stage-2 point, with what is left of the
    time limit. A trace dict, when given, receives
    ``stage_objectives``: stage 0's objective first (None when no rounding
    was admissible), then stages 1, 2 and 3 when they ran; a certified
    start leaves one entry. Stage 1 of volume and min_opportunity_cost is
    in welfare units.
    """
    return _clear(instance, request, staged=True, trace=trace)


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
