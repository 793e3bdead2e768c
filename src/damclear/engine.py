"""Clearing pipelines.

clear() is the single-shot path: build the primal-dual model for the
requested rules and objective, round its LP relaxation into an admissible
selection, solve the MILP from that start unless the relaxation bound
already certifies it, then re-solve the LP with the winning selection
fixed to obtain clean prices and surpluses (duals are never trusted from
the integer search or the rounding). staged_clear() is the staged
variant for hard instances: two objective-specific stages on the request's
model, then one warm-started solve of the full model; each stage can only
improve on its predecessor.

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
    solve_options.time_limit bounds clear() as a whole; staged_clear()
    splits it across its three stages (see _stage_budgets).
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


def _lp_options(request: ClearingRequest) -> be.SolveOptions:
    return replace(request.solve_options, time_limit=None, warm_start=None)


def _stage_budgets(request: ClearingRequest) -> tuple:
    """staged_clear's per-stage time limits: a quarter, a quarter and a half
    of the request's time limit; none without one."""
    t = request.solve_options.time_limit
    return (None, None, None) if t is None else (0.25 * t, 0.25 * t, 0.5 * t)


def _gap_of(outcome: be.SolveOutcome) -> float:
    # inf means no bound was reported: a kept warm start carries the
    # solver's bound or, without one, its LP-relaxation bound (see
    # backend.solve_mip); a model without integer columns reports none
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
    resolved = be.resolve_duals(model, **_selection(model, outcome), options=_lp_options(request))
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


def _mic_margins(model: milp.MilpModel, columns: np.ndarray) -> np.ndarray:
    """Each MIC bid's income minus its costs at the point's prices, with
    its suborders dispatched per unit of the bid's acceptance."""
    idx = InstanceIndex(model.instance)
    r = model.roles
    u = columns[r["u"]][idx.sub_owner]
    x = np.clip(np.divide(columns[r["x_mic"]], u, out=np.zeros_like(u), where=u > 0), 0.0, 1.0)
    return idx.mic_income(x, columns[r["pi"]]) - idx.mic_fixed - idx.mic_variable * idx.mic_sold_volume(x)


def _roundings(k: int):
    """Which of k fractional binaries to round up: every rounding for a few
    (floor first), else the floor and then each single flip."""
    if k <= _FULL_ROUNDINGS:
        return [np.array(bits, dtype=bool) for bits in itertools.product((False, True), repeat=k)]
    return [np.zeros(k, dtype=bool)] + [np.arange(k) == j for j in range(k)]


def _relaxation_start(model: milp.MilpModel, request: ClearingRequest) -> Optional[be.SolveOutcome]:
    """The best admissible selection rounded from the LP relaxation.

    One LpSession solves the relaxation and checks each candidate selection
    by fixing its binaries. Integral binaries keep their value; fractional
    ones are rounded (see _roundings). MIC bids whose minimum-income margin
    is negative at the relaxation prices are rejected; while a selection
    stays inadmissible, the accepted MIC bid with the weakest margin is
    dropped too. The search stops after _START_LPS LPs or the request's time
    limit. The outcome carries the relaxation objective as best_bound and
    is 'optimal' when it is within relative_gap_target of that bound,
    'feasible_gap' otherwise; None when nothing admissible was found.
    """
    if not model.n_binary:
        return None
    session = be.LpSession(model, request.solve_options)
    relax = session.relaxation
    if relax.status != "optimal":
        return None
    ys, us = model.roles["y"], model.roles["u"]
    n_y = ys.stop - ys.start
    z = np.r_[relax.columns[ys], relax.columns[us]]
    frac = np.flatnonzero(np.abs(z - np.round(z)) > be.INTEGER_FEASIBILITY_TOL)
    floor = np.round(z)
    floor[frac] = 0.0
    margin = _mic_margins(model, relax.columns)
    sign = 1.0 if model.objective_sense == "max" else -1.0
    best, tried = None, set()
    for up in _roundings(frac.size):
        sel = floor.copy()
        sel[frac[up]] = 1.0
        u = sel[n_y:]  # a view: drops write through to sel
        u[margin < 0] = 0.0
        while session.lp_count < _START_LPS and sel.tobytes() not in tried:
            tried.add(sel.tobytes())
            out = session.fix(sel[:n_y], u)
            if out.status == "optimal":
                if best is None or sign * out.objective > sign * best.objective:
                    best = out
                break
            accepted = np.flatnonzero(u > 0.5)
            if out.status != "infeasible" or not accepted.size:
                break
            u[accepted[np.argmin(margin[accepted])]] = 0.0
    if best is None:
        return None
    bound = relax.objective
    gap = abs(bound - best.objective) / (1.0 + abs(best.objective))
    certified = gap <= request.solve_options.relative_gap_target
    return replace(
        best, status="optimal" if certified else "feasible_gap",
        best_bound=bound, mip_gap=gap, used_warm_start=True,
        message=f"LP-relaxation rounding, {session.lp_count} LPs, "
        + ("certified by the relaxation bound" if certified else "handed to the MIP as its start"),
    )


def clear(instance: Instance, request: ClearingRequest = ClearingRequest()) -> ClearingSolution:
    """Single-shot clearing under the requested objective and rules.

    A model with binaries first gets a start rounded from its LP relaxation
    (_relaxation_start). A start within relative_gap_target of the
    relaxation bound is certified and the MIP is skipped; otherwise the
    start becomes the MIP's warm start and the MIP gets what is left of the
    time limit. Either way the prices come from _finalize's resolve.
    """
    validate_instance(instance)
    model = build_request_model(instance, request)
    t0 = time.perf_counter()
    outcome = _relaxation_start(model, request)
    if outcome is None or outcome.status != "optimal":
        if outcome is not None:
            model.warm_start = outcome.columns
        limit = request.solve_options.time_limit
        left = None if limit is None else max(0.0, limit - (time.perf_counter() - t0))
        outcome = be.solve_mip(model, _mip_options(request, left))
    return _finalize(instance, model, outcome, request)


def _pinned(model: milp.MilpModel, **values) -> milp.MilpModel:
    """A copy of the model with each named column group fixed to its values."""
    out = model.copy()
    for role, value in values.items():
        out.lb[out.roles[role]] = value
        out.ub[out.roles[role]] = value
    return out


def _selection(model: milp.MilpModel, outcome: be.SolveOutcome) -> dict:
    return {role: np.round(outcome.columns[model.roles[role]]) for role in ("y", "u")}


def _mic_then_blocks(model, request):
    """Stages 1 and 2 for welfare: MIC bids with every block rejected, then
    the blocks under that frozen MIC selection, warm-started."""
    b1, b2, _ = _stage_budgets(request)
    out1 = be.solve_mip(_pinned(model, y=0.0), _mip_options(request, b1))
    if not out1.has_solution:
        raise ClearingError(f"stage 1 found nothing within budget ({out1.status})")
    m2 = _pinned(model, u=_selection(model, out1)["u"])
    m2.warm_start = out1.columns.copy()
    out2 = be.solve_mip(m2, _mip_options(request, b2))
    return out1, (out2 if out2.has_solution else out1)


def _welfare_then_target(model, request):
    """Stages 1 and 2 for volume and min-oc: maximize welfare on a copy of
    the model, then re-optimize the request's objective over that selection."""
    b1, b2, _ = _stage_budgets(request)
    welfare = model.copy()
    milp.set_objective(welfare, "welfare")
    out1 = be.solve_mip(welfare, _mip_options(request, b1))
    if not out1.has_solution:
        raise ClearingError(f"welfare stage found nothing within budget ({out1.status})")
    out2 = be.resolve_duals(
        model, **_selection(model, out1), options=replace(_lp_options(request), time_limit=b2 or None)
    )
    if out2.status != "optimal":
        raise ClearingError(f"{request.objective} stage-b LP failed: {out2.status}")
    return out1, out2


def staged_clear(
    instance: Instance, request: ClearingRequest = ClearingRequest(), trace: Optional[dict] = None
) -> ClearingSolution:
    """Three-stage search for hard instances, on the request's one model.

    welfare: stage 1 fixes every block to rejected and settles the MIC
    binaries, stage 2 freezes that MIC selection and frees the blocks
    (MIC bids dominate hardness, so settling them early prunes the tree).
    volume and min_opportunity_cost: stage 1 maximizes welfare, stage 2
    re-optimizes the request's objective as an LP over the welfare
    selection (resolve_duals). Stage 3 always solves the full model with
    the stage-2 point as the solver's incumbent, so it stops at the root
    when that point already meets the gap target, and falls back to it
    when it finds nothing better. The stages get a quarter, a quarter and
    a half of the request's time limit (_stage_budgets). A trace dict,
    when given, receives the per-stage objective values (stage 1 of volume
    and min_opportunity_cost is in welfare units).
    """
    validate_instance(instance)
    model = build_request_model(instance, request)
    stages = _mic_then_blocks if request.objective == "welfare" else _welfare_then_target
    out1, out2 = stages(model, request)
    m3 = model.copy()
    m3.warm_start = out2.columns.copy()
    out3 = be.solve_mip(m3, _mip_options(request, _stage_budgets(request)[2]))
    if not out3.has_solution:
        out3 = out2
    if trace is not None:
        trace["stage_objectives"] = [out1.objective, out2.objective, out3.objective]
    return _finalize(instance, model, out3, request)


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
