"""Clearing pipelines.

clear() is the single-shot path: build the primal-dual model for the
requested rules and objective, solve the MILP, then re-solve the LP with
the winning selection fixed to obtain clean prices and surpluses (duals
are never trusted from the integer search). staged_clear() is the staged
variant for hard instances: two objective-specific stages on the request's
model, then one warm-started solve of the full model; each stage can only
improve on its predecessor.

Solutions come back canonicalized: coordinates the equilibrium leaves free
(an accepted block's split between surplus and compensation, a rejected
bid's slack levels) are set to their minimal witnesses, computed from the
solved prices. Pinned coordinates keep their solver values.
"""

from __future__ import annotations

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
    stage_time_budgets apply to staged_clear only, one entry per stage, in
    seconds.
    """

    objective: str = "welfare"
    rules: str = "pcr"
    stage_time_budgets: tuple = (900.0, 900.0, 1200.0)
    solve_options: be.SolveOptions = be.SolveOptions()

    def __post_init__(self):
        if self.objective not in milp.OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.rules not in RULESETS:
            raise ValueError(f"unknown rules {self.rules!r}")
        if len(self.stage_time_budgets) != 3 or any(b < 0 for b in self.stage_time_budgets):
            raise ValueError("stage_time_budgets must be three nonnegative durations")


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
    if time_limit is None:
        return request.solve_options
    return replace(request.solve_options, time_limit=time_limit)


def _lp_options(request: ClearingRequest) -> be.SolveOptions:
    return replace(request.solve_options, time_limit=None, warm_start=None)


def _gap_of(outcome: be.SolveOutcome) -> float:
    # inf means no bound could be proven: a kept warm start already carries
    # the solver's bound or its LP-relaxation bound (see backend.solve_mip)
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
    backend,
) -> ClearingSolution:
    if not outcome.has_solution:
        raise ClearingError(f"no feasible solution within budget (solver: {outcome.status})")
    resolved = be.resolve_duals(
        model, **_selection(model, outcome), options=_lp_options(request), backend=backend
    )
    if resolved.status != "optimal":
        raise ClearingError(
            f"dual resolve failed for the incumbent selection: {resolved.status}"
        )
    return assemble_solution(
        instance, model, resolved.columns,
        solver_gap=_gap_of(outcome), solver_status=outcome.status,
    )


def clear(instance: Instance, request: ClearingRequest = ClearingRequest(), backend=None) -> ClearingSolution:
    """Single-shot clearing under the requested objective and rules."""
    validate_instance(instance)
    model = build_request_model(instance, request)
    outcome = be.solve_mip(model, request.solve_options, backend=backend)
    return _finalize(instance, model, outcome, request, backend)


def _pinned(model: milp.MilpModel, **values) -> milp.MilpModel:
    """A copy of the model with each named column group fixed to its values."""
    out = model.copy()
    for role, value in values.items():
        out.lb[out.roles[role]] = value
        out.ub[out.roles[role]] = value
    return out


def _selection(model: milp.MilpModel, outcome: be.SolveOutcome) -> dict:
    return {role: np.round(outcome.columns[model.roles[role]]) for role in ("y", "u")}


def _mic_then_blocks(model, request, backend):
    """Stages 1 and 2 for welfare: MIC bids with every block rejected, then
    the blocks under that frozen MIC selection, warm-started."""
    b1, b2, _ = request.stage_time_budgets
    out1 = be.solve_mip(_pinned(model, y=0.0), _mip_options(request, b1), backend=backend)
    if not out1.has_solution:
        raise ClearingError(f"stage 1 found nothing within budget ({out1.status})")
    m2 = _pinned(model, u=_selection(model, out1)["u"])
    m2.warm_start = out1.columns.copy()
    out2 = be.solve_mip(m2, _mip_options(request, b2), backend=backend)
    return out1, (out2 if out2.has_solution else out1)


def _welfare_then_target(model, request, backend):
    """Stages 1 and 2 for volume and min-oc: maximize welfare on a copy of
    the model, then re-optimize the request's objective over that selection."""
    b1, b2, _ = request.stage_time_budgets
    welfare = model.copy()
    milp.set_objective(welfare, "welfare")
    out1 = be.solve_mip(welfare, _mip_options(request, b1), backend=backend)
    if not out1.has_solution:
        raise ClearingError(f"welfare stage found nothing within budget ({out1.status})")
    fixed = _pinned(model, **_selection(model, out1))
    out2 = be.solve_lp(fixed, replace(_lp_options(request), time_limit=b2 or None), backend=backend)
    if out2.status != "optimal":
        raise ClearingError(f"{request.objective} stage-b LP failed: {out2.status}")
    return out1, out2


def staged_clear(
    instance: Instance, request: ClearingRequest = ClearingRequest(), backend=None,
    trace: Optional[dict] = None,
) -> ClearingSolution:
    """Three-stage search for hard instances, on the request's one model.

    welfare: stage 1 fixes every block to rejected and settles the MIC
    binaries, stage 2 freezes that MIC selection and frees the blocks
    (MIC bids dominate hardness, so settling them early prunes the tree).
    volume and min_opportunity_cost: stage 1 maximizes welfare, stage 2
    re-optimizes the request's objective as an LP over the welfare
    selection. Stage 3 always warm-starts the full model with the stage-2
    point and falls back to it when it finds nothing. A trace dict, when
    given, receives the per-stage objective values (stage 1 of volume and
    min_opportunity_cost is in welfare units).
    """
    validate_instance(instance)
    model = build_request_model(instance, request)
    stages = _mic_then_blocks if request.objective == "welfare" else _welfare_then_target
    out1, out2 = stages(model, request, backend)
    m3 = model.copy()
    m3.warm_start = out2.columns.copy()
    out3 = be.solve_mip(m3, _mip_options(request, request.stage_time_budgets[2]), backend=backend)
    if not out3.has_solution:
        out3 = out2
    if trace is not None:
        trace["stage_objectives"] = [out1.objective, out2.objective, out3.objective]
    return _finalize(instance, model, out3, request, backend)


def compare_pab_models(
    instance: Instance, request: ClearingRequest = ClearingRequest(), backend=None
) -> dict:
    """Welfare clearing under both rule sets, with the decomposition check.

    The identity welfare = sum s_hourly + sum s_block + sum s_mic
    + capacities . v - sum d_accept must hold for each solution; the
    unrestricted welfare always dominates the restricted one.
    """
    out = {}
    residuals = {}
    for rules in RULESETS:
        req = replace(request, rules=rules, objective="welfare")
        sol = clear(instance, req, backend=backend)
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
