"""Solver access layer.

Everything downstream talks to a backend through solve_lp / solve_mip /
resolve_duals and SolveOutcome; the bundled implementation sits on scipy's
HiGHS bindings (linprog for LPs with duals, milp for the integer models).
The registry plus the DAMCLEAR_BACKEND environment variable allow swapping
in another implementation without touching callers.

Dual values are reported in the model's own sense: for a maximization the
dual of a <= row is nonnegative and the dual of a balance row is the price.

scipy exposes no native MIP-start interface, so warm starts are honored at
this layer: the point is validated against the model, an objective-cutoff
row at the warm value (minus a relative slack) is added, and the warm point
is returned whenever the solver cannot beat it. If the cutoff renders the
model infeasible the warm point is optimal to tolerance and is returned as
such. A kept warm point carries the solver's dual bound; scipy reports
none when the search found no incumbent, and the bound then comes from one
solve of the same model's LP relaxation (no cutoff, no time limit).

Both solves read the rows through MilpModel.constraint_matrix(); linprog
gets them split by sense into equalities and <=-oriented rows.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import optimize as sciopt
from scipy.sparse import csr_matrix, diags, vstack

from .milp import MilpModel

_WS_VALIDATION_TOL = 1e-5
_WS_CUTOFF_REL = 1e-6


class BackendError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    """Solver controls; defaults are tighter than solver defaults because
    the big-M rows amplify integer slack into price error.

    time_limit is wall seconds (None = unlimited). warm_start may be a full
    column vector or a {variable name: value} map; it falls back to the
    model's own warm_start slot when absent.
    """

    time_limit: Optional[float] = None
    relative_gap_target: float = 1e-6
    absolute_gap_target: Optional[float] = None
    lp_feasibility_tol: float = 1e-9
    integer_feasibility_tol: float = 1e-6
    thread_count: Optional[int] = None
    warm_start: Optional[object] = None
    node_limit: Optional[int] = None
    random_seed: Optional[int] = None
    presolve: bool = True

    def __post_init__(self):
        if self.lp_feasibility_tol <= 0 or self.integer_feasibility_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.relative_gap_target < 0:
            raise ValueError("gap targets must be >= 0")
        if self.absolute_gap_target is not None and self.absolute_gap_target < 0:
            raise ValueError("gap targets must be >= 0")


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one solve.

    row_duals / lower_duals / upper_duals are present on optimal LP solves
    only, aligned with model rows / columns, oriented to the model's sense
    (see module docstring). best_bound is the proven bound in the model's
    sense; mip_gap is HiGHS's relative gap at termination. For a kept warm
    point the bound is the solver's or, when the solver gives none, the
    objective of one LP-relaxation solve of the same model, and mip_gap is
    |best_bound - objective| / (1 + |objective|).
    """

    status: str  # optimal | feasible_gap | infeasible | unbounded | time_limit_no_solution
    objective: Optional[float]
    columns: Optional[np.ndarray]
    wall_time: float
    best_bound: Optional[float] = None
    mip_gap: Optional[float] = None
    node_count: Optional[int] = None
    row_duals: Optional[np.ndarray] = None
    lower_duals: Optional[np.ndarray] = None
    upper_duals: Optional[np.ndarray] = None
    used_warm_start: bool = False
    message: str = ""

    @property
    def has_solution(self) -> bool:
        return self.columns is not None


def _split_rows(model: MilpModel):
    """Constraint matrix split for linprog: equalities and <=-oriented rows.

    Returns (A_eq, b_eq, eq_rows, A_ub, b_ub, ub_rows, ub_sign) where the
    row index arrays keep stored order and ub_sign records the -1 applied
    to '>' rows.
    """
    sense = np.asarray(model.row_sense)
    sign = np.where(sense == ">", -1.0, 1.0)
    A = diags(sign) @ model.constraint_matrix()
    b = sign * np.asarray(model.row_rhs, dtype=float)
    eq_rows = np.flatnonzero(sense == "=")
    ub_rows = np.flatnonzero(sense != "=")
    return (
        A[eq_rows] if eq_rows.size else None, b[eq_rows], eq_rows,
        A[ub_rows] if ub_rows.size else None, b[ub_rows], ub_rows, sign[ub_rows],
    )


def _empty_outcome(model: MilpModel, t0: float) -> SolveOutcome:
    # a model with no columns is feasible iff every row accepts the origin
    viol = model.point_violations(np.zeros(model.n_cols))
    if viol["max"] > 1e-9:
        return SolveOutcome("infeasible", None, None, time.perf_counter() - t0)
    return SolveOutcome(
        "optimal", 0.0, np.zeros(model.n_cols), time.perf_counter() - t0,
        best_bound=0.0, mip_gap=0.0,
        row_duals=np.zeros(model.n_rows), lower_duals=np.zeros(0), upper_duals=np.zeros(0),
    )


def _resolve_warm_vector(model: MilpModel, options: SolveOptions) -> Optional[np.ndarray]:
    ws = options.warm_start if options.warm_start is not None else model.warm_start
    if ws is None:
        return None
    if isinstance(ws, dict):
        base = np.clip(np.zeros(model.n_cols), model.lb, model.ub)
        pos = {name: c for c, name in enumerate(model.var_names)}
        for name, val in ws.items():
            if name in pos:
                base[pos[name]] = float(val)
        return base
    ws = np.asarray(ws, dtype=float)
    return ws if ws.shape == (model.n_cols,) else None


class ScipyHighsBackend:
    """scipy.optimize wrappers around HiGHS."""

    name = "scipy-highs"

    def solve_lp(self, model: MilpModel, options: SolveOptions = SolveOptions()) -> SolveOutcome:
        """Continuous solve; binary columns keep their current bounds.

        The model's objective must be set. Duals are returned on optimal.
        """
        if model.objective is None:
            raise BackendError("model has no objective")
        t0 = time.perf_counter()
        if model.n_cols == 0:
            return _empty_outcome(model, t0)
        c = model.objective if model.objective_sense == "min" else -model.objective
        A_eq, b_eq, eq_rows, A_ub, b_ub, ub_rows, ub_sign = _split_rows(model)
        lp_opts = {
            "presolve": options.presolve,
            "primal_feasibility_tolerance": options.lp_feasibility_tol,
            "dual_feasibility_tolerance": options.lp_feasibility_tol,
        }
        if options.time_limit is not None:
            lp_opts["time_limit"] = float(options.time_limit)
        res = sciopt.linprog(
            c,
            A_ub=A_ub, b_ub=b_ub if A_ub is not None else None,
            A_eq=A_eq, b_eq=b_eq if A_eq is not None else None,
            bounds=np.column_stack([model.lb, model.ub]),
            method="highs",
            options=lp_opts,
        )
        wall = time.perf_counter() - t0
        if res.status == 2:
            return SolveOutcome("infeasible", None, None, wall, message=res.message)
        if res.status == 3:
            return SolveOutcome("unbounded", None, None, wall, message=res.message)
        if res.status != 0 or res.x is None:
            return SolveOutcome("time_limit_no_solution", None, None, wall, message=res.message)
        # orient scipy's minimize-convention marginals to the model's sense
        mult = -1.0 if model.objective_sense == "max" else 1.0
        rows = np.zeros(model.n_rows)
        if eq_rows.size:
            rows[eq_rows] = mult * res.eqlin.marginals
        if ub_rows.size:
            rows[ub_rows] = mult * res.ineqlin.marginals * ub_sign
        obj = float(model.objective @ res.x)
        return SolveOutcome(
            "optimal", obj, res.x, wall, best_bound=obj, mip_gap=0.0,
            row_duals=rows,
            lower_duals=mult * res.lower.marginals,
            upper_duals=mult * res.upper.marginals,
            message=res.message,
        )

    def solve_mip(self, model: MilpModel, options: SolveOptions = SolveOptions()) -> SolveOutcome:
        if model.objective is None:
            raise BackendError("model has no objective")
        t0 = time.perf_counter()
        if model.n_cols == 0:
            return _empty_outcome(model, t0)

        ws = _resolve_warm_vector(model, options)
        ws_obj = None
        ws_note = ""
        if ws is not None:
            viol = model.point_violations(ws)["max"]
            frac = (
                np.abs(ws[model.integrality == 1] - np.round(ws[model.integrality == 1])).max()
                if model.n_binary else 0.0
            )
            if viol <= _WS_VALIDATION_TOL and frac <= options.integer_feasibility_tol:
                ws_obj = float(model.objective @ ws)
            else:
                ws = None
                ws_note = "warm start rejected by validation; "

        out = self._milp_once(model, options, cutoff=ws_obj)
        if ws_obj is not None and out.status == "infeasible":
            # cutoff excluded everything: warm point is optimal to tolerance
            return replace(
                out, status="optimal", objective=ws_obj, columns=ws.copy(),
                best_bound=ws_obj, mip_gap=0.0, used_warm_start=True,
                message=ws_note + "cutoff closed the search at the warm point",
            )
        if ws_obj is not None:
            worse = out.objective is None or (
                out.objective < ws_obj - 1e-12 * (1 + abs(ws_obj))
                if model.objective_sense == "max"
                else out.objective > ws_obj + 1e-12 * (1 + abs(ws_obj))
            )
            if worse and out.status in ("time_limit_no_solution", "feasible_gap", "optimal"):
                bound = out.best_bound
                note = "kept warm point (solver had nothing better)"
                if bound is None:
                    # scipy reports no dual bound without an incumbent
                    relax = self.solve_lp(model, replace(options, time_limit=None, warm_start=None))
                    if relax.status == "optimal":
                        bound = relax.objective
                        note += "; bound from the LP relaxation"
                    else:
                        note += f"; no bound (LP relaxation {relax.status})"
                gap = None if bound is None else abs(bound - ws_obj) / (1 + abs(ws_obj))
                return replace(
                    out, status="feasible_gap", objective=ws_obj, columns=ws.copy(),
                    best_bound=bound, mip_gap=gap, used_warm_start=True,
                    wall_time=time.perf_counter() - t0, message=ws_note + note,
                )
        if ws_note:
            out = replace(out, message=ws_note + out.message)
        return out

    def _milp_once(self, model: MilpModel, options: SolveOptions, cutoff=None) -> SolveOutcome:
        t0 = time.perf_counter()
        A = model.constraint_matrix()
        lo, hi = model.row_bounds()
        if cutoff is not None:
            slack = _WS_CUTOFF_REL * (1 + abs(cutoff))
            obj_row = csr_matrix(model.objective.reshape(1, -1))
            A = vstack([A, obj_row], format="csr")
            if model.objective_sense == "max":
                lo = np.append(lo, cutoff - slack)
                hi = np.append(hi, np.inf)
            else:
                lo = np.append(lo, -np.inf)
                hi = np.append(hi, cutoff + slack)
        c = model.objective if model.objective_sense == "min" else -model.objective
        milp_opts = {
            "presolve": options.presolve,
            "mip_rel_gap": options.relative_gap_target,
            "mip_feasibility_tolerance": options.integer_feasibility_tol,
            "primal_feasibility_tolerance": options.lp_feasibility_tol,
        }
        if options.absolute_gap_target is not None:
            milp_opts["mip_abs_gap"] = options.absolute_gap_target
        if options.time_limit is not None:
            milp_opts["time_limit"] = float(options.time_limit)
        if options.node_limit is not None:
            milp_opts["node_limit"] = options.node_limit
        if options.thread_count is not None:
            milp_opts["threads"] = options.thread_count
        if options.random_seed is not None:
            milp_opts["random_seed"] = options.random_seed
        constraints = sciopt.LinearConstraint(A, lo, hi) if A.shape[0] else None
        with warnings.catch_warnings():
            # scipy warns when forwarding options it does not know to HiGHS
            warnings.simplefilter("ignore", RuntimeWarning)
            res = sciopt.milp(
                c=c,
                constraints=constraints,
                integrality=model.integrality,
                bounds=sciopt.Bounds(model.lb, model.ub),
                options=milp_opts,
            )
        wall = time.perf_counter() - t0
        sense_mult = 1.0 if model.objective_sense == "min" else -1.0
        best_bound = (
            sense_mult * res.mip_dual_bound
            if getattr(res, "mip_dual_bound", None) is not None else None
        )
        node_count = getattr(res, "mip_node_count", None)
        if res.status == 2:
            return SolveOutcome("infeasible", None, None, wall, message=res.message)
        if res.status == 3:
            return SolveOutcome("unbounded", None, None, wall, message=res.message)
        if res.x is None:
            return SolveOutcome(
                "time_limit_no_solution", None, None, wall,
                best_bound=best_bound, node_count=node_count, message=res.message,
            )
        obj = float(model.objective @ res.x)
        gap = getattr(res, "mip_gap", None)
        status = "optimal" if res.status == 0 else "feasible_gap"
        return SolveOutcome(
            status, obj, res.x, wall, best_bound=best_bound, mip_gap=gap,
            node_count=node_count, message=res.message,
        )


_REGISTRY: dict[str, object] = {"scipy-highs": ScipyHighsBackend()}


def register_backend(name: str, backend) -> None:
    _REGISTRY[name] = backend


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_backend(name: Optional[str] = None):
    """Resolve a backend by name, falling back to $DAMCLEAR_BACKEND then the default."""
    name = name or os.environ.get("DAMCLEAR_BACKEND", "scipy-highs")
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; registered: {', '.join(available_backends())}"
        ) from None


def solve_lp(model: MilpModel, options: SolveOptions = SolveOptions(), backend=None) -> SolveOutcome:
    return (backend or get_backend()).solve_lp(model, options)


def solve_mip(model: MilpModel, options: SolveOptions = SolveOptions(), backend=None) -> SolveOutcome:
    return (backend or get_backend()).solve_mip(model, options)


def resolve_duals(
    model: MilpModel,
    y: np.ndarray,
    u: np.ndarray,
    options: SolveOptions = SolveOptions(),
    backend=None,
) -> SolveOutcome:
    """Fix the acceptance binaries and re-solve the model as an LP.

    The primal-dual column structure means the LP solution itself carries
    consistent prices and surpluses for the fixed selection; an infeasible
    outcome signals an invalid selection. The objective-equality row pins
    this LP to an optimal face with no relative interior, which large
    instances cannot hold to tight absolute tolerances in floating point,
    so a failed solve is retried on a tolerance ladder up to 1e-6 (and
    finally without presolve) before the failure is reported.
    """
    fixed = model.copy()
    ys = fixed.roles["y"]
    us = fixed.roles["u"]
    y = np.round(np.asarray(y, dtype=float).reshape(-1))
    u = np.round(np.asarray(u, dtype=float).reshape(-1))
    if y.shape != (ys.stop - ys.start,) or u.shape != (us.stop - us.start,):
        raise BackendError("selection shape does not match the model")
    fixed.lb[ys] = y
    fixed.ub[ys] = y
    fixed.lb[us] = u
    fixed.ub[us] = u
    fixed.warm_start = None
    solver = backend or get_backend()
    out = solver.solve_lp(fixed, options)
    if out.status == "optimal":
        return out
    loose = max(options.lp_feasibility_tol, 1e-6)
    for attempt in (
        replace(options, lp_feasibility_tol=loose),
        replace(options, lp_feasibility_tol=loose, presolve=False),
    ):
        out = solver.solve_lp(fixed, attempt)
        if out.status == "optimal":
            return out
    return out
