"""Solver access layer.

The module functions solve_lp, solve_mip and resolve_duals return a
SolveOutcome from the backend that get_backend() picks: the registry entry
named by the DAMCLEAR_BACKEND environment variable, else the bundled
implementation. That one sits on scipy's own HiGHS bindings
(scipy.optimize._highspy._core, loaded by damclear._highs without
importing scipy.optimize): one HiGHS object per MIP solve, and one
LpSession per LP solve. LpSession itself does not go through the registry:
it always runs the bundled HiGHS, and so does the engine's search, which
uses it directly.

Outcomes carry no solver duals: prices, surpluses and compensations are
columns of the primal-dual model, so an LP solve returns them in columns.

LpSession keeps one model's LP relaxation on a persistent HiGHS object:
it solves the relaxation once, then re-solves it with the y/u column
bounds narrowed, from the previous basis: a fixed acceptance selection,
or a branch-and-bound node with some binaries fixed. Its LP objectives are
HiGHS's LP optima at LP_FEASIBILITY_TOL, which is what the engine uses as
the bounds of its search. solve_lp runs a one-shot session and returns
its relaxation; resolve_duals is one solve_lp with the selection fixed.

solve_mip runs HiGHS's MIP solver once, from scratch. The engine calls it
only for a model without binaries, which HiGHS solves as an LP; the tests
use it as an independent MIP reference. HiGHS prints a few MIP messages
with a raw printf that ignores its output flag; solve_mip captures fd 1
around the solve and counts them in the outcome's message.

Every solve hands HiGHS the model's stored compressed-column matrix
(MilpModel.constraint_csc()) and interval row bounds
(MilpModel.row_bounds()) as they are. A run that ends without a point
reports infeasible, unbounded, time_limit_no_solution (HiGHS's time
limit only) or solver_failed (any other HiGHS status, named in the
outcome's message).
"""

from __future__ import annotations

import ctypes
import os
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._highs import core as _highspy
from .milp import MilpModel

LP_FEASIBILITY_TOL = 1e-9  # HiGHS's primal (and, for LPs, dual) feasibility tolerance
_STALL_RESIDUAL_TOL = 1e-6  # an LP that stops Unknown within this residual is optimal
# HiGHS's MIP feasibility tolerance; a binary within it of 0 or 1 counts as integral
INTEGER_FEASIBILITY_TOL = 1e-6
_STATUS = _highspy.HighsModelStatus


class BackendError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveOptions:
    """Solver controls; defaults are tighter than solver defaults because
    the big-M rows amplify integer slack into price error.

    time_limit is wall seconds (None = unlimited); the engine gives it to
    a clear as a whole (see engine.ClearingRequest).
    relative_gap_target is the gap |bound - value| / (1 + |value|) at
    which a search stops. The LP tolerance is the constant
    LP_FEASIBILITY_TOL.
    """

    time_limit: Optional[float] = None
    relative_gap_target: float = 1e-6

    def __post_init__(self):
        # the negated comparisons also reject NaN
        if not self.relative_gap_target >= 0:
            raise ValueError("gap targets must be >= 0")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError("time_limit must be >= 0 seconds")


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one solve.

    columns is the primal point, aligned with the model's columns.
    best_bound is the proven bound in the model's sense and mip_gap HiGHS's
    relative gap at termination (an optimal LP reports its objective and
    0); a MIP solve of a model without integer columns reports neither.
    message carries HiGHS's status string and notes on the run.
    """

    # optimal | feasible_gap | infeasible | unbounded | time_limit_no_solution | solver_failed
    status: str
    objective: Optional[float]
    columns: Optional[np.ndarray]
    wall_time: float
    best_bound: Optional[float] = None
    mip_gap: Optional[float] = None
    node_count: Optional[int] = None
    message: str = ""

    @property
    def has_solution(self) -> bool:
        return self.columns is not None


def _empty_outcome(model: MilpModel, t0: float) -> SolveOutcome:
    # a model with no columns is feasible iff every row accepts the origin;
    # HiGHS reports such a model as Empty either way
    viol = model.point_violations(np.zeros(model.n_cols))
    if viol["max"] > 1e-9:
        return SolveOutcome("infeasible", None, None, time.perf_counter() - t0)
    return SolveOutcome(
        "optimal", 0.0, np.zeros(model.n_cols), time.perf_counter() - t0,
        best_bound=0.0, mip_gap=0.0,
    )


def _highs_options(options: SolveOptions):
    """HiGHS options for one MIP solve, as (name, value) pairs."""
    pairs = [
        ("output_flag", False),
        ("log_to_console", False),
        ("presolve", "on"),
        ("mip_rel_gap", float(options.relative_gap_target)),
        ("mip_feasibility_tolerance", INTEGER_FEASIBILITY_TOL),
        ("primal_feasibility_tolerance", LP_FEASIBILITY_TOL),
    ]
    if options.time_limit is not None:
        pairs.append(("time_limit", float(options.time_limit)))
    return pairs


def _highs_lp(model: MilpModel):
    """The model as a HighsLp: CSC rows, interval row bounds, own sense,
    no integrality (a MIP solve sets it)."""
    start, index, value = model.constraint_csc()
    lo, hi = model.row_bounds()
    lp = _highspy.HighsLp()
    lp.num_col_ = model.n_cols
    lp.num_row_ = model.n_rows
    sense = _highspy.ObjSense
    lp.sense_ = sense.kMaximize if model.objective_sense == "max" else sense.kMinimize
    lp.col_cost_ = model.objective
    lp.col_lower_ = model.lb
    lp.col_upper_ = model.ub
    lp.row_lower_ = lo
    lp.row_upper_ = hi
    lp.a_matrix_.format_ = _highspy.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = model.n_cols
    lp.a_matrix_.num_row_ = model.n_rows
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    return lp


def _set_option(highs, name, value) -> None:
    if highs.setOptionValue(name, value) != _highspy.HighsStatus.kOk:
        raise BackendError(f"HiGHS rejected option {name}={value!r}")


def _new_highs(lp, options):
    """A HiGHS object holding the HighsLp lp, with the given (name, value) options."""
    highs = _highspy._Highs()
    for name, value in options:
        _set_option(highs, name, value)
    if highs.passModel(lp) != _highspy.HighsStatus.kOk:
        raise BackendError("HiGHS rejected the model")
    return highs


_LIBC = ctypes.CDLL(None)
_LIBC.fflush.argtypes = [ctypes.c_void_p]
_LIBC.fflush.restype = ctypes.c_int


def _run_capturing_stdout(highs) -> int:
    """highs.run() with fd 1 pointed at a temporary file; returns its line count.

    HiGHS's MIP solver prints some messages (transformNewIntegerFeasibleSolution)
    with a raw printf that ignores output_flag. They are counted here instead
    of landing in the caller's stdout. fd 1 is process-wide, so MIP solves,
    the only ones run through here, must not run concurrently in threads
    of one process. The oracle, which solves in several threads, runs LPs
    only, on its own HiGHS objects, and never calls this.
    """
    with tempfile.TemporaryFile() as sink:
        _LIBC.fflush(None)
        saved = os.dup(1)
        os.dup2(sink.fileno(), 1)
        try:
            highs.run()
        finally:
            _LIBC.fflush(None)
            os.dup2(saved, 1)
            os.close(saved)
        sink.seek(0)
        data = sink.read()
    return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)


def _finite(value) -> Optional[float]:
    value = float(value)
    return value if np.isfinite(value) else None


_NO_POINT = {
    _STATUS.kInfeasible: "infeasible",
    _STATUS.kUnbounded: "unbounded",
    _STATUS.kTimeLimit: "time_limit_no_solution",
}


def _no_point(status, wall: float, message: str) -> SolveOutcome:
    """The outcome of a HiGHS run that ended without a point; any status
    but infeasible, unbounded and a time limit is a solver failure."""
    return SolveOutcome(_NO_POINT.get(status, "solver_failed"), None, None, wall, message=message)


class LpSession:
    """A model's LP relaxation on one persistent HiGHS object.

    The constructor solves the relaxation once (integrality cleared,
    LP_FEASIBILITY_TOL, presolve on) into ``relaxation``. Each bound()
    then changes only the y/u column bounds and re-runs with presolve off,
    so HiGHS starts from the previous basis; fix() is bound() with both
    ends at a selection. The options' time_limit caps the session as a
    whole, from its construction (time_left()): each run gets what is left
    as HiGHS's limit, and once it has run out, a solve returns
    time_limit_no_solution without running. ``lp_count`` counts the LPs
    run. A run that stops Unknown (HiGHS stalls on the optimal face the
    objective-equality row pins) is optimal when HiGHS's primal and dual
    infeasibilities of its point are within _STALL_RESIDUAL_TOL, and says
    so in its message; otherwise it is solver_failed.
    """

    def __init__(self, model: MilpModel, options: SolveOptions = SolveOptions()):
        if model.objective is None:
            raise BackendError("model has no objective")
        self._t0 = time.perf_counter()
        self._limit = options.time_limit
        self._model = model
        ys, us = model.roles["y"], model.roles["u"]
        self._cols = np.r_[np.arange(ys.start, ys.stop), np.arange(us.start, us.stop)].astype(np.int32)
        self._n_y = ys.stop - ys.start
        self.lp_count = 0
        self._highs = _new_highs(_highs_lp(model), (
            ("output_flag", False),
            ("log_to_console", False),
            ("presolve", "on"),
            ("primal_feasibility_tolerance", LP_FEASIBILITY_TOL),
            ("dual_feasibility_tolerance", LP_FEASIBILITY_TOL),
        ))
        self.relaxation = self._run()
        _set_option(self._highs, "presolve", "off")

    def fix(self, y: np.ndarray, u: np.ndarray) -> SolveOutcome:
        """Solve the LP with the acceptance binaries fixed to the rounded y, u."""
        y = np.round(np.asarray(y, dtype=float).reshape(-1))
        u = np.round(np.asarray(u, dtype=float).reshape(-1))
        if y.size != self._n_y:
            raise BackendError("selection shape does not match the model")
        sel = np.r_[y, u]
        return self.bound(sel, sel)

    def bound(self, lo: np.ndarray, hi: np.ndarray) -> SolveOutcome:
        """Solve the LP with the y/u columns (y first, then u) bounded to [lo, hi]."""
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.size != self._cols.size or hi.size != self._cols.size:
            raise BackendError("selection shape does not match the model")
        self._highs.changeColsBounds(lo.size, self._cols, lo, hi)
        return self._run()

    def time_left(self) -> Optional[float]:
        """Seconds left of the session's time limit (never below 0), or
        None without a limit."""
        if self._limit is None:
            return None
        return max(0.0, self._limit - (time.perf_counter() - self._t0))

    def _run(self) -> SolveOutcome:
        t0 = time.perf_counter()
        left = self.time_left()
        if left is not None:
            if left <= 0:
                return SolveOutcome("time_limit_no_solution", None, None, 0.0, message="session time limit spent")
            # HiGHS holds its limit against the object's run time summed
            # over all its runs
            _set_option(self._highs, "time_limit", self._highs.getRunTime() + left)
        self._highs.run()
        self.lp_count += 1
        status = self._highs.getModelStatus()
        wall = time.perf_counter() - t0
        message = self._highs.modelStatusToString(status)
        solution = self._highs.getSolution()
        if status == _STATUS.kUnknown and solution.value_valid:
            info = self._highs.getInfo()
            primal, dual = info.max_primal_infeasibility, info.max_dual_infeasibility
            if max(primal, dual) <= _STALL_RESIDUAL_TOL:
                status = _STATUS.kOptimal
                message += (f"; certified optimal by its residuals: primal {primal:.1e}, "
                            f"dual {dual:.1e} <= {_STALL_RESIDUAL_TOL:g}")
        if status != _STATUS.kOptimal:
            return _no_point(status, wall, message)
        x = np.array(solution.col_value)
        obj = float(self._model.objective @ x)
        return SolveOutcome("optimal", obj, x, wall, best_bound=obj, mip_gap=0.0, message=message)


class ScipyHighsBackend:
    """The bundled backend: HiGHS driven directly through scipy's compiled
    bindings (damclear._highs), one HiGHS object per MIP solve."""

    name = "scipy-highs"

    def solve_lp(self, model: MilpModel, options: SolveOptions = SolveOptions()) -> SolveOutcome:
        """Continuous solve; binary columns keep their current bounds.

        The model's objective must be set. The outcome is the relaxation of
        a one-shot LpSession, so integrality is ignored.
        """
        if model.objective is None:
            raise BackendError("model has no objective")
        t0 = time.perf_counter()
        if model.n_cols == 0:
            return _empty_outcome(model, t0)
        out = LpSession(model, options).relaxation
        return replace(out, wall_time=time.perf_counter() - t0)

    def solve_mip(self, model: MilpModel, options: SolveOptions = SolveOptions()) -> SolveOutcome:
        """One HiGHS MIP solve of the model from scratch (presolve on,
        relative_gap_target as its gap). A binary-free model runs as an LP
        and reports no bound, gap or node count."""
        if model.objective is None:
            raise BackendError("model has no objective")
        t0 = time.perf_counter()
        if model.n_cols == 0:
            return _empty_outcome(model, t0)

        lp = _highs_lp(model)
        lp.integrality_ = [_highspy.HighsVarType(int(k)) for k in model.integrality]
        highs = _new_highs(lp, _highs_options(options))
        leaked = _run_capturing_stdout(highs)
        status = highs.getModelStatus()
        info = highs.getInfo()
        wall = time.perf_counter() - t0
        message = highs.modelStatusToString(status)
        if leaked:
            message += f"; {leaked} line(s) of solver stdout captured"
        # a binary-free model runs as an LP, whose MIP fields are placeholders
        is_mip = bool(model.n_binary)
        best_bound = _finite(info.mip_dual_bound) if is_mip else None
        node_count = int(info.mip_node_count) if is_mip else None
        has_x = status == _STATUS.kOptimal or (
            is_mip and status in (_STATUS.kTimeLimit, _STATUS.kIterationLimit, _STATUS.kSolutionLimit)
            and np.isfinite(info.objective_function_value)
        )
        if not has_x:
            return replace(_no_point(status, wall, message), best_bound=best_bound, node_count=node_count)
        x = np.array(highs.getSolution().col_value)
        return SolveOutcome(
            "optimal" if status == _STATUS.kOptimal else "feasible_gap",
            float(model.objective @ x), x, wall, best_bound=best_bound,
            mip_gap=_finite(info.mip_gap) if is_mip else None,
            node_count=node_count, message=message,
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


def solve_lp(model: MilpModel, options: SolveOptions = SolveOptions()) -> SolveOutcome:
    return get_backend().solve_lp(model, options)


def solve_mip(model: MilpModel, options: SolveOptions = SolveOptions()) -> SolveOutcome:
    return get_backend().solve_mip(model, options)


def resolve_duals(model: MilpModel, y, u, options: SolveOptions = SolveOptions()) -> SolveOutcome:
    """Fix the acceptance binaries and re-solve the model as an LP.

    The primal-dual column structure means the LP solution itself carries
    consistent prices and surpluses for the fixed selection; an infeasible
    outcome signals an invalid selection. It is one solve_lp of the fixed
    model through the registry's backend (see LpSession for how a stalled
    run is certified).
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
    return get_backend().solve_lp(fixed, options)
