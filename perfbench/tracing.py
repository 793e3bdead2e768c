"""Outside-in tracing of damclear's layers.

The benchmark does not edit the program. ``Tracer.install`` replaces public
module functions with wrappers that open a span, and registers a backend
that delegates to the real one through ``register_backend`` plus
``DAMCLEAR_BACKEND``; ``Tracer.remove`` restores every replaced attribute,
the environment variable and the backend registry, so an untraced run
pays for none of it. Spans (name, start, end, parent, attributes) stay in
memory until the run ends.

A span's layer is the part of its name before the first dot. ``model``
gets no span: its cost falls into the self time of its callers. The CLI
reaches the staged heuristic through a private table, so on day-staged
the heuristic's own glue (validation and model copies) is counted as
``cli`` self time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field

from damclear import backend, cli, engine, fileio, oracle, verify

BACKEND_NAME = "perfbench-traced"
ENV = "DAMCLEAR_BACKEND"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class TracedBackend:
    """Delegating backend: one span per solve, with the outcome's counters."""

    name = BACKEND_NAME

    def __init__(self, tracer: "Tracer", inner):
        self.tracer = tracer
        self.inner = inner

    def solve_mip(self, model, options=backend.SolveOptions()):
        with self.tracer.span("backend.mip") as span:
            span.attrs["warm"] = options.warm_start is not None or model.warm_start is not None
            out = self.inner.solve_mip(model, options)
        span.attrs.update(
            status=out.status, objective=out.objective, sense=model.objective_sense,
            nodes=out.node_count or 0, kept=out.used_warm_start,
        )
        return out

    def solve_lp(self, model, options=backend.SolveOptions()):
        with self.tracer.span("backend.lp") as span:
            out = self.inner.solve_lp(model, options)
        span.attrs["status"] = out.status
        return out


def _model_size(span, model, args, kwargs):
    span.attrs.update(
        rows=model.n_rows, cols=model.n_cols, binaries=model.n_binary,
        nnz=sum(len(c) for c in model.row_cols),
    )


def _enumerated(span, result, args, kwargs):
    span.attrs["selections"] = result.n_selections


def _linprog_call(span, res, args, kwargs):
    opts = kwargs.get("options") or {}
    span.attrs["rung"] = (
        kwargs.get("method"), opts.get("primal_feasibility_tolerance"), opts.get("presolve"),
    )


# (owner, attribute, span name, hook run after the call, outside the span)
_PATCHES = (
    (fileio, "generate", "fileio.generate", None),
    (fileio, "parse", "fileio.parse", None),
    (fileio, "write_instance", "fileio.write", None),
    (fileio, "write_solution", "fileio.write", None),
    (fileio, "write_report", "fileio.write", None),
    (engine, "build_request_model", "milp.assemble", _model_size),
    (backend, "resolve_duals", "backend.resolve", None),
    (engine, "clear", "engine.clear", None),
    (cli, "clear", "engine.clear", None),
    (engine, "assemble_solution", "engine.canonicalize", None),
    (verify, "verify_equilibrium", "verify.equilibrium", None),
    (cli, "verify_equilibrium", "verify.equilibrium", None),
    (verify, "verify_mic_income", "verify.mic_income", None),
    (cli, "verify_mic_income", "verify.mic_income", None),
    (oracle, "enumerate_selections", "oracle.enumerate", _enumerated),
    (oracle, "linprog", "oracle.lp", _linprog_call),
    (cli, "main", "cli.main", None),
)


def patched_attributes() -> dict:
    """The current value of every attribute the tracer replaces."""
    return {(owner.__name__, attr): getattr(owner, attr) for owner, attr, _, _ in _PATCHES}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._env = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, function, name, hook):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = function(*args, **kwargs)
            if hook is not None:
                hook(span, out, args, kwargs)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in _PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))
        backend.register_backend(BACKEND_NAME, TracedBackend(self, backend.get_backend()))
        self._env = os.environ.get(ENV)
        os.environ[ENV] = BACKEND_NAME

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._env is None:
            os.environ.pop(ENV, None)
        else:
            os.environ[ENV] = self._env
        # damclear has no public way to unregister a backend
        backend._REGISTRY.pop(BACKEND_NAME, None)


LAYERS = ("fileio", "milp", "backend", "engine", "verify", "oracle", "cli")


def _share(part: int, whole: int) -> float:
    """part / whole, reported as 0 when nothing of the kind ran."""
    return part / whole if whole else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _improves(value, best, sense) -> bool:
    if value is None:
        return False
    if best is None:
        return True
    slack = 1e-9 * (1.0 + abs(best))
    return value > best + slack if sense == "max" else value < best - slack


def layer_metrics(spans: list, op_leaked_lines: list) -> dict:
    """Per-layer figures from the spans of one traced loop.

    Every time and count is a mean per operation (the spans named "op"),
    except ``fileio.generate_s``, which is the set-up's input generation,
    and the ``milp`` sizes, which are means per assembled model. Inclusive
    times count the outermost span of a kind only. Layer self times plus
    ``trace.uncovered_s`` (the op span's own self time) add up to
    ``trace.op_s``.
    """
    root = []
    child_wall = [0.0] * len(spans)
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        root.append(i if span.parent < 0 else root[span.parent])
        if span.parent >= 0:
            child_wall[span.parent] += span.wall
            children[span.parent].append(i)
    ops = [i for i, s in enumerate(spans) if s.name == "op"]
    n_ops = len(ops)
    in_op = [spans[root[i]].name == "op" for i in range(len(spans))]

    def outermost(i, names):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name in names:
                return False
            p = spans[p].parent
        return True

    def picked(names, where=in_op):
        return [i for i, s in enumerate(spans) if s.name in names and where[i] and outermost(i, names)]

    def per_op(names):
        return sum(spans[i].wall for i in picked(names)) / n_ops

    mips = picked(("backend.mip",))
    lps = picked(("backend.lp",))
    resolves = picked(("backend.resolve",))
    assembled = picked(("milp.assemble",))
    enumerations = picked(("oracle.enumerate",))
    linprogs = picked(("oracle.lp",))
    in_setup = [spans[root[i]].name == "setup" for i in range(len(spans))]

    first_try = 0
    for r in resolves:
        inner = [c for c in children[r] if spans[c].name == "backend.lp"]
        first_try += bool(inner) and spans[inner[0]].attrs.get("status") == "optimal"
    warm = [i for i in mips if spans[i].attrs["warm"]]

    stage_wall = [0.0, 0.0, 0.0]
    later = gained = 0
    by_op: dict = {}
    for i in mips:
        by_op.setdefault(root[i], []).append(spans[i])
    for calls in by_op.values():
        if len(calls) < 2:
            continue  # a single MIP call is a plain clear, not a staged run
        best = None
        for k, call in enumerate(calls):
            better = _improves(call.attrs.get("objective"), best, call.attrs.get("sense"))
            if k < 3:
                stage_wall[k] += call.wall
            if k:
                later += 1
                gained += better
            if better:
                best = call.attrs["objective"]

    retries = 0
    for e in enumerations:
        calls = [c for c in children[e] if spans[c].name == "oracle.lp"]
        retries += sum(spans[c].attrs.get("rung") != spans[calls[0]].attrs.get("rung") for c in calls)
    selections = sum(spans[e].attrs.get("selections", 0) for e in enumerations)

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    uncovered = 0.0
    for i, span in enumerate(spans):
        if not in_op[i]:
            continue
        own = span.wall - child_wall[i]
        if span.name == "op":
            uncovered += own
        else:
            self_by_layer[span.layer] += own
    op_wall = sum(spans[i].wall for i in ops) / n_ops

    m = {
        "fileio.generate_s": sum(spans[i].wall for i in picked(("fileio.generate",), in_setup)),
        "fileio.parse_s": per_op(("fileio.parse",)),
        "fileio.write_s": per_op(("fileio.write",)),
        "milp.assemble_s": per_op(("milp.assemble",)),
        "milp.rows": _mean(spans[i].attrs.get("rows", 0) for i in assembled),
        "milp.cols": _mean(spans[i].attrs.get("cols", 0) for i in assembled),
        "milp.nnz": _mean(spans[i].attrs.get("nnz", 0) for i in assembled),
        "milp.binaries": _mean(spans[i].attrs.get("binaries", 0) for i in assembled),
        "backend.mip_s": per_op(("backend.mip",)),
        "backend.mip_calls": len(mips) / n_ops,
        "backend.mip_nodes": sum(spans[i].attrs.get("nodes", 0) for i in mips) / n_ops,
        "backend.lp_s": per_op(("backend.lp",)),
        "backend.lp_calls": len(lps) / n_ops,
        "backend.resolve_s": per_op(("backend.resolve",)),
        "backend.resolve_calls": len(resolves) / n_ops,
        "backend.resolve_first_try_share": _share(first_try, len(resolves)),
        "backend.warm_start_kept_share": _share(
            sum(spans[i].attrs.get("kept", False) for i in warm), len(warm)
        ),
        "backend.leaked_lines": _mean(op_leaked_lines),
        "engine.stage1_s": stage_wall[0] / n_ops,
        "engine.stage2_s": stage_wall[1] / n_ops,
        "engine.stage3_s": stage_wall[2] / n_ops,
        "engine.stage_gain_share": _share(gained, later),
        "engine.canonicalize_s": per_op(("engine.canonicalize",)),
        "verify.verify_s": per_op(("verify.equilibrium", "verify.mic_income")),
        "oracle.enumerate_s": per_op(("oracle.enumerate",)),
        "oracle.lp_s": per_op(("oracle.lp",)),
        "oracle.lp_calls_per_selection": _share(len(linprogs), selections),
        "oracle.lp_retries": retries / n_ops,
        "cli.self_s": self_by_layer["cli"] / n_ops,
        "trace.op_s": op_wall,
        "trace.uncovered_s": uncovered / n_ops,
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = self_by_layer[layer] / n_ops
    return m
