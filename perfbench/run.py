"""damclear benchmark: seeded closed-loop workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 11 --trace 0

One process runs one workload as a closed loop, one operation at a time,
in whole units of work (three 21-seed periods for sweep, two for oracle,
two clears for the day workloads) until ``--seconds`` of timed wall have
passed. On oracle the latency is taken per selection probed.
Inputs come from ``--seed`` only. Every operation is checked outside the
timed region; a failure is counted, never retried or dropped.

Set-up is the time from the first line of this script to the first timed
operation: imports, one input build and one untimed warm-up operation.
With ``--trace 0`` it is taken in this process and in ``SETUPS - 1``
fresh ones started with ``--setup-only`` after the timed loop, and the
median is reported.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` every operation runs twice in a row, untraced and then with
the tracer installed; the last line then carries the per-layer metrics and
the tracing overhead (traced minus untraced median operation time). The
lines before the last give the environment and a readable table.
``--tiny`` shrinks every input, for the self-test.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUPS = 3

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import numpy
    import tracing
    import workloads
except ImportError as exc:  # run outside a checkout of the repository
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None


class StdoutCapture:
    """Points fd 1 at a scratch file while an operation runs.

    HiGHS writes some messages (``transformNewIntegerFeasibleSolution``)
    straight to the C-level stdout, which would otherwise land between
    the benchmark's own lines; they are counted as leaked lines instead.
    """

    def __init__(self, workdir: Path):
        self._file = tempfile.TemporaryFile(dir=workdir)
        self._fflush = ctypes.CDLL(None).fflush
        self._fflush.argtypes = [ctypes.c_void_p]
        self._fflush.restype = ctypes.c_int
        self._saved = -1

    def _flush(self):
        sys.stdout.flush()
        self._fflush(None)

    def __enter__(self):
        self._flush()
        self._saved = os.dup(1)
        os.dup2(self._file.fileno(), 1)

    def __exit__(self, *exc):
        self._flush()
        os.dup2(self._saved, 1)
        os.close(self._saved)

    def take_lines(self) -> int:
        self._file.seek(0)
        data = self._file.read()
        self._file.seek(0)
        self._file.truncate()
        return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)

    def close(self):
        self._file.close()


def run_op(wl, arg, capture, tracer=None):
    op = workloads.Op(arg)
    with capture:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                op.result = wl.run(arg)
            else:
                with tracer.span("op"):
                    op.result = wl.run(arg)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        op.wall = time.perf_counter() - t0
    op.leaked_lines = capture.take_lines()
    return op


def check(wl, ops):
    """Judge finished operations outside the timed region; returns failures."""
    for op in ops:
        if not op.error:
            try:
                op.error = wl.check(op)
            except Exception as exc:  # an unreadable result is a failure too
                op.error = f"check raised {type(exc).__name__}: {exc}"
        if op.error:
            print(f"perfbench: {wl.name} {op.arg} failed: {op.error}", file=sys.stderr)
    return sum(bool(op.error) for op in ops)


def measure(wl, seconds, capture, tracer=None):
    """Whole units of work until ``seconds`` of wall have passed.

    With a tracer, each operation is run untraced and then once more with
    the tracer installed, so that the overhead compares neighbouring runs
    rather than two stretches of a machine whose speed drifts.
    """
    ops, traced = [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        for arg in wl.unit(k):
            ops.append(run_op(wl, arg, capture))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_op(wl, arg, capture, tracer))
                finally:
                    tracer.remove()
        k += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return ops, traced, time.perf_counter() - t0


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": "solver and BLAS defaults, at most nproc",
    }


def set_up(wl, capture):
    """Build the inputs once and run the untimed warm-up operation."""
    wl.build()
    warmup = run_op(wl, wl.warmup_arg(), capture)
    return warmup, time.perf_counter() - _T0


def fresh_setups(args) -> list:
    """Set-up times of ``SETUPS - 1`` fresh processes, run one after another."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUPS - 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process exited {done.returncode}:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def bench(args, workdir: Path):
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
    capture = StdoutCapture(workdir)
    try:
        warmup, setup_s = set_up(wl, capture)
        if args.setup_only:
            return {"setup_s": setup_s}, 1, 0, 0
        failed = check(wl, [warmup])
        if not args.trace:
            ops, _, elapsed = measure(wl, args.seconds, capture)
        else:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with tracer.span("setup"):
                    wl.build()
            finally:
                tracer.remove()
            ops, traced, elapsed = measure(wl, args.seconds, capture, tracer)
    finally:
        capture.close()

    failed += check(wl, ops)
    attempted = 1 + len(ops)
    latency = [op.wall / wl.work(op.arg) for op in ops]
    if not args.trace:
        metrics = {
            "setup_s": statistics.median([setup_s] + fresh_setups(args)),
            "op_s": statistics.median(latency),
            "op_s_p90": float(numpy.percentile(latency, 90)),
            "ops_per_s": sum(wl.work(op.arg) for op in ops) / elapsed,
            "verified_share": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        failed += check(wl, traced)
        attempted += len(traced)
        metrics = tracing.layer_metrics(tracer.spans, [op.leaked_lines for op in traced])
        untraced_op = statistics.median(latency)
        overhead = statistics.median(op.wall / wl.work(op.arg) for op in traced) - untraced_op
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / untraced_op
    return metrics, attempted, failed, len(ops)


def metric_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "oracle", "day", "day-staged"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import damclear from {ROOT / 'src'}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    units = metric_units()

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        metrics, attempted, failed, n_ops = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK_ROOT.rmdir()

    if args.setup_only:
        print(json.dumps(metrics))
        return 0
    env = environment(args)
    env["ops"] = n_ops
    print(json.dumps({"env": env}))
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
