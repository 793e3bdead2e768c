"""Workload definitions: seeded inputs, one operation, and its checks.

sweep and oracle use the acceptance-gate family
``GeneratorConfig(seed=s, n_blocks=s % 7, n_mic=s % 3)`` in whole 21-seed
periods: 21 is the least common multiple of 7 and 3, so every period holds
each (block count, MIC count) pair exactly once and in the same order, and
two periods differ only in the random content of the bids. The workload
seed picks the first of ``BUILT_PERIODS`` consecutive periods out of the
``BANK_PERIODS`` periods whose oracle optima are recorded in
``optima.json``. sweep leaves out each period's first instance, the one
with no block and no MIC bid: its model has no integer column, and
``engine.clear`` reports ``solver_gap = inf`` for it although the solution
is optimal. That defect is shown by the self-test (a strict xfail) and by
the tier-1 scale test, which fails on the same ``gap=inf``; it is not a
cost the benchmark measures.

day and day-staged clear one fixed 2 x 24 day (seed 42) through the CLI.
The day is not drawn from the workload seed: MIP effort varies several-fold
between day seeds, so a seeded day would measure the seed, not the code.
The full-scale day (4 x 24, 5088 hourly bids) is left out on purpose: one
staged run takes about six minutes on a 2-core machine, most of it in a
third stage that gains nothing, and a regression check repeats every
workload about twenty times. The slow acceptance test covers it;
day-staged shows the same stage-3 waste at a size that runs in about 15 s.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from damclear import cli, engine, fileio, oracle, verify
from damclear.engine import ClearingRequest
from damclear.fileio import GeneratorConfig

HERE = Path(__file__).resolve().parent
OPTIMA_PATH = HERE / "optima.json"

PERIOD = 21
BANK_PERIODS = 16
BUILT_PERIODS = 3
TINY_INSTANCES = 3
RULESETS = ("pcr", "umfs")
OBJECTIVES = ("welfare", "volume", "min_opportunity_cost")
OBJECTIVE_VALUE = {
    "welfare": lambda s: s.welfare,
    "volume": lambda s: s.traded_volume,
    "min_opportunity_cost": lambda s: s.total_opportunity_cost,
}
ORACLE_REL_TOL = 1e-6
SWEEP_GAP = ClearingRequest().solve_options.relative_gap_target
DAY_GAP = 0.002
DAY_CLEARS = 2


def sweep_config(seed: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3)


def day_config(tiny: bool = False) -> GeneratorConfig:
    if tiny:
        return GeneratorConfig(
            seed=42, locations=("N1", "N2"), periods=("T1", "T2", "T3", "T4"),
            demand_steps=3, supply_steps=2, n_blocks=3, n_mic=1,
        )
    return GeneratorConfig(
        seed=42,
        locations=("N1", "N2"),
        periods=tuple(f"T{h}" for h in range(1, 25)),
        demand_steps=27,
        supply_steps=26,
        n_blocks=20,
        n_mic=8,
        max_mic_suborders=24,
    )


def period_seeds(period: int, tiny: bool = False) -> range:
    start = period * PERIOD
    return range(start, start + (TINY_INSTANCES if tiny else PERIOD))


def sweep_seeds(period: int, tiny: bool = False) -> range:
    """The period's seeds without its first, which has no block and no MIC bid."""
    start = period * PERIOD + 1
    return range(start, start + (TINY_INSTANCES if tiny else PERIOD - 1))


def within(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * (1.0 + abs(want))


def load_optima() -> dict:
    with open(OPTIMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    """One operation: its input, its result and the failure found, if any."""

    arg: tuple
    wall: float = 0.0
    result: object = None
    error: str = ""
    leaked_lines: int = 0


class Workload:
    """Seeded inputs plus one closed-loop operation and its checks.

    ``build`` makes the inputs; ``unit(k)`` lists the operation arguments
    of the k-th unit of work, and the benchmark runs whole units; ``run``
    is one timed operation; ``check`` judges a finished operation outside
    the timed region and returns an error message or "".
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = workdir
        self.tiny = tiny

    def build(self) -> None:
        raise NotImplementedError

    def unit(self, k: int) -> list:
        raise NotImplementedError

    def run(self, arg: tuple):
        raise NotImplementedError

    def check(self, op: Op) -> str:
        raise NotImplementedError

    def warmup_arg(self) -> tuple:
        """The argument of the untimed warm-up operation."""
        return self.unit(0)[0]

    def work(self, arg: tuple) -> int:
        """Units of work in one operation: 1, or the selections an enumeration probes."""
        return 1


class _FamilyWorkload(Workload):
    seeds = staticmethod(period_seeds)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.optima = load_optima()
        if self.optima["periods"] != BANK_PERIODS:
            raise ValueError("optima.json does not match BANK_PERIODS")
        self.periods = [(seed + k) % BANK_PERIODS for k in range(BUILT_PERIODS)]
        self.instances = {}

    def build(self):
        self.instances = {
            s: fileio.generate(sweep_config(s))
            for p in self.periods for s in self.seeds(p, self.tiny)
        }

    def optimum(self, seed: int, rules: str) -> dict:
        return self.optima["instances"][str(seed)][rules]


class Sweep(_FamilyWorkload):
    """engine.clear under 3 objectives x 2 rule sets, each clear verified.

    A unit is three periods of 20 instances (360 clears): the slowest
    tenth of the clears comes from the few instances with the most
    binaries, so fewer periods let the instance draw, not the code, move
    the tail and the throughput; more would take the benchmark's repeated
    runs past their time budget.
    """

    name = "sweep"
    seeds = staticmethod(sweep_seeds)

    def unit(self, k):
        return [
            (s, rules, objective)
            for period in self.periods
            for s in self.seeds(period, self.tiny)
            for rules in RULESETS
            for objective in OBJECTIVES
        ]

    def run(self, arg):
        seed, rules, objective = arg
        instance = self.instances[seed]
        solution = engine.clear(instance, ClearingRequest(objective=objective, rules=rules))
        report = verify.verify_equilibrium(instance, solution, rules=rules)
        return solution, report

    def check(self, op):
        seed, rules, objective = op.arg
        solution, report = op.result
        if not report.overall_pass:
            return f"verifier failed: {report.failing_families()}"
        if solution.solver_status != "optimal":
            return f"status {solution.solver_status}"
        if solution.solver_gap > SWEEP_GAP:
            return f"gap {solution.solver_gap} above {SWEEP_GAP}"
        want = self.optimum(seed, rules)[objective]
        got = OBJECTIVE_VALUE[objective](solution)
        if not within(got, want, ORACLE_REL_TOL):
            return f"objective {got!r} misses the oracle optimum {want!r}"
        return ""


class Oracle(_FamilyWorkload):
    """enumerate_selections on the sweep family under both rule sets.

    A unit is two periods, the first under pcr and the second under umfs
    (42 enumerations, 1778 selections): the same shapes and rule sets as
    one period under both, drawn from twice as many instances.
    """

    name = "oracle"

    def unit(self, k):
        return [
            (s, rules)
            for j, rules in enumerate(RULESETS)
            for s in self.seeds(self.periods[(2 * k + j) % len(self.periods)], self.tiny)
        ]

    def run(self, arg):
        seed, rules = arg
        return oracle.enumerate_selections(self.instances[seed], rules=rules)

    def work(self, arg):
        instance = self.instances[arg[0]]
        return 2 ** (len(instance.block_bids) + len(instance.mic_bids))

    def check(self, op):
        seed, rules = op.arg
        want = self.optimum(seed, rules)
        got = op.result
        if len(got.records) != want["admissible"]:
            return f"{len(got.records)} admissible selections, recorded {want['admissible']}"
        for objective in OBJECTIVES:
            value = got.optimum(objective)
            if not within(value, want[objective], ORACLE_REL_TOL):
                return f"{objective} optimum {value!r} differs from recorded {want[objective]!r}"
        return ""


class Day(Workload):
    """One 2 x 24 day through ``damclear clear`` at a 0.2% gap.

    A unit is ``DAY_CLEARS`` clears of the day, so that a run's latency is
    a median of several clears. The warm-up clears the small day through
    the same path: it completes every lazy import and initialisation, and
    keeps another full clear out of set-up.
    """

    name = "day"
    heuristic = "off"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        bounds = load_optima()["day"]
        self.size = {"day": "tiny" if tiny else "full", "small": "tiny"}
        self.bound = {key: bounds[size]["relaxation_bound"] for key, size in self.size.items()}
        self.runs = 0

    def path(self, key: str) -> Path:
        return self.workdir / f"{key}.json"

    def build(self):
        for key, size in self.size.items():
            fileio.write_instance(fileio.generate(day_config(size == "tiny")), self.path(key))

    def unit(self, k):
        return [("day",)] * DAY_CLEARS

    def warmup_arg(self):
        return ("small",)

    def run(self, arg):
        # every clear writes its own artifacts, which are checked after the loop
        key, = arg
        self.runs += 1
        prefix = self.workdir / f"{key}{self.runs}"
        argv = [
            "clear", str(self.path(key)), "--gap", str(DAY_GAP),
            "--heuristic", self.heuristic, "--out", str(prefix),
        ]
        summary = io.StringIO()
        with contextlib.redirect_stdout(summary):
            code = cli.main(argv)
        return code, summary.getvalue(), prefix

    def check(self, op):
        code, summary, prefix = op.result
        if code != 0:
            return f"exit code {code}"
        if not summary.startswith("welfare="):
            return f"unexpected summary {summary!r}"
        instance = fileio.parse(self.path(op.arg[0]))
        solution = fileio.read_solution(f"{prefix}.solution.json", instance)
        if solution.solver_status != "optimal":
            return f"status {solution.solver_status}"
        if solution.solver_gap > DAY_GAP:
            return f"gap {solution.solver_gap} above {DAY_GAP}"
        # the recorded LP relaxation bound certifies the gap independently
        # of the solver's own bound
        bound = self.bound[op.arg[0]]
        if solution.welfare > bound + 1e-6 * (1.0 + abs(bound)):
            return f"welfare {solution.welfare!r} exceeds the relaxation bound {bound!r}"
        if bound - solution.welfare > DAY_GAP * (1.0 + abs(solution.welfare)):
            return f"welfare {solution.welfare!r} is not within {DAY_GAP} of the bound {bound!r}"
        report = verify.verify_equilibrium(instance, solution, rules="pcr")
        if not report.overall_pass:
            return f"verifier failed: {report.failing_families()}"
        with open(f"{prefix}.report.json", encoding="utf-8") as fh:
            if json.load(fh)["overall_pass"] is not True:
                return "report.json does not record a pass"
        with open(f"{prefix}.solution.prices.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != 1 + solution.prices.size:
            return f"prices.csv has {len(rows)} lines"
        prices = np.array([float(r.rsplit(",", 1)[1]) for r in rows[1:]])
        if not np.array_equal(prices, solution.prices.reshape(-1)):
            return "prices.csv disagrees with the solution file"
        return ""


class DayStaged(Day):
    """The same day through the three-stage heuristic (--heuristic staged)."""

    name = "day-staged"
    heuristic = "staged"


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Day, DayStaged)}
