"""Command line front end.

Exit codes: 0 verified success, 1 usage or IO error, 2 verification
failure, 3 solver stopped short of optimality within its budget (the
solution and report are still written, with the gap) or, for oracle, a
face LP that HiGHS did not solve (nothing is written). Every clear run
verifies the solution before exiting and always prints a one-line
summary with the objective value, the gap and the wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import fileio
from .backend import SolveOptions
from .engine import ClearingError, ClearingRequest, clear
from .oracle import OracleGuardError, enumerate_selections

# verify_mic_income is not called here (verify_equilibrium computes the
# mic-income family), but the benchmark tracer in perfbench/tracing.py
# patches cli.verify_mic_income by name, so the attribute must exist
from .verify import verify_equilibrium, verify_mic_income  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_SOLVER = 3

_OBJ_FROM_FLAG = {
    "welfare": "welfare",
    "volume": "volume",
    "min-oc": "min_opportunity_cost",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _request(args) -> ClearingRequest:
    return ClearingRequest(
        objective=_OBJ_FROM_FLAG[args.objective],
        rules=args.rules,
        solve_options=SolveOptions(
            time_limit=args.time_limit,
            relative_gap_target=args.gap,
        ),
    )


def _objective_value(solution, objective):
    return {
        "welfare": solution.welfare,
        "volume": solution.traded_volume,
        "min_opportunity_cost": solution.total_opportunity_cost,
    }[objective]


def _cmd_generate(args) -> int:
    t0 = time.perf_counter()
    config = fileio.GeneratorConfig(
        seed=args.seed if args.seed is not None else 0,
        locations=tuple(args.locations.split(",")),
        periods=tuple(args.periods.split(",")),
        demand_steps=args.demand_steps,
        supply_steps=args.supply_steps,
        n_blocks=args.blocks,
        n_mic=args.mic,
        price_cap=args.price_cap,
    )
    instance = fileio.generate(config)
    fileio.write_instance(instance, args.out)
    wall = time.perf_counter() - t0
    print(
        f"generated hourly={len(instance.hourly_bids)} "
        f"blocks={len(instance.block_bids)} mic={len(instance.mic_bids)} "
        f"out={args.out} wall={wall:.3f}s"
    )
    return EXIT_OK


def _artifact_prefix(args) -> str:
    if args.out:
        return args.out
    return os.path.splitext(args.instance)[0]


def _cmd_clear(args) -> int:
    instance = fileio.parse(args.instance)
    request = _request(args)
    t0 = time.perf_counter()
    try:
        solution = clear(instance, request)
    except ClearingError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    wall = time.perf_counter() - t0
    report = verify_equilibrium(instance, solution, rules=request.rules)
    prefix = _artifact_prefix(args)
    fileio.write_solution(instance, solution, prefix + ".solution.json")
    fileio.write_report(report, prefix + ".report.json")
    value = _objective_value(solution, request.objective)
    print(f"{args.objective}={value:g} gap={solution.solver_gap:g} wall={wall:.3f}s")
    if solution.solver_status != "optimal":
        return EXIT_SOLVER
    if not report.overall_pass:
        print(f"verification failed: {', '.join(report.failing_families())}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = fileio.parse(args.instance)
    solution = fileio.read_solution(args.solution, instance)
    t0 = time.perf_counter()
    report = verify_equilibrium(instance, solution, rules=args.rules)
    wall = time.perf_counter() - t0
    if args.out:
        fileio.write_report(report, args.out)
    status = "PASS" if report.overall_pass else "FAIL"
    print(f"verify={status} welfare={report.welfare:g} gap={solution.solver_gap:g} wall={wall:.3f}s")
    if not report.overall_pass:
        print(f"failing families: {', '.join(report.failing_families())}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_oracle(args) -> int:
    instance = fileio.parse(args.instance)
    t0 = time.perf_counter()
    try:
        result = enumerate_selections(instance, rules=args.rules)
    except OracleGuardError as exc:
        print(f"instance too large for enumeration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # the oracle's solver failures, e.g. an undecided face LP
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    wall = time.perf_counter() - t0
    objective = _OBJ_FROM_FLAG[args.objective]
    value = result.optimum(objective)
    if args.out:
        doc = {
            "rules": args.rules,
            "n_selections": result.n_selections,
            "records": [
                {
                    "accepted_blocks": list(r.accepted_blocks),
                    "accepted_mic": list(r.accepted_mic),
                    "welfare": r.welfare,
                    "max_volume": r.max_volume,
                    "min_opportunity_cost": r.min_opportunity_cost,
                }
                for r in result.records
            ],
            "optima": {
                name: {
                    "value": opt.value,
                    "accepted_blocks": list(opt.accepted_blocks),
                    "accepted_mic": list(opt.accepted_mic),
                }
                for name, opt in result.optima.items()
            },
            "verdicts": {
                "certified_infeasible": result.certified_infeasible,
                "resolved_cold": result.resolved_cold,
            },
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    print(f"{args.objective}={value:g} selections={len(result.records)} wall={wall:.3f}s")
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance = fileio.parse(args.instance)
    t0 = time.perf_counter()
    rows = []
    worst = EXIT_OK
    summary = []
    for flag in ("welfare", "volume", "min-oc"):
        args.objective = flag
        request = _request(args)
        try:
            solution = clear(instance, request)
        except ClearingError as exc:
            print(f"solver failed on {flag}: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        report = verify_equilibrium(instance, solution, rules=request.rules)
        if solution.solver_status != "optimal":
            worst = max(worst, EXIT_SOLVER)
        elif not report.overall_pass:
            worst = max(worst, EXIT_VERIFY)
        rows.append(
            (flag, solution.welfare, solution.traded_volume,
             solution.total_opportunity_cost, "yes" if report.overall_pass else "NO")
        )
        summary.append(f"{flag}={_objective_value(solution, request.objective):g}")
    wall = time.perf_counter() - t0
    header = f"{'objective':<10} {'welfare':>14} {'volume':>12} {'opp_cost':>14} verified"
    print(header)
    for flag, w, vol, oc, ok in rows:
        print(f"{flag:<10} {w:>14.4f} {vol:>12.4f} {oc:>14.4f} {ok}")
    if args.out:
        doc = {
            flag: {"welfare": w, "volume": vol, "opportunity_cost": oc, "verified": ok == "yes"}
            for flag, w, vol, oc, ok in rows
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    print(" ".join(summary) + f" wall={wall:.3f}s")
    return worst


def _build_parser() -> _Parser:
    parser = _Parser(prog="damclear", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def solver_flags(p):
        p.add_argument("--objective", choices=tuple(_OBJ_FROM_FLAG), default="welfare")
        p.add_argument("--rules", choices=("pcr", "umfs"), default="pcr")
        p.add_argument(
            "--heuristic", choices=("off", "staged"), default="off",
            help="accepted for compatibility; both values run the same clear",
        )
        p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
        p.add_argument("--gap", type=float, default=SolveOptions.relative_gap_target, metavar="FRACTION")
        p.add_argument("--out", default=None, metavar="PREFIX")

    g = sub.add_parser("generate", help="write a seeded synthetic instance")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--locations", default="L1,L2")
    g.add_argument("--periods", default="T1,T2")
    g.add_argument("--demand-steps", type=int, default=3)
    g.add_argument("--supply-steps", type=int, default=2)
    g.add_argument("--blocks", type=int, default=3)
    g.add_argument("--mic", type=int, default=1)
    g.add_argument("--price-cap", type=float, default=500.0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("clear", help="solve one instance and verify the result")
    c.add_argument("instance")
    solver_flags(c)
    c.set_defaults(func=_cmd_clear)

    v = sub.add_parser("verify", help="re-verify a written solution")
    v.add_argument("instance")
    v.add_argument("solution")
    v.add_argument("--rules", choices=("pcr", "umfs"), default="pcr")
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    o = sub.add_parser("oracle", help="enumerate selections on a small instance")
    o.add_argument("instance")
    o.add_argument("--objective", choices=tuple(_OBJ_FROM_FLAG), default="welfare")
    o.add_argument("--rules", choices=("pcr", "umfs"), default="pcr")
    o.add_argument("--out", default=None)
    o.set_defaults(func=_cmd_oracle)

    m = sub.add_parser("compare", help="objective trade-off triple on one instance")
    m.add_argument("instance")
    solver_flags(m)
    m.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (fileio.FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
