"""Record the oracle optima and day relaxation bounds the benchmark checks against.

Run from the repository root: ``python3 perfbench/record_optima.py``.
It rewrites ``perfbench/optima.json``. For every instance of the first
``BANK_PERIODS`` periods of the sweep family and each rule set it stores
the enumerated number of admissible selections and the optimum of each
objective, after cross-checking every optimum against a verified MILP
clear; any disagreement aborts without writing. For the day workloads it
stores the LP relaxation bound of the welfare/pcr model, which certifies
the 0.2% gap of a day clear independently of the solver's own bound.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from damclear import backend, engine, fileio, oracle, verify  # noqa: E402
from damclear.engine import ClearingRequest  # noqa: E402

from workloads import (  # noqa: E402
    BANK_PERIODS, OBJECTIVE_VALUE, OBJECTIVES, OPTIMA_PATH, ORACLE_REL_TOL, RULESETS,
    day_config, period_seeds, sweep_config, within,
)


def instance_optima(seed: int) -> dict:
    instance = fileio.generate(sweep_config(seed))
    out = {}
    for rules in RULESETS:
        result = oracle.enumerate_selections(instance, rules=rules)
        entry = {"admissible": len(result.records)}
        for objective in OBJECTIVES:
            want = result.optimum(objective)
            solution = engine.clear(instance, ClearingRequest(objective=objective, rules=rules))
            got = OBJECTIVE_VALUE[objective](solution)
            if not within(got, want, ORACLE_REL_TOL):
                raise SystemExit(f"seed {seed} {rules} {objective}: MILP {got!r} vs oracle {want!r}")
            if not verify.verify_equilibrium(instance, solution, rules=rules).overall_pass:
                raise SystemExit(f"seed {seed} {rules} {objective}: verifier failed")
            entry[objective] = want
        out[rules] = entry
    return out


def relaxation_bound(tiny: bool) -> float:
    instance = fileio.generate(day_config(tiny))
    model = engine.build_request_model(instance, ClearingRequest(objective="welfare", rules="pcr"))
    model.integrality = np.zeros_like(model.integrality)
    outcome = backend.solve_lp(model)
    if outcome.status != "optimal":
        raise SystemExit(f"day relaxation: {outcome.status}")
    return outcome.objective


def main() -> int:
    t0 = time.perf_counter()
    instances = {}
    for period in range(BANK_PERIODS):
        for seed in period_seeds(period):
            instances[str(seed)] = instance_optima(seed)
        print(f"period {period} done at {time.perf_counter() - t0:.0f}s", flush=True)
    doc = {
        "family": "GeneratorConfig(seed=s, n_blocks=s % 7, n_mic=s % 3)",
        "periods": BANK_PERIODS,
        "instances": instances,
        "day": {
            "full": {"relaxation_bound": relaxation_bound(tiny=False)},
            "tiny": {"relaxation_bound": relaxation_bound(tiny=True)},
        },
    }
    with open(OPTIMA_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
