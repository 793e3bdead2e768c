"""Recorded-optima gate: the first three periods of the benchmark's bank.

perfbench/optima.json holds the oracle optimum of every objective under
both rule sets for the sweep family GeneratorConfig(seed=s, n_blocks=s % 7,
n_mic=s % 3). This gate clears seeds 0-62 (378 clears) through clear and
checks each against the recorded optimum within 1e-6 (1 + |v|), the
optimal status, the gap where the model has binaries, and the verifier.
It also counts the MIP solves on models with binaries: every such start is
certified by the relaxation bound or closed by the LP branch-and-bound, so
none is expected. The file is read, never written.
"""

import json
from pathlib import Path

from damclear import backend as be
from damclear.engine import ClearingRequest, clear
from damclear.fileio import GeneratorConfig, generate
from damclear.verify import verify_equilibrium

OPTIMA = Path(__file__).resolve().parents[1] / "perfbench" / "optima.json"
SEEDS = range(63)
VALUE = {
    "welfare": lambda s: s.welfare,
    "volume": lambda s: s.traded_volume,
    "min_opportunity_cost": lambda s: s.total_opportunity_cost,
}


def test_clear_matches_the_recorded_optima_without_a_mip(monkeypatch):
    recorded = json.loads(OPTIMA.read_text(encoding="utf-8"))["instances"]
    mips_with_binaries = []
    real = be.ScipyHighsBackend.solve_mip

    def counted(self, model, options=be.SolveOptions()):
        if model.n_binary:
            mips_with_binaries.append(model.n_binary)
        return real(self, model, options)

    monkeypatch.setattr(be.ScipyHighsBackend, "solve_mip", counted)
    target = ClearingRequest().solve_options.relative_gap_target
    for seed in SEEDS:
        instance = generate(GeneratorConfig(seed=seed, n_blocks=seed % 7, n_mic=seed % 3))
        has_binaries = bool(instance.block_bids or instance.mic_bids)
        for rules in ("pcr", "umfs"):
            for objective, get in VALUE.items():
                want = recorded[str(seed)][rules][objective]
                solution = clear(instance, ClearingRequest(objective=objective, rules=rules))
                case = (seed, rules, objective)
                got = get(solution)
                assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (case, got, want)
                assert solution.solver_status == "optimal", case
                if has_binaries:
                    assert solution.solver_gap <= target, (case, solution.solver_gap)
                rep = verify_equilibrium(instance, solution, rules=rules)
                assert rep.overall_pass, (case, rep.failing_families())
    assert mips_with_binaries == []
