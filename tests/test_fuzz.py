"""Seeded fuzz gate on instance shapes outside the generator's defaults.

Each shape is a small GeneratorConfig (the enumeration oracle stays
cheap) that bends one default: network capacities, the size of the
grid, the spread of limit prices, the size of bid powers, or the mix of
block and MIC bids. A fixed seed list runs through clear and
staged_clear under both rule sets and all three objectives; every result
must match the oracle's optimum within 1e-6 (1 + |v|) and pass the
verifier. The whole gate has a budget of 20 s; it takes about 11.5 s on
a 2-core machine.
"""

import time
from dataclasses import replace

from damclear.engine import ClearingRequest, clear, staged_clear
from damclear.fileio import GeneratorConfig, generate
from damclear.oracle import enumerate_selections
from damclear.verify import verify_equilibrium

BUDGET_S = 20.0
SEEDS = (1, 2)

_SMALL = GeneratorConfig(n_blocks=3, n_mic=1)
SHAPES = {
    "zero-atc": replace(_SMALL, atc_capacity_range=(0.0, 0.0)),
    "tiny-atc": replace(_SMALL, atc_capacity_range=(0.0, 0.01)),
    "one-period": replace(_SMALL, periods=("T1",)),
    "one-location": replace(_SMALL, locations=("L1",)),
    "price-ties": replace(
        _SMALL, buy_price_range=(50.0, 50.0), sell_price_range=(50.0, 50.0),
        block_price_range=(50.0, 50.0),
    ),
    "prices-at-cap": replace(
        _SMALL, price_cap=120.0, buy_price_range=(120.0, 120.0),
        sell_price_range=(5.0, 120.0), block_price_range=(120.0, 120.0),
    ),
    "negative-prices": replace(
        _SMALL, buy_price_range=(-50.0, 20.0), sell_price_range=(-80.0, 10.0),
        block_price_range=(-60.0, 30.0),
    ),
    "mic-zero-fixed-cost": replace(_SMALL, n_blocks=2, n_mic=2, mic_fixed_range=(0.0, 0.0)),
    "mic-heavy-no-blocks": replace(_SMALL, n_blocks=0, n_mic=4),
    "three-locations": replace(_SMALL, locations=("L1", "L2", "L3")),
    "tiny-powers": replace(
        _SMALL, hourly_power_range=(0.001, 0.01), block_power_range=(0.001, 0.01),
        mic_power_range=(0.001, 0.01),
    ),
    "large-blocks": replace(_SMALL, block_power_range=(200.0, 400.0)),
    "six-periods": replace(_SMALL, periods=tuple(f"T{h}" for h in range(1, 7))),
}

VALUE = {
    "welfare": lambda s: s.welfare,
    "volume": lambda s: s.traded_volume,
    "min_opportunity_cost": lambda s: s.total_opportunity_cost,
}


def test_fuzz_shapes_match_the_oracle_through_both_pipelines():
    t0 = time.perf_counter()
    for name, config in SHAPES.items():
        for seed in SEEDS:
            instance = generate(replace(config, seed=seed))
            for rules in ("pcr", "umfs"):
                oracle = enumerate_selections(instance, rules=rules)
                for objective, get in VALUE.items():
                    want = oracle.optima[objective].value
                    request = ClearingRequest(objective=objective, rules=rules)
                    for pipeline in (clear, staged_clear):
                        solution = pipeline(instance, request)
                        case = (name, seed, rules, objective, pipeline.__name__)
                        got = get(solution)
                        assert solution.solver_status == "optimal", case
                        assert abs(got - want) <= 1e-6 * (1.0 + abs(want)), (case, got, want)
                        rep = verify_equilibrium(instance, solution, rules=rules)
                        assert rep.overall_pass, (case, rep.failing_families())
    assert time.perf_counter() - t0 < BUDGET_S
