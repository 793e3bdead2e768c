import os

import numpy as np
import pytest

from damclear.fileio import GeneratorConfig, generate
from damclear.model import (
    BlockBid,
    ClearingSolution,
    HourlyBid,
    Instance,
    InstanceIndex,
    MicBid,
    MicSuborder,
    single_node_network,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def solution_for(instance, x, x_mic, y, u, prices, **kw):
    """ClearingSolution with zero-filled slots for anything not supplied."""
    idx = InstanceIndex(instance)
    defaults = dict(
        net_positions=np.zeros(idx.n_basis),
        v=np.zeros(idx.n_net_rows),
        s_hourly=np.zeros(idx.n_hourly),
        s_block=np.zeros(idx.n_block),
        s_mic=np.zeros(idx.n_mic),
        s_mic_sub=np.zeros(idx.n_sub),
        d_accept=np.zeros(idx.n_block),
        d_reject=np.zeros(idx.n_block),
        du_reject=np.zeros(idx.n_mic),
        welfare=0.0,
        traded_volume=0.0,
        total_opportunity_cost=0.0,
    )
    defaults.update(kw)
    return ClearingSolution(
        x=np.asarray(x, dtype=float),
        x_mic=np.asarray(x_mic, dtype=float),
        y=np.asarray(y, dtype=float),
        u=np.asarray(u, dtype=float),
        prices=np.asarray(prices, dtype=float),
        **defaults,
    )


def make_toy() -> Instance:
    """Two hourly buys against two sell blocks, one location, one period."""
    return Instance(
        hourly_bids=(
            HourlyBid("A", "L1", "T1", 11.0, 50.0),
            HourlyBid("B", "L1", "T1", 14.0, 10.0),
        ),
        block_bids=(
            BlockBid("C", "L1", {"T1": -10.0}, 5.0),
            BlockBid("D", "L1", {"T1": -20.0}, 10.0),
        ),
        mic_bids=(),
        network=single_node_network("L1", ("T1",)),
        price_cap=500.0,
    )


def make_crossing_pair() -> Instance:
    """One buy, one sell, fully matched; price anywhere in [20, 30]."""
    return Instance(
        hourly_bids=(
            HourlyBid("BUY", "L1", "T1", 10.0, 30.0),
            HourlyBid("SELL", "L1", "T1", -10.0, 20.0),
        ),
        block_bids=(),
        mic_bids=(),
        network=single_node_network("L1", ("T1",)),
        price_cap=500.0,
    )


def make_mic(fixed_cost: float, variable_cost: float = 20.0) -> Instance:
    """One 100 MW buyer at 100 against a single-suborder MIC seller.

    At the only supportable equilibrium price range the seller's income
    tops out at 10000, so acceptance flips on fixed_cost + 100*variable.
    """
    return Instance(
        hourly_bids=(HourlyBid("BUY", "L1", "T1", 100.0, 100.0),),
        block_bids=(),
        mic_bids=(
            MicBid(
                "G",
                fixed_cost,
                variable_cost,
                (MicSuborder("L1", "T1", -100.0, 30.0),),
            ),
        ),
        network=single_node_network("L1", ("T1",)),
        price_cap=500.0,
    )


def make_pab_chain() -> Instance:
    """A buy block carried by two sell blocks, one of which always loses.

    Accepting all three gives welfare 280, but block B2's limit (95) sits
    above the buyer's (90), so no uniform price supports it without a
    compensation: the selection is admissible under paradoxical
    acceptance and inadmissible without it, where only the all-rejected
    selection remains and welfare is 0.
    """
    return Instance(
        hourly_bids=(),
        block_bids=(
            BlockBid("B0", "L1", {"T1": 10.0}, 90.0),
            BlockBid("B1", "L1", {"T1": -6.0}, 40.0),
            BlockBid("B2", "L1", {"T1": -4.0}, 95.0),
        ),
        mic_bids=(),
        network=single_node_network("L1", ("T1",)),
        price_cap=500.0,
    )


def make_day(seed: int) -> Instance:
    """The benchmark's 2 x 24 day (2544 hourly bids, 20 blocks, 8 MIC bids)
    at another generator seed."""
    return generate(GeneratorConfig(
        seed=seed, locations=("N1", "N2"), periods=tuple(f"T{h}" for h in range(1, 25)),
        demand_steps=27, supply_steps=26, n_blocks=20, n_mic=8, max_mic_suborders=24,
    ))


def make_pab_point(compensation: float):
    """All-accepted point for the chain at pi = 57.5.

    Block gains there are (325, 105, -150); canonical witnesses put the
    losses on d_accept, so compensation=150 is the valid assignment and
    compensation=0 is a point that books the loss nowhere.
    """
    inst = make_pab_chain()
    sol = solution_for(
        inst, x=[], x_mic=[], y=[1.0, 1.0, 1.0], u=[], prices=[[57.5]],
        s_block=[325.0, 105.0, 0.0],
        d_accept=[0.0, 0.0, float(compensation)],
    )
    return inst, sol


def perturbation_cases():
    """Tampered equilibria with the exact family sets each must trip.

    Every case starts from a point that satisfies all conditions and edits
    one aspect; the expected sets were derived by hand from the condition
    definitions, so the verifier must reproduce them exactly: no extra
    families, no missing ones.
    """
    import dataclasses

    from damclear.engine import ClearingRequest, clear

    toy = make_toy()
    s1 = clear(toy, ClearingRequest(objective="welfare", rules="pcr"))
    s2 = clear(toy, ClearingRequest(objective="volume", rules="pcr"))

    def edit(sol, **kw):
        return dataclasses.replace(sol, **kw)

    def arr(a, i, value):
        b = np.array(a, dtype=float)
        b[i] = value
        return b

    cases = []

    def add(name, instance, solution, rules, expected):
        cases.append((name, instance, solution, rules, frozenset(expected)))

    add("control-welfare-pcr", toy, s1, "pcr", ())
    add("control-volume-pcr", toy, s2, "pcr", ())
    pab, good = make_pab_point(150.0)
    add("control-umfs-paradox", pab, good, "umfs", ())

    add("price-shift-up", toy, edit(s1, prices=s1.prices + 7.0), "pcr",
        {"complementarity", "dual"})
    add("price-shift-down", toy, edit(s1, prices=s1.prices - 5.0), "pcr",
        {"complementarity", "dual"})
    add("hourly-surplus-pad", toy, edit(s1, s_hourly=arr(s1.s_hourly, 0, 10.0)),
        "pcr", {"complementarity", "objective-equality"})
    add("block-surplus-pad", toy, edit(s1, s_block=arr(s1.s_block, 0, 475.0)),
        "pcr", {"complementarity", "objective-equality"})
    add("reject-underfund", toy, edit(s1, d_reject=arr(s1.d_reject, 1, 700.0)),
        "pcr", {"dual"})
    add("price-cap-breach", toy,
        solution_for(toy, x=[0.0, 0.0], x_mic=[], y=[0.0, 0.0], u=[],
                     prices=[[600.0]], d_reject=[5950.0, 11800.0]),
        "pcr", {"price-range"})
    add("overbuy", toy, edit(s1, x=arr(s1.x, 1, 1.0)), "pcr",
        {"primal", "complementarity", "objective-equality"})
    add("x-above-one", toy, edit(s1, x=arr(s1.x, 0, 1.2)), "pcr",
        {"primal", "objective-equality"})
    add("fractional-y", toy, edit(s1, y=arr(s1.y, 0, 0.5)), "pcr",
        {"primal", "complementarity", "objective-equality"})

    _, bare = make_pab_point(0.0)
    add("paradox-uncompensated-pcr", pab, bare, "pcr",
        {"complementarity", "objective-equality", "pcr-no-loss"})
    add("paradox-compensated-pcr", pab, good, "pcr", {"pcr-no-loss"})

    short = make_mic(1200.0)
    add("mic-income-shortfall", short,
        solution_for(short, x=[1.0], x_mic=[1.0], y=[], u=[1.0],
                     prices=[[30.0]], s_hourly=[7000.0]),
        "pcr", {"mic-income"})
    exact = make_mic(1000.0)
    add("mic-identity-drift", exact,
        solution_for(exact, x=[1.0], x_mic=[1.0], y=[], u=[1.0],
                     prices=[[30.0]], s_hourly=[7000.0], s_mic=[50.0]),
        "pcr", {"complementarity", "mic-income", "objective-equality"})
    deep = make_mic(11000.0)
    add("mic-du-underfund", deep,
        solution_for(deep, x=[0.0], x_mic=[0.0], y=[], u=[0.0],
                     prices=[[100.0]], s_mic_sub=[7000.0], du_reject=[6000.0]),
        "pcr", {"dual"})
    add("du-on-accepted", exact,
        solution_for(exact, x=[1.0], x_mic=[1.0], y=[], u=[1.0],
                     prices=[[30.0]], s_hourly=[7000.0], du_reject=[5.0]),
        "pcr", {"complementarity"})

    cp = make_crossing_pair()
    s5 = clear(cp, ClearingRequest(objective="welfare", rules="pcr"))
    add("hourly-witness-cut", cp,
        edit(s5, s_hourly=arr(s5.s_hourly, 1, float(s5.s_hourly[1]) - 5.0)),
        "pcr", {"complementarity", "dual", "objective-equality"})
    add("flip-reject", toy, edit(s2, y=arr(s2.y, 1, 0.0)), "pcr",
        {"primal", "objective-equality"})
    return cases


@pytest.fixture
def toy() -> Instance:
    return make_toy()


@pytest.fixture
def crossing_pair() -> Instance:
    return make_crossing_pair()


@pytest.fixture
def mic_maker():
    return make_mic


@pytest.fixture
def pab_chain() -> Instance:
    return make_pab_chain()


@pytest.fixture
def toy_path() -> str:
    return os.path.join(DATA_DIR, "toy.json")
