import numpy as np
import pytest

from damclear.model import (
    BlockBid,
    ClearingSolution,
    HourlyBid,
    Instance,
    InstanceIndex,
    InvalidInstanceError,
    MicBid,
    MicSuborder,
    Network,
    block_surplus_terms,
    single_node_network,
    total_block_opportunity_cost,
    traded_volume,
    validate_instance,
    welfare,
)

from conftest import make_mic, make_toy, solution_for


def test_block_total_power():
    b = BlockBid("J", "L1", {"T1": -5.0, "T2": -7.0}, 12.0)
    assert b.total_power() == -12.0


def test_validate_toy_passes():
    validate_instance(make_toy())


def test_validate_duplicate_hourly_id():
    inst = Instance(
        hourly_bids=(
            HourlyBid("A", "L1", "T1", 1.0, 10.0),
            HourlyBid("A", "L1", "T1", 2.0, 20.0),
        ),
        block_bids=(), mic_bids=(),
        network=single_node_network(), price_cap=100.0,
    )
    with pytest.raises(InvalidInstanceError, match="duplicate hourly"):
        validate_instance(inst)


def test_validate_unknown_location():
    inst = Instance(
        hourly_bids=(HourlyBid("A", "NOPE", "T1", 1.0, 10.0),),
        block_bids=(), mic_bids=(),
        network=single_node_network(), price_cap=100.0,
    )
    with pytest.raises(InvalidInstanceError, match="'A'.*location"):
        validate_instance(inst)


def test_validate_mixed_sign_block():
    inst = Instance(
        hourly_bids=(),
        block_bids=(BlockBid("J", "L1", {"T1": -5.0, "T2": 5.0}, 1.0),),
        mic_bids=(),
        network=single_node_network("L1", ("T1", "T2")), price_cap=100.0,
    )
    with pytest.raises(InvalidInstanceError, match="'J'.*mixed-sign"):
        validate_instance(inst)


def test_validate_all_zero_block():
    inst = Instance(
        hourly_bids=(),
        block_bids=(BlockBid("J", "L1", {"T1": 0.0}, 1.0),),
        mic_bids=(),
        network=single_node_network(), price_cap=100.0,
    )
    with pytest.raises(InvalidInstanceError, match="all-zero"):
        validate_instance(inst)


def test_validate_buy_suborder():
    inst = Instance(
        hourly_bids=(), block_bids=(),
        mic_bids=(MicBid("G", 1.0, 1.0, (MicSuborder("L1", "T1", 5.0, 10.0),)),),
        network=single_node_network(), price_cap=100.0,
    )
    with pytest.raises(InvalidInstanceError, match="'G'.*negative"):
        validate_instance(inst)


def test_validate_negative_fixed_cost():
    inst = Instance(
        hourly_bids=(), block_bids=(),
        mic_bids=(MicBid("G", -1.0, 1.0, (MicSuborder("L1", "T1", -5.0, 10.0),)),),
        network=single_node_network(), price_cap=100.0,
    )
    with pytest.raises(InvalidInstanceError, match="fixed_cost"):
        validate_instance(inst)


def test_validate_price_outside_cap():
    inst = Instance(
        hourly_bids=(HourlyBid("A", "L1", "T1", 1.0, 101.0),),
        block_bids=(), mic_bids=(),
        network=single_node_network(), price_cap=100.0,
    )
    with pytest.raises(InvalidInstanceError, match="outside"):
        validate_instance(inst)


def test_validate_network_shape_mismatch():
    net = Network(
        locations=("L1",), periods=("T1",), basis_size=2,
        injection_coeffs=np.zeros((1, 1, 1)),
        constraint_rows=np.zeros((0, 2)), capacities=np.zeros(0),
    )
    inst = Instance((), (), (), net, 100.0)
    with pytest.raises(InvalidInstanceError, match="injection_coeffs"):
        validate_instance(inst)


def test_network_equality_and_immutability():
    n1 = single_node_network("L1", ("T1",))
    n2 = single_node_network("L1", ("T1",))
    assert n1 == n2
    with pytest.raises(ValueError):
        n1.capacities[...] = 1.0


def test_index_layout():
    toy = make_toy()
    idx = InstanceIndex(toy)
    assert idx.L == 1 and idx.T == 1 and idx.LT == 1
    assert idx.n_hourly == 2 and idx.n_block == 2 and idx.n_mic == 0
    assert list(idx.hourly_lt) == [0, 0]
    assert idx.block_powers.shape == (2, 1)
    assert list(idx.block_total) == [-10.0, -20.0]


def test_index_mic_slices():
    inst = make_mic(1000.0)
    idx = InstanceIndex(inst)
    assert idx.n_mic == 1 and idx.n_sub == 1
    assert idx.mic_slices[0] == slice(0, 1)
    assert idx.sub_owner[0] == 0


def test_welfare_and_volume_on_toy_dispatch():
    toy = make_toy()
    # selection {C}: A takes the 10 MW block C sells, at 10/11 of its bid
    sol = solution_for(toy, [10.0 / 11.0, 0.0], [], [1.0, 0.0], [], [[50.0]])
    assert welfare(toy, sol) == pytest.approx(450.0, abs=1e-12)
    assert traded_volume(toy, sol) == pytest.approx(10.0, abs=1e-12)


def test_block_surplus_terms_rejected_opportunity_cost():
    toy = make_toy()
    sol = solution_for(toy, [10.0 / 11.0, 0.0], [], [1.0, 0.0], [], [[50.0]])
    terms = block_surplus_terms(toy, sol, "D")
    # sigma_D = -20 * (10 - 50) = 800, rejected: all of it is missed
    assert terms.surplus_if_accepted == pytest.approx(800.0)
    assert terms.opportunity_cost == pytest.approx(800.0)
    assert terms.loss == 0.0
    terms_c = block_surplus_terms(toy, sol, "C")
    assert terms_c.surplus_if_accepted == pytest.approx(450.0)
    assert terms_c.opportunity_cost == 0.0
    assert terms_c.loss == 0.0


def test_block_surplus_terms_accepted_loss():
    toy = make_toy()
    # force D accepted at price 5: sigma_D = -20*(10-5) = -100, a loss
    sol = solution_for(toy, [0.0, 0.0], [], [0.0, 1.0], [], [[5.0]])
    terms = block_surplus_terms(toy, sol, "D")
    assert terms.surplus_if_accepted == pytest.approx(-100.0)
    assert terms.opportunity_cost == 0.0
    assert terms.loss == pytest.approx(100.0)


def test_block_surplus_terms_unknown_id():
    toy = make_toy()
    sol = solution_for(toy, [0.0, 0.0], [], [0.0, 0.0], [], [[0.0]])
    with pytest.raises(KeyError):
        block_surplus_terms(toy, sol, "NOPE")


def test_total_block_opportunity_cost():
    toy = make_toy()
    # all rejected at price 50: sigma_C = 450, sigma_D = 800
    assert total_block_opportunity_cost(toy, np.array([[50.0]]), np.zeros(2)) == pytest.approx(1250.0)
    assert total_block_opportunity_cost(toy, np.array([[50.0]]), np.array([1.0, 0.0])) == pytest.approx(800.0)
    # at price 2 both sell blocks would lose; negative surpluses never count
    assert total_block_opportunity_cost(toy, np.array([[2.0]]), np.zeros(2)) == 0.0


def test_mic_income_and_sold_volume():
    inst = make_mic(1000.0, 20.0)
    idx = InstanceIndex(inst)
    income = idx.mic_income(np.array([1.0]), np.array([[100.0]]))
    sold = idx.mic_sold_volume(np.array([1.0]))
    assert income[0] == pytest.approx(10000.0)
    assert sold[0] == pytest.approx(100.0)


def test_instance_defaults_currency():
    assert make_toy().currency == "EUR"


def test_seeded_random_instances_validate():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        bids = tuple(
            HourlyBid(
                f"H{k}", "L1", "T1",
                float(rng.uniform(-50, 50)) or 1.0,
                float(rng.uniform(-100, 100)),
            )
            for k in range(n)
        )
        inst = Instance(bids, (), (), single_node_network(), 100.0)
        validate_instance(inst)
        idx = InstanceIndex(inst)
        assert idx.n_hourly == n
        x = rng.uniform(0, 1, n)
        sol = solution_for(inst, x, [], [], [], [[0.0]])
        # welfare at zero prices equals limit-weighted dispatch
        assert welfare(inst, sol) == pytest.approx(
            float(np.sum([b.power * b.limit_price * x[k] for k, b in enumerate(bids)]))
        )
