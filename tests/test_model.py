import numpy as np
import pytest

from damclear import cli, engine, fileio, milp, model, oracle
from damclear.model import (
    AtcLine,
    BlockBid,
    HourlyBid,
    Instance,
    InstanceIndex,
    InvalidInstanceError,
    MicBid,
    MicSuborder,
    Network,
    single_node_network,
    validate_instance,
)
from damclear.verify import opportunity_cost_summary

from conftest import DATA_DIR, make_mic, make_toy, solution_for


def test_block_total_power():
    b = BlockBid("J", "L1", {"T1": -5.0, "T2": -7.0}, 12.0)
    assert b.total_power() == -12.0


def test_validate_toy_passes():
    validate_instance(make_toy())


def test_validate_duplicate_hourly_id():
    with pytest.raises(InvalidInstanceError, match="duplicate hourly"):
        Instance(
            hourly_bids=(
                HourlyBid("A", "L1", "T1", 1.0, 10.0),
                HourlyBid("A", "L1", "T1", 2.0, 20.0),
            ),
            block_bids=(), mic_bids=(),
            network=single_node_network(), price_cap=100.0,
        )


def test_validate_unknown_location():
    with pytest.raises(InvalidInstanceError, match="'A'.*location"):
        Instance(
            hourly_bids=(HourlyBid("A", "NOPE", "T1", 1.0, 10.0),),
            block_bids=(), mic_bids=(),
            network=single_node_network(), price_cap=100.0,
        )


def test_validate_mixed_sign_block():
    with pytest.raises(InvalidInstanceError, match="'J'.*mixed-sign"):
        Instance(
            hourly_bids=(),
            block_bids=(BlockBid("J", "L1", {"T1": -5.0, "T2": 5.0}, 1.0),),
            mic_bids=(),
            network=single_node_network("L1", ("T1", "T2")), price_cap=100.0,
        )


def test_validate_all_zero_block():
    with pytest.raises(InvalidInstanceError, match="all-zero"):
        Instance(
            hourly_bids=(),
            block_bids=(BlockBid("J", "L1", {"T1": 0.0}, 1.0),),
            mic_bids=(),
            network=single_node_network(), price_cap=100.0,
        )


def test_validate_buy_suborder():
    with pytest.raises(InvalidInstanceError, match="'G'.*negative"):
        Instance(
            hourly_bids=(), block_bids=(),
            mic_bids=(MicBid("G", 1.0, 1.0, (MicSuborder("L1", "T1", 5.0, 10.0),)),),
            network=single_node_network(), price_cap=100.0,
        )


def test_validate_negative_fixed_cost():
    with pytest.raises(InvalidInstanceError, match="fixed_cost"):
        Instance(
            hourly_bids=(), block_bids=(),
            mic_bids=(MicBid("G", -1.0, 1.0, (MicSuborder("L1", "T1", -5.0, 10.0),)),),
            network=single_node_network(), price_cap=100.0,
        )


def test_validate_price_outside_cap():
    with pytest.raises(InvalidInstanceError, match="outside"):
        Instance(
            hourly_bids=(HourlyBid("A", "L1", "T1", 1.0, 101.0),),
            block_bids=(), mic_bids=(),
            network=single_node_network(), price_cap=100.0,
        )


def test_validate_network_shape_mismatch():
    net = Network(
        locations=("L1",), periods=("T1",), basis_size=2,
        injection_coeffs=np.zeros((1, 1, 1)),
        constraint_rows=np.zeros((0, 2)), capacities=np.zeros(0),
    )
    with pytest.raises(InvalidInstanceError, match="injection_coeffs"):
        Instance((), (), (), net, 100.0)


def test_network_equality_and_immutability():
    n1 = single_node_network("L1", ("T1",))
    n2 = single_node_network("L1", ("T1",))
    assert n1 == n2
    with pytest.raises(ValueError):
        n1.capacities[...] = 1.0


def test_bid_mappings_are_read_only():
    # a validated instance must stay valid: nothing inside it can be reassigned
    block = make_toy().block_bids[0]
    with pytest.raises(TypeError):
        block.powers["T1"] = 5.0
    line = AtcLine("A", "B", {"T1": 10.0})
    with pytest.raises(TypeError):
        line.capacities["T1"] = -1.0
    # the mapping given is copied, and read-only copies compare like dicts
    powers = {"T1": -5.0}
    bid = BlockBid("J", "L1", powers, 1.0)
    powers["T1"] = 5.0
    assert bid.powers == {"T1": -5.0} == BlockBid("J", "L1", {"T1": -5.0}, 1.0).powers


@pytest.fixture
def validations(monkeypatch):
    """Instances passed to validate_instance, counted at every module that
    binds the name, so a check made anywhere in the package is seen."""
    calls = []
    real = model.validate_instance

    def spy(instance):
        calls.append(instance)
        real(instance)

    for mod in (model, fileio, milp, oracle, engine, cli):
        if hasattr(mod, "validate_instance"):
            monkeypatch.setattr(mod, "validate_instance", spy)
    return calls


def test_the_cli_validates_an_instance_once(validations, tmp_path, capsys):
    toy = f"{DATA_DIR}/toy.json"
    assert cli.main(["clear", toy, "--out", str(tmp_path / "toy")]) == 0
    assert len(validations) == 1
    assert cli.main(["oracle", toy, "--out", str(tmp_path / "oracle.json")]) == 0
    assert len(validations) == 2


def test_a_built_instance_is_not_validated_again(validations):
    toy = make_toy()
    assert len(validations) == 1
    engine.clear(toy)
    milp.build_model(toy, "pcr")
    oracle.enumerate_selections(toy)
    assert len(validations) == 1


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
    idx = InstanceIndex(toy)
    assert idx.welfare_value(sol.x, sol.x_mic, sol.y) == pytest.approx(450.0, abs=1e-12)
    assert idx.buy_volume(sol.x, sol.x_mic, sol.y) == pytest.approx(10.0, abs=1e-12)


def test_block_surplus_terms_rejected_opportunity_cost():
    toy = make_toy()
    sol = solution_for(toy, [10.0 / 11.0, 0.0], [], [1.0, 0.0], [], [[50.0]])
    # sigma_D = -20 * (10 - 50) = 800, rejected: all of it is missed;
    # sigma_C = 450, accepted: no opportunity cost and no loss
    assert list(InstanceIndex(toy).block_surplus(sol.prices)) == pytest.approx([450.0, 800.0])
    summary = opportunity_cost_summary(toy, sol)
    assert summary["per_block_opportunity_cost"] == pytest.approx({"C": 0.0, "D": 800.0})
    assert summary["per_block_loss"] == {"C": 0.0, "D": 0.0}


def test_block_surplus_terms_accepted_loss():
    toy = make_toy()
    # force D accepted at price 5: sigma_D = -20*(10-5) = -100, a loss
    sol = solution_for(toy, [0.0, 0.0], [], [0.0, 1.0], [], [[5.0]])
    assert InstanceIndex(toy).block_surplus(sol.prices)[1] == pytest.approx(-100.0)
    summary = opportunity_cost_summary(toy, sol)
    assert summary["per_block_opportunity_cost"]["D"] == 0.0
    assert summary["per_block_loss"]["D"] == pytest.approx(100.0)


def test_total_block_opportunity_cost():
    toy = make_toy()

    def total(price, y):
        sol = solution_for(toy, [0.0, 0.0], [], y, [], [[price]])
        return opportunity_cost_summary(toy, sol)["total_opportunity_cost"]

    # all rejected at price 50: sigma_C = 450, sigma_D = 800
    assert total(50.0, [0.0, 0.0]) == pytest.approx(1250.0)
    assert total(50.0, [1.0, 0.0]) == pytest.approx(800.0)
    # at price 2 both sell blocks would lose; negative surpluses never count
    assert total(2.0, [0.0, 0.0]) == 0.0


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
        idx = InstanceIndex(inst)
        assert idx.n_hourly == n
        x = rng.uniform(0, 1, n)
        # welfare equals the limit-weighted dispatch
        assert idx.welfare_value(x, np.zeros(0), np.zeros(0)) == pytest.approx(
            float(np.sum([b.power * b.limit_price * x[k] for k, b in enumerate(bids)]))
        )
