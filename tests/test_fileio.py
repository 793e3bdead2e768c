import json

import numpy as np
import pytest

from damclear.engine import ClearingRequest, clear
from damclear.fileio import (
    FORMAT_VERSION,
    FileFormatError,
    GeneratorConfig,
    atc_network,
    generate,
    parse,
    parse_instance,
    read_solution,
    serialize,
    write_instance,
    write_report,
    write_solution,
)
from damclear.model import (
    AtcLine,
    BlockBid,
    Instance,
    InvalidInstanceError,
    Network,
    validate_instance,
)
from damclear.verify import verify_equilibrium

from conftest import make_mic, make_toy


def doc_of(instance):
    return json.loads(serialize(instance))


def test_toy_round_trip_bytes_and_structure():
    toy = make_toy()
    text = serialize(toy)
    parsed = parse_instance(text)
    assert parsed == toy
    assert serialize(parsed) == text


def test_atc_instance_round_trip(tmp_path):
    inst = generate(GeneratorConfig(seed=5))
    assert inst.network.atc_lines is not None
    text = serialize(inst)
    assert '"atc"' in text and '"abstract"' not in text
    parsed = parse_instance(text)
    assert parsed == inst
    assert serialize(parsed) == text
    # and through the filesystem
    p = tmp_path / "inst.json"
    write_instance(inst, p)
    assert parse(p) == inst


def test_abstract_network_round_trip():
    toy = make_toy()
    assert toy.network.atc_lines is None
    text = serialize(toy)
    assert '"abstract"' in text
    assert parse_instance(text).network == toy.network


def test_block_powers_written_in_period_order():
    net = Network(
        locations=("A",),
        periods=("T1", "T2"),
        basis_size=0,
        injection_coeffs=np.zeros((0, 1, 2)),
        constraint_rows=np.zeros((0, 0)),
        capacities=np.zeros(0),
    )
    inst = Instance(
        hourly_bids=(),
        block_bids=(BlockBid("C", "A", {"T2": 10.0, "T1": 5.0}, 20.0),),
        mic_bids=(),
        network=net,
        price_cap=500.0,
    )
    text = serialize(inst)
    assert text.find('"T1"') < text.find('"T2"')
    assert parse_instance(text) == inst


def test_atc_expansion_by_hand():
    line = AtcLine("A", "B", {"T1": 10.0, "T2": 12.0})
    net = atc_network(("A", "B"), ("T1", "T2"), (line,))
    assert net.basis_size == 2
    e = net.injection_coeffs
    assert e.shape == (2, 2, 2)
    # coordinate k = line*T + t exports from the tail, injects at the head
    assert e[0, 0, 0] == -1.0 and e[0, 1, 0] == 1.0
    assert e[1, 0, 1] == -1.0 and e[1, 1, 1] == 1.0
    assert e[0, :, 1].tolist() == [0.0, 0.0]
    np.testing.assert_array_equal(
        net.constraint_rows,
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
    )
    np.testing.assert_array_equal(net.capacities, [10.0, 12.0, 0.0, 0.0])


def test_atc_expansion_errors():
    with pytest.raises(FileFormatError, match="no capacity for period"):
        atc_network(("A", "B"), ("T1",), (AtcLine("A", "B", {}),))
    with pytest.raises(FileFormatError, match="not both in the location list"):
        atc_network(("A", "B"), ("T1",), (AtcLine("A", "X", {"T1": 5.0}),))
    with pytest.raises(FileFormatError, match="loops back"):
        atc_network(("A", "B"), ("T1",), (AtcLine("A", "A", {"T1": 5.0}),))


def test_generator_deterministic():
    cfg = GeneratorConfig(seed=11, n_blocks=4, n_mic=2)
    a, b = generate(cfg), generate(cfg)
    assert a == b
    assert serialize(a) == serialize(b)
    assert generate(GeneratorConfig(seed=12, n_blocks=4, n_mic=2)) != a


def test_generator_curves_and_bid_shapes():
    cfg = GeneratorConfig(seed=7, n_blocks=5, n_mic=3)
    inst = generate(cfg)
    validate_instance(inst)
    assert len(inst.hourly_bids) == 4 * (cfg.demand_steps + cfg.supply_steps)
    for l in cfg.locations:
        for t in cfg.periods:
            demand = [b for b in inst.hourly_bids if b.id.startswith(f"D_{l}_{t}_")]
            supply = [b for b in inst.hourly_bids if b.id.startswith(f"S_{l}_{t}_")]
            dp = [b.limit_price for b in demand]
            sp = [b.limit_price for b in supply]
            assert dp == sorted(dp, reverse=True)
            assert sp == sorted(sp)
            assert all(b.power > 0 for b in demand)
            assert all(b.power < 0 for b in supply)
    for b in inst.block_bids:
        signs = {p > 0 for p in b.powers.values()}
        assert len(signs) == 1
    for c in inst.mic_bids:
        assert 1 <= len(c.suborders) <= cfg.max_mic_suborders
        assert len({s.location for s in c.suborders}) == 1
        assert len({s.period for s in c.suborders}) == len(c.suborders)
        assert all(s.power < 0 for s in c.suborders)


def test_generator_single_location_has_no_lines():
    inst = generate(GeneratorConfig(seed=1, locations=("L1",)))
    assert inst.network.atc_lines is None
    assert inst.network.basis_size == 0


def test_generator_config_validation():
    with pytest.raises(ValueError, match="price_cap"):
        GeneratorConfig(price_cap=0.0)
    with pytest.raises(ValueError, match="buy_price_range is empty"):
        GeneratorConfig(buy_price_range=(150.0, 120.0))
    with pytest.raises(ValueError, match="leaves"):
        GeneratorConfig(sell_price_range=(-600.0, 90.0))
    with pytest.raises(ValueError, match="n_blocks"):
        GeneratorConfig(n_blocks=-1)
    with pytest.raises(ValueError, match="max_mic_suborders"):
        GeneratorConfig(max_mic_suborders=0)
    with pytest.raises(ValueError, match="nonempty"):
        GeneratorConfig(locations=())
    with pytest.raises(ValueError, match="atc_capacity_range"):
        GeneratorConfig(atc_capacity_range=(-5.0, 10.0))


def test_empty_generation_clears_to_zero():
    cfg = GeneratorConfig(seed=0, demand_steps=0, supply_steps=0, n_blocks=0, n_mic=0)
    inst = generate(cfg)
    assert not inst.hourly_bids and not inst.block_bids and not inst.mic_bids
    sol = clear(inst, ClearingRequest())
    assert sol.welfare == 0.0


def test_solution_round_trip(tmp_path):
    toy = make_toy()
    sol = clear(toy, ClearingRequest())
    p = tmp_path / "toy.solution.json"
    write_solution(toy, sol, p)
    assert p.exists()
    csv = (tmp_path / "toy.solution.prices.csv").read_text()
    assert csv.splitlines()[0] == "location,period,price"
    assert csv.splitlines()[1] == "L1,T1,50.0"

    back = read_solution(p, toy)
    for name in ("x", "x_mic", "y", "u", "prices", "net_positions", "v",
                 "s_hourly", "s_block", "s_mic", "s_mic_sub",
                 "d_accept", "d_reject", "du_reject"):
        np.testing.assert_array_equal(getattr(back, name), getattr(sol, name), err_msg=name)
    assert back.welfare == sol.welfare
    assert back.traded_volume == sol.traded_volume
    assert back.total_opportunity_cost == sol.total_opportunity_cost
    assert back.solver_status == sol.solver_status
    assert verify_equilibrium(toy, back).overall_pass


def test_solution_round_trip_with_network_and_mic(tmp_path):
    inst = generate(GeneratorConfig(seed=9, n_blocks=2, n_mic=2))
    sol = clear(inst, ClearingRequest())
    p = tmp_path / "s.json"
    write_solution(inst, sol, p)
    back = read_solution(p, inst)
    np.testing.assert_array_equal(back.x_mic, sol.x_mic)
    np.testing.assert_array_equal(back.net_positions, sol.net_positions)
    rep = verify_equilibrium(inst, back)
    assert rep.overall_pass, rep.failing_families()


def test_write_report(tmp_path):
    toy = make_toy()
    sol = clear(toy, ClearingRequest())
    rep = verify_equilibrium(toy, sol)
    p = tmp_path / "report.json"
    write_report(rep, p)
    data = json.loads(p.read_text())
    assert data["overall_pass"] is True
    assert len(data["families"]) == 7
    assert data["families"]["primal"]["n_checked"] > 0


def test_parse_rejects_bad_documents():
    toy = make_toy()

    with pytest.raises(FileFormatError, match="not valid JSON"):
        parse_instance("{nope")
    with pytest.raises(FileFormatError, match="top level"):
        parse_instance("[]")

    doc = doc_of(toy)
    del doc["format_version"]
    with pytest.raises(FileFormatError, match="missing field 'format_version'"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["format_version"] = 99
    with pytest.raises(FileFormatError, match="unsupported format_version"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    del doc["meta"]["price_cap"]
    with pytest.raises(FileFormatError, match="missing field 'price_cap'"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["meta"]["price_cap"] = "high"
    with pytest.raises(FileFormatError, match="wrong type"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["hourly_bids"][0]["power"] = True
    with pytest.raises(FileFormatError, match="wrong type"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["hourly_bids"] = {}
    with pytest.raises(FileFormatError, match="wrong type"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["hourly_bids"][0] = 7
    with pytest.raises(FileFormatError, match="expected an object"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["block_bids"][0]["powers"]["T1"] = [-10.0]
    with pytest.raises(FileFormatError, match="wrong type"):
        parse_instance(json.dumps(doc))


def test_parse_network_errors():
    toy = make_toy()

    doc = doc_of(toy)
    doc["network"]["locations"] = ["L1", "L1"]
    with pytest.raises(FileFormatError, match="unique"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["network"]["atc"] = {"lines": []}
    with pytest.raises(FileFormatError, match="exactly one of"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    del doc["network"]["abstract"]
    with pytest.raises(FileFormatError, match="exactly one of"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["network"]["abstract"]["export_coeffs"] = [[[1.0, 2.0]]]
    doc["network"]["abstract"]["basis"] = 2
    with pytest.raises(FileFormatError, match="export_coeffs"):
        parse_instance(json.dumps(doc))

    inst = generate(GeneratorConfig(seed=2))
    doc = doc_of(inst)
    doc["network"]["atc"]["lines"][0]["to"] = "nowhere"
    with pytest.raises(FileFormatError, match="not both in the location list"):
        parse_instance(json.dumps(doc))

    doc = doc_of(inst)
    del doc["network"]["atc"]["lines"][0]["capacity"]["T1"]
    with pytest.raises(FileFormatError, match="no capacity for period"):
        parse_instance(json.dumps(doc))

    doc = doc_of(inst)
    doc["network"]["atc"]["lines"][0]["capacity"]["T1"] = None
    with pytest.raises(FileFormatError, match="wrong type"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["network"]["periods"] = ["T1", 7]
    with pytest.raises(FileFormatError, match="labels must be strings"):
        parse_instance(json.dumps(doc))

    for rows in ([[{}]], [[1.0], [1.0, 2.0]]):
        doc = doc_of(toy)
        doc["network"]["abstract"]["rows"] = rows
        with pytest.raises(FileFormatError, match="'rows'"):
            parse_instance(json.dumps(doc))


def test_abstract_capacity_count_mismatch():
    toy = make_toy()
    doc = doc_of(toy)
    doc["network"]["abstract"]["rows"] = [[ ]]
    doc["network"]["abstract"]["capacities"] = []
    with pytest.raises(FileFormatError, match="capacities"):
        parse_instance(json.dumps(doc))


def test_parse_enforces_instance_validity():
    toy = make_toy()

    doc = doc_of(toy)
    doc["block_bids"][0]["powers"] = {"T1": -10.0, "T9": 10.0}
    with pytest.raises((InvalidInstanceError, FileFormatError), match="'C'"):
        parse_instance(json.dumps(doc))

    inst = generate(GeneratorConfig(seed=4, n_mic=1))
    doc = doc_of(inst)
    doc["mic_bids"][0]["suborders"][0]["power"] = 5.0
    with pytest.raises(InvalidInstanceError, match="'M0'"):
        parse_instance(json.dumps(doc))

    doc = doc_of(toy)
    doc["hourly_bids"][0]["limit_price"] = 10_000.0
    with pytest.raises(InvalidInstanceError, match="'A'"):
        parse_instance(json.dumps(doc))


def test_read_solution_errors(tmp_path):
    toy = make_toy()
    sol = clear(toy, ClearingRequest())
    p = tmp_path / "sol.json"
    write_solution(toy, sol, p)
    good = json.loads(p.read_text())

    def dump(doc):
        q = tmp_path / "bad.json"
        q.write_text(json.dumps(doc))
        return q

    doc = json.loads(json.dumps(good))
    doc["format_version"] = 3
    with pytest.raises(FileFormatError, match="unsupported"):
        read_solution(dump(doc), toy)

    doc = json.loads(json.dumps(good))
    del doc["acceptance"]["hourly"]["A"]
    with pytest.raises(FileFormatError, match="'A' missing"):
        read_solution(dump(doc), toy)

    doc = json.loads(json.dumps(good))
    doc["duals"]["s_block"] = [1.0]
    with pytest.raises(FileFormatError, match="s_block"):
        read_solution(dump(doc), toy)

    doc = json.loads(json.dumps(good))
    doc["prices"] = [[1.0], [2.0]]
    with pytest.raises(FileFormatError, match="prices"):
        read_solution(dump(doc), toy)

    doc = json.loads(json.dumps(good))
    del doc["acceptance"]["mic_suborders"]
    with pytest.raises(FileFormatError, match="mic_suborders"):
        read_solution(dump(doc), toy)

    doc = json.loads(json.dumps(good))
    doc["acceptance"]["hourly"]["A"] = {}
    with pytest.raises(FileFormatError, match="acceptance.hourly"):
        read_solution(dump(doc), toy)

    doc = json.loads(json.dumps(good))
    doc["duals"]["s_hourly"] = [{}] * len(doc["duals"]["s_hourly"])
    with pytest.raises(FileFormatError, match="s_hourly"):
        read_solution(dump(doc), toy)

    mic = make_mic(1000.0)
    write_solution(mic, clear(mic, ClearingRequest()), p)
    doc = json.loads(p.read_text())
    doc["acceptance"]["mic_suborders"]["G"] = 1.0
    with pytest.raises(FileFormatError, match="mic_suborders for 'G'"):
        read_solution(dump(doc), mic)
