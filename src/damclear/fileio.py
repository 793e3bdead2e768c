"""Instance and solution serialization plus the synthetic generator.

The instance file is versioned JSON. Networks appear either in abstract
form (basis size, export coefficients, constraint rows, capacities) or as
a list of directed ATC lines with per-period capacities; the ATC form is
expanded deterministically on parse and written back verbatim on
serialize, so both forms round-trip byte-identically through
parse -> serialize for files this module produced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    AtcLine,
    BlockBid,
    ClearingSolution,
    HourlyBid,
    Instance,
    InstanceIndex,
    MicBid,
    MicSuborder,
    Network,
    single_node_network,
)

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    pass


def _need(obj: dict, key: str, kinds, ctx: str):
    if not isinstance(obj, dict):
        raise FileFormatError(f"{ctx}: expected an object")
    if key not in obj:
        raise FileFormatError(f"{ctx}: missing field '{key}'")
    val = obj[key]
    if kinds is not None:
        # bool passes isinstance checks against int; no field here is boolean
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise FileFormatError(f"{ctx}: field '{key}' has the wrong type")
    return val


def _number(obj: dict, key: str, ctx: str) -> float:
    return float(_need(obj, key, (int, float), ctx))


def _array(obj: dict, key: str, ctx: str) -> np.ndarray:
    val = _need(obj, key, list, ctx)
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        # object elements or ragged nesting
        raise FileFormatError(
            f"{ctx}: field '{key}' must be a rectangular array of numbers"
        ) from None


def atc_network(
    locations: Sequence[str], periods: Sequence[str], lines: Sequence[AtcLine]
) -> Network:
    """Expand directed ATC lines into the abstract network form.

    One basis coordinate per line per period, k = line*T + t, exporting
    from the tail and injecting at the head; one capacity row per (line,
    period) and one nonnegativity row per coordinate.
    """
    locations = tuple(locations)
    periods = tuple(periods)
    loc_idx = {l: i for i, l in enumerate(locations)}
    L, T = len(locations), len(periods)
    K = len(lines) * T
    e = np.zeros((K, L, T))
    rows = np.zeros((2 * K, K))
    caps = np.zeros(2 * K)
    for li, line in enumerate(lines):
        if line.from_location not in loc_idx or line.to_location not in loc_idx:
            raise FileFormatError(
                f"atc line {li}: endpoints {line.from_location!r} -> "
                f"{line.to_location!r} not both in the location list"
            )
        if line.from_location == line.to_location:
            raise FileFormatError(f"atc line {li}: loops back to {line.from_location!r}")
        for t, per in enumerate(periods):
            if per not in line.capacities:
                raise FileFormatError(f"atc line {li}: no capacity for period {per!r}")
            k = li * T + t
            e[k, loc_idx[line.from_location], t] = -1.0
            e[k, loc_idx[line.to_location], t] = 1.0
            rows[k, k] = 1.0
            caps[k] = float(line.capacities[per])
            rows[K + k, k] = -1.0
    return Network(
        locations=locations,
        periods=periods,
        basis_size=K,
        injection_coeffs=e,
        constraint_rows=rows,
        capacities=caps,
        atc_lines=tuple(lines),
    )


def _parse_network(data: dict) -> Network:
    locations = tuple(_need(data, "locations", list, "network"))
    periods = tuple(_need(data, "periods", list, "network"))
    if not all(isinstance(label, str) for label in locations + periods):
        raise FileFormatError("network: location and period labels must be strings")
    if not locations or len(set(locations)) != len(locations):
        raise FileFormatError("network: locations must be nonempty and unique")
    if not periods or len(set(periods)) != len(periods):
        raise FileFormatError("network: periods must be nonempty and unique")
    has_abstract = "abstract" in data
    has_atc = "atc" in data
    if has_abstract == has_atc:
        raise FileFormatError("network: exactly one of 'abstract' or 'atc' required")
    if has_atc:
        atc = _need(data, "atc", dict, "network")
        lines = []
        for li, raw in enumerate(_need(atc, "lines", list, "network.atc")):
            ctx = f"atc line {li}"
            capacity = _need(raw, "capacity", dict, ctx)
            lines.append(
                AtcLine(
                    from_location=_need(raw, "from", str, ctx),
                    to_location=_need(raw, "to", str, ctx),
                    capacities={k: _number(capacity, k, ctx) for k in capacity},
                )
            )
        return atc_network(locations, periods, lines)
    ab = _need(data, "abstract", dict, "network")
    K = _need(ab, "basis", int, "network.abstract")
    L, T = len(locations), len(periods)
    e = _array(ab, "export_coeffs", "network.abstract")
    a = _array(ab, "rows", "network.abstract")
    w = _array(ab, "capacities", "network.abstract")
    if e.shape != (K, L, T):
        if K == 0 and e.size == 0:
            e = e.reshape(0, L, T)
        else:
            raise FileFormatError(
                f"network.abstract: export_coeffs must be {K}x{L}x{T}, got {e.shape}"
            )
    if a.ndim != 2 or a.shape[1] != K:
        if a.size == 0:
            a = a.reshape(0, K)
        else:
            raise FileFormatError(
                f"network.abstract: rows must have {K} columns, got shape {a.shape}"
            )
    if w.shape != (a.shape[0],):
        raise FileFormatError(
            f"network.abstract: {a.shape[0]} rows but {w.size} capacities"
        )
    return Network(
        locations=locations,
        periods=periods,
        basis_size=K,
        injection_coeffs=e,
        constraint_rows=a,
        capacities=w,
    )


def parse_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FileFormatError("top level must be an object")
    version = _need(data, "format_version", int, "document")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format_version {version}")
    meta = _need(data, "meta", dict, "document")
    price_cap = _number(meta, "price_cap", "meta")
    currency = _need(meta, "currency", str, "meta")
    network = _parse_network(_need(data, "network", dict, "document"))

    hourly = []
    for raw in _need(data, "hourly_bids", list, "document"):
        bid_id = _need(raw, "id", str, "hourly bid")
        ctx = f"hourly bid {bid_id!r}"
        hourly.append(
            HourlyBid(
                id=bid_id,
                location=_need(raw, "location", str, ctx),
                period=_need(raw, "period", str, ctx),
                power=_number(raw, "power", ctx),
                limit_price=_number(raw, "limit_price", ctx),
            )
        )
    blocks = []
    for raw in _need(data, "block_bids", list, "document"):
        bid_id = _need(raw, "id", str, "block bid")
        ctx = f"block bid {bid_id!r}"
        powers = _need(raw, "powers", dict, ctx)
        blocks.append(
            BlockBid(
                id=bid_id,
                location=_need(raw, "location", str, ctx),
                powers={k: _number(powers, k, ctx) for k in powers},
                limit_price=_number(raw, "limit_price", ctx),
            )
        )
    mics = []
    for raw in _need(data, "mic_bids", list, "document"):
        bid_id = _need(raw, "id", str, "mic bid")
        ctx = f"mic bid {bid_id!r}"
        subs = []
        for si, sraw in enumerate(_need(raw, "suborders", list, ctx)):
            sctx = f"mic bid {bid_id!r} suborder {si}"
            subs.append(
                MicSuborder(
                    location=_need(sraw, "location", str, sctx),
                    period=_need(sraw, "period", str, sctx),
                    power=_number(sraw, "power", sctx),
                    limit_price=_number(sraw, "limit_price", sctx),
                )
            )
        mics.append(
            MicBid(
                id=bid_id,
                fixed_cost=_number(raw, "fixed_cost", ctx),
                variable_cost=_number(raw, "variable_cost", ctx),
                suborders=tuple(subs),
            )
        )
    return Instance(
        hourly_bids=tuple(hourly),
        block_bids=tuple(blocks),
        mic_bids=tuple(mics),
        network=network,
        price_cap=price_cap,
        currency=currency,
    )


def parse(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _network_doc(net: Network) -> dict:
    doc = {"locations": list(net.locations), "periods": list(net.periods)}
    if net.atc_lines is not None:
        doc["atc"] = {
            "lines": [
                {
                    "from": ln.from_location,
                    "to": ln.to_location,
                    "capacity": {p: float(ln.capacities[p]) for p in net.periods},
                }
                for ln in net.atc_lines
            ]
        }
    else:
        doc["abstract"] = {
            "basis": net.basis_size,
            "export_coeffs": net.injection_coeffs.tolist(),
            "rows": net.constraint_rows.tolist(),
            "capacities": net.capacities.tolist(),
        }
    return doc


def serialize(instance: Instance) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "meta": {"price_cap": instance.price_cap, "currency": instance.currency},
        "network": _network_doc(instance.network),
        "hourly_bids": [
            {
                "id": b.id,
                "location": b.location,
                "period": b.period,
                "power": b.power,
                "limit_price": b.limit_price,
            }
            for b in instance.hourly_bids
        ],
        "block_bids": [
            {
                "id": b.id,
                "location": b.location,
                "powers": {p: b.powers[p] for p in instance.network.periods if p in b.powers},
                "limit_price": b.limit_price,
            }
            for b in instance.block_bids
        ],
        "mic_bids": [
            {
                "id": c.id,
                "fixed_cost": c.fixed_cost,
                "variable_cost": c.variable_cost,
                "suborders": [
                    {
                        "location": s.location,
                        "period": s.period,
                        "power": s.power,
                        "limit_price": s.limit_price,
                    }
                    for s in c.suborders
                ],
            }
            for c in instance.mic_bids
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(instance))


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the seeded synthetic instance generator.

    Hourly bids form one stepwise demand curve and one stepwise supply
    curve per (location, period); block and MIC counts are global. With
    more than one location the network is an ATC ring over consecutive
    locations in both directions, otherwise the degenerate single node.
    """

    seed: int = 0
    locations: tuple = ("L1", "L2")
    periods: tuple = ("T1", "T2")
    demand_steps: int = 3
    supply_steps: int = 2
    n_blocks: int = 3
    n_mic: int = 1
    price_cap: float = 500.0
    currency: str = "EUR"
    buy_price_range: tuple = (30.0, 120.0)
    sell_price_range: tuple = (5.0, 90.0)
    hourly_power_range: tuple = (5.0, 50.0)
    block_price_range: tuple = (10.0, 100.0)
    block_power_range: tuple = (5.0, 30.0)
    mic_fixed_range: tuple = (50.0, 1500.0)
    mic_variable_range: tuple = (0.0, 25.0)
    mic_power_range: tuple = (5.0, 40.0)
    max_mic_suborders: int = 2
    atc_capacity_range: tuple = (10.0, 60.0)

    def __post_init__(self):
        if self.price_cap <= 0:
            raise ValueError("price_cap must be positive")
        for name in (
            "buy_price_range",
            "sell_price_range",
            "block_price_range",
            "mic_variable_range",
        ):
            lo, hi = getattr(self, name)
            if not (lo <= hi):
                raise ValueError(f"{name} is empty")
            if lo < -self.price_cap or hi > self.price_cap:
                raise ValueError(f"{name} leaves [-price_cap, price_cap]")
        for name in (
            "hourly_power_range",
            "block_power_range",
            "mic_power_range",
            "mic_fixed_range",
            "atc_capacity_range",
        ):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi):
                raise ValueError(f"{name} must be nonnegative and ordered")
        for name in ("demand_steps", "supply_steps", "n_blocks", "n_mic"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.max_mic_suborders < 1:
            raise ValueError("max_mic_suborders must be at least 1")
        if not self.locations or not self.periods:
            raise ValueError("locations and periods must be nonempty")


def generate(config: GeneratorConfig) -> Instance:
    """Deterministic synthetic instance for a seed.

    Demand steps per cell come out sorted by falling price and supply
    steps by rising price, so each (location, period) carries monotone
    stepwise curves. MIC suborders are sell-only at a single location.
    """
    rng = np.random.default_rng(config.seed)
    locs, pers = tuple(config.locations), tuple(config.periods)
    L, T = len(locs), len(pers)

    def draw(rg):
        return float(rng.uniform(rg[0], rg[1]))

    hourly = []
    for l in locs:
        for t in pers:
            dp = np.sort(rng.uniform(*config.buy_price_range, config.demand_steps))[::-1]
            for k in range(config.demand_steps):
                hourly.append(
                    HourlyBid(
                        id=f"D_{l}_{t}_{k}",
                        location=l,
                        period=t,
                        power=draw(config.hourly_power_range),
                        limit_price=float(dp[k]),
                    )
                )
            sp = np.sort(rng.uniform(*config.sell_price_range, config.supply_steps))
            for k in range(config.supply_steps):
                hourly.append(
                    HourlyBid(
                        id=f"S_{l}_{t}_{k}",
                        location=l,
                        period=t,
                        power=-draw(config.hourly_power_range),
                        limit_price=float(sp[k]),
                    )
                )

    blocks = []
    for j in range(config.n_blocks):
        loc = locs[int(rng.integers(L))]
        span = int(rng.integers(1, T + 1))
        start = int(rng.integers(0, T - span + 1))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        powers = {
            pers[t]: sign * draw(config.block_power_range)
            for t in range(start, start + span)
        }
        blocks.append(
            BlockBid(
                id=f"B{j}",
                location=loc,
                powers=powers,
                limit_price=draw(config.block_price_range),
            )
        )

    mics = []
    for c in range(config.n_mic):
        loc = locs[int(rng.integers(L))]
        n_sub = int(rng.integers(1, min(config.max_mic_suborders, T) + 1))
        periods_chosen = sorted(rng.choice(T, size=n_sub, replace=False).tolist())
        subs = tuple(
            MicSuborder(
                location=loc,
                period=pers[t],
                power=-draw(config.mic_power_range),
                limit_price=draw(config.sell_price_range),
            )
            for t in periods_chosen
        )
        mics.append(
            MicBid(
                id=f"M{c}",
                fixed_cost=draw(config.mic_fixed_range),
                variable_cost=draw(config.mic_variable_range),
                suborders=subs,
            )
        )

    if L == 1:
        network = single_node_network(locs[0], pers)
    else:
        lines = []
        for a in range(L - 1):
            for frm, to in ((locs[a], locs[a + 1]), (locs[a + 1], locs[a])):
                lines.append(
                    AtcLine(
                        from_location=frm,
                        to_location=to,
                        capacities={p: draw(config.atc_capacity_range) for p in pers},
                    )
                )
        network = atc_network(locs, pers, lines)

    return Instance(
        hourly_bids=tuple(hourly),
        block_bids=tuple(blocks),
        mic_bids=tuple(mics),
        network=network,
        price_cap=config.price_cap,
        currency=config.currency,
    )


def _prices_csv(instance: Instance, solution: ClearingSolution) -> str:
    net = instance.network
    lines = ["location,period,price"]
    for li, loc in enumerate(net.locations):
        for ti, per in enumerate(net.periods):
            lines.append(f"{loc},{per},{float(solution.prices[li, ti])!r}")
    return "\n".join(lines) + "\n"


def solution_to_doc(instance: Instance, solution: ClearingSolution) -> dict:
    idx = InstanceIndex(instance)
    return {
        "format_version": FORMAT_VERSION,
        "solver_status": solution.solver_status,
        "solver_gap": solution.solver_gap,
        "aggregates": {
            "welfare": solution.welfare,
            "traded_volume": solution.traded_volume,
            "total_opportunity_cost": solution.total_opportunity_cost,
        },
        "prices": solution.prices.tolist(),
        "net_positions": solution.net_positions.tolist(),
        "acceptance": {
            "hourly": {b.id: float(solution.x[i]) for i, b in enumerate(instance.hourly_bids)},
            "blocks": {b.id: int(round(solution.y[j])) for j, b in enumerate(instance.block_bids)},
            "mic": {c.id: int(round(solution.u[k])) for k, c in enumerate(instance.mic_bids)},
            "mic_suborders": {
                c.id: solution.x_mic[idx.mic_slices[k]].tolist()
                for k, c in enumerate(instance.mic_bids)
            },
        },
        "duals": {
            "v": solution.v.tolist(),
            "s_hourly": solution.s_hourly.tolist(),
            "s_block": solution.s_block.tolist(),
            "s_mic": solution.s_mic.tolist(),
            "s_mic_sub": solution.s_mic_sub.tolist(),
            "d_accept": solution.d_accept.tolist(),
            "d_reject": solution.d_reject.tolist(),
            "du_reject": solution.du_reject.tolist(),
        },
    }


def write_solution(instance: Instance, solution: ClearingSolution, path) -> None:
    """Solution JSON plus a per-(location, period) price CSV companion."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(solution_to_doc(instance, solution), indent=2) + "\n")
    base = path[:-5] if path.endswith(".json") else path
    with open(base + ".prices.csv", "w", encoding="utf-8") as fh:
        fh.write(_prices_csv(instance, solution))


def read_solution(path, instance: Instance) -> ClearingSolution:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    version = _need(data, "format_version", int, "solution")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported format_version {version}")
    idx = InstanceIndex(instance)
    acc = _need(data, "acceptance", dict, "solution")
    duals = _need(data, "duals", dict, "solution")
    agg = _need(data, "aggregates", dict, "solution")

    def arr(count, mapping, ids, ctx):
        out = np.zeros(count)
        for k, bid_id in enumerate(ids):
            if bid_id not in mapping:
                raise FileFormatError(f"solution: {ctx} entry for {bid_id!r} missing")
            out[k] = _number(mapping, bid_id, f"acceptance.{ctx}")
        return out

    x = arr(idx.n_hourly, _need(acc, "hourly", dict, "acceptance"),
            [b.id for b in instance.hourly_bids], "hourly")
    y = arr(idx.n_block, _need(acc, "blocks", dict, "acceptance"),
            [b.id for b in instance.block_bids], "block")
    u = arr(idx.n_mic, _need(acc, "mic", dict, "acceptance"),
            [c.id for c in instance.mic_bids], "mic")
    x_mic = np.zeros(idx.n_sub)
    sub_map = _need(acc, "mic_suborders", dict, "acceptance")
    for k, c in enumerate(instance.mic_bids):
        vals = sub_map.get(c.id)
        sl = idx.mic_slices[k]
        if not isinstance(vals, list) or len(vals) != sl.stop - sl.start:
            raise FileFormatError(f"solution: mic_suborders for {c.id!r} missing or wrong length")
        x_mic[sl] = _array(sub_map, c.id, "acceptance.mic_suborders")

    def darr(key, count):
        vals = _array(duals, key, "duals")
        if vals.shape != (count,):
            raise FileFormatError(f"solution: duals.{key} must have length {count}")
        return vals

    prices = _array(data, "prices", "solution")
    if prices.shape != (idx.L, idx.T):
        raise FileFormatError(f"solution: prices must be {idx.L}x{idx.T}")
    net_positions = _array(data, "net_positions", "solution")
    if net_positions.shape != (idx.n_basis,):
        raise FileFormatError(f"solution: net_positions must have length {idx.n_basis}")
    return ClearingSolution(
        x=x, x_mic=x_mic, y=y, u=u,
        net_positions=net_positions, prices=prices,
        v=darr("v", idx.n_net_rows),
        s_hourly=darr("s_hourly", idx.n_hourly),
        s_block=darr("s_block", idx.n_block),
        s_mic=darr("s_mic", idx.n_mic),
        s_mic_sub=darr("s_mic_sub", idx.n_sub),
        d_accept=darr("d_accept", idx.n_block),
        d_reject=darr("d_reject", idx.n_block),
        du_reject=darr("du_reject", idx.n_mic),
        welfare=_number(agg, "welfare", "aggregates"),
        traded_volume=_number(agg, "traded_volume", "aggregates"),
        total_opportunity_cost=_number(agg, "total_opportunity_cost", "aggregates"),
        solver_gap=_number(data, "solver_gap", "solution"),
        solver_status=_need(data, "solver_status", str, "solution"),
    )


def _strict(value):
    """value with every non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def write_report(report, path) -> None:
    """The report as standard JSON: a non-finite residual is written as the
    string "inf" or "nan", which a strict parser accepts."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_strict(report.as_dict()), indent=2, allow_nan=False) + "\n")
