"""Domain model for day-ahead auction clearing.

Sign convention throughout: positive power is a purchase (demand), negative
power is a sale (supply). A bid's limit price is the worst price at which it
is willing to trade, so accepted surplus per unit is power * (limit - price)
regardless of side.

Instances are frozen; every derived quantity (welfare, traded volume, block
surplus decompositions) is recomputed from bid data and a solution, never
cached on the objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np


class InvalidInstanceError(ValueError):
    """Raised when bid or network data violates a structural invariant."""


@dataclass(frozen=True)
class HourlyBid:
    """Single-period divisible order, accepted at any fraction in [0, 1]."""

    id: str
    location: str
    period: str
    power: float
    limit_price: float


@dataclass(frozen=True)
class BlockBid:
    """Multi-period indivisible order at one location.

    ``powers`` maps period label to MW; entries must share one sign. The
    bid is accepted in full or not at all.
    """

    id: str
    location: str
    powers: Mapping[str, float]
    limit_price: float

    def __post_init__(self):
        object.__setattr__(self, "powers", dict(self.powers))

    def total_power(self) -> float:
        return float(sum(self.powers.values()))


@dataclass(frozen=True)
class MicSuborder:
    """One sell-only divisible leg of a minimum-income order."""

    location: str
    period: str
    power: float
    limit_price: float


@dataclass(frozen=True)
class MicBid:
    """Order gated by a minimum income condition.

    The binary decision activates the (sell-only) suborders; when active,
    revenue collected at clearing prices must cover ``fixed_cost`` plus
    ``variable_cost`` per MWh sold.
    """

    id: str
    fixed_cost: float
    variable_cost: float
    suborders: tuple[MicSuborder, ...]

    def __post_init__(self):
        object.__setattr__(self, "suborders", tuple(self.suborders))


@dataclass(frozen=True)
class AtcLine:
    """Directed transmission link with per-period capacity."""

    from_location: str
    to_location: str
    capacities: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "capacities", dict(self.capacities))


@dataclass(frozen=True)
class Network:
    """Linear network model.

    Net positions live in a basis of size ``basis_size``; ``injection_coeffs``
    (basis_size, L, T) gives each basis coordinate's net injection at
    (location, period), so the balance at (l, t) reads
    traded power = sum_k injection_coeffs[k, l, t] * n_k. ``constraint_rows``
    (M, basis_size) and ``capacities`` (M,) bound the basis coordinates.
    ``atc_lines`` records the line list when the network came from the ATC
    form; the arrays are its deterministic expansion.
    """

    locations: tuple[str, ...]
    periods: tuple[str, ...]
    basis_size: int
    injection_coeffs: np.ndarray
    constraint_rows: np.ndarray
    capacities: np.ndarray
    atc_lines: Optional[tuple[AtcLine, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "locations", tuple(self.locations))
        object.__setattr__(self, "periods", tuple(self.periods))
        e = np.asarray(self.injection_coeffs, dtype=float)
        a = np.asarray(self.constraint_rows, dtype=float)
        w = np.asarray(self.capacities, dtype=float)
        for arr in (e, a, w):
            arr.setflags(write=False)
        object.__setattr__(self, "injection_coeffs", e)
        object.__setattr__(self, "constraint_rows", a)
        object.__setattr__(self, "capacities", w)
        if self.atc_lines is not None:
            object.__setattr__(self, "atc_lines", tuple(self.atc_lines))

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.locations == other.locations
            and self.periods == other.periods
            and self.basis_size == other.basis_size
            and np.array_equal(self.injection_coeffs, other.injection_coeffs)
            and np.array_equal(self.constraint_rows, other.constraint_rows)
            and np.array_equal(self.capacities, other.capacities)
            and self.atc_lines == other.atc_lines
        )


def single_node_network(location: str = "L1", periods: tuple[str, ...] = ("T1",)) -> Network:
    """Degenerate network: one location, empty basis, no flow limits."""
    L, T = 1, len(periods)
    return Network(
        locations=(location,),
        periods=tuple(periods),
        basis_size=0,
        injection_coeffs=np.zeros((0, L, T)),
        constraint_rows=np.zeros((0, 0)),
        capacities=np.zeros(0),
    )


@dataclass(frozen=True)
class Instance:
    hourly_bids: tuple[HourlyBid, ...]
    block_bids: tuple[BlockBid, ...]
    mic_bids: tuple[MicBid, ...]
    network: Network
    price_cap: float
    currency: str = "EUR"

    def __post_init__(self):
        object.__setattr__(self, "hourly_bids", tuple(self.hourly_bids))
        object.__setattr__(self, "block_bids", tuple(self.block_bids))
        object.__setattr__(self, "mic_bids", tuple(self.mic_bids))


@dataclass(frozen=True)
class ClearingSolution:
    """Primal and dual values of a cleared auction.

    Arrays follow instance order. ``x_mic`` and ``s_mic_sub`` flatten MIC
    suborders in instance order (all suborders of the first MIC bid, then
    the second, ...). ``prices`` is (L, T). The paradoxical-rejection
    compensations du^a are identically zero by construction and carry no
    field. ``d_accept`` is all-zero under PCR-style rules.
    """

    x: np.ndarray
    x_mic: np.ndarray
    y: np.ndarray
    u: np.ndarray
    net_positions: np.ndarray
    prices: np.ndarray
    v: np.ndarray
    s_hourly: np.ndarray
    s_block: np.ndarray
    s_mic: np.ndarray
    s_mic_sub: np.ndarray
    d_accept: np.ndarray
    d_reject: np.ndarray
    du_reject: np.ndarray
    welfare: float
    traded_volume: float
    total_opportunity_cost: float
    solver_gap: float = 0.0
    solver_status: str = "optimal"


@dataclass(frozen=True)
class BlockSurplusTerms:
    """Decomposition of one block bid's position against clearing prices."""

    surplus_if_accepted: float
    opportunity_cost: float
    loss: float


class InstanceIndex:
    """Flat array view of an instance for constraint assembly.

    (location, period) pairs are flattened row-major: lt = l * T + t.
    """

    def __init__(self, instance: Instance):
        net = instance.network
        self.instance = instance
        self.locations = net.locations
        self.periods = net.periods
        self.L = len(net.locations)
        self.T = len(net.periods)
        self.LT = self.L * self.T
        self.loc_idx = {name: l for l, name in enumerate(net.locations)}
        self.per_idx = {name: t for t, name in enumerate(net.periods)}

        hb = instance.hourly_bids
        self.n_hourly = len(hb)
        self.hourly_power = np.array([b.power for b in hb], dtype=float)
        self.hourly_limit = np.array([b.limit_price for b in hb], dtype=float)
        self.hourly_lt = np.array(
            [self.loc_idx[b.location] * self.T + self.per_idx[b.period] for b in hb],
            dtype=int,
        )

        bb = instance.block_bids
        self.n_block = len(bb)
        self.block_limit = np.array([b.limit_price for b in bb], dtype=float)
        self.block_loc = np.array([self.loc_idx[b.location] for b in bb], dtype=int)
        # dense (J, T) power profile, zero outside the bid's span
        self.block_powers = np.zeros((self.n_block, self.T))
        for j, b in enumerate(bb):
            for per, p in b.powers.items():
                self.block_powers[j, self.per_idx[per]] = p
        self.block_total = self.block_powers.sum(axis=1)

        mb = instance.mic_bids
        self.n_mic = len(mb)
        self.mic_fixed = np.array([c.fixed_cost for c in mb], dtype=float)
        self.mic_variable = np.array([c.variable_cost for c in mb], dtype=float)
        subs = [(ci, s) for ci, c in enumerate(mb) for s in c.suborders]
        self.n_sub = len(subs)
        self.sub_owner = np.array([ci for ci, _ in subs], dtype=int)
        self.sub_power = np.array([s.power for _, s in subs], dtype=float)
        self.sub_limit = np.array([s.limit_price for _, s in subs], dtype=float)
        self.sub_lt = np.array(
            [self.loc_idx[s.location] * self.T + self.per_idx[s.period] for _, s in subs],
            dtype=int,
        )
        self.mic_slices: list[slice] = []
        start = 0
        for c in mb:
            self.mic_slices.append(slice(start, start + len(c.suborders)))
            start += len(c.suborders)

        self.n_basis = net.basis_size
        # e flattened to (K, LT) aligned with the lt convention above
        self.injection_flat = net.injection_coeffs.reshape(self.n_basis, self.LT)
        self.n_net_rows = net.constraint_rows.shape[0]

    def prices_flat(self, prices: np.ndarray) -> np.ndarray:
        return np.asarray(prices, dtype=float).reshape(self.LT)

    def welfare_value(self, x: np.ndarray, x_mic: np.ndarray, y: np.ndarray) -> float:
        w = float(self.hourly_power * self.hourly_limit @ x)
        if self.n_sub:
            w += float(self.sub_power * self.sub_limit @ x_mic)
        if self.n_block:
            w += float((self.block_total * self.block_limit) @ y)
        return w

    def buy_volume(self, x: np.ndarray, x_mic: np.ndarray, y: np.ndarray) -> float:
        vol = float(np.clip(self.hourly_power, 0.0, None) @ x)
        if self.n_sub:
            vol += float(np.clip(self.sub_power, 0.0, None) @ x_mic)
        if self.n_block:
            vol += float(np.clip(self.block_powers, 0.0, None).sum(axis=1) @ y)
        return vol

    def block_surplus(self, prices: np.ndarray) -> np.ndarray:
        """Per-block surplus if accepted: sum_t P_jt (limit_j - pi_lt)."""
        pi = self.prices_flat(prices).reshape(self.L, self.T)
        out = np.zeros(self.n_block)
        for j in range(self.n_block):
            out[j] = float(self.block_powers[j] @ (self.block_limit[j] - pi[self.block_loc[j]]))
        return out

    def sub_surplus(self, prices: np.ndarray) -> np.ndarray:
        """Per-suborder surplus at full acceptance: P_hc (limit - pi)."""
        pi = self.prices_flat(prices)
        return self.sub_power * (self.sub_limit - pi[self.sub_lt])

    def mic_income(self, x_mic: np.ndarray, prices: np.ndarray) -> np.ndarray:
        """Revenue collected by each MIC bid: sum_h (-P_hc x_hc) pi."""
        pi = self.prices_flat(prices)
        per_sub = -self.sub_power * np.asarray(x_mic) * pi[self.sub_lt]
        out = np.zeros(self.n_mic)
        np.add.at(out, self.sub_owner, per_sub)
        return out

    def mic_sold_volume(self, x_mic: np.ndarray) -> np.ndarray:
        per_sub = -self.sub_power * np.asarray(x_mic)
        out = np.zeros(self.n_mic)
        np.add.at(out, self.sub_owner, per_sub)
        return out


def validate_instance(instance: Instance) -> None:
    """Check structural invariants; raises InvalidInstanceError naming the culprit."""
    net = instance.network
    if instance.price_cap <= 0 or not np.isfinite(instance.price_cap):
        raise InvalidInstanceError("price_cap must be positive and finite")
    if not net.locations:
        raise InvalidInstanceError("network needs at least one location")
    if not net.periods:
        raise InvalidInstanceError("network needs at least one period")
    if len(set(net.locations)) != len(net.locations):
        raise InvalidInstanceError("duplicate location labels")
    if len(set(net.periods)) != len(net.periods):
        raise InvalidInstanceError("duplicate period labels")
    L, T, K = len(net.locations), len(net.periods), net.basis_size
    if net.injection_coeffs.shape != (K, L, T):
        raise InvalidInstanceError(
            f"injection_coeffs shape {net.injection_coeffs.shape} != {(K, L, T)}"
        )
    M = net.constraint_rows.shape[0]
    if net.constraint_rows.shape != (M, K):
        raise InvalidInstanceError("constraint_rows must be (M, basis_size)")
    if net.capacities.shape != (M,):
        raise InvalidInstanceError("capacities must be (M,)")
    if not np.all(np.isfinite(net.injection_coeffs)) or not np.all(np.isfinite(net.constraint_rows)):
        raise InvalidInstanceError("network coefficients must be finite")
    if not np.all(np.isfinite(net.capacities)):
        raise InvalidInstanceError("network capacities must be finite")

    locs = set(net.locations)
    pers = set(net.periods)
    cap = instance.price_cap

    def check_price(val, what):
        if not np.isfinite(val) or abs(val) > cap:
            raise InvalidInstanceError(f"{what}: limit price {val} outside [-{cap}, {cap}]")

    seen = set()
    for b in instance.hourly_bids:
        if b.id in seen:
            raise InvalidInstanceError(f"duplicate hourly bid id {b.id!r}")
        seen.add(b.id)
        if b.location not in locs:
            raise InvalidInstanceError(f"hourly bid {b.id!r}: unknown location {b.location!r}")
        if b.period not in pers:
            raise InvalidInstanceError(f"hourly bid {b.id!r}: unknown period {b.period!r}")
        if b.power == 0 or not np.isfinite(b.power):
            raise InvalidInstanceError(f"hourly bid {b.id!r}: power must be nonzero and finite")
        check_price(b.limit_price, f"hourly bid {b.id!r}")

    seen = set()
    for b in instance.block_bids:
        if b.id in seen:
            raise InvalidInstanceError(f"duplicate block bid id {b.id!r}")
        seen.add(b.id)
        if b.location not in locs:
            raise InvalidInstanceError(f"block bid {b.id!r}: unknown location {b.location!r}")
        if not b.powers:
            raise InvalidInstanceError(f"block bid {b.id!r}: empty power profile")
        vals = list(b.powers.values())
        if not all(np.isfinite(v) for v in vals):
            raise InvalidInstanceError(f"block bid {b.id!r}: non-finite power")
        nonzero = [v for v in vals if v != 0]
        if not nonzero:
            raise InvalidInstanceError(f"block bid {b.id!r}: all-zero power profile")
        if min(nonzero) < 0 < max(nonzero):
            raise InvalidInstanceError(f"block bid {b.id!r}: mixed-sign power profile")
        for per in b.powers:
            if per not in pers:
                raise InvalidInstanceError(f"block bid {b.id!r}: unknown period {per!r}")
        check_price(b.limit_price, f"block bid {b.id!r}")

    seen = set()
    for c in instance.mic_bids:
        if c.id in seen:
            raise InvalidInstanceError(f"duplicate MIC bid id {c.id!r}")
        seen.add(c.id)
        if not c.suborders:
            raise InvalidInstanceError(f"MIC bid {c.id!r}: needs at least one suborder")
        if c.fixed_cost < 0 or not np.isfinite(c.fixed_cost):
            raise InvalidInstanceError(f"MIC bid {c.id!r}: fixed_cost must be >= 0 and finite")
        if c.variable_cost < 0 or not np.isfinite(c.variable_cost):
            raise InvalidInstanceError(f"MIC bid {c.id!r}: variable_cost must be >= 0 and finite")
        for k, s in enumerate(c.suborders):
            if s.location not in locs:
                raise InvalidInstanceError(f"MIC bid {c.id!r} suborder {k}: unknown location")
            if s.period not in pers:
                raise InvalidInstanceError(f"MIC bid {c.id!r} suborder {k}: unknown period")
            if not np.isfinite(s.power) or s.power >= 0:
                raise InvalidInstanceError(
                    f"MIC bid {c.id!r} suborder {k}: power must be strictly negative (sell)"
                )
            check_price(s.limit_price, f"MIC bid {c.id!r} suborder {k}")


def welfare(instance: Instance, solution: ClearingSolution) -> float:
    """Total surplus of the dispatch: sum of limit-price-weighted traded power."""
    return InstanceIndex(instance).welfare_value(solution.x, solution.x_mic, solution.y)


def traded_volume(instance: Instance, solution: ClearingSolution) -> float:
    """Buy-side matched volume in MWh."""
    return InstanceIndex(instance).buy_volume(solution.x, solution.x_mic, solution.y)


def block_surplus_terms(
    instance: Instance, solution: ClearingSolution, block_id: str
) -> BlockSurplusTerms:
    idx = InstanceIndex(instance)
    ids = [b.id for b in instance.block_bids]
    try:
        j = ids.index(block_id)
    except ValueError:
        raise KeyError(f"no block bid with id {block_id!r}") from None
    sigma = float(idx.block_surplus(solution.prices)[j])
    accepted = solution.y[j] > 0.5
    return BlockSurplusTerms(
        surplus_if_accepted=sigma,
        opportunity_cost=0.0 if accepted else max(0.0, sigma),
        loss=max(0.0, -sigma) if accepted else 0.0,
    )


def total_block_opportunity_cost(instance: Instance, prices: np.ndarray, y: np.ndarray) -> float:
    """Sum over rejected blocks of foregone surplus at the given prices."""
    idx = InstanceIndex(instance)
    if not idx.n_block:
        return 0.0
    sigma = idx.block_surplus(prices)
    return float(np.clip(sigma, 0.0, None) @ (1.0 - np.round(np.asarray(y))))
