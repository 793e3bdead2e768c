"""Independent equilibrium verification.

Checks a ClearingSolution against the full condition system: primal
feasibility, dual feasibility, the fifteen complementarity products, the
price range, the welfare/dual-objective equality, the no-loss rules of
PCR-style markets, and the original nonlinear minimum-income condition.
Deliberately model-free: only Instance and ClearingSolution are consulted,
never the MILP, so builder bugs cannot hide from it.

Each condition is evaluated over all its elements at once, as one array of
residuals. Every residual is scaled by (1 + magnitude of the terms entering
the condition); tolerances below refer to these scaled residuals. A NaN
residual counts as infinite, so a non-finite value fails its family.
Residuals are computed with numpy's floating-point warnings off:
an infinite entry gives inf - inf, 0 * inf and inf / inf terms, whose NaN
residuals are reported, not raised, also where warnings are errors.
Violations are data, not exceptions: a family lists them condition by
condition, in element order within a condition, and keeps the first 200.
A solution array whose shape is not the instance's is an error
(ValueError), as is an unknown rule set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Union

import numpy as np

from .model import ClearingSolution, Instance, InstanceIndex

MAX_VIOLATIONS = 200


@dataclass(frozen=True)
class Tolerances:
    feasibility: float = 1e-6
    complementarity: float = 1e-5
    objective_equality: float = 1e-5
    price_range: float = 1e-6
    pcr_no_loss: float = 1e-6
    mic_income: float = 1e-5

    def __post_init__(self):
        for f in fields(self):
            # the negated comparison also rejects NaN
            if not getattr(self, f.name) >= 0:
                raise ValueError(f"tolerance {f.name} must be >= 0")


@dataclass(frozen=True)
class Violation:
    condition: str
    element: str
    residual: float


@dataclass
class FamilyResult:
    """The checked conditions of one family: the largest scaled residual,
    how many residuals were checked, and the first MAX_VIOLATIONS
    residuals above the tolerance."""

    family: str
    tolerance: float
    max_residual: float = 0.0
    n_checked: int = 0
    applicable: bool = True
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.max_residual <= self.tolerance

    def check(self, condition: Union[str, Callable[[int], str]], residuals: np.ndarray,
              element: Callable[[int], str]) -> None:
        """Record one condition: residuals[k] belongs to the element named
        element(k). condition is the condition's name, or a function of k
        where the name depends on the element. Names are built only for
        violations."""
        self.n_checked += residuals.size
        if not residuals.size:
            return
        top = float(residuals.max())
        if math.isnan(top):
            # NaN compares false against every bound and would pass unseen
            residuals = np.where(np.isnan(residuals), math.inf, residuals)
            top = math.inf
        self.max_residual = max(self.max_residual, top)
        if top <= self.tolerance:
            return
        room = MAX_VIOLATIONS - len(self.violations)
        for k in np.flatnonzero(residuals > self.tolerance)[:room]:
            name = condition if isinstance(condition, str) else condition(k)
            self.violations.append(Violation(name, element(k), float(residuals[k])))

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "passed": self.passed,
            "applicable": self.applicable,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "n_checked": self.n_checked,
            "violations": [
                {"condition": v.condition, "element": v.element, "residual": v.residual}
                for v in self.violations
            ],
        }


@dataclass
class VerificationReport:
    families: dict
    welfare: float
    dual_objective: float
    rules: str

    @property
    def overall_pass(self) -> bool:
        return all(f.passed for f in self.families.values())

    def failing_families(self) -> list:
        return sorted(f.family for f in self.families.values() if not f.passed)

    def as_dict(self) -> dict:
        return {
            "overall_pass": self.overall_pass,
            "rules": self.rules,
            "welfare": self.welfare,
            "dual_objective": self.dual_objective,
            "families": {k: v.as_dict() for k, v in self.families.items()},
        }


def _scaled(residual, scale):
    return np.abs(residual) / (1.0 + np.abs(scale))


def _solution_arrays(idx: InstanceIndex, solution: ClearingSolution) -> dict:
    """Every array of the solution as floats, keyed and ordered by field.

    Raises ValueError naming the first field whose shape is not the
    instance's, so a missing or extra entry is never read past or ignored.
    """
    h, s, b, c = (idx.n_hourly,), (idx.n_sub,), (idx.n_block,), (idx.n_mic,)
    want = dict(x=h, x_mic=s, y=b, u=c, net_positions=(idx.n_basis,), prices=(idx.L, idx.T),
                v=(idx.n_net_rows,), s_hourly=h, s_block=b, s_mic=c, s_mic_sub=s,
                d_accept=b, d_reject=b, du_reject=c)
    arrays = {}
    for name, shape in want.items():
        arrays[name] = np.asarray(getattr(solution, name), dtype=float)
        if arrays[name].shape != shape:
            raise ValueError(f"solution.{name} has shape {arrays[name].shape}, expected {shape}")
    return arrays


@np.errstate(all="ignore")
def verify_equilibrium(
    instance: Instance,
    solution: ClearingSolution,
    tolerances: Optional[Tolerances] = None,
    rules: str = "pcr",
) -> VerificationReport:
    """Evaluate every equilibrium condition literally from solution values.

    Under rules='umfs' the pcr-no-loss family is marked not applicable
    (paradoxical acceptance is legal there and compensated through
    d_accept). All other families are rule-independent.
    """
    if rules not in ("pcr", "umfs"):
        raise ValueError(f"unknown rules {rules!r}")
    tol = tolerances or Tolerances()
    idx = InstanceIndex(instance)
    arrays = _solution_arrays(idx, solution)
    x, xm, y, u, n, prices, v, si, sj, sc, sh, da, dr, dur = arrays.values()
    pi = prices.reshape(idx.LT)
    # element names, built only for violations
    hourly = lambda i: instance.hourly_bids[i].id
    block = lambda j: instance.block_bids[j].id
    mic = lambda c: instance.mic_bids[c].id
    sub = lambda h: f"{mic(idx.sub_owner[h])}/{h - idx.mic_slices[idx.sub_owner[h]].start}"
    cell = lambda lt: f"{idx.locations[lt // idx.T]},{idx.periods[lt % idx.T]}"
    row = lambda m: f"row{m}"
    accepted = y > 0.5
    active = u > 0.5
    u_sub = u[idx.sub_owner]

    primal = FamilyResult("primal", tol.feasibility)
    dual = FamilyResult("dual", tol.feasibility)
    cc = FamilyResult("complementarity", tol.complementarity)
    price = FamilyResult("price-range", tol.price_range)
    objeq = FamilyResult("objective-equality", tol.objective_equality)
    pcrnl = FamilyResult("pcr-no-loss", tol.pcr_no_loss, applicable=(rules == "pcr"))
    micin = _mic_income(idx, arrays, tol.mic_income)

    # primal feasibility
    primal.check("primal-eq1", _scaled(np.maximum(np.maximum(-x, x - 1.0), 0.0), x), hourly)
    primal.check("primal-eq2", _scaled(y - np.rint(y), 1.0), block)
    primal.check("primal-eq3", _scaled(np.maximum(np.maximum(-xm, xm - u_sub), 0.0), xm), sub)
    primal.check("primal-eq4", _scaled(u - np.rint(u), 1.0), mic)
    # balance per (l,t); bincount sums each cell's terms in the order given
    bj, bt = np.nonzero(idx.block_powers)
    cells = np.concatenate([idx.hourly_lt, idx.sub_lt, idx.block_loc[bj] * idx.T + bt])
    flow = np.concatenate([
        idx.hourly_power * x, idx.sub_power * xm, idx.block_powers[bj, bt] * y[bj]])
    traded = np.bincount(cells, flow, minlength=idx.LT)
    scale_bal = np.bincount(cells, np.abs(flow), minlength=idx.LT)
    injected = idx.injection_flat.T @ n
    primal.check(
        "primal-eq5", _scaled(traded - injected, scale_bal + np.abs(injected)), cell
    )
    # network limits
    a = instance.network.constraint_rows
    w = instance.network.capacities
    flows = a @ n
    primal.check("primal-eq6", _scaled(np.maximum(flows - w, 0.0), np.abs(w) + np.abs(flows)), row)

    # dual feasibility
    pi_h = pi[idx.hourly_lt]
    h_slack = si + idx.hourly_power * (pi_h - idx.hourly_limit)
    h_scale = np.abs(si) + np.abs(idx.hourly_power) * (np.abs(pi_h) + np.abs(idx.hourly_limit))
    dual.check("dual-eq1", _scaled(np.maximum(-h_slack, 0.0), h_scale), hourly)
    pi_s = pi[idx.sub_lt]
    m_slack = sh + idx.sub_power * (pi_s - idx.sub_limit)
    m_scale = np.abs(sh) + np.abs(idx.sub_power) * (np.abs(pi_s) + np.abs(idx.sub_limit))
    dual.check("dual-eq2", _scaled(np.maximum(-m_slack, 0.0), m_scale), sub)
    blk_gain = idx.block_surplus(prices)
    blk_slack = sj + dr - da - blk_gain
    blk_scale = np.abs(sj) + np.abs(dr) + np.abs(da) + np.abs(blk_gain)
    dual.check(
        lambda j: "dual-eq4" if accepted[j] else "dual-eq3",
        _scaled(np.maximum(-blk_slack, 0.0), blk_scale), block,
    )
    sub_sum = np.bincount(idx.sub_owner, sh, minlength=idx.n_mic)
    mic_slack = sc + dur - sub_sum
    mic_scale = np.abs(sc) + np.abs(dur) + np.abs(sub_sum)
    dual.check(
        lambda c: "dual-eq6" if active[c] else "dual-eq5",
        _scaled(np.maximum(-mic_slack, 0.0), mic_scale), mic,
    )
    lhs = a.T @ v
    rhs = idx.injection_flat @ pi
    dual.check("dual-eq7", _scaled(lhs - rhs, np.abs(lhs) + np.abs(rhs)), lambda k: f"k{k}")
    for name, arr, ids in (
        ("s_hourly", si, hourly), ("s_mic_sub", sh, sub),
        ("s_block", sj, block), ("s_mic", sc, mic), ("v", v, row),
        ("d_accept", da, block), ("d_reject", dr, block), ("du_reject", dur, mic),
    ):
        # the namer is called inside check, before name and ids move on
        dual.check("dual-eq8", _scaled(np.maximum(-arr, 0.0), arr), lambda k: f"{name}[{ids(k)}]")

    # complementarity products
    cc.check("cc-eq1", _scaled(si * (1.0 - x), si + np.abs(1.0 - x)), hourly)
    cc.check("cc-eq2", _scaled(sj * (1.0 - y), sj + np.abs(1.0 - y)), block)
    cc.check("cc-eq3", _scaled(sh * (u_sub - xm), sh + np.abs(u_sub - xm)), sub)
    cc.check("cc-eq4", _scaled(sc * (1.0 - u), sc + np.abs(1.0 - u)), mic)
    slack = w - flows
    cc.check("cc-eq5", _scaled(v * slack, v + np.abs(slack)), row)
    cc.check("cc-eq6", _scaled(u * dur, u + dur), mic)
    cc.check("cc-eq7", np.zeros(idx.n_mic), mic)  # du^a is identically zero
    cc.check("cc-eq8", _scaled(y * dr, y + dr), block)
    cc.check("cc-eq9", _scaled((1.0 - y) * da, np.abs(1.0 - y) + da), block)
    cc.check("cc-eq10", _scaled(x * h_slack, np.abs(h_slack) + x), hourly)
    cc.check("cc-eq11", _scaled(xm * m_slack, np.abs(m_slack) + xm), sub)
    # each block is checked by the product of its branch; the other reads 0
    slack_r = sj + dr - blk_gain
    slack_a = sj - da - blk_gain  # accepted row: s_j - d^a + sum P(pi - limit)
    cc.check("cc-eq12", np.where(
        accepted, 0.0, _scaled(y * slack_r, np.abs(slack_r) + y)), block)
    cc.check("cc-eq13", np.where(
        accepted, _scaled(y * slack_a, np.abs(slack_a) + np.abs(blk_gain)), 0.0), block)
    slack_r = sc + dur - sub_sum
    slack_a = sc - sub_sum
    cc.check("cc-eq14", np.where(
        active, 0.0, _scaled(u * slack_r, np.abs(slack_r) + u)), mic)
    cc.check("cc-eq15", np.where(
        active, _scaled(u * slack_a, np.abs(slack_a) + sub_sum), 0.0), mic)

    # price range
    cap = instance.price_cap
    price.check("price-range", _scaled(np.maximum(np.abs(pi) - cap, 0.0), cap), cell)

    # objective equality (the equilibrium glue: welfare must equal the dual
    # objective exactly, which is what pins every feasible point to the
    # fixed-selection optimum)
    W = idx.welfare_value(x, xm, y)
    D = float(si.sum() + sj.sum() + sc.sum() - da.sum())
    if idx.n_net_rows:
        D += float(w @ v)
    objeq.check("objective-equality", _scaled(np.array([W - D]), W), lambda k: "model")

    # pcr rules: no paradoxical acceptance, no accepted-block loss
    if rules == "pcr":
        pcrnl.check("pcr-d-accept", _scaled(da, da), block)
        taken = np.flatnonzero(accepted)
        gain = blk_gain[taken]
        pcrnl.check("pcr-block-loss", _scaled(np.maximum(-gain, 0.0), gain),
                    lambda k: block(taken[k]))

    families = {
        f.family: f for f in (primal, dual, cc, price, objeq, pcrnl, micin)
    }
    return VerificationReport(families=families, welfare=W, dual_objective=D, rules=rules)


@np.errstate(all="ignore")
def verify_mic_income(instance: Instance, solution: ClearingSolution, tol: float = 1e-5) -> FamilyResult:
    """Check the nonlinear income condition at the solved point.

    For each active MIC bid: revenue collected at the clearing prices must
    cover fixed cost plus variable cost times the volume sold, evaluated as
    the actual product of solved fractions and solved prices (not the
    linearized surrogate). Also pins the identity that makes the surrogate
    exact: income = limit-weighted traded value - s_c. Residuals are scaled
    by (1 + fixed_cost). Rejected bids pass vacuously.
    """
    idx = InstanceIndex(instance)
    return _mic_income(idx, _solution_arrays(idx, solution), tol)


def _mic_income(idx: InstanceIndex, arrays: dict, tol: float) -> FamilyResult:
    """verify_mic_income over the solution's arrays (_solution_arrays)."""
    fam = FamilyResult("mic-income", tol)
    xm, prices = arrays["x_mic"], arrays["prices"]
    # a NaN u is not rejected, so its bid is checked
    on = np.flatnonzero(~(arrays["u"] <= 0.5))
    name = lambda k: idx.instance.mic_bids[on[k]].id
    F = idx.mic_fixed[on]
    required = F + idx.mic_variable[on] * idx.mic_sold_volume(xm)[on]
    income = idx.mic_income(xm, prices)[on]
    fam.check("mic-income", np.maximum(required - income, 0.0) / (1.0 + F), name)
    pi = prices.reshape(idx.LT)
    ident = np.empty(on.size)
    for k, c in enumerate(on):
        hs = idx.mic_slices[c]
        traded_value = (idx.sub_power[hs] * idx.sub_limit[hs]) @ xm[hs]
        lhs = (idx.sub_power[hs] * xm[hs]) @ pi[idx.sub_lt[hs]]
        ident[k] = lhs - (traded_value - arrays["s_mic"][c])
    fam.check("mic-identity", np.abs(ident) / (1.0 + F), name)
    return fam


def opportunity_cost_summary(instance: Instance, solution: ClearingSolution) -> dict:
    """Per-block opportunity costs and losses, plus rejected-MIC missed surplus.

    The missed-surplus sum of a rejected MIC bid is a lower bound its
    du_reject slack must cover; 'mic_bound_ok' reports that comparison.
    """
    idx = InstanceIndex(instance)
    arrays = _solution_arrays(idx, solution)
    y, u, prices = arrays["y"], arrays["u"], arrays["prices"]
    sigma = idx.block_surplus(prices)
    per_block_oc = {}
    per_block_loss = {}
    total = 0.0
    for j, b in enumerate(instance.block_bids):
        if y[j] > 0.5:
            per_block_oc[b.id] = 0.0
            per_block_loss[b.id] = max(0.0, -float(sigma[j]))
        else:
            oc = max(0.0, float(sigma[j]))
            per_block_oc[b.id] = oc
            per_block_loss[b.id] = 0.0
            total += oc
    missed = {}
    bound_ok = {}
    if idx.n_mic:
        gain = np.clip(idx.sub_surplus(prices), 0.0, None)
        for c, mic in enumerate(instance.mic_bids):
            if u[c] > 0.5:
                continue
            sl = idx.mic_slices[c]
            tot = float(gain[sl.start: sl.stop].sum())
            missed[mic.id] = tot
            bound_ok[mic.id] = tot <= float(arrays["du_reject"][c]) + 1e-6 * (1.0 + tot)
    return {
        "per_block_opportunity_cost": per_block_oc,
        "per_block_loss": per_block_loss,
        "total_opportunity_cost": total,
        "per_mic_missed_surplus": missed,
        "mic_bound_ok": bound_ok,
    }
