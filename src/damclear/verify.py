"""Independent equilibrium verification.

Checks a ClearingSolution against the full condition system: primal
feasibility, dual feasibility, the fifteen complementarity products, the
price range, the welfare/dual-objective equality, the no-loss rules of
PCR-style markets, and the original nonlinear minimum-income condition.
Deliberately model-free: only Instance and ClearingSolution are consulted,
never the MILP, so builder bugs cannot hide from it.

Every residual is scaled by (1 + magnitude of the terms entering the
condition); tolerances below refer to these scaled residuals. A NaN
residual counts as infinite, so a non-finite value fails its family.
Violations are data, not exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import ClearingSolution, Instance, InstanceIndex


@dataclass(frozen=True)
class Tolerances:
    feasibility: float = 1e-6
    complementarity: float = 1e-5
    objective_equality: float = 1e-5
    price_range: float = 1e-6
    pcr_no_loss: float = 1e-6
    mic_income: float = 1e-5


@dataclass(frozen=True)
class Violation:
    condition: str
    element: str
    residual: float


@dataclass
class FamilyResult:
    family: str
    tolerance: float
    max_residual: float = 0.0
    n_checked: int = 0
    applicable: bool = True
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (not self.applicable) or self.max_residual <= self.tolerance

    def record(self, condition: str, element: str, residual: float) -> None:
        self.n_checked += 1
        residual = float(residual)
        if math.isnan(residual):
            # NaN compares false against every bound and would pass unseen
            residual = math.inf
        if residual > self.max_residual:
            self.max_residual = residual
        if residual > self.tolerance and len(self.violations) < 200:
            self.violations.append(Violation(condition, element, residual))

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


def _sc(residual: float, scale: float) -> float:
    return abs(residual) / (1.0 + abs(scale))


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
    tol = tolerances or Tolerances()
    idx = InstanceIndex(instance)
    sol = solution
    cap = instance.price_cap
    pi = idx.prices_flat(sol.prices)
    x = np.asarray(sol.x, dtype=float)
    xm = np.asarray(sol.x_mic, dtype=float)
    y = np.asarray(sol.y, dtype=float)
    u = np.asarray(sol.u, dtype=float)
    n = np.asarray(sol.net_positions, dtype=float)
    v = np.asarray(sol.v, dtype=float)
    si = np.asarray(sol.s_hourly, dtype=float)
    sh = np.asarray(sol.s_mic_sub, dtype=float)
    sj = np.asarray(sol.s_block, dtype=float)
    sc = np.asarray(sol.s_mic, dtype=float)
    da = np.asarray(sol.d_accept, dtype=float)
    dr = np.asarray(sol.d_reject, dtype=float)
    dur = np.asarray(sol.du_reject, dtype=float)

    hourly_ids = [b.id for b in instance.hourly_bids]
    block_ids = [b.id for b in instance.block_bids]
    mic_ids = [c.id for c in instance.mic_bids]
    sub_ids = [
        f"{mic_ids[idx.sub_owner[h]]}/{h - idx.mic_slices[idx.sub_owner[h]].start}"
        for h in range(idx.n_sub)
    ]
    lt_ids = [f"{l},{t}" for l in idx.locations for t in idx.periods]

    primal = FamilyResult("primal", tol.feasibility)
    dual = FamilyResult("dual", tol.feasibility)
    cc = FamilyResult("complementarity", tol.complementarity)
    price = FamilyResult("price-range", tol.price_range)
    objeq = FamilyResult("objective-equality", tol.objective_equality)
    pcrnl = FamilyResult("pcr-no-loss", tol.pcr_no_loss, applicable=(rules == "pcr"))
    micin = verify_mic_income(instance, solution, tol.mic_income)

    # primal feasibility
    for i in range(idx.n_hourly):
        primal.record("primal-eq1", hourly_ids[i], _sc(max(-x[i], x[i] - 1.0, 0.0), x[i]))
    for j in range(idx.n_block):
        primal.record("primal-eq2", block_ids[j], _sc(abs(y[j] - np.rint(y[j])), 1.0))
    for h in range(idx.n_sub):
        own = idx.sub_owner[h]
        primal.record("primal-eq3", sub_ids[h], _sc(max(-xm[h], xm[h] - u[own], 0.0), xm[h]))
    for c in range(idx.n_mic):
        primal.record("primal-eq4", mic_ids[c], _sc(abs(u[c] - np.rint(u[c])), 1.0))
    # balance per (l,t)
    traded = np.zeros(idx.LT)
    scale_bal = np.zeros(idx.LT)
    np.add.at(traded, idx.hourly_lt, idx.hourly_power * x)
    np.add.at(scale_bal, idx.hourly_lt, np.abs(idx.hourly_power * x))
    if idx.n_sub:
        np.add.at(traded, idx.sub_lt, idx.sub_power * xm)
        np.add.at(scale_bal, idx.sub_lt, np.abs(idx.sub_power * xm))
    for j in range(idx.n_block):
        base = idx.block_loc[j] * idx.T
        for t in range(idx.T):
            p = idx.block_powers[j, t]
            if p:
                traded[base + t] += p * y[j]
                scale_bal[base + t] += abs(p * y[j])
    injected = idx.injection_flat.T @ n if idx.n_basis else np.zeros(idx.LT)
    for lt in range(idx.LT):
        primal.record(
            "primal-eq5", lt_ids[lt],
            _sc(traded[lt] - injected[lt], scale_bal[lt] + abs(injected[lt])),
        )
    # network limits
    a = instance.network.constraint_rows
    w = instance.network.capacities
    flows = a @ n if idx.n_net_rows else np.zeros(0)
    for m in range(idx.n_net_rows):
        primal.record("primal-eq6", f"row{m}", _sc(max(flows[m] - w[m], 0.0), abs(w[m]) + abs(flows[m])))

    # dual feasibility
    h_slack = si + idx.hourly_power * (pi[idx.hourly_lt] - idx.hourly_limit)
    for i in range(idx.n_hourly):
        scale = abs(si[i]) + abs(idx.hourly_power[i]) * (abs(pi[idx.hourly_lt[i]]) + abs(idx.hourly_limit[i]))
        dual.record("dual-eq1", hourly_ids[i], _sc(max(-h_slack[i], 0.0), scale))
    m_slack = sh + idx.sub_power * (pi[idx.sub_lt] - idx.sub_limit) if idx.n_sub else np.zeros(0)
    for h in range(idx.n_sub):
        scale = abs(sh[h]) + abs(idx.sub_power[h]) * (abs(pi[idx.sub_lt[h]]) + abs(idx.sub_limit[h]))
        dual.record("dual-eq2", sub_ids[h], _sc(max(-m_slack[h], 0.0), scale))
    blk_gain = idx.block_surplus(sol.prices) if idx.n_block else np.zeros(0)
    blk_slack = sj + dr - da - blk_gain if idx.n_block else np.zeros(0)
    for j in range(idx.n_block):
        scale = abs(sj[j]) + abs(dr[j]) + abs(da[j]) + abs(blk_gain[j])
        cond = "dual-eq4" if y[j] > 0.5 else "dual-eq3"
        dual.record(cond, block_ids[j], _sc(max(-blk_slack[j], 0.0), scale))
    sub_sum = np.zeros(idx.n_mic)
    if idx.n_sub:
        np.add.at(sub_sum, idx.sub_owner, sh)
    for c in range(idx.n_mic):
        slack = sc[c] + dur[c] - sub_sum[c]
        scale = abs(sc[c]) + abs(dur[c]) + abs(sub_sum[c])
        cond = "dual-eq6" if u[c] > 0.5 else "dual-eq5"
        dual.record(cond, mic_ids[c], _sc(max(-slack, 0.0), scale))
    if idx.n_basis:
        lhs = a.T @ v if idx.n_net_rows else np.zeros(idx.n_basis)
        rhs = idx.injection_flat @ pi
        for k in range(idx.n_basis):
            dual.record("dual-eq7", f"k{k}", _sc(lhs[k] - rhs[k], abs(lhs[k]) + abs(rhs[k])))
    for name, arr, ids in (
        ("s_hourly", si, hourly_ids), ("s_mic_sub", sh, sub_ids),
        ("s_block", sj, block_ids), ("s_mic", sc, mic_ids),
        ("v", v, [f"row{m}" for m in range(idx.n_net_rows)]),
        ("d_accept", da, block_ids), ("d_reject", dr, block_ids),
        ("du_reject", dur, mic_ids),
    ):
        for k in range(len(arr)):
            dual.record("dual-eq8", f"{name}[{ids[k]}]", _sc(max(-arr[k], 0.0), arr[k]))

    # complementarity products
    for i in range(idx.n_hourly):
        cc.record("cc-eq1", hourly_ids[i], _sc(si[i] * (1.0 - x[i]), si[i] + abs(1.0 - x[i])))
    for j in range(idx.n_block):
        cc.record("cc-eq2", block_ids[j], _sc(sj[j] * (1.0 - y[j]), sj[j] + abs(1.0 - y[j])))
    for h in range(idx.n_sub):
        own = idx.sub_owner[h]
        cc.record("cc-eq3", sub_ids[h], _sc(sh[h] * (u[own] - xm[h]), sh[h] + abs(u[own] - xm[h])))
    for c in range(idx.n_mic):
        cc.record("cc-eq4", mic_ids[c], _sc(sc[c] * (1.0 - u[c]), sc[c] + abs(1.0 - u[c])))
    for m in range(idx.n_net_rows):
        slack = w[m] - flows[m]
        cc.record("cc-eq5", f"row{m}", _sc(v[m] * slack, v[m] + abs(slack)))
    for c in range(idx.n_mic):
        cc.record("cc-eq6", mic_ids[c], _sc(u[c] * dur[c], u[c] + dur[c]))
        cc.record("cc-eq7", mic_ids[c], 0.0)  # du^a is identically zero
    for j in range(idx.n_block):
        cc.record("cc-eq8", block_ids[j], _sc(y[j] * dr[j], y[j] + dr[j]))
        cc.record("cc-eq9", block_ids[j], _sc((1.0 - y[j]) * da[j], abs(1.0 - y[j]) + da[j]))
    for i in range(idx.n_hourly):
        scale = abs(h_slack[i]) + x[i]
        cc.record("cc-eq10", hourly_ids[i], _sc(x[i] * h_slack[i], scale))
    for h in range(idx.n_sub):
        cc.record("cc-eq11", sub_ids[h], _sc(xm[h] * m_slack[h], abs(m_slack[h]) + xm[h]))
    for j in range(idx.n_block):
        if y[j] > 0.5:
            # accepted row tightness: s_j - d^a + sum P(pi - limit) pinned to 0
            slack_a = sj[j] - da[j] - blk_gain[j]
            cc.record("cc-eq13", block_ids[j], _sc(y[j] * slack_a, abs(slack_a) + abs(blk_gain[j])))
            cc.record("cc-eq12", block_ids[j], 0.0)
        else:
            slack_r = sj[j] + dr[j] - blk_gain[j]
            cc.record("cc-eq12", block_ids[j], _sc(y[j] * slack_r, abs(slack_r) + y[j]))
            cc.record("cc-eq13", block_ids[j], 0.0)
    for c in range(idx.n_mic):
        if u[c] > 0.5:
            slack_a = sc[c] - sub_sum[c]
            cc.record("cc-eq15", mic_ids[c], _sc(u[c] * slack_a, abs(slack_a) + sub_sum[c]))
            cc.record("cc-eq14", mic_ids[c], 0.0)
        else:
            slack_r = sc[c] + dur[c] - sub_sum[c]
            cc.record("cc-eq14", mic_ids[c], _sc(u[c] * slack_r, abs(slack_r) + u[c]))
            cc.record("cc-eq15", mic_ids[c], 0.0)

    # price range
    for lt in range(idx.LT):
        price.record("price-range", lt_ids[lt], _sc(max(abs(pi[lt]) - cap, 0.0), cap))

    # objective equality (the equilibrium glue: welfare must equal the dual
    # objective exactly, which is what pins every feasible point to the
    # fixed-selection optimum)
    W = idx.welfare_value(x, xm, y)
    D = float(si.sum() + sj.sum() + sc.sum() - da.sum())
    if idx.n_net_rows:
        D += float(w @ v)
    objeq.record("objective-equality", "model", _sc(W - D, W))

    # pcr rules: no paradoxical acceptance, no accepted-block loss
    if rules == "pcr":
        for j in range(idx.n_block):
            pcrnl.record("pcr-d-accept", block_ids[j], _sc(da[j], da[j]))
            if y[j] > 0.5:
                pcrnl.record(
                    "pcr-block-loss", block_ids[j],
                    _sc(max(-blk_gain[j], 0.0), abs(blk_gain[j])),
                )

    families = {
        f.family: f for f in (primal, dual, cc, price, objeq, pcrnl, micin)
    }
    return VerificationReport(families=families, welfare=W, dual_objective=D, rules=rules)


def verify_mic_income(instance: Instance, solution: ClearingSolution, tol: float = 1e-5) -> FamilyResult:
    """Check the nonlinear income condition at the solved point.

    For each active MIC bid: revenue collected at the clearing prices must
    cover fixed cost plus variable cost times the volume sold, evaluated as
    the actual product of solved fractions and solved prices (not the
    linearized surrogate). Also pins the identity that makes the surrogate
    exact: income = limit-weighted traded value - s_c. Residuals are scaled
    by (1 + fixed_cost). Rejected bids pass vacuously.
    """
    fam = FamilyResult("mic-income", tol)
    idx = InstanceIndex(instance)
    if idx.n_mic == 0:
        return fam
    income = idx.mic_income(solution.x_mic, solution.prices)
    sold = idx.mic_sold_volume(solution.x_mic)
    pi = idx.prices_flat(solution.prices)
    for c in range(idx.n_mic):
        if solution.u[c] <= 0.5:
            continue
        cid = instance.mic_bids[c].id
        F, V = idx.mic_fixed[c], idx.mic_variable[c]
        required = F + V * sold[c]
        fam.record("mic-income", cid, max(required - income[c], 0.0) / (1.0 + F))
        sl = idx.mic_slices[c]
        hs = slice(sl.start, sl.stop)
        traded_value = float(
            (idx.sub_power[hs] * idx.sub_limit[hs]) @ np.asarray(solution.x_mic)[hs]
        )
        lhs = float((idx.sub_power[hs] * np.asarray(solution.x_mic)[hs]) @ pi[idx.sub_lt[hs]])
        ident = lhs - (traded_value - float(solution.s_mic[c]))
        fam.record("mic-identity", cid, abs(ident) / (1.0 + F))
    return fam


def opportunity_cost_summary(instance: Instance, solution: ClearingSolution) -> dict:
    """Per-block opportunity costs and losses, plus rejected-MIC missed surplus.

    The missed-surplus sum of a rejected MIC bid is a lower bound its
    du_reject slack must cover; 'mic_bound_ok' reports that comparison.
    """
    idx = InstanceIndex(instance)
    sigma = idx.block_surplus(solution.prices) if idx.n_block else np.zeros(0)
    per_block_oc = {}
    per_block_loss = {}
    total = 0.0
    for j, b in enumerate(instance.block_bids):
        if solution.y[j] > 0.5:
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
        gain = np.clip(idx.sub_surplus(solution.prices), 0.0, None)
        for c, mic in enumerate(instance.mic_bids):
            if solution.u[c] > 0.5:
                continue
            sl = idx.mic_slices[c]
            tot = float(gain[sl.start: sl.stop].sum())
            missed[mic.id] = tot
            bound_ok[mic.id] = tot <= float(solution.du_reject[c]) + 1e-6 * (1.0 + tot)
    return {
        "per_block_opportunity_cost": per_block_oc,
        "per_block_loss": per_block_loss,
        "total_opportunity_cost": total,
        "per_mic_missed_surplus": missed,
        "mic_bound_ok": bound_ok,
    }
