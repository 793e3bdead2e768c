"""Primal-dual MILP assembly for non-convex auction clearing.

The model carries primal dispatch variables, dual multipliers (prices,
surpluses, congestion rents) and, in the unrestricted form, per-block
compensation variables for paradoxical acceptance (d_accept) together with
opportunity-cost slacks for paradoxical rejection (d_reject, du_reject).
A single objective-equality row ties the primal objective to the dual one;
weak duality then pins both to the fixed-selection optimum at every feasible
point, which is what makes any feasible point an equilibrium.

The linearized minimum-income rows, one per MIC bid, are part of every
model. build_model assembles one of two forms:

* ``umfs``: dispatchers bound the d variables through big-M rows switched
  by the acceptance binaries; paradoxical acceptance is representable.
* ``pcr``: the d columns are eliminated and their dispatchers merged into
  the dual rows (big-M deactivation of rejected bids' dual rows), which
  forbids paradoxical acceptance outright. Binary count is exactly
  #blocks + #MIC bids in both forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import BlockBid, Instance, InstanceIndex, MicBid, validate_instance

OBJECTIVES = ("welfare", "volume", "min_opportunity_cost")


class ModelFormError(ValueError):
    """Raised when an operation is incompatible with the model's form."""


@dataclass(frozen=True)
class BigMSet:
    """Deactivation constants, one per block / MIC bid.

    ``block_reject`` caps the opportunity-cost slack of a rejected block,
    ``block_accept`` caps the compensation of a paradoxically accepted one
    (the two sides need different constants: a sell block's worst loss
    exceeds its worst missed surplus whenever its limit price is positive).
    ``mic_reject`` caps the suborder-surplus sum a rejected MIC bid must
    absorb; ``mic_income`` is the fixed-cost constant that deactivates the
    income row when the bid is rejected.
    """

    block_reject: np.ndarray
    block_accept: np.ndarray
    mic_reject: np.ndarray
    mic_income: np.ndarray


def compute_big_m_block(block: BlockBid, price_cap: float) -> float:
    """Smallest safe constant for a rejected block's opportunity cost.

    A rejected block's missed surplus is sum_t P_t (limit - pi_t); with
    prices confined to [-cap, cap] this cannot exceed (cap - limit) * sum|P|
    for a sell block or (limit + cap) * sum|P| for a buy block.
    """
    total_abs = float(sum(abs(p) for p in block.powers.values()))
    if block.total_power() < 0:
        return (price_cap - block.limit_price) * total_abs
    return (block.limit_price + price_cap) * total_abs


def compute_big_m_block_loss(block: BlockBid, price_cap: float) -> float:
    """Safe constant for an accepted block's loss, the mirror bound."""
    total_abs = float(sum(abs(p) for p in block.powers.values()))
    if block.total_power() < 0:
        return (block.limit_price + price_cap) * total_abs
    return (price_cap - block.limit_price) * total_abs


def compute_big_m_mic(mic: MicBid, price_cap: float) -> float:
    """Cap on the total suborder surplus a rejected MIC bid can leave behind.

    Each sell suborder's surplus multiplier is at most
    |P_hc| (cap + |limit_hc|) whatever the prices, so the sum over the
    bid's suborders bounds the deactivated dual row.
    """
    return float(
        sum(abs(s.power) * (price_cap + abs(s.limit_price)) for s in mic.suborders)
    )


def big_m_set(instance: Instance) -> BigMSet:
    cap = instance.price_cap
    return BigMSet(
        block_reject=np.array(
            [compute_big_m_block(b, cap) for b in instance.block_bids], dtype=float
        ),
        block_accept=np.array(
            [compute_big_m_block_loss(b, cap) for b in instance.block_bids], dtype=float
        ),
        mic_reject=np.array(
            [compute_big_m_mic(c, cap) for c in instance.mic_bids], dtype=float
        ),
        mic_income=np.array([c.fixed_cost for c in instance.mic_bids], dtype=float),
    )


@dataclass
class MilpModel:
    """Sparse row-major MILP with role-indexed columns.

    Rows are stored as (column-index array, coefficient array) pairs with a
    sense in {'<', '=', '>'} and a right-hand side; constraint_csc()
    exports them as numpy arrays in compressed-column form, the one matrix
    the backend and point_violations read. ``roles`` maps a column
    group name to its slice.
    ``warm_start`` holds a full column vector or None. Bounds may be
    tightened in place (that is how selections get fixed); rows are append-
    only after construction.
    """

    instance: Instance
    form: str
    var_names: list[str]
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    roles: dict[str, slice]
    row_cols: list[np.ndarray]
    row_coefs: list[np.ndarray]
    row_sense: list[str]
    row_rhs: list[float]
    row_names: list[str]
    objective: Optional[np.ndarray] = None
    objective_sense: str = "max"
    warm_start: Optional[np.ndarray] = None

    @property
    def n_cols(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.row_cols)

    @property
    def n_binary(self) -> int:
        return int(self.integrality.sum())

    def copy(self) -> "MilpModel":
        return MilpModel(
            instance=self.instance,
            form=self.form,
            var_names=list(self.var_names),
            lb=self.lb.copy(),
            ub=self.ub.copy(),
            integrality=self.integrality.copy(),
            roles=dict(self.roles),
            row_cols=list(self.row_cols),
            row_coefs=list(self.row_coefs),
            row_sense=list(self.row_sense),
            row_rhs=list(self.row_rhs),
            row_names=list(self.row_names),
            objective=None if self.objective is None else self.objective.copy(),
            objective_sense=self.objective_sense,
            warm_start=None if self.warm_start is None else self.warm_start.copy(),
        )

    def add_row(self, cols, coefs, sense: str, rhs: float, name: str) -> int:
        assert sense in ("<", "=", ">")
        idx = len(self.row_cols)
        self.row_cols.append(np.asarray(cols, dtype=int))
        self.row_coefs.append(np.asarray(coefs, dtype=float))
        self.row_sense.append(sense)
        self.row_rhs.append(float(rhs))
        self.row_names.append(name)
        return idx

    def constraint_csc(self):
        """The rows in compressed-column form, as numpy arrays (start, index, value).

        Column j's entries are rows index[start[j]:start[j + 1]] with
        coefficients value[start[j]:start[j + 1]], in stored row order and,
        within a row, in stored entry order; explicit zeros and repeated
        columns are kept as entries.
        """
        if self.n_rows:
            cols = np.concatenate(self.row_cols)
            value = np.concatenate(self.row_coefs)
        else:
            cols, value = np.zeros(0, dtype=np.int64), np.zeros(0)
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int32), [len(c) for c in self.row_cols])
        order = np.argsort(cols, kind="stable")
        start = np.zeros(self.n_cols + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=self.n_cols), out=start[1:])
        return start, rows[order], value[order]

    def row_bounds(self):
        """(lower, upper) per row for interval-form constraints."""
        sense = np.asarray(self.row_sense, dtype="U1")
        rhs = np.asarray(self.row_rhs, dtype=float)
        return np.where(sense == "<", -np.inf, rhs), np.where(sense == ">", np.inf, rhs)

    def point_violations(self, point: np.ndarray) -> dict:
        """Constraint residuals of a column vector, for checks and tests.

        Returns row violations (positive where the row fails), bound
        violations and their maximum. Integrality is not checked.
        """
        point = np.asarray(point, dtype=float)
        start, index, value = self.constraint_csc()
        act = np.bincount(index, weights=value * np.repeat(point, np.diff(start)), minlength=self.n_rows)
        rhs = np.asarray(self.row_rhs, dtype=float)
        sense = np.asarray(self.row_sense)
        rows = np.where(sense == "<", act - rhs, np.where(sense == ">", rhs - act, np.abs(act - rhs)))
        rows = np.clip(rows, 0.0, None)
        lbv = np.clip(self.lb - point, 0.0, None)
        ubv = np.clip(point - self.ub, 0.0, None)
        mx = max(
            rows.max() if rows.size else 0.0,
            lbv.max() if lbv.size else 0.0,
            ubv.max() if ubv.size else 0.0,
        )
        return {"rows": rows, "lb": lbv, "ub": ubv, "max": float(mx)}


def _san(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in name)


def build_model(instance: Instance, form: str) -> MilpModel:
    """Assemble the primal-dual model in the given form ("umfs" or "pcr").

    Columns, in order: hourly fractions x, MIC suborder fractions x_mic,
    block binaries y, MIC binaries u, net positions n, prices pi, network
    duals v, surpluses s_hourly / s_mic_sub / s_block / s_mic, then, in the
    umfs form only, the block compensations d_accept and the rejection
    slacks d_reject / du_reject. The paradoxical-rejection compensations
    du^a are fixed to zero by omission (they can be zeroed without loss of
    generality). The minimum-income rows come last. No objective is set.
    """
    if form not in ("umfs", "pcr"):
        raise ValueError(f"unknown form {form!r}")
    validate_instance(instance)
    return _assemble(instance, form)


def forbid_paradoxical_acceptance(model: MilpModel) -> MilpModel:
    """Pin every d_accept column to zero (PCR market rules on the unrestricted form).

    Used for the opportunity-cost objective, which needs the d_reject
    columns that the merged pcr form eliminates.
    """
    if model.form != "umfs":
        raise ModelFormError("d_accept columns exist only in the umfs form")
    sl = model.roles["d_accept"]
    model.lb[sl] = 0.0
    model.ub[sl] = 0.0
    return model


def set_objective(model: MilpModel, objective: str) -> MilpModel:
    """Install one of the supported objectives on the model in place.

    welfare: limit-price value of the dispatch (maximized).
    volume: buy-side traded MWh (maximized).
    min_opportunity_cost: total rejected-block compensation sum d_reject
    (minimized); requires the umfs form since pcr eliminates those columns.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    idx = InstanceIndex(model.instance)
    c = np.zeros(model.n_cols)
    if objective == "welfare":
        c[model.roles["x"]] = idx.hourly_power * idx.hourly_limit
        c[model.roles["x_mic"]] = idx.sub_power * idx.sub_limit
        c[model.roles["y"]] = idx.block_total * idx.block_limit
        model.objective_sense = "max"
    elif objective == "volume":
        c[model.roles["x"]] = np.clip(idx.hourly_power, 0.0, None)
        c[model.roles["x_mic"]] = np.clip(idx.sub_power, 0.0, None)
        c[model.roles["y"]] = np.clip(idx.block_powers, 0.0, None).sum(axis=1)
        model.objective_sense = "max"
    else:
        if "d_reject" not in model.roles:
            raise ModelFormError(
                "min_opportunity_cost needs the d_reject columns; "
                "the pcr form eliminates them"
            )
        c[model.roles["d_reject"]] = 1.0
        model.objective_sense = "min"
    model.objective = c
    return model


def _assemble(instance: Instance, form: str) -> MilpModel:
    idx = InstanceIndex(instance)
    big_m = big_m_set(instance)
    net = instance.network
    cap = instance.price_cap
    nI, nS, nJ, nC = idx.n_hourly, idx.n_sub, idx.n_block, idx.n_mic
    K, LT, M = idx.n_basis, idx.LT, idx.n_net_rows

    names: list[str] = []
    lb: list[float] = []
    ub: list[float] = []
    integ: list[int] = []
    roles: dict[str, slice] = {}

    def add_cols(role, labels, lo, hi, binary=False):
        start = len(names)
        for lab in labels:
            names.append(lab)
            lb.append(lo)
            ub.append(hi)
            integ.append(1 if binary else 0)
        roles[role] = slice(start, len(names))
        return start

    hid = [_san(b.id) for b in instance.hourly_bids]
    bid = [_san(b.id) for b in instance.block_bids]
    cid = [_san(c.id) for c in instance.mic_bids]
    sid = [f"{cid[idx.sub_owner[h]]}_{h - idx.mic_slices[idx.sub_owner[h]].start}" for h in range(nS)]
    ltlab = [f"{_san(l)}_{_san(t)}" for l in net.locations for t in net.periods]

    cx = add_cols("x", [f"x_{s}" for s in hid], 0.0, 1.0)
    cxm = add_cols("x_mic", [f"xm_{s}" for s in sid], 0.0, 1.0)
    cy = add_cols("y", [f"y_{s}" for s in bid], 0.0, 1.0, binary=True)
    cu = add_cols("u", [f"u_{s}" for s in cid], 0.0, 1.0, binary=True)
    cn = add_cols("n", [f"n_{k}" for k in range(K)], -np.inf, np.inf)
    cpi = add_cols("pi", [f"pi_{s}" for s in ltlab], -cap, cap)
    cv = add_cols("v", [f"v_{m}" for m in range(M)], 0.0, np.inf)
    csi = add_cols("s_hourly", [f"s_{s}" for s in hid], 0.0, np.inf)
    csh = add_cols("s_mic_sub", [f"sm_{s}" for s in sid], 0.0, np.inf)
    csj = add_cols("s_block", [f"sb_{s}" for s in bid], 0.0, np.inf)
    csc = add_cols("s_mic", [f"sc_{s}" for s in cid], 0.0, np.inf)
    if form == "umfs":
        cda = add_cols("d_accept", [f"da_{s}" for s in bid], 0.0, np.inf)
        cdr = add_cols("d_reject", [f"dr_{s}" for s in bid], 0.0, np.inf)
        cdur = add_cols("du_reject", [f"dur_{s}" for s in cid], 0.0, np.inf)

    model = MilpModel(
        instance=instance,
        form=form,
        var_names=names,
        lb=np.array(lb),
        ub=np.array(ub),
        integrality=np.array(integ),
        roles=roles,
        row_cols=[],
        row_coefs=[],
        row_sense=[],
        row_rhs=[],
        row_names=[],
    )

    # suborder gating: x_hc <= u_c
    for h in range(nS):
        model.add_row([cxm + h, cu + idx.sub_owner[h]], [1.0, -1.0], "<", 0.0, f"gate_{sid[h]}")

    # power balance per (location, period)
    bal_cols: list[list[int]] = [[] for _ in range(LT)]
    bal_coefs: list[list[float]] = [[] for _ in range(LT)]
    for i in range(nI):
        bal_cols[idx.hourly_lt[i]].append(cx + i)
        bal_coefs[idx.hourly_lt[i]].append(idx.hourly_power[i])
    for h in range(nS):
        bal_cols[idx.sub_lt[h]].append(cxm + h)
        bal_coefs[idx.sub_lt[h]].append(idx.sub_power[h])
    for j in range(nJ):
        base = idx.block_loc[j] * idx.T
        for t in range(idx.T):
            p = idx.block_powers[j, t]
            if p != 0.0:
                bal_cols[base + t].append(cy + j)
                bal_coefs[base + t].append(p)
    for k in range(K):
        for lt in range(LT):
            e = idx.injection_flat[k, lt]
            if e != 0.0:
                bal_cols[lt].append(cn + k)
                bal_coefs[lt].append(-e)
    for lt in range(LT):
        model.add_row(bal_cols[lt], bal_coefs[lt], "=", 0.0, f"bal_{ltlab[lt]}")

    # network capacity rows
    a = net.constraint_rows
    for m in range(M):
        nz = np.nonzero(a[m])[0]
        model.add_row(cn + nz, a[m, nz], "<", float(net.capacities[m]), f"net_{m}")

    # dual feasibility of hourly fractions: s_i + P_i pi >= P_i limit_i
    for i in range(nI):
        model.add_row(
            [csi + i, cpi + idx.hourly_lt[i]],
            [1.0, idx.hourly_power[i]],
            ">", idx.hourly_power[i] * idx.hourly_limit[i],
            f"dh_{hid[i]}",
        )

    # dual feasibility of MIC suborders
    for h in range(nS):
        model.add_row(
            [csh + h, cpi + idx.sub_lt[h]],
            [1.0, idx.sub_power[h]],
            ">", idx.sub_power[h] * idx.sub_limit[h],
            f"dm_{sid[h]}",
        )

    # dual feasibility of blocks and MIC bids; dispatchers in the umfs form,
    # merged big-M deactivation in the pcr form
    for j in range(nJ):
        cols = [csj + j]
        coefs = [1.0]
        base = idx.block_loc[j] * idx.T
        for t in range(idx.T):
            p = idx.block_powers[j, t]
            if p != 0.0:
                cols.append(cpi + base + t)
                coefs.append(p)
        rhs = idx.block_total[j] * idx.block_limit[j]
        if form == "umfs":
            cols += [cdr + j, cda + j]
            coefs += [1.0, -1.0]
            model.add_row(cols, coefs, ">", rhs, f"db_{bid[j]}")
        else:
            Mr = big_m.block_reject[j]
            cols.append(cy + j)
            coefs.append(-Mr)
            model.add_row(cols, coefs, ">", rhs - Mr, f"db_{bid[j]}")

    for c in range(nC):
        sl = idx.mic_slices[c]
        cols = [csc + c] + [csh + h for h in range(sl.start, sl.stop)]
        coefs = [1.0] + [-1.0] * (sl.stop - sl.start)
        if form == "umfs":
            cols.append(cdur + c)
            coefs.append(1.0)
            model.add_row(cols, coefs, ">", 0.0, f"dc_{cid[c]}")
        else:
            Mc = big_m.mic_reject[c]
            cols.append(cu + c)
            coefs.append(-Mc)
            model.add_row(cols, coefs, ">", -Mc, f"dc_{cid[c]}")

    if form == "umfs":
        for j in range(nJ):
            Mr = big_m.block_reject[j]
            model.add_row([cdr + j, cy + j], [1.0, Mr], "<", Mr, f"capdr_{bid[j]}")
        for c in range(nC):
            Mc = big_m.mic_reject[c]
            model.add_row([cdur + c, cu + c], [1.0, Mc], "<", Mc, f"capdur_{cid[c]}")
        for j in range(nJ):
            Ma = big_m.block_accept[j]
            model.add_row([cda + j, cy + j], [1.0, -Ma], "<", 0.0, f"capda_{bid[j]}")

    # stationarity of net positions: sum_m a_mk v_m = sum_lt inj_klt pi_lt
    for k in range(K):
        nzm = np.nonzero(a[:, k])[0]
        cols = (cv + nzm).tolist()
        coefs = a[nzm, k].tolist()
        for lt in range(LT):
            e = idx.injection_flat[k, lt]
            if e != 0.0:
                cols.append(cpi + lt)
                coefs.append(-e)
        model.add_row(cols, coefs, "=", 0.0, f"netdual_{k}")

    # objective-equality row: primal value >= dual value; weak duality makes
    # it an equality at every feasible point, forcing fixed-selection
    # optimality and all complementarity conditions
    cols = []
    coefs = []
    for i in range(nI):
        cols.append(cx + i)
        coefs.append(idx.hourly_power[i] * idx.hourly_limit[i])
    for h in range(nS):
        cols.append(cxm + h)
        coefs.append(idx.sub_power[h] * idx.sub_limit[h])
    for j in range(nJ):
        cols.append(cy + j)
        coefs.append(idx.block_total[j] * idx.block_limit[j])
    for i in range(nI):
        cols.append(csi + i)
        coefs.append(-1.0)
    for j in range(nJ):
        cols.append(csj + j)
        coefs.append(-1.0)
    for c in range(nC):
        cols.append(csc + c)
        coefs.append(-1.0)
    for m in range(M):
        if net.capacities[m] != 0.0:
            cols.append(cv + m)
            coefs.append(-float(net.capacities[m]))
    if form == "umfs":
        for j in range(nJ):
            cols.append(cda + j)
            coefs.append(1.0)
    model.add_row(cols, coefs, ">", 0.0, "objective_equality")

    # minimum income: at any feasible point the income an active MIC bid
    # collects equals its limit-weighted traded value minus its surplus
    # s_c, so income >= fixed_cost + variable_cost * sold volume becomes
    #     s_c + sum_h P_hc (V_c - limit_hc) x_hc - F_c u_c >= 0,
    # deactivated by the bid's own fixed cost when u_c = 0
    for c in range(nC):
        sl = idx.mic_slices[c]
        cols = [csc + c, cu + c] + [cxm + h for h in range(sl.start, sl.stop)]
        coefs = [1.0, -idx.mic_fixed[c]] + [
            idx.sub_power[h] * (idx.mic_variable[c] - idx.sub_limit[h])
            for h in range(sl.start, sl.stop)
        ]
        model.add_row(cols, coefs, ">", 0.0, f"mic_income_{cid[c]}")

    return model


def write_lp(model: MilpModel, path) -> None:
    """Write the model in CPLEX LP format.

    Requires an installed objective. Variable names follow the builder's
    role prefixes, so the file is self-describing enough for debugging.
    """
    if model.objective is None:
        raise ValueError("set an objective before exporting")

    def term(coef, name, lead=False):
        if lead:
            sign = "-" if coef < 0 else ""
            return f"{sign}{abs(coef):.17g} {name}"
        sign = "-" if coef < 0 else "+"
        return f"{sign} {abs(coef):.17g} {name}"

    lines = ["\\ day-ahead clearing model, form=" + model.form]
    lines.append("Maximize" if model.objective_sense == "max" else "Minimize")
    obj_terms = []
    nz = np.nonzero(model.objective)[0]
    if nz.size == 0:
        obj_terms.append("0 " + model.var_names[0])
    for k, col in enumerate(nz):
        obj_terms.append(term(model.objective[col], model.var_names[col], lead=(k == 0)))
    lines.append(" obj: " + " ".join(obj_terms))
    lines.append("Subject To")
    op = {"<": "<=", "=": "=", ">": ">="}
    for r in range(model.n_rows):
        parts = []
        for k, (col, coef) in enumerate(zip(model.row_cols[r], model.row_coefs[r])):
            if coef == 0.0:
                continue
            parts.append(term(coef, model.var_names[col], lead=(len(parts) == 0)))
        if not parts:
            parts = ["0 " + model.var_names[0]]
        lines.append(
            f" {model.row_names[r]}: " + " ".join(parts)
            + f" {op[model.row_sense[r]]} {model.row_rhs[r]:.17g}"
        )
    lines.append("Bounds")
    for col in range(model.n_cols):
        lo, hi = model.lb[col], model.ub[col]
        name = model.var_names[col]
        if model.integrality[col]:
            if (lo, hi) != (0.0, 1.0):
                lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
            continue
        if lo == -np.inf and hi == np.inf:
            lines.append(f" {name} free")
        elif hi == np.inf:
            lines.append(f" {name} >= {lo:.17g}")
        elif lo == -np.inf:
            lines.append(f" -inf <= {name} <= {hi:.17g}")
        else:
            lines.append(f" {lo:.17g} <= {name} <= {hi:.17g}")
    bins = [model.var_names[c] for c in range(model.n_cols) if model.integrality[c]]
    if bins:
        lines.append("Binaries")
        for name in bins:
            lines.append(f" {name}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
