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

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .model import BlockBid, Instance, InstanceIndex, MicBid

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
    """A MILP in compressed-column form with role-indexed columns.

    ``csc`` is the constraint matrix as numpy arrays (start, index, value):
    column j's entries are rows index[start[j]:start[j + 1]], in ascending
    row order, with coefficients value[start[j]:start[j + 1]]; explicit
    zeros are kept as entries. Row i reads row_lo[i] <= a_i x <= row_hi[i],
    an infinite side being absent. The matrix, the row bounds and
    integrality are read-only, and copies share them. Column bounds may be
    tightened in place (that is how selections get fixed). ``roles`` maps
    a column group name to its slice and ``row_roles`` a row family name
    to its slice; columns and rows carry no other names.
    """

    instance: Instance
    form: str
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    roles: dict[str, slice]
    csc: tuple
    row_lo: np.ndarray
    row_hi: np.ndarray
    row_roles: dict[str, slice] = field(default_factory=dict)
    objective: Optional[np.ndarray] = None
    objective_sense: str = "max"

    def __post_init__(self):
        for arr in (*self.csc, self.row_lo, self.row_hi, self.integrality):
            arr.setflags(write=False)

    @property
    def n_cols(self) -> int:
        return len(self.lb)

    @property
    def n_rows(self) -> int:
        return len(self.row_lo)

    @property
    def n_binary(self) -> int:
        return int(self.integrality.sum())

    def copy(self) -> "MilpModel":
        return replace(
            self,
            lb=self.lb.copy(),
            ub=self.ub.copy(),
            objective=None if self.objective is None else self.objective.copy(),
        )

    def constraint_csc(self):
        """The rows in compressed-column form, as numpy arrays (start, index, value)."""
        return self.csc

    def row_bounds(self):
        """(lower, upper) per row for interval-form constraints."""
        return self.row_lo, self.row_hi

    def _row_major(self):
        """(ptr, cols, value): the matrix by rows, each row's entries in column order."""
        start, index, value = self.csc
        order = np.argsort(index, kind="stable")
        cols = np.repeat(np.arange(self.n_cols), np.diff(start))[order]
        ptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(index, minlength=self.n_rows), out=ptr[1:])
        return ptr, cols, value[order]

    # row_cols is not read here, but the benchmark tracer in
    # perfbench/tracing.py counts milp.nnz from model.row_cols, so the
    # attribute must exist until the tracer reads constraint_csc()
    @property
    def row_cols(self) -> list[np.ndarray]:
        ptr, cols, _ = self._row_major()
        return [cols[a:b] for a, b in zip(ptr[:-1], ptr[1:])]

    def point_violations(self, point: np.ndarray) -> dict:
        """Constraint residuals of a column vector, for checks and tests.

        Returns row violations (positive where the row fails), bound
        violations and their maximum. Integrality is not checked.
        """
        point = np.asarray(point, dtype=float)
        start, index, value = self.csc
        act = np.bincount(index, weights=value * np.repeat(point, np.diff(start)), minlength=self.n_rows)
        rows = np.maximum(np.maximum(self.row_lo - act, act - self.row_hi), 0.0)
        lbv = np.clip(self.lb - point, 0.0, None)
        ubv = np.clip(point - self.ub, 0.0, None)
        mx = max(
            rows.max() if rows.size else 0.0,
            lbv.max() if lbv.size else 0.0,
            ubv.max() if ubv.size else 0.0,
        )
        return {"rows": rows, "lb": lbv, "ub": ubv, "max": float(mx)}


def build_model(instance: Instance, form: str) -> MilpModel:
    """Assemble the primal-dual model in the given form ("umfs" or "pcr").

    Columns, in order: hourly fractions x, MIC suborder fractions x_mic,
    block binaries y, MIC binaries u, net positions n, prices pi, network
    duals v, surpluses s_hourly / s_mic_sub / s_block / s_mic, then, in the
    umfs form only, the block compensations d_accept and the rejection
    slacks d_reject / du_reject. The paradoxical-rejection compensations
    du^a are fixed to zero by omission (they can be zeroed without loss of
    generality). The minimum-income rows come last; ``row_roles`` names
    each row family's slice. No objective is set. The instance was
    validated when it was built.
    """
    if form not in ("umfs", "pcr"):
        raise ValueError(f"unknown form {form!r}")
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
    umfs = form == "umfs"
    nI, nS, nJ, nC = idx.n_hourly, idx.n_sub, idx.n_block, idx.n_mic
    K, M = idx.n_basis, idx.n_net_rows
    rI, rS, rJ, rC = np.arange(nI), np.arange(nS), np.arange(nJ), np.arange(nC)

    roles: dict[str, slice] = {}
    spans: list[tuple] = []  # (count, lower, upper, integrality) per role

    def add_cols(role, n, lo, hi, binary=False):
        first = sum(span[0] for span in spans)
        roles[role] = slice(first, first + n)
        spans.append((n, lo, hi, int(binary)))
        return first

    cx = add_cols("x", nI, 0.0, 1.0)
    cxm = add_cols("x_mic", nS, 0.0, 1.0)
    cy = add_cols("y", nJ, 0.0, 1.0, binary=True)
    cu = add_cols("u", nC, 0.0, 1.0, binary=True)
    cn = add_cols("n", K, -np.inf, np.inf)
    cpi = add_cols("pi", idx.LT, -cap, cap)
    cv = add_cols("v", M, 0.0, np.inf)
    csi = add_cols("s_hourly", nI, 0.0, np.inf)
    csh = add_cols("s_mic_sub", nS, 0.0, np.inf)
    csj = add_cols("s_block", nJ, 0.0, np.inf)
    csmic = add_cols("s_mic", nC, 0.0, np.inf)
    if umfs:
        cda = add_cols("d_accept", nJ, 0.0, np.inf)
        cdr = add_cols("d_reject", nJ, 0.0, np.inf)
        cdur = add_cols("du_reject", nC, 0.0, np.inf)

    entries: list[tuple] = []
    row_lo: list[np.ndarray] = []
    row_hi: list[np.ndarray] = []
    row_roles: dict[str, slice] = {}

    def fill(x, n):
        """x itself when it is an array, else n copies of the scalar x."""
        return x if isinstance(x, np.ndarray) else np.full(n, x)

    def add_rows(family, n, sense, rhs, *blocks):
        """One row family of n rows; each block is (row within the family,
        column array, coefficient), the row and the coefficient arrays or
        scalars."""
        first = sum(map(len, row_lo))
        row_roles[family] = slice(first, first + n)
        rhs = np.full(n, rhs, dtype=float)
        row_lo.append(np.full(n, -np.inf) if sense == "<" else rhs)
        row_hi.append(np.full(n, np.inf) if sense == ">" else rhs)
        for r, c, v in blocks:
            entries.append((first + fill(r, len(c)), c, fill(v, len(c))))

    # the nonzero entries of the block profiles, the injections and the
    # network rows: (block, period), (basis, lt) and (row, basis) pairs
    bj, bt = np.nonzero(idx.block_powers)
    b_lt, b_p = idx.block_loc[bj] * idx.T + bt, idx.block_powers[bj, bt]
    ek, elt = np.nonzero(idx.injection_flat)
    e = idx.injection_flat[ek, elt]
    a = net.constraint_rows
    am, ak = np.nonzero(a)
    w = np.asarray(net.capacities, dtype=float)
    wm = np.nonzero(w)[0]

    # suborder gating: x_hc <= u_c
    add_rows("gate", nS, "<", 0.0,
             (rS, cxm + rS, 1.0), (rS, cu + idx.sub_owner, -1.0))

    # power balance per (location, period)
    add_rows("balance", idx.LT, "=", 0.0,
             (idx.hourly_lt, cx + rI, idx.hourly_power),
             (idx.sub_lt, cxm + rS, idx.sub_power),
             (b_lt, cy + bj, b_p),
             (elt, cn + ek, -e))

    # network capacity rows
    add_rows("network", M, "<", w, (am, cn + ak, a[am, ak]))

    # dual feasibility of hourly fractions: s_i + P_i pi >= P_i limit_i
    add_rows("dual_x", nI, ">", idx.hourly_power * idx.hourly_limit,
             (rI, csi + rI, 1.0), (rI, cpi + idx.hourly_lt, idx.hourly_power))

    # dual feasibility of MIC suborders
    add_rows("dual_x_mic", nS, ">", idx.sub_power * idx.sub_limit,
             (rS, csh + rS, 1.0), (rS, cpi + idx.sub_lt, idx.sub_power))

    # dual feasibility of blocks and MIC bids; dispatchers in the umfs form,
    # merged big-M deactivation in the pcr form
    block_value = idx.block_total * idx.block_limit
    Mr, Mc = big_m.block_reject, big_m.mic_reject
    block_rows = ((rJ, csj + rJ, 1.0), (bj, cpi + b_lt, b_p))
    mic_rows = ((rC, csmic + rC, 1.0), (idx.sub_owner, csh + rS, -1.0))
    if umfs:
        add_rows("dual_y", nJ, ">", block_value, *block_rows,
                 (rJ, cdr + rJ, 1.0), (rJ, cda + rJ, -1.0))
        add_rows("dual_u", nC, ">", 0.0, *mic_rows, (rC, cdur + rC, 1.0))
        add_rows("cap_d_reject", nJ, "<", Mr, (rJ, cdr + rJ, 1.0), (rJ, cy + rJ, Mr))
        add_rows("cap_du_reject", nC, "<", Mc, (rC, cdur + rC, 1.0), (rC, cu + rC, Mc))
        add_rows("cap_d_accept", nJ, "<", 0.0,
                 (rJ, cda + rJ, 1.0), (rJ, cy + rJ, -big_m.block_accept))
    else:
        add_rows("dual_y", nJ, ">", block_value - Mr, *block_rows, (rJ, cy + rJ, -Mr))
        add_rows("dual_u", nC, ">", -Mc, *mic_rows, (rC, cu + rC, -Mc))

    # stationarity of net positions: sum_m a_mk v_m = sum_lt inj_klt pi_lt
    add_rows("dual_n", K, "=", 0.0,
             (ak, cv + am, a[am, ak]), (ek, cpi + elt, -e))

    # objective-equality row: primal value >= dual value; weak duality makes
    # it an equality at every feasible point, forcing fixed-selection
    # optimality and all complementarity conditions
    add_rows("objective_equality", 1, ">", 0.0,
             (0, cx + rI, idx.hourly_power * idx.hourly_limit),
             (0, cxm + rS, idx.sub_power * idx.sub_limit),
             (0, cy + rJ, block_value),
             (0, csi + rI, -1.0), (0, csj + rJ, -1.0), (0, csmic + rC, -1.0),
             (0, cv + wm, -w[wm]),
             *([(0, cda + rJ, 1.0)] if umfs else []))

    # minimum income: at any feasible point the income an active MIC bid
    # collects equals its limit-weighted traded value minus its surplus
    # s_c, so income >= fixed_cost + variable_cost * sold volume becomes
    #     s_c + sum_h P_hc (V_c - limit_hc) x_hc - F_c u_c >= 0,
    # deactivated by the bid's own fixed cost when u_c = 0
    add_rows("mic_income", nC, ">", 0.0,
             (rC, csmic + rC, 1.0), (rC, cu + rC, -idx.mic_fixed),
             (idx.sub_owner, cxm + rS,
              idx.sub_power * (idx.mic_variable[idx.sub_owner] - idx.sub_limit)))

    # one compressed-column matrix: entries sorted by (column, row)
    rows, cols, value = (np.concatenate(part) for part in zip(*entries))
    order = np.lexsort((rows, cols))
    count, lo, hi, binary = (np.array(part) for part in zip(*spans))
    n_cols = int(count.sum())
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=start[1:])
    return MilpModel(
        instance=instance,
        form=form,
        lb=np.repeat(lo, count),
        ub=np.repeat(hi, count),
        integrality=np.repeat(binary, count),
        roles=roles,
        csc=(start, rows[order].astype(np.int32), value[order]),
        row_lo=np.concatenate(row_lo),
        row_hi=np.concatenate(row_hi),
        row_roles=row_roles,
    )


def write_lp(model: MilpModel, path) -> None:
    """Write the model in CPLEX LP format.

    Requires an installed objective. Column k of role r is named ``r_k``
    and row k of family f ``f_k``, so names never depend on bid ids.
    """
    if model.objective is None:
        raise ValueError("set an objective before exporting")

    def labels(groups, n):
        out = [""] * n
        for group, sl in groups.items():
            out[sl] = [f"{group}_{k}" for k in range(sl.stop - sl.start)]
        return out

    col_names = labels(model.roles, model.n_cols)
    row_names = labels(model.row_roles, model.n_rows)

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
        obj_terms.append("0 " + col_names[0])
    for k, col in enumerate(nz):
        obj_terms.append(term(model.objective[col], col_names[col], lead=(k == 0)))
    lines.append(" obj: " + " ".join(obj_terms))
    lines.append("Subject To")
    ptr, cols, value = model._row_major()
    for r in range(model.n_rows):
        parts = []
        for col, coef in zip(cols[ptr[r]:ptr[r + 1]], value[ptr[r]:ptr[r + 1]]):
            if coef == 0.0:
                continue
            parts.append(term(coef, col_names[col], lead=(len(parts) == 0)))
        if not parts:
            parts = ["0 " + col_names[0]]
        lo, hi = model.row_lo[r], model.row_hi[r]
        if lo == hi:
            rel = f"= {lo:.17g}"
        elif lo == -np.inf:
            rel = f"<= {hi:.17g}"
        elif hi == np.inf:
            rel = f">= {lo:.17g}"
        else:
            raise ValueError(f"row {row_names[r]} has two sides; LP format rows take one")
        lines.append(f" {row_names[r]}: " + " ".join(parts) + " " + rel)
    lines.append("Bounds")
    for col in range(model.n_cols):
        lo, hi = model.lb[col], model.ub[col]
        name = col_names[col]
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
    bins = [col_names[c] for c in range(model.n_cols) if model.integrality[c]]
    if bins:
        lines.append("Binaries")
        for name in bins:
            lines.append(f" {name}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
