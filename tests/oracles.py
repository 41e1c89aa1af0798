"""Reference implementations the tests check fleetplan against.

brute_force_optimum is an exhaustive solver for tiny instances.  It
enumerates every purchase plan with per-week buys in 0..max_buy by
depth-first search over weeks, stepping all (max_buy+1)^2 purchase
choices of a node through the real simulator's week kernel as one
batch.  Weekly costs are nonnegative, so any prefix whose cost already
reaches the incumbent can be pruned when the search visits it; the
incumbent starts from the greedy solution to make that pruning bite.
Small horizons only.

reference_simulate is a per-unit simulator: it keeps one wear value
(accumulated maintenance weeks) per unit and shares no code with
fleetplan.model, so it checks the pooled simulator's bookkeeping.

reference_rls_fit, reference_astrom_predict and
reference_conditional_expectation_predict are the forecaster's scalar
loops as they were before its filters and fit were vectorised: one
numpy scalar per operation, in the order the model's equations write
them.  fleetplan.forecast keeps every float operation in that order, so
its results must equal these exactly.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from fleetplan.domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from fleetplan.forecast import (ArimaModel, ArimaOrder, NumericalBreakdownError,
                                SeriesTooShortError, _check_invertible,
                                _flip_inside_ma_roots, _poly_a, _poly_c, _trend, _variance,
                                difference, diophantine_split)
from fleetplan.greedy import reduce_plan, seed_plan
from fleetplan.model import kernel, simulate, step_week


class OracleBudgetExceeded(RuntimeError):
    """The search visited more nodes than the configured cap."""


def brute_force_optimum(demand: DemandSeries, params: FleetParams,
                        costs: CostParams, max_buy: int = 8,
                        node_cap: int = 5_000_000,
                        ) -> tuple[ProcurementPlan, Decimal]:
    """True minimum-cost plan with every weekly purchase in 0..max_buy.

    Raises OracleBudgetExceeded rather than silently truncating when the
    instance is too large to enumerate.
    """
    horizon = params.horizon
    seeded, _ = reduce_plan(seed_plan(demand, params, costs), demand, params, costs)
    if max(seeded.vessel_buys + seeded.operator_buys, default=0) > max_buy:
        raise ValueError("greedy seed exceeds max_buy; instance outside oracle domain")
    k = kernel(demand, params, costs)
    # every (vessel, operator) choice of a week, vessels major, one row each
    choices, dem = k.arrays([ProcurementPlan((cb,), (ob,)) for cb in range(max_buy + 1)
                             for ob in range(max_buy + 1)])
    choices = choices[:, 0]
    n = len(choices)
    # costs in the kernel's scaled integer units
    best_cost = int(simulate(seeded, demand, params, costs).total_cost.scaleb(-k.exponent))
    best_plan = seeded

    nodes = 0
    vessel: list[int] = []
    operator: list[int] = []

    def dfs(i: int, ready: np.ndarray, in_use: np.ndarray, cost: int) -> None:
        nonlocal nodes, best_cost, best_plan
        nodes += 1
        if nodes > node_cap:
            raise OracleBudgetExceeded(f"exceeded {node_cap} nodes")
        if i == horizon:
            # strict improvement keeps the first-found plan on ties
            if cost < best_cost:
                best_cost = cost
                best_plan = ProcurementPlan(tuple(vessel), tuple(operator))
            return
        week = step_week(ready.repeat(n, axis=0), in_use.repeat(n, axis=0), choices,
                         dem[i:i + 1].repeat(n), k)
        staffed = (week.code == 0).tolist()
        next_costs = (cost + week.cost).tolist()
        for c, (cb, ob) in enumerate(choices.tolist()):
            # the incumbent may have improved since this node was stepped
            if not staffed[c] or next_costs[c] >= best_cost:
                continue
            vessel.append(cb)
            operator.append(ob)
            dfs(i + 1, week.ready[c:c + 1], week.in_use[c:c + 1], next_costs[c])
            vessel.pop()
            operator.pop()

    ready, in_use = k.start(1, choices.dtype)
    dfs(0, ready, in_use, 0)
    return best_plan, k.decimal(best_cost, total=True)


class ReferenceShortfall(Exception):
    """The per-unit simulator could not staff a week."""

    def __init__(self, week: int, code: str, shortfall: int):
        self.week = week
        self.code = code
        self.shortfall = shortfall
        super().__init__(f"{code} in week {week}, short {shortfall}")


def reference_simulate(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
                       costs: CostParams) -> tuple[list[dict], Decimal]:
    """Simulate a plan unit by unit; returns (records, total_cost).

    Each record is a dict with the fields of fleetplan.model.WeekRecord.
    The event order is the model's: attrition on last week's working
    units, survivors into maintenance (discarded on entry once upkeep
    exceeds the replacement price), last week's shop, intake and
    instructors back to idle, instructors then crews then vessels taken
    lowest wear first.  Raises ReferenceShortfall at the first week that
    cannot be staffed, vessels checked before operators before
    instructors.
    """
    def attrition(n: int) -> int:
        return int((params.attrition_rate * n).to_integral_value(rounding=ROUND_HALF_UP))

    op_limit = costs.operator_price + 2 * costs.training_price
    # one list of wears per status
    v_idle, v_work, v_shop, v_new = [0] * params.initial_vessels, [], [], 0
    o_idle, o_work, o_shop, o_teach, o_new = [0] * params.initial_operators, [], [], [], 0
    records = []
    for week, (cb, ob, r) in enumerate(
            zip(plan.vessel_buys, plan.operator_buys, demand.values), start=1):
        v_work.sort()
        o_work.sort()
        v_lost, o_lost = attrition(len(v_work)), attrition(len(o_work))
        v_worn = [w + 1 for w in v_work[v_lost:]]
        o_worn = [w + 1 for w in o_work[o_lost:]]
        v_kept = [w for w in v_worn if w * costs.vessel_maint_price <= costs.vessel_price]
        o_kept = [w for w in o_worn if w * costs.operator_maint_price <= op_limit]

        v_free = sorted(v_idle + v_shop + [0] * v_new)
        o_free = sorted(o_idle + o_shop + o_teach + [0] * o_new)
        teachers = -(-ob // params.instruct_capacity)
        if r > len(v_free):
            raise ReferenceShortfall(week, "INSUFFICIENT_VESSELS", r - len(v_free))
        if 4 * r > len(o_free):
            raise ReferenceShortfall(week, "INSUFFICIENT_OPERATORS", 4 * r - len(o_free))
        if 4 * r + teachers > len(o_free):
            raise ReferenceShortfall(week, "INSUFFICIENT_INSTRUCTORS",
                                     4 * r + teachers - len(o_free))
        o_teach, o_work, o_idle = (o_free[:teachers], o_free[teachers:teachers + 4 * r],
                                   o_free[teachers + 4 * r:])
        v_work, v_idle = v_free[:r], v_free[r:]
        v_shop, o_shop, v_new, o_new = v_kept, o_kept, cb, ob

        records.append({
            "week": week, "vessel_buys": cb, "operator_buys": ob,
            "vessel_discards": len(v_worn) - len(v_kept),
            "operator_discards": len(o_worn) - len(o_kept),
            "vessels_destroyed": v_lost, "operators_destroyed": o_lost,
            "vessels_maint": len(v_shop), "operators_maint": len(o_shop),
            "instructors": teachers, "trainees": ob, "robots_deployed": r,
            "week_cost": (cb * costs.vessel_price + ob * costs.operator_price
                          + (teachers + ob) * costs.training_price
                          + len(v_shop) * costs.vessel_maint_price
                          + len(o_shop) * costs.operator_maint_price),
            "vessels_owned": len(v_idle) + len(v_work) + len(v_shop) + v_new,
            "operators_owned": (len(o_idle) + len(o_work) + len(o_teach) + len(o_shop)
                                + o_new),
        })
    return records, sum((rec["week_cost"] for rec in records), Decimal(0))


def reference_rls_fit(series, order: ArimaOrder, forgetting_factor: float = 0.98,
                      ) -> tuple[ArimaModel, np.ndarray]:
    """Extended RLS with the regressor rebuilt element by element each sample."""
    if not (0.9 < forgetting_factor <= 1.0):
        raise ValueError(
            f"forgetting factor must lie in (0.9, 1], got {forgetting_factor}")
    x = np.asarray(series, dtype=float)
    dim = order.p + order.q
    if len(x) < max(10 * dim, order.d + 2):
        raise SeriesTooShortError(
            f"need at least {max(10 * dim, order.d + 2)} samples for order "
            f"({order.p},{order.d},{order.q}), got {len(x)}")
    w, _ = difference(x, order.d)
    mean = float(w.mean())
    w = w - mean
    n = len(w)

    if dim == 0:
        # nothing to estimate: the differenced series is bare noise
        model = ArimaModel(order, (), (), mean, _variance(w) if n else 0.0)
        return model, w.copy()

    lam = forgetting_factor
    theta = np.zeros(dim)  # [ar_1..ar_p, ma_1..ma_q]
    P = np.eye(dim) * 1e6
    resid = np.zeros(n)
    for t in range(n):
        phi = np.empty(dim)
        for i in range(order.p):
            phi[i] = w[t - 1 - i] if t - 1 - i >= 0 else 0.0
        for j in range(order.q):
            k = t - 1 - j
            phi[order.p + j] = resid[k] if k >= 0 else 0.0
        Pphi = P @ phi
        denom = lam + float(phi @ Pphi)
        gain = Pphi / denom
        err = w[t] - float(phi @ theta)
        theta = theta + gain * err
        P = (P - np.outer(gain, Pphi)) / lam
        P = (P + P.T) / 2.0
        if not np.all(np.isfinite(P)) or np.any(np.diag(P) <= 0):
            raise NumericalBreakdownError(
                f"covariance lost positive-definiteness at sample {t}")
        resid[t] = w[t] - float(phi @ theta)
        if not (np.all(np.isfinite(theta)) and np.isfinite(resid[t])):
            raise NumericalBreakdownError(f"estimate lost finiteness at sample {t}")

    ma, noise_variance = _flip_inside_ma_roots(theta[order.p:], _variance(resid))
    model = ArimaModel(order, tuple(theta[:order.p]), tuple(ma), mean, noise_variance)
    return model, resid


def reference_astrom_predict(model: ArimaModel, history, k: int) -> float:
    """The G/C filter as one scalar double loop per sample."""
    y = np.asarray(history, dtype=float)
    if len(y) == 0:
        raise SeriesTooShortError("history is empty")
    trend = _trend(model.series_mean, model.order.d,
                   np.arange(len(y) + k, dtype=float))
    y = y - trend[:len(y)]
    c = _poly_c(model)
    _check_invertible(c)
    abar = _poly_a(model)
    _, g = diophantine_split(c, abar, k)
    z = np.zeros(len(y))
    for t in range(len(y)):
        acc = 0.0
        for j in range(len(g)):
            if t - j >= 0:
                acc += g[j] * y[t - j]
        for j in range(1, len(c)):
            if t - j >= 0:
                acc -= c[j] * z[t - j]
        z[t] = acc
    return float(z[-1] + trend[-1])


def reference_conditional_expectation_predict(model: ArimaModel, history, k: int) -> float:
    """The noise estimate and the forward roll as scalar double loops."""
    if k < 1:
        raise ValueError(f"prediction step must be >= 1, got {k}")
    y = np.asarray(history, dtype=float)
    if len(y) == 0:
        raise SeriesTooShortError("history is empty")
    trend = _trend(model.series_mean, model.order.d,
                   np.arange(len(y) + k, dtype=float))
    y = y - trend[:len(y)]
    c = _poly_c(model)
    _check_invertible(c)
    abar = _poly_a(model)
    n = len(y)
    e = np.zeros(n)
    for t in range(n):
        acc = y[t]
        for i in range(1, len(abar)):
            if t - i >= 0:
                acc += abar[i] * y[t - i]
        for j in range(1, len(c)):
            if t - j >= 0:
                acc -= c[j] * e[t - j]
        e[t] = acc
    ext = list(y)
    for h in range(1, k + 1):
        acc = 0.0
        for i in range(1, len(abar)):
            idx = n - 1 + h - i
            if idx >= 0:
                acc -= abar[i] * ext[idx]
        for j in range(1, len(c)):
            idx = n - 1 + h - j
            if 0 <= idx < n:  # future noise has expectation zero
                acc += c[j] * e[idx]
        ext.append(acc)
    return float(ext[-1] + trend[-1])
