"""Reference implementations the tests check fleetplan against.

brute_force_optimum is an exhaustive solver for tiny instances.  It
enumerates every purchase plan with per-week buys in 0..max_buy by
depth-first search over weeks, stepping the real simulator one week at
a time.  Weekly costs are nonnegative, so any prefix whose cost already
reaches the incumbent can be pruned; the incumbent starts from the
greedy solution to make that pruning bite.  Small horizons only.

reference_simulate is a per-unit simulator: it keeps one wear value
(accumulated maintenance weeks) per unit and shares no code with
fleetplan.model, so it checks the pooled simulator's bookkeeping.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal

from fleetplan.domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from fleetplan.greedy import reduce_plan, seed_plan
from fleetplan.model import FleetState, InfeasibleError, step_week


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
    best_cost = _plan_cost(seeded, demand, params, costs)
    best_plan = seeded

    nodes = 0
    vessel: list[int] = []
    operator: list[int] = []

    def dfs(i: int, state: FleetState, cost: Decimal) -> None:
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
        for cb in range(max_buy + 1):
            for ob in range(max_buy + 1):
                try:
                    nxt_state, record = step_week(state, (cb, ob), demand[i], params, costs)
                except InfeasibleError:
                    continue
                nxt_cost = cost + record.week_cost
                if nxt_cost >= best_cost:
                    continue
                vessel.append(cb)
                operator.append(ob)
                dfs(i + 1, nxt_state, nxt_cost)
                vessel.pop()
                operator.pop()

    dfs(0, FleetState.initial(params), Decimal(0))
    return best_plan, best_cost


def _plan_cost(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
               costs: CostParams) -> Decimal:
    from fleetplan.model import simulate
    return simulate(plan, demand, params, costs).total_cost


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
