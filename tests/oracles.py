"""Exhaustive reference solver for tiny instances.

Enumerates every purchase plan with per-week buys in 0..max_buy by
depth-first search over weeks, stepping the real simulator one week at
a time.  Weekly costs are nonnegative, so any prefix whose cost already
reaches the incumbent can be pruned; the incumbent starts from the
greedy solution to make that pruning bite.  Small horizons only.
"""

from __future__ import annotations

from decimal import Decimal

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
