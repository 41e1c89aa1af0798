"""Greedy construction of a low-cost feasible plan.

seed_plan builds just-in-time purchases by answering each simulated
shortfall with the minimal buy at the latest lead-time-respecting week;
attrition replacement falls out of the same loop because the simulator
reports post-attrition shortfalls.  reduce_plan then walks the plan
downhill, one unit at a time, until no single purchase can be removed
without breaking feasibility or raising cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from .model import InfeasibleError, UnrepairableError, repair, simulate


class UnseedableError(Exception):
    """Week-1 demand exceeds the initial fleet; no purchase plan helps."""

    def __init__(self, week: int, detail: str):
        self.week = week
        self.detail = detail
        super().__init__(f"week {week}: {detail}")


@dataclass(frozen=True)
class Reduction:
    """One accepted decrement: remove a single unit from (week, kind)."""

    week: int
    kind: str  # "vessel" or "operator"
    cost_after: Decimal


@dataclass(frozen=True)
class GreedyTrace:
    initial_cost: Decimal
    final_cost: Decimal
    reductions: tuple[Reduction, ...]

    @property
    def passes(self) -> int:
        return len(self.reductions)


def seed_plan(demand: DemandSeries, params: FleetParams,
              costs: CostParams) -> ProcurementPlan:
    """Feasible just-in-time plan grown from zero purchases."""
    try:
        return repair(ProcurementPlan.zero(len(demand)), demand, params, costs)
    except UnrepairableError as err:
        raise UnseedableError(err.week, err.detail) from None


def reduce_plan(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
                costs: CostParams) -> tuple[ProcurementPlan, GreedyTrace]:
    """Steepest-descent removal of superfluous purchases.

    Each pass tries every single-unit decrement, keeps the one with the
    lowest resulting cost (ties resolved toward the latest week, then
    vessels over operators), and stops when nothing feasible improves.
    Terminates after at most sum(plan entries) passes since every pass
    removes one unit.
    """
    h = plan.horizon
    current = plan
    current_cost = simulate(current, demand, params, costs).total_cost
    initial_cost = current_cost
    reductions: list[Reduction] = []
    while True:
        genes = current.vessel_buys + current.operator_buys
        best = None  # ((cost, -week, kind), plan); kind 0 is vessels
        for i, amount in enumerate(genes):
            if amount == 0:
                continue
            trimmed = genes[:i] + (amount - 1,) + genes[i + 1:]
            trial = ProcurementPlan(trimmed[:h], trimmed[h:])
            try:
                cost = simulate(trial, demand, params, costs).total_cost
            except InfeasibleError:
                continue
            key = (cost, -(i % h + 1), i // h)
            if cost < current_cost and (best is None or key < best[0]):
                best = (key, trial)
        if best is None:
            break
        (current_cost, neg_week, kind), current = best
        reductions.append(Reduction(-neg_week, ("vessel", "operator")[kind], current_cost))
    return current, GreedyTrace(initial_cost, current_cost, tuple(reductions))
