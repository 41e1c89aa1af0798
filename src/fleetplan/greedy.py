"""Greedy construction of a low-cost feasible plan.

seed_plan builds just-in-time purchases by answering each simulated
shortfall with the minimal buy at the latest lead-time-respecting week;
attrition replacement falls out of the same loop because the simulator
reports post-attrition shortfalls.  reduce_plan then walks the plan
downhill, one unit at a time, until no single purchase can be removed
without breaking feasibility or raising cost; each pass prices its 2H
single-unit decrements as one repair_batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from .model import UnrepairableError, repair, repair_batch, simulate


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
    """Feasible just-in-time plan grown from zero purchases; raises
    UnrepairableError when week-1 demand exceeds the initial fleet."""
    return repair(ProcurementPlan.zero(len(demand)), demand, params, costs)


def reduce_plan(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
                costs: CostParams) -> tuple[ProcurementPlan, GreedyTrace]:
    """Steepest-descent removal of superfluous purchases.

    Each pass tries every single-unit decrement, keeps the one with the
    lowest resulting cost (ties resolved toward the latest week, then
    vessels over operators), and stops when nothing feasible improves.
    Terminates after at most sum(plan entries) passes since every pass
    removes one unit.

    A decrement is feasible exactly when repair_batch returns it
    unchanged: a feasible plan fails no week, and repair answers every
    failed week with a strict change to the plan.  plan itself must be
    feasible; simulate raises InfeasibleError otherwise.
    """
    h = plan.horizon
    current = plan
    current_cost = simulate(current, demand, params, costs).total_cost
    initial_cost = current_cost
    reductions: list[Reduction] = []
    while True:
        genes = current.genes
        trials = {i: ProcurementPlan._of(genes[:i] + (amount - 1,) + genes[i + 1:])
                  for i, amount in enumerate(genes) if amount}
        outcomes = repair_batch(list(trials.values()), demand, params, costs)
        best = None  # ((cost, -week, kind), plan); kind 0 is vessels
        for (i, trial), got in zip(trials.items(), outcomes):
            if isinstance(got, UnrepairableError) or got[0] != trial:
                continue
            cost = got[1]
            key = (cost, -(i % h + 1), i // h)
            if cost < current_cost and (best is None or key < best[0]):
                best = (key, trial)
        if best is None:
            break
        (current_cost, neg_week, kind), current = best
        reductions.append(Reduction(-neg_week, ("vessel", "operator")[kind], current_cost))
    return current, GreedyTrace(initial_cost, current_cost, tuple(reductions))
