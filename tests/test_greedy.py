"""Greedy seeding and descent reduction."""

from decimal import Decimal

import pytest
from hypothesis import assume, given, settings, strategies as st

from fleetplan.domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from fleetplan.greedy import reduce_plan, seed_plan
from fleetplan.model import InfeasibleError, UnrepairableError, simulate, validate
from oracles import checked_plan, reference_reduce_plan

COSTS = CostParams(Decimal("100"), Decimal("50"), Decimal("20"),
                   Decimal("10"), Decimal("15"))


def params(iv, io, g=10, k="0", horizon=1):
    return FleetParams(instruct_capacity=g, attrition_rate=Decimal(k),
                       initial_vessels=iv, initial_operators=io, horizon=horizon)


def test_zero_demand_seeds_zero_plan():
    p = params(0, 0, horizon=4)
    plan = seed_plan(DemandSeries((0, 0, 0, 0)), p, COSTS)
    assert plan == ProcurementPlan.zero(4)


def test_seed_buys_one_week_ahead():
    # nothing on hand; the week-2 deployment forces week-1 purchases
    p = params(1, 4, horizon=2)
    plan = seed_plan(DemandSeries((0, 1)), p, COSTS)
    sched = simulate(plan, DemandSeries((0, 1)), p, COSTS)
    assert validate(sched, DemandSeries((0, 1)), p, COSTS) == []
    assert plan == ProcurementPlan.zero(2)  # initial stock already covers it

    # bare cupboard except one teacher, who instructs in week 1 and then
    # crews in week 2 alongside the three hires
    p2 = params(0, 1, horizon=2)
    plan2 = seed_plan(DemandSeries((0, 1)), p2, COSTS)
    assert plan2.vessel_buys == (1, 0)
    assert plan2.operator_buys == (3, 0)


def test_seed_covers_attrition_churn():
    # constant demand under 20% attrition; initial staff has enough slack
    # beyond the 40 crews to instruct the replacement intake
    p = params(10, 44, k="0.2", horizon=8)
    demand = DemandSeries((10,) * 8)
    plan = seed_plan(demand, p, COSTS)
    sched = simulate(plan, demand, p, COSTS)
    assert validate(sched, demand, p, COSTS) == []
    assert sum(plan.vessel_buys) >= 8 * 2  # attrition losses must be replaced


def test_seed_week1_infeasible():
    with pytest.raises(UnrepairableError) as e:
        seed_plan(DemandSeries((3, 1)), params(2, 20, horizon=2), COSTS)
    assert e.value.week == 1


def test_reduce_strips_gratuitous_buys():
    p = params(2, 8, horizon=3)
    demand = DemandSeries((1, 1, 1))
    fat = ProcurementPlan((2, 1, 0), (5, 0, 3))
    slim, trace = reduce_plan(fat, demand, p, COSTS)
    assert checked_plan(slim) == ProcurementPlan.zero(3)
    # what remains is the unavoidable maintenance churn of the rotation
    assert trace.final_cost == Decimal("110")
    assert trace.initial_cost > trace.final_cost
    assert trace.passes == len(trace.reductions) == 11


def test_reduce_fixed_point():
    p = params(2, 8, horizon=3)
    demand = DemandSeries((1, 1, 1))
    slim, _ = reduce_plan(ProcurementPlan((2, 1, 0), (5, 0, 3)), demand, p, COSTS)
    again, trace = reduce_plan(slim, demand, p, COSTS)
    assert again == slim
    assert trace.passes == 0
    assert trace.initial_cost == trace.final_cost


def test_reduce_monotone_and_feasible():
    p = params(3, 14, k="0.1", horizon=5)
    demand = DemandSeries((2, 3, 2, 3, 2))
    seeded = seed_plan(demand, p, COSTS)
    slim, trace = reduce_plan(seeded, demand, p, COSTS)
    costs_seen = [trace.initial_cost] + [r.cost_after for r in trace.reductions]
    assert all(a > b for a, b in zip(costs_seen, costs_seen[1:]))
    sched = simulate(slim, demand, p, COSTS)
    assert validate(sched, demand, p, COSTS) == []
    assert sched.total_cost == trace.final_cost


@pytest.mark.parametrize("k", ["0", "0.15"])
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduce_matches_per_trial_reference(k, data):
    # a small random instance, its greedy seed, and the seed plus a few
    # extra units per week: extra operators can outrun the instructors,
    # so a fat plan may be infeasible, and then both must raise.  Prices
    # come from a narrow range so that decrements often tie on cost.
    horizon = data.draw(st.integers(1, 7))
    demand = DemandSeries(tuple(data.draw(
        st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon))))
    costs = CostParams(*(data.draw(st.integers(1, 12)) for _ in range(5)))
    p = FleetParams(instruct_capacity=data.draw(st.integers(1, 6)),
                    attrition_rate=Decimal(k),
                    initial_vessels=data.draw(st.integers(demand[0], 8)),
                    initial_operators=data.draw(st.integers(4 * demand[0], 36)),
                    horizon=horizon)
    try:
        plan = seed_plan(demand, p, costs)
    except UnrepairableError:
        assume(False)
    if data.draw(st.booleans()):
        jitter = st.lists(st.integers(0, 2), min_size=2 * horizon, max_size=2 * horizon)
        genes = [a + b for a, b in zip(plan.genes, data.draw(jitter))]
        plan = ProcurementPlan(genes[:horizon], genes[horizon:])
    try:
        want_plan, want = reference_reduce_plan(plan, demand, p, costs)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError) as got:
            reduce_plan(plan, demand, p, costs)
        assert (got.value.week, got.value.code, got.value.shortfall) == (
            err.week, err.code, err.shortfall)
        return
    slim, trace = reduce_plan(plan, demand, p, costs)
    assert checked_plan(slim) == want_plan
    assert [(r.week, r.kind, r.cost_after) for r in trace.reductions] == want
    assert trace.initial_cost == simulate(plan, demand, p, costs).total_cost
    assert trace.final_cost == (want[-1][2] if want else trace.initial_cost)
