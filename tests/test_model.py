"""Simulator, cost model, validator, and repair."""

import dataclasses
from collections import Counter
from decimal import MAX_PREC, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fleetplan import model
from fleetplan.domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from fleetplan.model import (
    SHORTFALL_CODES, InfeasibleError, Schedule, ScheduleFormatError, UnrepairableError,
    WeekRecord, classify_shortfall, discard_operator, discard_vessel, kernel, read_schedule_csv,
    repair, repair_and_simulate, repair_batch, simulate, step_week, validate,
    write_schedule_csv,
)
from oracles import (ReferenceShortfall, checked_plan, reference_repair_batch,
                     reference_simulate, reference_step_week)

COSTS = CostParams(Decimal("100"), Decimal("50"), Decimal("20"),
                   Decimal("10"), Decimal("15"))


def params(iv, io, g=10, k="0", horizon=1):
    return FleetParams(instruct_capacity=g, attrition_rate=Decimal(k),
                       initial_vessels=iv, initial_operators=io, horizon=horizon)


def draw_plan(data, horizon):
    return ProcurementPlan(
        tuple(data.draw(st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon))),
        tuple(data.draw(st.lists(st.integers(0, 8), min_size=horizon, max_size=horizon))))


def draw_instance(data):
    """A random (plan, demand, params, costs); many plans are infeasible."""
    # prices as low as 1 make some units discard on their first
    # maintenance week; as high as 60 let wear pile up
    costs = CostParams(*(data.draw(st.integers(1, 60)) for _ in range(5)))
    horizon = data.draw(st.integers(1, 12))
    counts = st.lists(st.integers(0, 4), min_size=horizon, max_size=horizon)
    demand = DemandSeries(tuple(data.draw(counts)))
    p = FleetParams(instruct_capacity=data.draw(st.integers(1, 6)),
                    attrition_rate=Decimal(data.draw(st.sampled_from(["0", "0.1", "0.15",
                                                                     "0.5"]))),
                    initial_vessels=data.draw(st.integers(0, 8)),
                    initial_operators=data.draw(st.integers(0, 36)), horizon=horizon)
    return draw_plan(data, horizon), demand, p, costs


class TestDiscardRules:
    def test_vessel_boundary(self):
        # upkeep must strictly exceed the hull price
        c = CostParams(100, 50, 20, 10, 10)
        assert not discard_vessel(10, c)   # 100 > 100 is false
        assert discard_vessel(11, c)

    def test_vessel_std_prices(self):
        assert not discard_vessel(6, COSTS)   # 90 <= 100
        assert discard_vessel(7, COSTS)       # 105 > 100

    def test_operator_boundary(self):
        # threshold is hire price plus two training charges: 50 + 40 = 90
        assert not discard_operator(9, COSTS)
        assert discard_operator(10, COSTS)


class TestStepWeek:
    def test_attrition_rounds_half_up(self):
        # 10 vessels and 40 operators in use, 20% attrition
        p = params(10, 40, k="0.2", horizon=2)
        plan = ProcurementPlan((0, 0), (0, 0))
        sched = simulate(plan, DemandSeries((10, 0)), p, COSTS)
        wk2 = sched.records[1]
        assert wk2.vessels_destroyed == 2
        assert wk2.operators_destroyed == 8
        assert wk2.vessels_maint == 8
        assert wk2.operators_maint == 32

    def test_attrition_tie_goes_up(self):
        p = params(10, 40, k="0.15", horizon=2)
        sched = simulate(ProcurementPlan.zero(2), DemandSeries((10, 0)), p, COSTS)
        # 0.15 * 10 = 1.5 -> 2 vessels; 0.15 * 40 = 6 operators
        assert sched.records[1].vessels_destroyed == 2
        assert sched.records[1].operators_destroyed == 6

    @pytest.mark.parametrize("k, deployed, want", [
        ("0.1", 10 ** 30, 10 ** 29),
        ("0.5", 10 ** 30 + 1, 5 * 10 ** 29 + 1),  # a tie 31 digits long goes up
    ])
    def test_attrition_exact_beyond_decimal_precision(self, k, deployed, want):
        p = params(deployed, 4 * deployed, k=k, horizon=2)
        demand = DemandSeries((deployed, 0))
        sched = simulate(ProcurementPlan.zero(2), demand, p, COSTS)
        assert sched.records[1].vessels_destroyed == want
        assert validate(sched, demand, p, COSTS) == []

    def test_two_week_purchase_pipeline(self):
        # week 1 buys feed week 2 deployment: one vessel commissions while
        # four hires train under one reserved instructor; total is the
        # purchases plus five training charges
        p = params(0, 4, g=20, horizon=2)
        plan = ProcurementPlan((1, 0), (4, 0))
        sched = simulate(plan, DemandSeries((0, 1)), p, COSTS)
        assert sched.records[0].instructors == 1
        assert sched.records[0].trainees == 4
        assert sched.records[0].week_cost == Decimal("400")
        assert sched.records[1].week_cost == Decimal("0")
        assert sched.total_cost == Decimal("400")
        assert validate(sched, DemandSeries((0, 1)), p, COSTS) == []

    def test_discard_takes_no_slot_and_no_charge(self):
        # single vessel cycles work/maintenance; wear 7 tips the discard rule
        p = params(1, 4, horizon=14)
        demand = DemandSeries((1, 0) * 7)
        sched = simulate(ProcurementPlan.zero(14), demand, p, COSTS)
        discards = [r.vessel_discards for r in sched.records]
        assert sum(discards) == 1
        wk = discards.index(1)
        assert sched.records[wk].vessels_maint == 0
        assert sched.records[wk].week_cost == (
            sched.records[wk].operators_maint * Decimal("10"))

    def test_week1_shortfall_precedence(self):
        # one batch, one row per fleet: no vessels; a vessel but no crew;
        # a crew exactly, so the instructor for a same-week hire is what
        # breaks; and a fleet that staffs the week
        rows = [(0, 0, (0, 0)), (1, 0, (0, 0)), (1, 4, (0, 1)), (1, 5, (0, 1))]
        demand = DemandSeries((1,))
        k = kernel(demand, params(0, 0), COSTS)
        state = k.start(len(rows), np.int64)
        # every unit at wear 0, so at or below every wear
        state[0] = np.array([(v, o) for v, o, _ in rows]).T[:, None]
        inputs = k.inputs([ProcurementPlan(*zip(b)) for _, _, b in rows])[:, :, 0]
        week = step_week(state, inputs, k)
        code, short = zip(*(classify_shortfall(*fleet, g) for fleet, g in
                            zip(week.short.T.tolist(), inputs[4].tolist())))
        assert [SHORTFALL_CODES[c] for c in code] == [
            "INSUFFICIENT_VESSELS", "INSUFFICIENT_OPERATORS", "INSUFFICIENT_INSTRUCTORS", None]
        assert list(short[:3]) == [1, 4, 1]
        assert (inputs[4, 3], k.cost(inputs[:, 3], week.maint[:, 3])) == (1, 50 + 2 * 20)

    def test_rejects_negative_args(self):
        # the batch's inputs refuse a negative purchase, which only a plan
        # built without the checking constructor can hold, in int64 and
        # in Python ints; a negative demand cannot reach the kernel
        k = kernel(DemandSeries((0,)), params(1, 4), COSTS)
        for entry in (-1, -2 ** 70):
            with pytest.raises(ValueError):
                k.inputs([ProcurementPlan.zero(1), ProcurementPlan._of((0, entry))])
        with pytest.raises(ValueError):
            DemandSeries((0, -1))


class TestCostAggregation:
    def test_aggregate_counts_give_895(self):
        rec = WeekRecord(week=1, vessel_buys=2, operator_buys=8,
                         vessel_discards=0, operator_discards=0,
                         vessels_destroyed=0, operators_destroyed=0,
                         vessels_maint=3, operators_maint=5,
                         instructors=2, trainees=8, robots_deployed=0,
                         week_cost=Decimal("895"))
        # 2*100 + 8*50 + (2+8)*20 + 3*15 + 5*10
        p = params(3, 7, g=4)
        assert validate(Schedule((rec,)), DemandSeries((0,)), p, COSTS) == []
        off = dataclasses.replace(rec, week_cost=Decimal("894"))
        bad = validate(Schedule((off,)), DemandSeries((0,)), p, COSTS)
        assert [v.constraint for v in bad] == ["COST_ACCOUNT"]

    def test_aggregate_equals_weekly_sum(self):
        p = params(3, 14, k="0.1", horizon=8)
        demand = DemandSeries((2, 3, 3, 2, 3, 3, 2, 2))
        plan = repair(ProcurementPlan.zero(8), demand, p, COSTS)
        sched = simulate(plan, demand, p, COSTS)
        assert sched.total_cost == sum(r.week_cost for r in sched.records)
        assert validate(sched, demand, p, COSTS) == []


class TestValidator:
    def setup_method(self):
        self.params = params(3, 14, k="0.1", horizon=6)
        self.demand = DemandSeries((2, 3, 3, 2, 3, 2))
        plan = repair(ProcurementPlan.zero(6), self.demand, self.params, COSTS)
        self.sched = simulate(plan, self.demand, self.params, COSTS)
        assert validate(self.sched, self.demand, self.params, COSTS) == []

    def _corrupt(self, week_idx, **changes):
        recs = list(self.sched.records)
        recs[week_idx] = dataclasses.replace(recs[week_idx], **changes)
        return Schedule(tuple(recs))

    def _codes(self, sched, demand=None):
        bad = validate(sched, demand or self.demand, self.params, COSTS)
        return {v.constraint for v in bad}

    def test_eq7_demand_mismatch(self):
        rec = self.sched.records[2]
        bad = self._corrupt(2, robots_deployed=rec.robots_deployed + 1)
        assert "EQ7_USAGE" in self._codes(bad)

    def test_eq7_horizon_mismatch(self):
        bad = validate(self.sched, DemandSeries((2, 3)), self.params, COSTS)
        assert [v.constraint for v in bad] == ["EQ7_USAGE"]
        assert bad[0].week == 0

    def test_eq9_trainee_ledger(self):
        rec = self.sched.records[1]
        bad = self._corrupt(1, trainees=rec.trainees + 1)
        assert "EQ9_OPERATOR_USAGE" in self._codes(bad)

    def test_eq9_operator_account_overdrawn(self):
        # parking extra people in the shop overdraws the operator account
        # without touching any ownership flow
        rec = self.sched.records[3]
        bad = self._corrupt(3, operators_maint=rec.operators_maint + 100)
        assert "EQ9_OPERATOR_USAGE" in self._codes(bad)

    def test_eq11_instructor_headcount(self):
        idx = next(i for i, r in enumerate(self.sched.records) if r.operator_buys)
        rec = self.sched.records[idx]
        bad = self._corrupt(idx, instructors=rec.instructors + 1)
        assert "EQ11_INSTRUCTORS" in self._codes(bad)

    def test_eq12_maintenance_floor(self):
        idx = next(i for i, r in enumerate(self.sched.records) if r.operators_maint)
        bad = self._corrupt(idx, operators_maint=0)
        assert "EQ12_MAINTENANCE" in self._codes(bad)

    def test_eq13_vessel_account_overdrawn(self):
        rec = self.sched.records[3]
        bad = self._corrupt(3, vessels_maint=rec.vessels_maint + 50)
        assert "EQ13_COMMISSIONING" in self._codes(bad)

    def test_eq13_lead_time(self):
        # week 1 cannot deploy more than the initial fleet no matter what
        # it buys; keep demand in step so EQ7 stays quiet
        p = params(2, 20, horizon=1)
        sched = simulate(ProcurementPlan((3,), (0,)), DemandSeries((2,)), p, COSTS)
        recs = (dataclasses.replace(sched.records[0], robots_deployed=3),)
        bad = validate(Schedule(recs), DemandSeries((3,)), p, COSTS)
        assert "EQ13_COMMISSIONING" in {v.constraint for v in bad}

    def test_eq18_attrition_account(self):
        idx = next(i for i, r in enumerate(self.sched.records) if r.operators_destroyed)
        rec = self.sched.records[idx]
        bad = self._corrupt(idx, operators_destroyed=rec.operators_destroyed + 1)
        assert "EQ18_ATTRITION_SUPPLY" in self._codes(bad)

    def test_eq18_recorded_ownership(self):
        rec = self.sched.records[2]
        bad = self._corrupt(2, vessels_owned=rec.vessels_owned + 1)
        assert "EQ18_ATTRITION_SUPPLY" in self._codes(bad)

    def test_cost_account_week(self):
        rec = self.sched.records[2]
        bad = self._corrupt(2, week_cost=rec.week_cost + 1)
        assert "COST_ACCOUNT" in self._codes(bad)

    def test_nonneg(self):
        bad = self._corrupt(1, vessel_discards=-1)
        assert "NONNEG" in self._codes(bad)

    def test_week_index(self):
        bad = self._corrupt(3, week=99)
        assert [(v.week, v.constraint) for v in validate(
            bad, self.demand, self.params, COSTS)] == [(4, "WEEK_INDEX")]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_one_unit_tamper_detected(self, data):
        plan, demand, p, costs = draw_instance(data)
        try:
            _, sched = repair_and_simulate(plan, demand, p, costs)
        except UnrepairableError:
            return
        for i, rec in enumerate(sched.records):
            for field in dataclasses.fields(WeekRecord):
                for step in (1, -1):
                    recs = list(sched.records)
                    recs[i] = dataclasses.replace(
                        rec, **{field.name: getattr(rec, field.name) + step})
                    tampered = Schedule(tuple(recs))
                    assert validate(tampered, demand, p, costs), (i, field.name, step)

    def test_csv_round_trip_still_validates(self, tmp_path):
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, self.sched)
        loaded = read_schedule_csv(path)
        assert loaded.records[0].vessels_owned is None
        assert validate(loaded, self.demand, self.params, COSTS) == []
        assert loaded.total_cost == self.sched.total_cost


class TestRepair:
    def test_zero_plan_gets_lead_time_buys(self):
        p = params(2, 8, g=1, horizon=3)
        demand = DemandSeries((1, 1, 2))
        fixed = repair(ProcurementPlan.zero(3), demand, p, COSTS)
        assert fixed.vessel_buys == (0, 1, 0)
        assert fixed.operator_buys == (4, 4, 0)
        sched = simulate(fixed, demand, p, COSTS)
        assert validate(sched, demand, p, COSTS) == []

    def test_fixed_point(self):
        p = params(2, 8, g=1, horizon=3)
        demand = DemandSeries((1, 1, 2))
        fixed = repair(ProcurementPlan.zero(3), demand, p, COSTS)
        assert repair(fixed, demand, p, COSTS) == fixed

    def test_gratuitous_intake_clamped_week1(self):
        # a week-1 hire of 5 with per-instructor capacity 1 would need five
        # teachers the crews leave no room for; nothing downstream wants the
        # hires, so the repair cuts them instead of failing
        p = params(1, 4, g=1, horizon=2)
        demand = DemandSeries((1, 0))
        fixed = repair(ProcurementPlan((0, 0), (5, 0)), demand, p, COSTS)
        assert fixed.operator_buys == (0, 0)

    def test_gratuitous_intake_clamped_to_capacity(self):
        p = params(0, 4, g=1, horizon=2)
        demand = DemandSeries((0, 0))
        fixed = repair(ProcurementPlan((0, 0), (0, 9)), demand, p, COSTS)
        # four idle operators can each teach one trainee
        assert fixed.operator_buys == (0, 4)

    def test_week1_demand_unrepairable(self):
        p = params(0, 8, horizon=2)
        with pytest.raises(UnrepairableError) as e:
            repair(ProcurementPlan.zero(2), DemandSeries((1, 1)), p, COSTS)
        assert e.value.week == 1
        assert "INSUFFICIENT_VESSELS" in e.value.detail

    def test_instructor_wall_unrepairable(self):
        # week 1 consumes the whole initial staff on crews, so the hires a
        # later ramp needs can never be taught
        p = params(2, 4, horizon=3)
        with pytest.raises(UnrepairableError) as e:
            repair(ProcurementPlan.zero(3), DemandSeries((1, 1, 2)), p, COSTS)
        assert e.value.week == 1

    @staticmethod
    def _forged(monkeypatch, code, short):
        """Make every shortfall repair's answers classify read as (code,
        short); the kernel must still report a failing row for repair to
        answer it."""
        monkeypatch.setattr(model, "classify_shortfall", lambda *row: (code, short))

    def test_endless_shortfall_trips_the_convergence_guard(self, monkeypatch):
        # a week-1 hire with no operator to teach it fails; an instructor
        # shortfall of one read after every clamp clamps the intake to
        # zero again and again
        self._forged(monkeypatch, 3, 1)
        with pytest.raises(RuntimeError, match="repair failed to converge"):
            repair(ProcurementPlan((0,), (1,)), DemandSeries((0,)), params(1, 0), COSTS)

    def test_clamp_that_cannot_shrink_is_caught(self, monkeypatch):
        # an instructor shortfall of whole units always shrinks the
        # intake; one of half a unit would clamp the intake of 5 to
        # G * (ceil(5 / G) - 1/2) = 5, itself
        self._forged(monkeypatch, 3, 0.5)
        with pytest.raises(RuntimeError, match="instructor clamp failed to shrink the intake"):
            repair(ProcurementPlan((0,), (5,)), DemandSeries((0,)), params(1, 0), COSTS)

    def test_repair_and_simulate_agrees_with_separate_calls(self):
        p = params(3, 12, k="0.2", horizon=5)
        demand = DemandSeries((2, 2, 3, 2, 3))
        plan = ProcurementPlan((0, 1, 0, 0, 0), (0, 0, 2, 0, 0))
        fixed, sched = repair_and_simulate(plan, demand, p, COSTS)
        assert sched == simulate(fixed, demand, p, COSTS)
        assert validate(sched, demand, p, COSTS) == []

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_repaired_plans_always_validate(self, data):
        horizon = data.draw(st.integers(1, 6))
        demand = DemandSeries(tuple(
            data.draw(st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon))))
        iv = data.draw(st.integers(demand[0], demand[0] + 3))
        io = data.draw(st.integers(4 * demand[0] + 1, 4 * demand[0] + 9))
        g = data.draw(st.sampled_from([1, 4, 10, 20]))
        k = data.draw(st.sampled_from(["0", "0.1", "0.25"]))
        p = params(iv, io, g=g, k=k, horizon=horizon)
        vb = tuple(data.draw(st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon)))
        ob = tuple(data.draw(st.lists(st.integers(0, 6), min_size=horizon, max_size=horizon)))
        try:
            fixed, sched = repair_and_simulate(ProcurementPlan(vb, ob), demand, p, COSTS)
        except UnrepairableError:
            return  # instance genuinely infeasible; nothing to check
        assert validate(sched, demand, p, COSTS) == []
        # repair must never touch a plan's feasible prefix semantics:
        # the result simulates cleanly end to end
        assert len(sched.records) == horizon


class TestReferenceSimulator:
    """simulate and repair_and_simulate against the per-unit reference."""

    def _check(self, plan, demand, p, costs):
        try:
            want, want_total = reference_simulate(plan, demand, p, costs)
        except ReferenceShortfall as ref:
            with pytest.raises(InfeasibleError) as err:
                simulate(plan, demand, p, costs)
            assert (err.value.week, err.value.code, err.value.shortfall) == (
                ref.week, ref.code, ref.shortfall)
            return False
        sched = simulate(plan, demand, p, costs)
        assert [dataclasses.asdict(r) for r in sched.records] == want
        assert sched.total_cost == want_total
        return True

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_simulate_matches_reference(self, data):
        plan, demand, p, costs = draw_instance(data)
        self._check(plan, demand, p, costs)
        try:
            fixed, sched = repair_and_simulate(plan, demand, p, costs)
        except UnrepairableError:
            return
        assert self._check(fixed, demand, p, costs)
        assert sched == simulate(fixed, demand, p, costs)


def _scaled(plan, factor):
    return ProcurementPlan(tuple(v * factor for v in plan.vessel_buys),
                           tuple(o * factor for o in plan.operator_buys))


class TestBatch:
    """repair_batch against per-plan calls and the per-unit reference.
    A row comes back unchanged, priced at simulate's total, exactly when
    simulate staffs it: greedy.reduce_plan judges feasibility that way."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_per_plan_calls(self, data):
        plan, demand, p, costs = draw_instance(data)
        big = 2 ** 63 + data.draw(st.integers(0, 5))
        if data.draw(st.booleans()):
            # the whole instance past int64, so Python ints from the start
            demand = DemandSeries(tuple(d * big for d in demand))
            p = dataclasses.replace(p, initial_vessels=p.initial_vessels * big,
                                    initial_operators=p.initial_operators * big)
        rows = [plan] + [draw_plan(data, p.horizon) for _ in range(data.draw(st.integers(0, 4)))]
        # a duplicate row, and a row scaled past int64 that widens the batch
        rows.append(data.draw(st.sampled_from(rows)))
        if data.draw(st.booleans()):
            rows.append(_scaled(data.draw(st.sampled_from(rows)), big))
        repaired = repair_batch(rows, demand, p, costs)
        small = max(p.initial_vessels, p.initial_operators, *demand) < 1000
        for row, got in zip(rows, repaired):
            unchanged = not isinstance(got, UnrepairableError) and got[0] == row
            try:
                want_sched = simulate(row, demand, p, costs)
            except InfeasibleError as err:
                assert not unchanged
                if small and max(row.vessel_buys + row.operator_buys) < 1000:
                    with pytest.raises(ReferenceShortfall) as ref:
                        reference_simulate(row, demand, p, costs)
                    assert (ref.value.week, ref.value.code, ref.value.shortfall) == (
                        err.week, err.code, err.shortfall)
            else:
                assert unchanged
                assert str(got[1]) == str(want_sched.total_cost)
            try:
                fixed, sched = repair_and_simulate(row, demand, p, costs)
            except UnrepairableError as err:
                assert isinstance(got, UnrepairableError)
                assert (got.week, got.code, got.shortfall, str(got)) == (
                    err.week, err.code, err.shortfall, str(err))
                continue
            assert got[0] == fixed
            checked_plan(got[0])
            fitness = got[1]
            assert str(fitness) == str(sched.total_cost)
            if small and max(fixed.vessel_buys + fixed.operator_buys) < 1000:
                records, total = reference_simulate(fixed, demand, p, costs)
                assert [dataclasses.asdict(r) for r in sched.records] == records
                assert str(fitness) == str(total)

    def test_totals_beyond_decimal_precision(self):
        # attrition of 10^30 units at K = 0.1: week 2 costs 4.95 * 10^31,
        # and week 1's 100 must survive in every total
        p = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0.1"),
                        initial_vessels=10 ** 30, initial_operators=5 * 10 ** 30, horizon=2)
        demand = DemandSeries((10 ** 30, 1))
        plan = ProcurementPlan((1, 0), (0, 0))
        [(fixed, fitness)] = repair_batch([plan], demand, p, COSTS)
        sched = simulate(fixed, demand, p, COSTS)
        with localcontext(prec=MAX_PREC):
            exact = sum(r.week_cost for r in sched.records)
        assert fixed == plan
        assert str(fitness) == str(sched.total_cost) == str(exact)
        assert exact == 49500000000000000000000000000100

    def test_mixed_batch(self):
        # the golden small instance: a week-1 intake of 5 with G = 2 and
        # one idle week-1 operator cascades into the instructor wall
        p = FleetParams(instruct_capacity=2, attrition_rate=Decimal("0.2"), initial_vessels=4,
                        initial_operators=9, horizon=7)
        demand = DemandSeries((2, 0, 3, 2, 0, 1, 2))
        hopeless = ProcurementPlan((0, 0, 0, 2, 2, 0, 1), (5, 1, 3, 5, 0, 4, 1))
        zero = ProcurementPlan.zero(7)
        got = repair_batch([zero, hopeless, zero, hopeless], demand, p, COSTS)
        fixed, sched = repair_and_simulate(zero, demand, p, COSTS)
        assert got[0] == got[2] == (fixed, sched.total_cost)
        assert fixed == ProcurementPlan((0, 0, 1, 0, 0, 0, 0), (2, 6, 6, 0, 0, 0, 0))
        for stuck in (got[1], got[3]):
            assert isinstance(stuck, UnrepairableError)
            assert (stuck.week, stuck.code) == (1, "INSUFFICIENT_INSTRUCTORS")

    @pytest.mark.parametrize("g", [2 ** 62, 10 ** 20])
    def test_instruct_capacity_past_int64_bound(self, g):
        # one crew of four and a week-1 hire of 5: the instructor the hire
        # needs is missing, so the intake is clamped to G * (1 - 1) = 0
        p = params(1, 4, g=g, horizon=2)
        demand = DemandSeries((1, 0))
        assert kernel(demand, p, COSTS).entry_limit == -1
        [(fixed, cost)] = repair_batch([ProcurementPlan((0, 0), (5, 0))], demand, p, COSTS)
        assert fixed == ProcurementPlan.zero(2)
        assert cost == simulate(fixed, demand, p, COSTS).total_cost

    def test_repair_widens_past_int64_bound(self):
        # the zero plan fits int64, but the week-1 bumps that week 2 asks
        # for (2*10^16 vessels, 7.9*10^16 operators) pass the entry
        # bound, and the total they cost passes 2^63: repair must carry
        # on in Python ints
        unit = 10 ** 16
        p = FleetParams(instruct_capacity=100, attrition_rate=Decimal(0),
                        initial_vessels=unit, initial_operators=4 * unit + 10 ** 15, horizon=2)
        demand = DemandSeries((unit, 2 * unit))
        costs = CostParams(50, 50, 50, 50, 50)
        limit = kernel(demand, p, costs).entry_limit
        assert 0 < limit < unit
        [(fixed, cost)] = repair_batch([ProcurementPlan.zero(2)], demand, p, costs)
        assert fixed.vessel_buys == (2 * unit, 0)
        assert fixed.operator_buys[0] > limit
        sched = simulate(fixed, demand, p, costs)
        assert cost == sched.total_cost > 2 ** 63
        assert validate(sched, demand, p, costs) == []


def _outcome(got):
    if isinstance(got, UnrepairableError):
        return ("unrepairable", got.code, got.week, got.shortfall, got.detail)
    plan, cost = got
    return ("repaired", plan.genes, str(cost))


class TestAgainstReferenceLoop:
    """step_week and repair_batch against the kernel and the repair loop
    as they were before pools became prefix sums and repair bumped weeks
    in place (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_step_week_matches_reference(self, data):
        _, demand, p, costs = draw_instance(data)
        k = kernel(demand, p, costs)
        wide = data.draw(st.booleans())
        top = 10 ** 30 if wide else 60
        counts = st.integers(0, top)
        rows = data.draw(st.integers(1, 5))

        def draw(*shape):
            return np.array(data.draw(st.lists(counts, min_size=int(np.prod(shape)),
                                               max_size=int(np.prod(shape)))),
                            dtype=object if wide else np.int64).reshape(shape)
        # per-wear pools, holding no unit past its kind's last wear, as
        # no week ever leaves one there (test_pools_stay_prefix_sums)
        held = np.arange(k.width) <= k.last_wear[:, None]
        ready, in_use = (np.where(held, draw(rows, 2, k.width), 0) for _ in range(2))
        buys, dem = draw(rows, 2), draw(rows) // 4
        # the packed inputs, with the attrition row of the drawn in_use
        num, den = p.attrition_rate.as_integer_ratio()
        worked = in_use.sum(axis=2)
        destroyed = (2 * num * worked + den) // (2 * den)
        instructors = -(-buys[:, 1] // p.instruct_capacity)
        need = np.multiply.outer(dem, (1, 4)).astype(dem.dtype)
        need[:, 1] += instructors
        inputs = np.vstack((buys.T, need.T, instructors, destroyed.T))
        # the same pools in step_week's layout: batch last, summed along wear
        got = step_week(np.stack((ready, in_use)).transpose(0, 2, 3, 1).cumsum(axis=2), inputs, k)
        want = reference_step_week(ready, in_use, buys, dem, k)
        # failed rows included: their fields mean nothing, but they are
        # the same nothing
        pairs = {"ready": (got.state[0], want.ready.transpose(1, 2, 0).cumsum(axis=1)),
                 "in_use": (got.state[1], want.in_use.transpose(1, 2, 0).cumsum(axis=1)),
                 "cost": (k.cost(inputs, got.maint), want.cost),
                 "instructors": (inputs[4], want.instructors),
                 "destroyed": (inputs[5:], want.destroyed.T),
                 # simulate's count: the survivors not in the shop
                 "discards": (worked.T - inputs[5:] - got.maint, want.discards.T),
                 "maint": (got.maint, want.maint.T)}
        for name, (a, b) in pairs.items():
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tolist() == b.tolist(), name
        assert [classify_shortfall(*fleet, g) for fleet, g in
                zip(got.short.T.tolist(), inputs[4].tolist())] == list(
                    zip(want.code.tolist(), want.shortfall.tolist()))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pools_stay_prefix_sums(self, data):
        # step_week's clips pick units lowest wear first only from pools
        # that are nonnegative and nondecreasing along wear, and its shop
        # and discard counts assume no unit past its kind's last wear
        plan, demand, p, costs = draw_instance(data)
        unit = data.draw(st.sampled_from([1, 10 ** 30]))
        demand = DemandSeries(tuple(d * unit for d in demand))
        p = dataclasses.replace(p, initial_vessels=p.initial_vessels * unit,
                                initial_operators=p.initial_operators * unit)
        rows = [plan] + [draw_plan(data, p.horizon) for _ in range(data.draw(st.integers(0, 4)))]
        k = kernel(demand, p, costs)
        inputs = k.inputs([_scaled(row, unit) for row in rows])
        state = k.start(len(rows), inputs.dtype)
        past = np.arange(1, k.width) > k.last_wear[:, None]  # wears no unit reaches
        for i in range(p.horizon):
            w = step_week(state, inputs[:, :, i], k)
            state = w.state
            pools = state[..., w.short.max(axis=0) <= 0]
            steps = np.diff(pools, axis=2)
            assert (pools >= 0).all() and (steps >= 0).all()
            assert not steps[:, past].any()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_steps_start_from_staffed_weeks(self, data):
        # Kernel.inputs precomputes each week's attrition from the demand,
        # which holds only if every state repair_batch and simulate step
        # from deployed exactly the week before's (R, 4R) units; distinct
        # weekly demands name the week each stepped row enters
        _, _, p, costs = draw_instance(data)
        unit = data.draw(st.sampled_from([1, 10 ** 14, 10 ** 30]))
        h = p.horizon
        demand = DemandSeries(tuple(d * unit for d in data.draw(
            st.lists(st.integers(0, 2 * h), min_size=h, max_size=h, unique=True))))
        peak = max(demand) // unit
        p = dataclasses.replace(p, initial_vessels=data.draw(st.integers(0, peak + 3)) * unit,
                                initial_operators=data.draw(st.integers(0, 4 * peak + 9)) * unit)
        rows = [_scaled(draw_plan(data, h), data.draw(st.sampled_from([1, unit])))
                for _ in range(data.draw(st.integers(1, 5)))]
        num, den = p.attrition_rate.as_integer_ratio()
        before = dict(zip(demand, (0, *demand)))
        real = model.step_week
        steps = []

        def checked(state, inputs, k, answer=None):
            worked = state[1, :, -1]
            want = np.array([(r, 4 * r) for r in map(before.get, inputs[2].tolist())]).T
            assert worked.tolist() == want.tolist()
            assert inputs[5:].tolist() == ((2 * num * worked + den) // (2 * den)).tolist()
            steps.append(inputs.shape[1])
            return real(state, inputs, k, answer)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "step_week", checked)
            fixed = [got[0] for got in repair_batch(rows, demand, p, costs)
                     if not isinstance(got, UnrepairableError)]
            for plan in rows + fixed:
                try:
                    simulate(plan, demand, p, costs)
                except InfeasibleError:
                    pass
        assert steps

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_repair_batch_matches_reference(self, data):
        plan, demand, p, costs = draw_instance(data)
        # 10^14 leaves some instances in int64 until a bump passes the
        # entry bound; 10^30 puts them in Python ints from the start
        unit = data.draw(st.sampled_from([1, 10 ** 14, 10 ** 30]))
        demand = DemandSeries(tuple(d * unit for d in demand))
        p = dataclasses.replace(p, initial_vessels=p.initial_vessels * unit,
                                initial_operators=p.initial_operators * unit)
        rows = [plan] + [draw_plan(data, p.horizon) for _ in range(data.draw(st.integers(0, 5)))]
        rows = [_scaled(row, data.draw(st.sampled_from([1, unit]))) for row in rows]
        got_stats, want_stats = Counter(), Counter()
        got = repair_batch(rows, demand, p, costs, got_stats)
        want = reference_repair_batch(rows, demand, p, costs, want_stats)
        assert [_outcome(x) for x in got] == [_outcome(x) for x in want]
        for name in ("kernel_rounds", "rows_stepped"):
            assert got_stats.pop(name) <= want_stats.pop(name)
        assert got_stats == want_stats


class TestScheduleCSV:
    def _schedule(self):
        p = params(3, 14, k="0.1", horizon=4)
        demand = DemandSeries((2, 3, 2, 3))
        plan = repair(ProcurementPlan.zero(4), demand, p, COSTS)
        return simulate(plan, demand, p, COSTS)

    def test_round_trip(self, tmp_path):
        sched = self._schedule()
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, sched)
        loaded = read_schedule_csv(path)
        assert loaded.total_cost == sched.total_cost
        for a, b in zip(loaded.records, sched.records):
            assert dataclasses.replace(b, vessels_owned=None, operators_owned=None) == a

    def test_totals_row_tamper_detected(self, tmp_path):
        sched = self._schedule()
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, sched)
        lines = path.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[-1] = str(Decimal(parts[-1]) + 1)
        lines[-1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScheduleFormatError, match="totals row"):
            read_schedule_csv(path)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[-1].__setitem__(1, "999"),  # vessel_buys total
        lambda rows: rows[-1].__setitem__(5, "-7"),  # vessels_destroyed total
        lambda rows: rows.__setitem__(-1, ["total", rows[-1][-1]]),
        lambda rows: rows.append(["garbage"]),
        lambda rows: rows.append(rows[1]),
    ], ids=["vessel-buys-999", "destroyed-minus-7", "two-cells", "garbage-after",
            "week-after"])
    def test_totals_row_checked_in_full(self, tmp_path, edit):
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, self._schedule())
        rows = [line.split(",") for line in path.read_text().splitlines()]
        edit(rows)
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        with pytest.raises(ScheduleFormatError):
            read_schedule_csv(path)

    def test_missing_totals_row(self, tmp_path):
        sched = self._schedule()
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, sched)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ScheduleFormatError, match="missing totals"):
            read_schedule_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("nope\n")
        with pytest.raises(ScheduleFormatError, match="header"):
            read_schedule_csv(path)

    def test_malformed_row(self, tmp_path):
        sched = self._schedule()
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, sched)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",not-money"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScheduleFormatError, match="malformed"):
            read_schedule_csv(path)

    @pytest.mark.parametrize("cell", ["NaN", "sNaN", "Infinity", "-Infinity"])
    def test_non_finite_cost(self, tmp_path, cell):
        # the week-1 cost and the total carry the same value, so the totals check
        # alone need not stop it
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, self._schedule())
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[1][-1] = rows[-1][-1] = cell
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        with pytest.raises(ScheduleFormatError):
            read_schedule_csv(path)

    def test_cost_overflow(self, tmp_path):
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, self._schedule())
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[1][-1] = rows[2][-1] = "9E+999999"
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        with pytest.raises(ScheduleFormatError, match="overflow"):
            read_schedule_csv(path)
