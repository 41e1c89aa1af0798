"""Simulator, cost model, validator, and repair."""

import dataclasses
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from fleetplan.domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from fleetplan.model import (
    InfeasibleError, Schedule, ScheduleFormatError, UnrepairableError, WeekRecord,
    discard_operator, discard_vessel, read_schedule_csv, repair,
    repair_and_simulate, simulate, step_week, validate,
    write_schedule_csv, FleetState,
)
from oracles import ReferenceShortfall, reference_simulate

COSTS = CostParams(Decimal("100"), Decimal("50"), Decimal("20"),
                   Decimal("10"), Decimal("15"))


def params(iv, io, g=10, k="0", horizon=1):
    return FleetParams(instruct_capacity=g, attrition_rate=Decimal(k),
                       initial_vessels=iv, initial_operators=io, horizon=horizon)


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
    plan = ProcurementPlan(
        tuple(data.draw(st.lists(st.integers(0, 3), min_size=horizon, max_size=horizon))),
        tuple(data.draw(st.lists(st.integers(0, 8), min_size=horizon, max_size=horizon))))
    return plan, demand, p, costs


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
        d = DemandSeries((1,))
        with pytest.raises(InfeasibleError) as e:
            step_week(FleetState.initial(params(0, 0)), (0, 0), 1, params(0, 0), COSTS)
        assert e.value.code == "INSUFFICIENT_VESSELS"
        with pytest.raises(InfeasibleError) as e:
            step_week(FleetState.initial(params(1, 0)), (0, 0), 1, params(1, 0), COSTS)
        assert e.value.code == "INSUFFICIENT_OPERATORS"
        assert e.value.shortfall == 4
        # operators cover the crews exactly, so the instructor reservation
        # for a same-week hire is what breaks
        with pytest.raises(InfeasibleError) as e:
            step_week(FleetState.initial(params(1, 4)), (0, 1), 1, params(1, 4), COSTS)
        assert e.value.code == "INSUFFICIENT_INSTRUCTORS"
        assert e.value.shortfall == 1
        del d

    def test_rejects_negative_args(self):
        st0 = FleetState.initial(params(1, 4))
        with pytest.raises(ValueError):
            step_week(st0, (-1, 0), 0, params(1, 4), COSTS)
        with pytest.raises(ValueError):
            step_week(st0, (0, 0), -1, params(1, 4), COSTS)


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
