"""Weekly fleet simulator, cost model, constraint validator, and plan repair.

The simulator advances one week at a time over pools of vessels and
operators.  A pool is a tuple of counts indexed by accumulated
maintenance weeks (pool[w] units have worn w weeks) rather than a
per-unit ledger: every rule in the model depends only on a unit's status
and its wear, so units at the same wear are interchangeable.  Between
weeks each unit kind needs only two pools, the units ready to be staffed
and the units that just worked.  Wherever a subset of a pool must be
picked (deployment, attrition, instructor duty) units are taken lowest
wear first, which keeps every run deterministic.

Within a week the fixed order of events is:
  attrition on last week's working units -> survivors enter one week of
  maintenance (and may be discarded on entry) -> units finishing
  maintenance / commissioning / training / instructing become available
  -> purchases are admitted (new vessels commission, new operators train
  under reserved instructors) -> exactly the demanded deployment is
  staffed -> the week's cost is accrued.

validate() re-derives the constraint set from schedule records alone and
shares no code with step_week, so the two act as independent checks on
each other.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, Overflow
from itertools import zip_longest
from pathlib import Path

from .domain import CostParams, DemandSeries, FleetParams, ProcurementPlan, ceil_div

VIOLATION_CODES = frozenset({
    "COST_ACCOUNT",
    "EQ7_USAGE",
    "EQ9_OPERATOR_USAGE",
    "EQ11_INSTRUCTORS",
    "EQ12_MAINTENANCE",
    "EQ13_COMMISSIONING",
    "EQ18_ATTRITION_SUPPLY",
    "NONNEG",
    "WEEK_INDEX",
})

INSUFFICIENT_VESSELS = "INSUFFICIENT_VESSELS"
INSUFFICIENT_OPERATORS = "INSUFFICIENT_OPERATORS"
INSUFFICIENT_INSTRUCTORS = "INSUFFICIENT_INSTRUCTORS"


class InfeasibleError(Exception):
    """A week could not be staffed; carries the earliest failure."""

    def __init__(self, code: str, week: int, shortfall: int):
        self.code = code
        self.week = week
        self.shortfall = shortfall
        super().__init__(f"{code} in week {week}, short {shortfall} unit(s)")


class UnrepairableError(Exception):
    """No purchase schedule can fix the plan (week-1 demand exceeds stock)."""

    def __init__(self, week: int, detail: str):
        self.week = week
        self.detail = detail
        super().__init__(f"week {week}: {detail}")


class ScheduleFormatError(ValueError):
    """A schedule CSV could not be parsed back into records."""


@dataclass(frozen=True, slots=True)
class Violation:
    week: int
    constraint: str
    detail: str

    def __post_init__(self):
        if self.constraint not in VIOLATION_CODES:
            raise ValueError(f"unknown constraint code: {self.constraint}")


Pool = tuple[int, ...]  # pool[w] = units with w accumulated maintenance weeks


def _add(*pools: Pool) -> Pool:
    return tuple(map(sum, zip_longest(*pools, fillvalue=0)))


def _take_lowest(pool: Pool, n: int) -> tuple[Pool, Pool]:
    """Split n units off a pool, lowest maintenance count first.

    Returns (taken, rest).  Callers check sufficiency beforehand.
    """
    if not n:
        return (), pool
    for w, count in enumerate(pool):
        if count >= n:
            return pool[:w] + (n,), (0,) * w + (count - n,) + pool[w + 1:]
        n -= count
    raise ValueError(f"pool exhausted: short {n}")


@dataclass(slots=True)
class FleetState:
    """The two pools per unit kind at the end of a completed week.

    A ready pool holds every unit that can be staffed next week: this
    week's idle units, its shop and its instructors, plus its purchases
    at wear 0 (commissioned or trained by then).  An in-use pool holds
    this week's deployed units; next week they meet attrition and go to
    the shop.  Treated as immutable by convention: step_week builds
    fresh tuples and never touches its input, so states can be shared
    freely.
    """

    week: int
    vessels_ready: Pool
    vessels_in_use: Pool
    ops_ready: Pool
    ops_in_use: Pool

    @classmethod
    def initial(cls, params: FleetParams) -> "FleetState":
        """Week-0 state: the starting stock idle and fully skilled."""
        return cls(0, (params.initial_vessels,), (), (params.initial_operators,), ())


@dataclass(frozen=True, slots=True)
class WeekRecord:
    week: int
    vessel_buys: int
    operator_buys: int
    vessel_discards: int
    operator_discards: int
    vessels_destroyed: int
    operators_destroyed: int
    vessels_maint: int
    operators_maint: int
    instructors: int
    trainees: int
    robots_deployed: int
    week_cost: Decimal
    # end-of-week ownership, filled by the simulator; schedules read back
    # from CSV carry None here and the validator reconstructs the totals
    vessels_owned: int | None = None
    operators_owned: int | None = None


# the schedule CSV's columns, in order: every WeekRecord field but ownership
SCHEDULE_HEADER = ["week", "vessel_buys", "operator_buys", "vessel_discards",
                   "operator_discards", "vessels_destroyed", "operators_destroyed",
                   "vessels_maint", "operators_maint", "instructors", "trainees",
                   "robots_deployed", "week_cost"]


@dataclass(frozen=True)
class Schedule:
    records: tuple[WeekRecord, ...]

    @property
    def total_cost(self) -> Decimal:
        return sum((r.week_cost for r in self.records), Decimal(0))


def discard_vessel(maint_weeks: int, costs: CostParams) -> bool:
    """True when accumulated upkeep strictly exceeds a replacement hull."""
    return maint_weeks * costs.vessel_maint_price > costs.vessel_price


def discard_operator(maint_weeks: int, costs: CostParams) -> bool:
    """True when accumulated upkeep strictly exceeds a fresh hire plus
    twice the training charge (the hire's course and the instructor)."""
    return (maint_weeks * costs.operator_maint_price
            > costs.operator_price + 2 * costs.training_price)


def _attrit(in_use: Pool, num: int, den: int) -> tuple[int, Pool]:
    """Destroy round-half-up(num/den * pool size) units, lowest wear first."""
    destroyed = (2 * num * sum(in_use) + den) // (2 * den) if num else 0
    return destroyed, _take_lowest(in_use, destroyed)[1]


def _enter_maintenance(survivors: Pool, is_discard) -> tuple[Pool, int]:
    """Advance wear by one week and apply the discard rule on entry.

    Pools only grow a level here, and a new top level past the discard
    threshold is dropped at once, so no pool ever holds a unit past it.
    More wear never brings a unit back under it, so only the top level
    of the shifted pool can cross it.  Discarded units never take up a
    maintenance slot and incur no maintenance charge for the week.
    """
    maint = (0, *survivors)
    if is_discard(len(survivors)):
        return maint[:-1], maint[-1]
    return maint, 0


def step_week(state: FleetState, buys: tuple[int, int], demand: int,
              params: FleetParams, costs: CostParams) -> tuple[FleetState, WeekRecord]:
    """Advance the fleet one week and return (next_state, record); raises
    InfeasibleError when the week cannot be staffed.

    buys is (vessel_buys, operator_buys) for the week being entered.
    Feasibility is reported with vessel shortfalls first, then operator
    deployment, then instructor reservation.
    """
    cb, ob = buys
    if cb < 0 or ob < 0:
        raise ValueError("purchases must be >= 0")
    if demand < 0:
        raise ValueError("demand must be >= 0")
    week = state.week + 1

    # attrition strikes last week's working units; survivors go to the shop
    num, den = params.attrition_rate.as_integer_ratio()
    destroyed_v, surv_v = _attrit(state.vessels_in_use, num, den)
    destroyed_o, surv_o = _attrit(state.ops_in_use, num, den)
    maint_v, discards_v = _enter_maintenance(surv_v, lambda w: discard_vessel(w, costs))
    maint_o, discards_o = _enter_maintenance(surv_o, lambda w: discard_operator(w, costs))

    avail_v_n = sum(state.vessels_ready)
    avail_o_n = sum(state.ops_ready)
    maint_v_n = sum(maint_v)
    maint_o_n = sum(maint_o)

    instructors = ceil_div(ob, params.instruct_capacity)

    shortfall_v = demand - avail_v_n
    if shortfall_v > 0:
        raise InfeasibleError(INSUFFICIENT_VESSELS, week, shortfall_v)
    shortfall_o = 4 * demand - avail_o_n
    if shortfall_o > 0:
        raise InfeasibleError(INSUFFICIENT_OPERATORS, week, shortfall_o)
    shortfall_g = 4 * demand + instructors - avail_o_n
    if shortfall_g > 0:
        raise InfeasibleError(INSUFFICIENT_INSTRUCTORS, week, shortfall_g)

    instructing, idle_o = _take_lowest(state.ops_ready, instructors)
    use_o, idle_o = _take_lowest(idle_o, 4 * demand)
    use_v, idle_v = _take_lowest(state.vessels_ready, demand)

    week_cost = (cb * costs.vessel_price
                 + ob * costs.operator_price
                 + (instructors + ob) * costs.training_price
                 + maint_v_n * costs.vessel_maint_price
                 + maint_o_n * costs.operator_maint_price)

    # next week's ready pools: the idle, the shop, the instructors and the intake
    next_state = FleetState(week, _add(idle_v, maint_v, (cb,)), use_v,
                            _add(idle_o, maint_o, instructing, (ob,)), use_o)
    record = WeekRecord(
        week=week,
        vessel_buys=cb,
        operator_buys=ob,
        vessel_discards=discards_v,
        operator_discards=discards_o,
        vessels_destroyed=destroyed_v,
        operators_destroyed=destroyed_o,
        vessels_maint=maint_v_n,
        operators_maint=maint_o_n,
        instructors=instructors,
        trainees=ob,
        robots_deployed=demand,
        week_cost=week_cost,
        # everything available pre-deployment plus the shop and the intake
        vessels_owned=avail_v_n + maint_v_n + cb,
        operators_owned=avail_o_n + maint_o_n + ob,
    )
    return next_state, record


def _check_horizon(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams) -> None:
    if not (plan.horizon == len(demand) == params.horizon):
        raise ValueError(f"horizon mismatch: plan={plan.horizon} demand={len(demand)} "
                         f"params={params.horizon}")


def simulate(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
             costs: CostParams) -> Schedule:
    """Run the full horizon; raises InfeasibleError at the first unstaffable
    week."""
    _check_horizon(plan, demand, params)
    state = FleetState.initial(params)
    records = []
    for i in range(params.horizon):
        state, record = step_week(state, (plan.vessel_buys[i], plan.operator_buys[i]),
                                  demand[i], params, costs)
        records.append(record)
    return Schedule(tuple(records))


def validate(schedule: Schedule, demand: DemandSeries, params: FleetParams,
             costs: CostParams) -> list[Violation]:
    """Check a schedule against the constraint set, independently of the
    simulator.

    Works purely from the week records plus initial stock: ownership is
    reconstructed week by week from the purchase/discard/attrition flows,
    and each week must carry its own number and satisfy demand coverage,
    operator balance, instructor count, maintenance turnover, purchase
    lead times, the attrition account, and nonnegativity.  Each week_cost
    must equal its counts times the prices; the total is their sum by
    construction, and a file's totals row is checked by its reader.
    """
    out: list[Violation] = []
    records = schedule.records
    if len(records) != len(demand):
        out.append(Violation(0, "EQ7_USAGE",
                             f"schedule covers {len(records)} week(s), demand covers {len(demand)}"))
        return out

    num, den = params.attrition_rate.as_integer_ratio()
    own_v = params.initial_vessels
    own_o = params.initial_operators
    prev_deployed = 0
    prev_own_v = own_v
    for i, rec in enumerate(records):
        week = i + 1
        r_i = demand[i]

        if rec.week != week:
            out.append(Violation(week, "WEEK_INDEX", f"record {week} says week {rec.week}"))
        for name in SCHEDULE_HEADER[1:]:
            value = getattr(rec, name)
            if value < 0:
                out.append(Violation(week, "NONNEG", f"{name} is negative: {value}"))
        # cost account: the week's charge follows from its counts
        want_cost = (rec.vessel_buys * costs.vessel_price
                     + rec.operator_buys * costs.operator_price
                     + (rec.instructors + rec.trainees) * costs.training_price
                     + rec.vessels_maint * costs.vessel_maint_price
                     + rec.operators_maint * costs.operator_maint_price)
        if rec.week_cost != want_cost:
            out.append(Violation(week, "COST_ACCOUNT",
                                 f"week_cost={rec.week_cost}, counts at the prices give {want_cost}"))

        # attrition account: destroyed counts follow from last week's usage
        want_dv = (2 * num * prev_deployed + den) // (2 * den)
        want_do = (8 * num * prev_deployed + den) // (2 * den)
        if rec.vessels_destroyed != want_dv:
            out.append(Violation(week, "EQ18_ATTRITION_SUPPLY",
                                 f"vessels_destroyed={rec.vessels_destroyed}, "
                                 f"attrition of {prev_deployed} in use gives {want_dv}"))
        if rec.operators_destroyed != want_do:
            out.append(Violation(week, "EQ18_ATTRITION_SUPPLY",
                                 f"operators_destroyed={rec.operators_destroyed}, "
                                 f"attrition of {4 * prev_deployed} in use gives {want_do}"))

        # ownership recurrences (exact integer bookkeeping)
        own_v = own_v + rec.vessel_buys - rec.vessel_discards - rec.vessels_destroyed
        own_o = own_o + rec.operator_buys - rec.operator_discards - rec.operators_destroyed
        if own_v < 0:
            out.append(Violation(week, "NONNEG", f"vessel ownership goes negative: {own_v}"))
        if own_o < 0:
            out.append(Violation(week, "NONNEG", f"operator ownership goes negative: {own_o}"))
        if rec.vessels_owned is not None and rec.vessels_owned != own_v:
            out.append(Violation(week, "EQ18_ATTRITION_SUPPLY",
                                 f"recorded vessel ownership {rec.vessels_owned} breaks the "
                                 f"recurrence value {own_v}"))
        if rec.operators_owned is not None and rec.operators_owned != own_o:
            out.append(Violation(week, "EQ18_ATTRITION_SUPPLY",
                                 f"recorded operator ownership {rec.operators_owned} breaks the "
                                 f"recurrence value {own_o}"))

        # demand coverage
        if rec.robots_deployed != r_i:
            out.append(Violation(week, "EQ7_USAGE",
                                 f"robots_deployed={rec.robots_deployed}, demand is {r_i}"))

        # purchase lead time: this week's vessel buys are commissioning, so
        # deployment draws on prior ownership net of last week's users
        deployable = prev_own_v - prev_deployed
        if rec.robots_deployed > deployable:
            out.append(Violation(week, "EQ13_COMMISSIONING",
                                 f"deploys {rec.robots_deployed} vessels but lead times leave "
                                 f"only {deployable}"))

        # vessel balance: ownership must cover crews, shop, commissioning
        pool_v = own_v - rec.robots_deployed - rec.vessels_maint - rec.vessel_buys
        if pool_v < 0:
            out.append(Violation(week, "EQ13_COMMISSIONING",
                                 f"vessel account short by {-pool_v} "
                                 f"(own {own_v}, need {rec.robots_deployed} deployed + "
                                 f"{rec.vessels_maint} shop + {rec.vessel_buys} commissioning)"))

        # operator balance: ownership must cover crews, shop, classroom
        pool = (own_o - 4 * rec.robots_deployed - rec.operators_maint
                - rec.instructors - rec.trainees)
        if pool < 0:
            out.append(Violation(week, "EQ9_OPERATOR_USAGE",
                                 f"operator account short by {-pool} "
                                 f"(own {own_o}, need 4x{rec.robots_deployed} crews + "
                                 f"{rec.operators_maint} shop + {rec.instructors} instructing + "
                                 f"{rec.trainees} training)"))
        if rec.trainees != rec.operator_buys:
            out.append(Violation(week, "EQ9_OPERATOR_USAGE",
                                 f"trainees={rec.trainees} but operator_buys={rec.operator_buys}"))

        # instructor headcount is pinned by the week's trainee intake
        want_g = -(-rec.operator_buys // params.instruct_capacity)
        if rec.instructors != want_g:
            out.append(Violation(week, "EQ11_INSTRUCTORS",
                                 f"instructors={rec.instructors}, {rec.operator_buys} trainees "
                                 f"need {want_g}"))

        # maintenance turnover: everyone who worked last week and survived
        # attrition is either discarded on entry or in the shop this week
        floor_om = 4 * prev_deployed - rec.operator_discards - rec.operators_destroyed
        if rec.operators_maint < floor_om:
            out.append(Violation(week, "EQ12_MAINTENANCE",
                                 f"operators_maint={rec.operators_maint}, turnover floor is {floor_om}"))
        floor_vm = prev_deployed - rec.vessel_discards - rec.vessels_destroyed
        if rec.vessels_maint < floor_vm:
            out.append(Violation(week, "EQ12_MAINTENANCE",
                                 f"vessels_maint={rec.vessels_maint}, turnover floor is {floor_vm}"))

        prev_own_v = own_v
        prev_deployed = rec.robots_deployed
    return out


def repair_and_simulate(plan: ProcurementPlan, demand: DemandSeries,
                        params: FleetParams, costs: CostParams,
                        ) -> tuple[ProcurementPlan, Schedule]:
    """repair() and simulate() fused into one pass.

    Each simulator-reported shortfall is answered with the minimal extra
    purchase at the latest week the one-week lead time allows (the week
    before the failure), and the simulation resumes from that week rather
    than from scratch; weeks before the bump are unaffected by it.

    One exception cuts a purchase instead of adding one: when a week's
    instructor pool cannot cover the plan's own operator purchase and no
    repair bump put that purchase there, the purchase is gratuitous and
    gets clamped down to the instructable maximum.  Purchases repair
    itself added express real downstream demand, so an instructor
    shortfall on those cascades upstream as extra operator buys instead;
    the cascade hitting week 1 (whose instructors can only come from the
    initial stock) is genuinely unrepairable.  Week-1 vessel or operator
    deployment shortfalls are likewise unrepairable: purchases arrive a
    week too late.  Returns the feasible plan and its schedule.
    """
    _check_horizon(plan, demand, params)
    vessel = list(plan.vessel_buys)
    operator = list(plan.operator_buys)
    # states[i] is the state after i completed weeks; records[i] covers week i+1
    states = [FleetState.initial(params)]
    records: list[WeekRecord] = []
    # generous guard against a runaway loop; every bump adds >= 1 purchase
    limit = 100 + 20 * (sum(demand) * 5 + len(demand))
    bumps = 0
    bumped_ops: set[int] = set()
    i = 0
    while i < params.horizon:
        try:
            state, record = step_week(states[i], (vessel[i], operator[i]),
                                      demand[i], params, costs)
        except InfeasibleError as err:
            bumps += 1
            if bumps > limit:
                raise RuntimeError(
                    "repair failed to converge; model invariant broken") from None
            if err.code == INSUFFICIENT_INSTRUCTORS and i not in bumped_ops:
                # the plan's own purchase for this week outstrips the
                # instructor pool and no repair bump put it there: the
                # purchase is gratuitous, so shrink it and retry the week.
                # shortfall = 4R + ceil(ob/G) - available, hence the
                # largest instructable intake is G*(ceil(ob/G) - shortfall).
                g = params.instruct_capacity
                ob_max = g * (ceil_div(operator[i], g) - err.shortfall)
                if ob_max >= operator[i]:  # strict progress is guaranteed
                    raise RuntimeError(
                        "instructor clamp failed to shrink the intake"
                    ) from None
                operator[i] = max(0, ob_max)
                continue
            if i == 0:
                if err.code == INSUFFICIENT_INSTRUCTORS:
                    cap = params.instruct_capacity * (
                        params.initial_operators - 4 * demand[0])
                    raise UnrepairableError(
                        1, f"{err.code}: later weeks need more trained "
                           f"operators than the initial stock can instruct "
                           f"(at most {cap} week-1 trainees)") from None
                raise UnrepairableError(
                    1, f"{err.code}: week-1 demand exceeds the initial fleet "
                       f"by {err.shortfall}") from None
            # buy the shortfall a week earlier and rerun from that week
            i -= 1
            if err.code == INSUFFICIENT_VESSELS:
                vessel[i] += err.shortfall
            else:
                operator[i] += err.shortfall
                bumped_ops.add(i)
            states.pop()
            records.pop()
            continue
        states.append(state)
        records.append(record)
        i += 1
    return ProcurementPlan(tuple(vessel), tuple(operator)), Schedule(tuple(records))


def repair(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
           costs: CostParams) -> ProcurementPlan:
    """Make a plan feasible by adding purchases, or return it unchanged.

    Each simulator-reported shortfall is answered with the minimal extra
    purchase at the latest week the one-week lead time allows (the week
    before the failure).  A failure in week 1 cannot be bought out of,
    so it raises UnrepairableError.
    """
    fixed, _ = repair_and_simulate(plan, demand, params, costs)
    return fixed


def _totals_row(schedule: Schedule) -> list:
    """The schedule CSV's last row: every column summed over the weeks."""
    return ["total", *(sum(getattr(r, name) for r in schedule.records)
                       for name in SCHEDULE_HEADER[1:-1]), schedule.total_cost]


def write_schedule_csv(path: str | Path, schedule: Schedule) -> None:
    """Schedule CSV: one row per week plus a trailing totals row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_HEADER)
        for r in schedule.records:
            writer.writerow([getattr(r, name) for name in SCHEDULE_HEADER])
        writer.writerow(_totals_row(schedule))


def _finite_decimal(cell: str) -> Decimal:
    """Decimal(cell), or ValueError unless it is a finite number."""
    try:
        value = Decimal(cell)
    except InvalidOperation:
        raise ValueError(f"not a number: {cell!r}") from None
    if not value.is_finite():
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def read_schedule_csv(path: str | Path) -> Schedule:
    """Parse a schedule CSV written by write_schedule_csv.

    The totals row must come last and match the weeks' column sums cell
    for cell.  Ownership columns are not part of the export, so loaded
    records carry None there and the validator falls back to reconstruction.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SCHEDULE_HEADER:
            raise ScheduleFormatError(f"bad schedule header: {header}")
        records = []
        totals = None
        for row in reader:
            if not row:
                continue
            if totals is not None:
                raise ScheduleFormatError(f"row after the totals row: {row}")
            if len(row) != len(SCHEDULE_HEADER):
                raise ScheduleFormatError(f"malformed schedule row: {row}")
            if row[0] == "total":
                totals = row
                continue
            try:
                counts = [int(v) for v in row[:-1]]
                cost = _finite_decimal(row[-1])
            except ValueError:
                raise ScheduleFormatError(f"malformed schedule row: {row}") from None
            records.append(WeekRecord(*counts, cost))
    if totals is None:
        raise ScheduleFormatError("schedule file missing totals row")
    try:
        claimed = ["total", *(int(v) for v in totals[1:-1]), _finite_decimal(totals[-1])]
    except ValueError:
        raise ScheduleFormatError(f"malformed totals row: {totals}") from None
    schedule = Schedule(tuple(records))
    try:
        sums = _totals_row(schedule)
    except Overflow:
        raise ScheduleFormatError("weekly costs overflow the decimal range") from None
    for name, says, want in zip(SCHEDULE_HEADER, claimed, sums):
        if says != want:
            raise ScheduleFormatError(f"totals row says {name} {says}, the weeks sum to {want}")
    return schedule
