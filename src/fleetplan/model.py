"""Weekly fleet simulator, cost model, constraint validator, and plan repair.

The simulator is one batched week kernel, step_week, which advances B
plans by one week at once.  Each unit kind (vessels, operators) needs
only two pools between weeks, the units ready to be staffed and the
units that just worked, and a pool is a row of counts indexed by
accumulated maintenance weeks (pool[w] units have worn w weeks) rather
than a per-unit ledger: every rule in the model depends only on a unit's
status and its wear, so units at the same wear are interchangeable.  A
batch holds its pools as (B, 2, W) integer arrays, kind on the middle
axis, where W is the first discard wear capped at H + 1 (no pool ever
holds a unit that worn).  Wherever a subset of a pool must be picked
(deployment, attrition, instructor duty) units are taken lowest wear
first, which keeps every run deterministic.

Within a week the fixed order of events is:
  attrition on last week's working units -> survivors enter one week of
  maintenance (and may be discarded on entry) -> units finishing
  maintenance / commissioning / training / instructing become available
  -> purchases are admitted (new vessels commission, new operators train
  under reserved instructors) -> exactly the demanded deployment is
  staffed -> the week's cost is accrued.

Money inside the kernel is integer: each price is scaled by 10^-e, where
e is the smallest exponent among the config's prices, and a cost turns
back into the Decimal that exact arithmetic on the prices gives only
when it leaves the kernel, so a week's cost is exact at any size.
Arrays are int64 when a bound computed from the instance (initial
stock, demand, prices, the attrition ratio and the largest plan entry)
proves that no intermediate can overflow, and Python ints (dtype=object)
otherwise; the same statements run either way.

simulate, repair_and_simulate and the batch entry points simulate_batch
and repair_batch all drive step_week.  Repair keeps a per-plan week
cursor over a state history of H+1 slots per plan: each kernel round
advances every unfinished plan one week, and a plan whose week failed
is clamped and retries the week, or is bumped: a bump that needs no
more instructors is added to the stored week in place and the failed
week retried, and one that needs more instructors rewinds one week.

validate() re-derives the constraint set from schedule records alone and
shares no code with step_week, so the two act as independent checks on
each other.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_PREC, Decimal, InvalidOperation, Overflow, getcontext, localcontext
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .domain import CostParams, DemandSeries, FleetParams, ProcurementPlan

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
# step_week's shortfall codes: 0 is a staffed week, else the index here
SHORTFALL_CODES = (None, INSUFFICIENT_VESSELS, INSUFFICIENT_OPERATORS, INSUFFICIENT_INSTRUCTORS)


class InfeasibleError(Exception):
    """A week could not be staffed; carries the earliest failure."""

    def __init__(self, code: str, week: int, shortfall: int):
        self.code = code
        self.week = week
        self.shortfall = shortfall
        super().__init__(f"{code} in week {week}, short {shortfall} unit(s)")


class UnrepairableError(Exception):
    """No purchase schedule can fix the plan (week-1 demand exceeds stock)."""

    def __init__(self, code: str, week: int, shortfall: int, detail: str):
        self.code = code
        self.week = week
        self.shortfall = shortfall
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
        with localcontext(prec=MAX_PREC):
            return sum((r.week_cost for r in self.records), Decimal(0))


def discard_vessel(maint_weeks: int, costs: CostParams) -> bool:
    """True when accumulated upkeep strictly exceeds a replacement hull."""
    return maint_weeks * costs.vessel_maint_price > costs.vessel_price


def discard_operator(maint_weeks: int, costs: CostParams) -> bool:
    """True when accumulated upkeep strictly exceeds a fresh hire plus
    twice the training charge (the hire's course and the instructor)."""
    return (maint_weeks * costs.operator_maint_price
            > costs.operator_price + 2 * costs.training_price)


_INT64_MAX = 2 ** 63 - 1
_KINDS = np.arange(2)  # the middle axis of a pool array: vessels, operators
_CREW = np.array((1, 4))  # vessels and operators one deployed robot takes


def _first_discard(is_discard, cap: int) -> int:
    """The least wear is_discard accepts, or cap if none below it does."""
    return next((w for w in range(1, cap) if is_discard(w)), cap)


def _scaled(price: Decimal, exponent: int) -> int:
    """price * 10^-exponent, exactly, for an exponent at most price's."""
    _, digits, exp = price.as_tuple()
    return int("".join(map(str, digits))) * 10 ** (exp - exponent)


class Kernel(NamedTuple):
    """An instance's constants for step_week and its batch drivers.

    entry_limit is the largest plan entry for which int64 arrays provably
    cannot overflow (-1 when none can); see kernel().
    """

    demand: DemandSeries
    params: FleetParams
    num: int  # attrition rate = num / den
    den: int
    # scaled prices: a (vessel, operator) purchase including the trainee's
    # course, the instructor's charge, and a (vessel, operator) shop week
    buy_prices: np.ndarray
    training_price: int
    shop_prices: np.ndarray
    exponent: int
    width: int
    last_wear: np.ndarray  # (2,) per kind, the wear that is discarded on its next shop week
    keep: np.ndarray  # (2, W) int64, 1 where a survivor stays below its kind's discard wear, else 0
    entry_limit: int

    def start(self, rows: int, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Week-0 (ready, in_use) pools: the starting stock idle and fully skilled."""
        ready = np.zeros((rows, 2, self.width), dtype=dtype)
        ready[:, 0, 0] = self.params.initial_vessels
        ready[:, 1, 0] = self.params.initial_operators
        return ready, np.zeros_like(ready)

    def arrays(self, plans: list[ProcurementPlan]) -> tuple[np.ndarray, np.ndarray]:
        """(buys, demand): buys[b, i] = (vessel, operator) buys of plan b in
        week i+1, and the demand series, int64 when the bound allows."""
        rows = [p.genes for p in plans]
        try:
            buys = np.array(rows, dtype=np.int64)
            dtype = np.int64 if buys.max() <= self.entry_limit else object
        except OverflowError:
            dtype = object
        if dtype is object:
            buys = np.array(rows, dtype=object)
        return (buys.reshape(len(plans), 2, -1).transpose(0, 2, 1),
                np.array(self.demand.values, dtype=dtype))

    def decimal(self, cost, total: bool = False) -> Decimal:
        """A kernel cost as the Decimal that exact arithmetic on the
        prices gives: a week's terms share the least price exponent.  A
        total, like Schedule.total_cost, sums from Decimal(0), so its
        exponent is at most 0."""
        n, e = int(cost), self.exponent
        if total and e > 0:
            n, e = n * 10 ** e, 0
        return Decimal(f"{n}E{e}")


@lru_cache(maxsize=32)
def kernel(demand: DemandSeries, params: FleetParams, costs: CostParams) -> Kernel:
    """The Kernel of one instance; equal instances share one.

    int64 is safe while every plan entry stays at or below E, since then
    no pool holds more than N = max(initial stock) + H*E units, and:
      attrition   2*num*N + den                      <= 2^63 - 1
      costs       H * (4*E + 2*N) * max scaled price  <= 2^63 - 1
      shortfalls  4*max(demand) + E + N               <= 2^63 - 1
      clamps      G * 4*max(demand), E + G            <= 2^63 - 1
    where G is the instructor capacity (a clamped intake lies between
    -4*max(demand)*G and E + G).  entry_limit is the largest such E.  Repair's bumps can raise entries
    past it, so repair_batch checks each bump and widens to Python ints.
    """
    h = params.horizon
    num, den = params.attrition_rate.as_integer_ratio()
    price_list = (costs.vessel_price, costs.operator_price, costs.training_price,
                  costs.vessel_maint_price, costs.operator_maint_price)
    exponent = min(p.as_tuple().exponent for p in price_list)
    pv, po, pt, pvm, pom = prices = tuple(_scaled(p, exponent) for p in price_list)
    first = (_first_discard(lambda w: discard_vessel(w, costs), h + 1),
             _first_discard(lambda w: discard_operator(w, costs), h + 1))
    width = max(first)
    last_wear = np.array(first) - 1
    keep = (np.arange(width) < last_wear[:, None]).astype(np.int64)

    stock = max(params.initial_vessels, params.initial_operators)
    peak = max(demand.values)
    g = params.instruct_capacity
    top = _INT64_MAX
    limits = [(top // (h * max(prices)) - 2 * stock) // (4 + 2 * h),
              (top - 4 * peak - stock) // (1 + h), top - g]
    if num:
        limits.append(((top - den) // (2 * num) - stock) // h)
    fits = 2 * den <= top and max(pv, po + pt, pvm, pom, 4 * peak * g) <= top
    entry_limit = min(limits) if fits else -1
    dtype = np.int64 if fits else object
    arrays = (np.array((pv, po + pt), dtype=dtype), np.array((pvm, pom), dtype=dtype),
              last_wear, keep)
    for a in arrays:  # every caller of the cache shares them
        a.flags.writeable = False
    buy_prices, shop_prices, last_wear, keep = arrays
    return Kernel(demand, params, num, den, buy_prices, pt, shop_prices, exponent, width,
                  last_wear, keep, max(entry_limit, -1))


class Week(NamedTuple):
    """step_week's output for B rows.  Row b staffed its week iff
    code[b] == 0; otherwise shortfall[b] units of SHORTFALL_CODES[code[b]]
    were missing and its other fields mean nothing."""

    code: np.ndarray  # (B,)
    shortfall: np.ndarray  # (B,)
    ready: np.ndarray  # (B, 2, W) next week's ready pools
    in_use: np.ndarray  # (B, 2, W) this week's deployed units
    cost: np.ndarray  # (B,) in scaled price units, see Kernel.decimal
    destroyed: np.ndarray  # (B, 2) per kind
    discards: np.ndarray  # (B, 2)
    maint: np.ndarray  # (B, 2) units in the shop
    instructors: np.ndarray  # (B,)


def step_week(ready: np.ndarray, in_use: np.ndarray, buys: np.ndarray, demand: np.ndarray,
              k: Kernel) -> Week:
    """Advance B fleets one week.

    ready and in_use are last week's (B, 2, W) pools, buys the (B, 2)
    vessel and operator purchases of the week being entered, and demand
    the (B,) deployments, all of one dtype.  Each row reports its own
    shortfall, vessel shortfalls first, then operator deployment, then
    instructor reservation.
    """
    if buys.min() < 0 or demand.min() < 0:
        raise ValueError("purchases and demand must be >= 0")

    # attrition strikes last week's working units, lowest wear first: of
    # the upto[w] units at or below wear w, all but the destroyed survive
    if k.num:
        upto = np.add.accumulate(in_use, axis=2)
        worked = upto[:, :, -1]
        destroyed = (2 * k.num * worked + k.den) // (2 * k.den)
        survivors = np.minimum(np.maximum(upto - destroyed[..., None], 0), in_use)
        surviving = worked - destroyed
    else:
        destroyed = np.zeros(in_use.shape[:2], dtype=in_use.dtype)
        survivors = in_use
        surviving = in_use.sum(axis=2)
    # one more week of wear; the units it takes to their kind's first
    # discard wear are discarded on entry, take no slot and cost nothing
    discards = survivors[:, _KINDS, k.last_wear]
    shop = surviving - discards

    # crews and instructors against the ready pools
    upto = np.add.accumulate(ready, axis=2)
    avail = upto[:, :, -1]
    g = k.params.instruct_capacity
    instructors = (buys[:, 1] + (g - 1)) // g  # ceil(operator buys / G), as buys >= 0
    need = np.multiply.outer(demand, _CREW)
    need[:, 1] += instructors
    short = need - avail
    short_v, short_g = short[:, 0], short[:, 1]
    short_o = short_g - instructors
    lack_v, lack_o, lack_g = short_v > 0, short_o > 0, short_g > 0
    code = np.where(lack_v, 1, np.where(lack_o, 2, 3 * lack_g))
    shortfall = np.where(lack_v, short_v, np.where(lack_o, short_o, np.where(lack_g, short_g, 0)))

    # instructors, then crews, then vessels, each lowest wear first: a
    # kind's deployed units are those whose place in the count lies past
    # its instructors and below its need
    low = upto - ready
    np.maximum(low[:, 1], instructors[:, None], out=low[:, 1])
    use = np.minimum(upto, need[..., None])
    use -= low
    np.maximum(use, 0, out=use)
    # next week's ready pools: the idle, the instructors, the intake and
    # the shop, one wear up
    nxt = ready - use
    nxt[:, :, 0] += buys
    nxt[:, :, 1:] += (survivors * k.keep)[:, :, :-1]

    cost = buys @ k.buy_prices + shop @ k.shop_prices + instructors * k.training_price
    return Week(code, shortfall, nxt, use, cost, destroyed, discards, shop, instructors)


def _check_horizon(plans: list[ProcurementPlan], demand: DemandSeries,
                   params: FleetParams) -> None:
    for plan in plans:
        if not (plan.horizon == len(demand) == params.horizon):
            raise ValueError(f"horizon mismatch: plan={plan.horizon} demand={len(demand)} "
                             f"params={params.horizon}")


def simulate(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
             costs: CostParams) -> Schedule:
    """Run the full horizon as a batch of one; raises InfeasibleError at
    the first unstaffable week."""
    _check_horizon([plan], demand, params)
    k = kernel(demand, params, costs)
    buys, dem = k.arrays([plan])
    ready, in_use = k.start(1, buys.dtype)
    records = []
    for i in range(params.horizon):
        w = step_week(ready, in_use, buys[:, i], dem[i:i + 1], k)
        if w.code[0]:
            raise InfeasibleError(SHORTFALL_CODES[w.code[0]], i + 1, int(w.shortfall[0]))
        ready, in_use = w.ready, w.in_use
        # everything owned at the end of the week is ready for the next or deployed
        owned = ready.sum(axis=2) + in_use.sum(axis=2)
        (cb, ob), (dv, do), (sv, so), (mv, mo), (ov, oo) = (
            a[0].tolist() for a in (buys[:, i], w.discards, w.destroyed, w.maint, owned))
        records.append(WeekRecord(i + 1, cb, ob, dv, do, sv, so, mv, mo,
                                  int(w.instructors[0]), ob, demand[i],
                                  k.decimal(w.cost[0]), ov, oo))
    return Schedule(tuple(records))


def simulate_batch(plans: list[ProcurementPlan], demand: DemandSeries, params: FleetParams,
                   costs: CostParams) -> list[Decimal | InfeasibleError]:
    """Each plan's total cost, or the InfeasibleError of its first
    unstaffable week, from one kernel round per week."""
    _check_horizon(plans, demand, params)
    if not plans:
        return []
    k = kernel(demand, params, costs)
    buys, dem = k.arrays(plans)
    dem = np.broadcast_to(dem, buys.shape[:2])
    ready, in_use = k.start(len(plans), buys.dtype)
    total = np.zeros(len(plans), dtype=buys.dtype)
    code = np.zeros(len(plans), dtype=np.intp)
    week = np.zeros(len(plans), dtype=np.intp)
    shortfall = np.zeros(len(plans), dtype=buys.dtype)
    for i in range(params.horizon):
        w = step_week(ready, in_use, buys[:, i], dem[:, i], k)
        first = (code == 0) & (w.code != 0)
        code[first], week[first], shortfall[first] = w.code[first], i + 1, w.shortfall[first]
        ready, in_use, total = w.ready, w.in_use, total + w.cost
    return [InfeasibleError(SHORTFALL_CODES[c], int(wk), int(s)) if c else k.decimal(t, True)
            for c, wk, s, t in zip(code.tolist(), week.tolist(), shortfall.tolist(),
                                   total.tolist())]


def _unrepairable(code: str, shortfall: int, demand: DemandSeries,
                  params: FleetParams) -> UnrepairableError:
    if code == INSUFFICIENT_INSTRUCTORS:
        cap = params.instruct_capacity * (params.initial_operators - 4 * demand[0])
        return UnrepairableError(code, 1, shortfall,
                                 f"{code}: later weeks need more trained operators than the "
                                 f"initial stock can instruct (at most {cap} week-1 trainees)")
    return UnrepairableError(code, 1, shortfall,
                             f"{code}: week-1 demand exceeds the initial fleet by {shortfall}")


def repair_batch(plans: list[ProcurementPlan], demand: DemandSeries, params: FleetParams,
                 costs: CostParams, stats: Counter | None = None,
                 ) -> list[tuple[ProcurementPlan, Decimal] | UnrepairableError]:
    """repair() and simulate() fused, for many plans at once.

    Returns, per plan, the repaired plan and its total cost, or the
    UnrepairableError that ends its repair.  Each simulator-reported
    shortfall is answered with the minimal extra purchase at the latest
    week the one-week lead time allows (the week before the failure);
    weeks before the bump are unaffected by it.  The bumped week changes
    only by the extra wear-0 intake and its price unless the bump raises
    its instructor count, so the plan adds those to the stored week and
    retries the failed one; a bump that needs more instructors reruns
    the bumped week instead.

    One exception cuts a purchase instead of adding one: when a week's
    instructor pool cannot cover the plan's own operator purchase and no
    repair bump put that purchase there, the purchase is gratuitous and
    gets clamped down to the instructable maximum.  Purchases repair
    itself added express real downstream demand, so an instructor
    shortfall on those cascades upstream as extra operator buys instead;
    the cascade hitting week 1 (whose instructors can only come from the
    initial stock) is genuinely unrepairable.  Week-1 vessel or operator
    deployment shortfalls are likewise unrepairable: purchases arrive a
    week too late.

    Every kernel round steps each unfinished plan at its own week
    cursor and stores every row's week in the plan's next slot; the few
    rows that failed are then answered one by one in Python ints.
    stats, if given, counts the rounds, the rows they stepped, the bumps
    per shortfall code and the instructor clamps.
    """
    _check_horizon(plans, demand, params)
    if not plans:
        return []
    k = kernel(demand, params, costs)
    h, n = params.horizon, len(plans)
    g = params.instruct_capacity
    span = h + 1
    # slot b*span + i holds plan b's state after i completed weeks, the
    # purchases and demand of week i+1, and the cost of week i
    buys, dem = k.arrays(plans)
    buys = np.concatenate((buys, np.zeros_like(buys[:, :1])), axis=1).reshape(-1, 2)
    dem = np.tile(np.append(dem, 0), n)
    ready_at = np.zeros((n * span, 2, k.width), dtype=buys.dtype)
    in_use_at = np.zeros_like(ready_at)
    cost_of = np.zeros(n * span, dtype=buys.dtype)
    ready_at[::span] = k.start(n, buys.dtype)[0]
    pos = np.arange(0, n * span, span)  # each plan's week cursor, as a slot
    bumped_ops = set()  # slots whose operator purchases a bump raised
    stuck = {}  # plan -> the UnrepairableError of its week-1 shortfall
    # generous guard against a runaway loop; every bump adds >= 1 purchase
    limit = 100 + 20 * (sum(demand) * 5 + h)
    tries = [0] * n  # failed steps per plan
    bumps = [0] * 4  # per shortfall code
    rounds = stepped = clamps = 0
    rows = np.arange(n)
    while rows.size:
        rounds += 1
        stepped += rows.size
        at = pos[rows]
        w = step_week(ready_at[at], in_use_at[at], buys[at], dem[at], k)
        # every row's week goes to its next slot: a failed row's cursor
        # stays at or before its slot, so it rewrites that slot before it
        # passes it again
        nxt = at + 1
        ready_at[nxt] = w.ready
        in_use_at[nxt] = w.in_use
        cost_of[nxt] = w.cost
        pos[rows] = nxt
        for j in np.flatnonzero(w.code).tolist():
            b, a, code, short = int(rows[j]), int(at[j]), int(w.code[j]), int(w.shortfall[j])
            tries[b] += 1
            if rounds > limit and tries[b] > limit:
                raise RuntimeError("repair failed to converge; model invariant broken")
            if code == 3 and a not in bumped_ops:
                # a gratuitous intake: shrink it to what the instructors
                # can teach and retry the week.  shortfall = 4R +
                # ceil(ob/G) - available, hence the largest instructable
                # intake is G*(ceil(ob/G) - shortfall).
                ob = int(buys[a, 1])
                ob_max = g * (-(-ob // g) - short)
                if ob_max >= ob:  # strict progress is guaranteed
                    raise RuntimeError("instructor clamp failed to shrink the intake")
                buys[a, 1] = max(ob_max, 0)
                clamps += 1
                pos[b] = a
                continue
            if a % span == 0:  # week 1 has no earlier week to buy in
                stuck[b] = _unrepairable(SHORTFALL_CODES[code], short, demand, params)
                pos[b] = a + h
                continue
            # buy the shortfall a week earlier: vessels for a vessel
            # shortfall, else operators
            bumps[code] += 1
            kind = min(code - 1, 1)
            was = int(buys[a - 1, kind])
            if buys.dtype != object and was + short > k.entry_limit:
                buys, dem, ready_at, in_use_at, cost_of = (
                    x.astype(object) for x in (buys, dem, ready_at, in_use_at, cost_of))
            buys[a - 1, kind] = was + short
            if kind:
                bumped_ops.add(a - 1)
                if -(-(was + short) // g) != -(-was // g):
                    pos[b] = a - 1  # more instructors: rerun the week before with them
                    continue
            # otherwise the purchase reaches the week it was bought for
            # only as wear-0 intake and cost: add both to the stored week
            # and retry the failed one
            ready_at[a, kind, 0] += short
            cost_of[a] += short * int(k.buy_prices[kind])
            pos[b] = a
        rows = rows[pos[rows] % span < h]
    if stats is not None:
        stats.update({"kernel_rounds": rounds, "rows_stepped": stepped,
                      "instructor_clamps": clamps, "bumps_vessels": bumps[1],
                      "bumps_operators": bumps[2], "bumps_instructors": bumps[3]})
    totals = cost_of.reshape(n, span).sum(axis=1).tolist()
    # a bump only adds units and a clamp floors at zero, so every row of
    # buys is a valid plan's genes: vessels, then operators
    fixed = buys.reshape(n, span, 2)[:, :h].transpose(0, 2, 1).reshape(n, 2 * h).tolist()
    return [stuck[b] if b in stuck else
            (ProcurementPlan._of(tuple(fixed[b])) if tries[b] else plan,
             k.decimal(totals[b], True))
            for b, plan in enumerate(plans)]


def repair(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
           costs: CostParams) -> ProcurementPlan:
    """Make a plan feasible by adding purchases, or return it unchanged;
    repair_batch for one plan.  A failure in week 1 cannot be bought out
    of, so it raises UnrepairableError."""
    [got] = repair_batch([plan], demand, params, costs)
    if isinstance(got, UnrepairableError):
        raise got
    return got[0]


def repair_and_simulate(plan: ProcurementPlan, demand: DemandSeries,
                        params: FleetParams, costs: CostParams,
                        ) -> tuple[ProcurementPlan, Schedule]:
    """The repaired plan and its schedule."""
    fixed = repair(plan, demand, params, costs)
    return fixed, simulate(fixed, demand, params, costs)


def validate(schedule: Schedule, demand: DemandSeries, params: FleetParams,
             costs: CostParams) -> list[Violation]:
    """Check a schedule against the constraint set, independently of the
    simulator.

    Works purely from the week records plus initial stock: ownership is
    reconstructed week by week from the purchase/discard/attrition flows,
    and each week must carry its own number and satisfy demand coverage,
    operator balance, instructor count, maintenance turnover, purchase
    lead times, the attrition account, and nonnegativity.  Each week_cost
    must equal its counts times the prices exactly; the total is their
    sum by construction, and a file's totals row is checked by its reader.
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
        # cost account: the week's charge follows from its counts, exactly
        with localcontext(prec=MAX_PREC):
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
    """Decimal(cell), or ValueError unless it is a finite number inside
    the default context's exponent range, which bounds the digits of the
    exact sums Schedule.total_cost takes."""
    try:
        value = Decimal(cell)
    except InvalidOperation:
        raise ValueError(f"not a number: {cell!r}") from None
    if not value.is_finite():
        raise ValueError(f"not a finite number: {cell!r}")
    if value.as_tuple().exponent < getcontext().Etiny() or value.adjusted() > getcontext().Emax:
        raise ValueError(f"exponent out of range: {cell!r}")
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
