"""Weekly fleet simulator, cost model, constraint validator, and plan repair.

The simulator is one batched week kernel, step_week, which advances B
plans by one week at once.  Each unit kind (vessels, operators) needs
only two pools between weeks, the units ready to be staffed and the
units that just worked, and a pool is a row of counts over accumulated
maintenance weeks rather than a per-unit ledger: every rule in the model
depends only on a unit's status and its wear, so units at the same wear
are interchangeable.  A pool is stored as prefix sums over wear: pool[w]
units have worn at most w weeks, so pool[-1] is the whole pool and every
pool is nonnegative and nondecreasing along wear.  A batch holds its
pools as one (2, 2, W, B) integer array, [ready, in_use] then kind then
wear, where W is the first discard wear capped at H + 1 (no pool ever
holds a unit that worn).  The batch is the last axis, so each of the
kernel's array operations runs over contiguous rows of B counts.
Wherever a subset of a pool must be picked (deployment, attrition,
instructor duty) units are taken lowest wear first, which keeps every
run deterministic and makes each pick a clip of the prefix sums.

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
stock, demand, prices and the largest plan entry) proves that no
intermediate can overflow, and Python ints (dtype=object) otherwise;
the same statements run either way.

Two drivers step the kernel: simulate builds one plan's records, and
repair_batch repairs and prices many plans at once (repair and
repair_and_simulate go through them).  Kernel.inputs packs, once per
batch, all a week needs that depends only on the plan and the demand:
purchases, needs, instructors and the attrition loss.  step_week reports
each row's raw shortfalls and shop counts; classify_shortfall names a
failing row's shortfall and Kernel.cost prices a week.  Repair keeps a
per-plan week cursor: each kernel round advances every unfinished plan
one week, and a plan whose week failed is answered inside the round,
before any unit is deployed: it is clamped, or bumped, and a bump that
needs no more instructors adds its intake to the week's ready pools in
place.  Only a bump that needs more instructors (or past int64) holds
the plan back, to rerun the week before.

validate() re-derives the constraint set from schedule records alone and
shares no code with step_week, so the two act as independent checks on
each other.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_PREC, Decimal, InvalidOperation, Overflow, getcontext, localcontext
from functools import lru_cache
from itertools import chain
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
# classify_shortfall's codes: 0 is a staffed week, else the index here
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
_KINDS = np.arange(2)  # the kind axis of a pool array: vessels, operators


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
    # scaled prices: a (vessel, operator) purchase including the trainee's
    # course, the instructor's charge, and a (vessel, operator) shop week
    buy_prices: np.ndarray
    training_price: int
    shop_prices: np.ndarray
    exponent: int
    width: int
    last_wear: np.ndarray  # (2,) per kind, the wear that is discarded on its next shop week
    # a survivor kept at wear w (below its kind's last_wear) returns at
    # wear w+1, so the kept units' prefix sum at wear w is the survivors'
    # at min(w-1, last_wear-1), or 0 at wear 0 and for a kind that keeps
    # none: older holds that row as an index into the (2*W + 1, B)
    # survivor sums with kind and wear flattened, whose last row is 0
    older: np.ndarray  # (2, W) intp
    # (7, H+1) the rows of Kernel.inputs that depend on demand alone
    demand_rows: np.ndarray
    entry_limit: int

    def start(self, rows: int, dtype) -> np.ndarray:
        """Week-0 (2, 2, W, B) pools: the starting stock ready at wear 0,
        nothing in use."""
        state = np.zeros((2, 2, self.width, rows), dtype=dtype)
        state[0, 0] = self.params.initial_vessels
        state[0, 1] = self.params.initial_operators
        return state

    def inputs(self, plans: list[ProcurementPlan]) -> np.ndarray:
        """(7, n, H+1) step_week inputs, int64 when the bound allows: at
        [:, b, i], plan b's week i+1 (vessel, operator) buys, needs R and
        4R + ceil(ob/G) for demand R and operator buys ob, ceil(ob/G)
        instructors, and the (vessel, operator) attrition losses.  Every
        week steps from a staffed week, whose deployment is exactly (R',
        4R') for its demand R' (0 before week 1), so the losses are
        crew*R'*K rounded half up.  Slot H, past the last week, is 0."""
        n, h = len(plans), len(self.demand)
        rows = [p.genes for p in plans]
        try:
            flat = np.fromiter(chain.from_iterable(rows), np.int64, 2 * n * h)
            if flat.max() > self.entry_limit:
                flat = flat.astype(object)
        except OverflowError:
            flat = np.array(list(chain.from_iterable(rows)), dtype=object)
        if flat.min() < 0:
            raise ValueError("purchases must be >= 0")
        out = np.empty((7, n, h + 1), dtype=flat.dtype)
        out[:] = self.demand_rows[:, None]
        out[:2, :, :h] = flat.reshape(n, 2, h).transpose(1, 0, 2)
        g = self.params.instruct_capacity
        np.floor_divide(out[1] + (g - 1), g, out=out[4])  # ceil(ob/G), as ob >= 0
        out[3] += out[4]
        return out

    def cost(self, buys: np.ndarray, shop: np.ndarray) -> np.ndarray:
        """The cost of weeks with (2,) or (2, M) (vessel, operator)
        purchases and shop counts, in scaled price units (see decimal):
        the purchases with their trainees' courses, the shop weeks, and
        ceil(operator buys / G) instructors' charges."""
        g = self.params.instruct_capacity
        return (self.buy_prices @ buys + self.shop_prices @ shop
                + (buys[1] + (g - 1)) // g * self.training_price)

    def decimal(self, cost, total: bool = False) -> Decimal:
        """A kernel cost as the Decimal that exact arithmetic on the
        prices gives: a week's terms share the least price exponent.  A
        total, like Schedule.total_cost, sums from Decimal(0), so its
        exponent is at most 0."""
        n, e = int(cost), self.exponent
        if total and e >= 0:  # an integer, built without parsing a string
            return Decimal(n * 10 ** e)
        return Decimal(f"{n}E{e}")


@lru_cache(maxsize=32)
def kernel(demand: DemandSeries, params: FleetParams, costs: CostParams) -> Kernel:
    """The Kernel of one instance; equal instances share one.

    int64 is safe while every plan entry stays at or below E, since then
    no pool holds more than N = max(initial stock) + H*E units, and:
      costs       H * (4*E + 2*N) * max scaled price  <= 2^63 - 1
      shortfalls  4*max(demand) + E + N               <= 2^63 - 1
      clamps      G * 4*max(demand), E + G            <= 2^63 - 1
    where G is the instructor capacity (a clamped intake lies between
    -4*max(demand)*G and E + G).  entry_limit is the largest such E.
    Repair's bumps can raise entries past it, so repair_batch checks
    each bump and widens to Python ints.  Attrition takes no bound: its
    losses are computed here, in Python ints, from the demand, and lie
    under the demand's.  Storing pools as prefix sums leaves these
    bounds as they are: the kernel always summed its pools along wear,
    so every prefix sum was already an intermediate, and a prefix sum
    never exceeds its pool's total.  Pricing each week's slot once per
    batch leaves them too: each slot's cost is one week's, which lies
    under the bound on the sum of a plan's weeks.
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
    wear = np.arange(width)
    older = np.where((wear >= 1) & (last_wear[:, None] >= 1),
                     _KINDS[:, None] * width + np.minimum(wear, last_wear[:, None]) - 1,
                     2 * width)

    stock = max(params.initial_vessels, params.initial_operators)
    peak = max(demand.values)
    g = params.instruct_capacity
    top = _INT64_MAX
    limits = [(top // (h * max(prices)) - 2 * stock) // (4 + 2 * h),
              (top - 4 * peak - stock) // (1 + h), top - g]
    fits = max(pv, po + pt, pvm, pom, 4 * peak * g) <= top
    entry_limit = min(limits) if fits else -1
    dtype = np.int64 if fits else object
    # the demand's rows of Kernel.inputs, week i+1 in column i
    now, before = (*demand.values, 0), (0, *demand.values)
    demand_rows = np.zeros((7, h + 1), dtype=dtype)
    demand_rows[2:4] = [[crew * r for r in now] for crew in (1, 4)]
    demand_rows[5:] = [[(2 * num * crew * r + den) // (2 * den) for r in before]
                       for crew in (1, 4)]
    arrays = (np.array((pv, po + pt), dtype=dtype), np.array((pvm, pom), dtype=dtype),
              last_wear, older, demand_rows)
    for a in arrays:  # every caller of the cache shares them
        a.flags.writeable = False
    buy_prices, shop_prices, last_wear, older, demand_rows = arrays
    return Kernel(demand, params, buy_prices, pt, shop_prices, exponent, width,
                  last_wear, older, demand_rows, max(entry_limit, -1))


class Week(NamedTuple):
    """step_week's output for B fleets.  Fleet b staffed its week iff no
    entry of short[:, b] is positive; otherwise classify_shortfall names
    what was missing and its other fields mean nothing."""

    # (2, B) units needed less units ready: vessels, and operators with
    # the instructors included
    short: np.ndarray
    state: np.ndarray  # (2, 2, W, B) next week's ready pools, this week's deployed units
    maint: np.ndarray  # (2, B) units in the shop, per kind


def step_week(state: np.ndarray, inputs: np.ndarray, k: Kernel, answer=None) -> Week:
    """Advance B fleets one week.

    state holds last week's (2, 2, W, B) [ready, in_use] pools as prefix
    sums over wear, and inputs the (7, B) packed rows of the week being
    entered (Kernel.inputs), both of one dtype.  answer, if given, is
    called with short before any unit is deployed, and may raise the
    ready pools and change the inputs of failing fleets in place; the
    deployment reads them as answer left them.
    """
    ready, in_use = state[0], state[1]
    buys, need, instructors = inputs[:2], inputs[2:4], inputs[4]

    # attrition strikes last week's working units, lowest wear first, so
    # the survivors at or below each wear are all but the destroyed
    survivors = np.zeros((2 * k.width + 1, state.shape[-1]), dtype=state.dtype)
    np.subtract(in_use, inputs[5:, None], out=survivors[:-1].reshape(in_use.shape))
    np.maximum(survivors, 0, out=survivors)
    # one more week of wear; the units it takes to their kind's first
    # discard wear are discarded on entry, take no slot and cost nothing
    kept = survivors.take(k.older, axis=0)

    # crews and instructors against the ready pools
    short = need - ready[:, -1]
    if answer is not None:
        answer(short)

    # instructors, then crews, then vessels, each lowest wear first: at
    # or below each wear, a kind deploys the units counted past its
    # instructors and within its need
    out = np.empty_like(state)
    nxt, use = out[0], out[1]
    np.minimum(ready, need[:, None], out=use)
    use[1] -= instructors
    np.maximum(use, 0, out=use)
    # next week's ready pools: the idle, the instructors, the intake at
    # wear 0 and the shop, one wear up
    np.subtract(ready, use, out=nxt)
    nxt += kept
    nxt += buys[:, None]
    return Week(short, out, kept[:, -1])


def classify_shortfall(short_v: int, short_g: int, instructors: int) -> tuple[int, int]:
    """A week's (code, shortfall) from a row of step_week's short and its
    instructor count (row 4 of Kernel.inputs): vessels first, then
    operator deployment, then instructor reservation; (0, 0) for a
    staffed week."""
    if short_v > 0:
        return 1, short_v
    if short_g > instructors:
        return 2, short_g - instructors
    return (3, short_g) if short_g > 0 else (0, 0)


def _check_horizon(plans: list[ProcurementPlan], demand: DemandSeries,
                   params: FleetParams) -> None:
    h = params.horizon
    if len(demand) == h and {len(plan.genes) for plan in plans} <= {2 * h}:
        return
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
    inputs = k.inputs([plan])[:, 0]
    state = k.start(1, inputs.dtype)
    records = []
    for i in range(params.horizon):
        week = inputs[:, i:i + 1]
        w = step_week(state, week, k)
        cb, ob, _, _, instructors, sv, so = week[:, 0].tolist()
        code, short = classify_shortfall(*w.short[:, 0].tolist(), instructors)
        if code:
            raise InfeasibleError(SHORTFALL_CODES[code], i + 1, short)
        # last week's workers that survive attrition are in the shop or discarded
        worked = state[1, :, -1, 0]
        state = w.state
        # everything owned at the end of the week is ready for the next or deployed
        owned = state[:, :, -1, 0].sum(axis=0)
        (dv, do), (mv, mo), (ov, oo) = (a.tolist() for a in (
            worked - week[5:, 0] - w.maint[:, 0], w.maint[:, 0], owned))
        records.append(WeekRecord(i + 1, cb, ob, dv, do, sv, so, mv, mo, instructors, ob,
                                  demand[i], k.decimal(k.cost(week[:2, 0], w.maint[:, 0])),
                                  ov, oo))
    return Schedule(tuple(records))


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
    only by the extra wear-0 intake, which adds to every wear of the
    failed week's ready pools' prefix sums, unless the bump raises its
    instructor count, so the intake is added to those pools in place and
    the failed week's shortfall recomputed; a bump that needs more
    instructors reruns the bumped week instead.

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

    Every kernel round steps each unfinished plan's current week, and
    the plans whose week failed are answered inside the round, in Python
    ints, between the shortfall and the deployment: each answer (a
    clamp, or a bump that needs no more instructors) is applied in place
    and the week's shortfall recomputed, until the week is staffed or
    the plan must be held back: by a bump that needs more instructors, or
    that needs Python ints while the round is in int64, which reruns the
    week before, or by a week-1 shortfall, which ends its repair.  Each
    round's output is appended to a log, and a slot index finds every
    week's pools and shop counts in it for the held plans' reloads and
    for the pricing.  The weeks are priced once, from the final purchases
    and shop counts, when every plan is done.  stats, if given, counts
    the rounds, the rows they stepped, the bumps per shortfall code and
    the instructor clamps.
    """
    _check_horizon(plans, demand, params)
    if not plans:
        return []
    k = kernel(demand, params, costs)
    h, n = params.horizon, len(plans)
    g = params.instruct_capacity
    span = h + 1
    # slot b*span + i holds plan b's inputs of week i+1 (Kernel.inputs),
    # and its pools after i completed weeks and shop counts of week i at
    # column where[b*span + i] of the round log, each log entry's columns
    # numbered from its start
    inputs = k.inputs(plans).reshape(7, -1)
    pools, shop = k.start(n, inputs.dtype), np.zeros((2, n), dtype=inputs.dtype)
    log, starts = [(pools, shop)], [0]
    rows = np.arange(n)  # the unfinished plans, in their columns' order
    cur = rows * span  # each one's week cursor, as a slot
    where = np.zeros(n * span, dtype=np.intp)
    where[cur] = rows
    bumped_ops = set()  # slots whose operator purchases a bump raised
    stuck = {}  # plan -> the UnrepairableError of its week-1 shortfall
    # generous guard against a runaway loop; every bump adds >= 1 purchase
    limit = 100 + 20 * (sum(demand) * 5 + h)
    tries = [0] * n  # failed steps per plan
    bumps = [0] * 4  # per shortfall code
    rounds = stepped = clamps = 0
    left = h  # rounds before any plan can finish its last week

    def answer(short):
        # pools are the stored pools of the rows' current slots, so a bump
        # of this week's ready pools lands in the log; x holds the rows'
        # inputs, which the deployment reads after the answers
        nonlocal inputs, clamps, left
        failed = (short > 0).nonzero()[1].tolist()
        if not failed:
            return
        for j in sorted(set(failed)):
            b, a = rows.item(j), at.item(j)
            short_v, short_g = short[:, j].tolist()
            instructors = x.item(4, j)
            while True:
                code, short_n = classify_shortfall(short_v, short_g, instructors)
                if not code:
                    break
                tries[b] += 1
                if tries[b] > limit:
                    raise RuntimeError("repair failed to converge; model invariant broken")
                if code == 3 and a not in bumped_ops:
                    # a gratuitous intake: shrink it to what the instructors
                    # can teach.  shortfall = 4R + ceil(ob/G) - available,
                    # hence the largest instructable intake is
                    # G*(ceil(ob/G) - shortfall).
                    ob = x.item(1, j)
                    ob_max = g * (instructors - short_n)
                    if ob_max >= ob:  # strict progress is guaranteed
                        raise RuntimeError("instructor clamp failed to shrink the intake")
                    ob = max(ob_max, 0)
                    fewer = instructors - -(-ob // g)
                    instructors -= fewer
                    short_g -= fewer
                    x[1, j], x[3, j], x[4, j] = ob, x[3, j] - fewer, instructors
                    inputs[:, a] = x[:, j]
                    clamps += 1
                    continue
                if a % span == 0:  # week 1 has no earlier week to buy in
                    stuck[b] = _unrepairable(SHORTFALL_CODES[code], short_n, demand, params)
                    cur[j] = a + h
                    left = 0
                    break
                # buy the shortfall a week earlier: vessels for a vessel
                # shortfall, else operators
                bumps[code] += 1
                kind = min(code - 1, 1)
                was = inputs.item(kind, a - 1)
                wide = was + short_n > k.entry_limit and x.dtype != object
                if wide and inputs.dtype != object:
                    inputs = inputs.astype(object)
                inputs[kind, a - 1] = was + short_n
                more = 0
                if kind:
                    bumped_ops.add(a - 1)
                    more = -(-(was + short_n) // g) - -(-was // g)
                    if more:  # the week before needs, and has, more instructors
                        inputs[3:5, a - 1] += more
                if more or wide:
                    # rerun the week before with the bump: it adds
                    # instructors there, or the round cannot hold it
                    cur[j] = a - 1
                    held.append(j)
                    break
                # otherwise the purchase reaches this week only as wear-0
                # intake, which adds to every wear of the ready pool's
                # prefix sums
                pools[0, kind, :, j] += short_n
                if kind:
                    short_g -= short_n
                else:
                    short_v -= short_n

    while rows.size:
        rounds += 1
        stepped += rows.size
        at = cur
        cur = at + 1
        x = inputs.take(at, axis=1)
        held = []
        w = step_week(pools, x, k, answer)
        pools, shop = w.state, w.maint
        if pools.dtype != inputs.dtype:  # a bump widened the inputs
            pools, shop = pools.astype(object), shop.astype(object)
        for j in held:
            # the held row's cursor is back at the slot before its failed
            # week: reload that slot into its column, which then holds it
            s = where.item(cur.item(j))
            r = bisect_right(starts, s) - 1
            pools[..., j] = log[r][0][..., s - starts[r]]
            shop[:, j] = log[r][1][:, s - starts[r]]
        # every row's column goes to its cursor's slot: the slot after the
        # week it stepped, a held row's reloaded slot (it steps the failed
        # week again before the slot after it is read), or a stuck plan's
        # last slot, which is never priced
        start = starts[-1] + log[-1][1].shape[1]
        starts.append(start)
        log.append((pools, shop))
        where[cur] = np.arange(start, start + rows.size)
        # a plan finishes only by stepping its last week or sticking in
        # week 1, so drop finished plans only in rounds where one may have
        left -= 1
        if left <= 0:
            week = cur % span
            keep = (week < h).nonzero()[0]
            rows, cur, week = rows.take(keep), cur.take(keep), week.take(keep)
            pools, shop = pools.take(keep, axis=-1), shop.take(keep, axis=1)
            start = starts[-1] + log[-1][1].shape[1]
            starts.append(start)
            log.append((pools, shop))
            where[cur] = np.arange(start, start + rows.size)
            left = h - int(week.max(initial=0))
    if stats is not None:
        stats.update({"kernel_rounds": rounds, "rows_stepped": stepped,
                      "instructor_clamps": clamps, "bumps_vessels": bumps[1],
                      "bumps_operators": bumps[2], "bumps_instructors": bumps[3]})
    # slot i's purchases and shop counts belong to weeks i+1 and i, so
    # each plan's span of slots prices each of its weeks once
    shop_at = np.concatenate([sh for _, sh in log], axis=1).take(where, axis=1)
    totals = k.cost(inputs[:2], shop_at).reshape(n, span).sum(axis=1).tolist()
    out = [(plan, k.decimal(total, True)) for plan, total in zip(plans, totals)]
    # a bump only adds units and a clamp floors at zero, so every changed
    # plan's purchases are a valid plan's genes: vessels, then operators
    changed = [b for b in range(n) if tries[b] and b not in stuck]
    genes = (inputs[:2].reshape(2, n, span)[:, changed, :h]
             .transpose(1, 0, 2).reshape(len(changed), 2 * h).tolist())
    for b, fixed in zip(changed, genes):
        out[b] = ProcurementPlan._of(tuple(fixed)), out[b][1]
    for b, err in stuck.items():
        out[b] = err
    return out


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
