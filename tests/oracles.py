"""Reference implementations the tests check fleetplan against.

brute_force_optimum is an exhaustive solver for tiny instances.  It
enumerates every purchase plan with per-week buys in 0..max_buy by
depth-first search over weeks, stepping all (max_buy+1)^2 purchase
choices of a node through reference_step_week as one batch, so a fault
in the production kernel cannot move the solver and its oracle
together.  Weekly costs are nonnegative, so any prefix whose cost already
reaches the incumbent can be pruned when the search visits it; the
incumbent starts from the greedy solution, priced by reference_simulate,
to make that pruning bite.
Small horizons only.

reference_simulate is a per-unit simulator: it keeps one wear value
(accumulated maintenance weeks) per unit and shares no code with
fleetplan.model, so it checks the pooled simulator's bookkeeping.

reference_reduce_plan is greedy.reduce_plan's steepest descent with
each single-unit decrement priced by its own simulate call and skipped
when that call raises InfeasibleError, so it checks the reduction's
batched feasibility verdicts and costs.

reference_crossover, reference_mutate and reference_random_plan are the
GA's breeding operators as they were on a plan's two buy tuples, each
child built through the checking ProcurementPlan constructor.  From equal
Random states they must breed equal plans and leave equal states.
checked_plan rebuilds a plan through that constructor, for plans that
breeding, repair and reduction build without its checks.

reference_step_week and reference_repair_batch are the week kernel and
the batch repair loop as they were before pools became prefix sums and
before repair learned to bump a week in place: the kernel holds per-wear
pools (pool[w] units have worn exactly w weeks), takes units through one
lowest-wear-first helper, classifies and prices every row itself and
returns a ReferenceWeek; the loop masks failed rows out of every round's
scatter, answers them with vectorised bookkeeping and reruns the week
before every bump.  fleetplan.model must give the same weeks, once the
reference's per-wear pools are summed along wear, and the same repairs,
in no more kernel rounds and stepped rows.

reference_rls_fit, reference_astrom_predict and
reference_conditional_expectation_predict are the forecaster's scalar
loops as they were before its filters and fit were vectorised: one
numpy scalar per operation, in the order the model's equations write
them.  fleetplan.forecast keeps every float operation in that order, so
its results must equal these exactly.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from collections import Counter
from random import Random
from typing import NamedTuple

import numpy as np

from fleetplan.domain import CostParams, DemandSeries, FleetParams, ProcurementPlan
from fleetplan.forecast import (ArimaModel, ArimaOrder, NumericalBreakdownError,
                                SeriesTooShortError, _check_invertible,
                                _flip_inside_ma_roots, _poly_a, _poly_c, _trend, _variance,
                                difference, diophantine_split)
from fleetplan.greedy import reduce_plan, seed_plan
from fleetplan.metaheuristic import SolverConfig
from fleetplan.model import (SHORTFALL_CODES, InfeasibleError, Kernel, UnrepairableError,
                             _check_horizon, _unrepairable, kernel, simulate)


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
    if max(seeded.genes) > max_buy:
        raise ValueError("greedy seed exceeds max_buy; instance outside oracle domain")
    k = kernel(demand, params, costs)
    # every (vessel, operator) choice of a week, vessels major, one row each
    dtype = np.int64 if max_buy <= _entry_limit(k) else object
    choices = np.array([(cb, ob) for cb in range(max_buy + 1) for ob in range(max_buy + 1)],
                       dtype=dtype)
    dem = np.array(demand.values, dtype=dtype)
    n = len(choices)
    # costs in the kernel's scaled integer units; the per-unit simulator
    # prices the incumbent, so no production kernel step enters the search
    best_cost = int(reference_simulate(seeded, demand, params, costs)[1].scaleb(-k.exponent))
    best_plan = seeded

    nodes = 0
    vessel: list[int] = []
    operator: list[int] = []

    def dfs(i: int, ready: np.ndarray, in_use: np.ndarray, cost: int) -> None:
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
        week = reference_step_week(ready.repeat(n, axis=0), in_use.repeat(n, axis=0), choices,
                                   dem[i:i + 1].repeat(n), k)
        staffed = (week.code == 0).tolist()
        next_costs = (cost + week.cost).tolist()
        for c, (cb, ob) in enumerate(choices.tolist()):
            # the incumbent may have improved since this node was stepped
            if not staffed[c] or next_costs[c] >= best_cost:
                continue
            vessel.append(cb)
            operator.append(ob)
            dfs(i + 1, week.ready[c:c + 1], week.in_use[c:c + 1], next_costs[c])
            vessel.pop()
            operator.pop()

    ready, in_use = reference_start(k, 1, choices.dtype)
    dfs(0, ready, in_use, 0)
    return best_plan, k.decimal(best_cost, total=True)


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


_KINDS = np.arange(2)
_CREW = np.array((1, 4))


class ReferenceWeek(NamedTuple):
    """reference_step_week's output for B rows.  Row b staffed its week
    iff code[b] == 0; otherwise shortfall[b] units of
    SHORTFALL_CODES[code[b]] were missing."""

    code: np.ndarray  # (B,)
    shortfall: np.ndarray  # (B,)
    ready: np.ndarray  # (B, 2, W) next week's ready pools, per wear
    in_use: np.ndarray  # (B, 2, W) this week's deployed units, per wear
    cost: np.ndarray  # (B,) in scaled price units, see Kernel.decimal
    destroyed: np.ndarray  # (B, 2) per kind
    discards: np.ndarray  # (B, 2)
    maint: np.ndarray  # (B, 2) units in the shop
    instructors: np.ndarray  # (B,)


def _entry_limit(k: Kernel) -> int:
    """k.entry_limit, lowered so that the reference kernel's attrition
    intermediate 2*num*N + den also fits int64, N being the largest pool
    (see fleetplan.model.kernel); the production kernel takes its losses
    from the demand, in Python ints, and needs no such bound."""
    num, den = k.params.attrition_rate.as_integer_ratio()
    if not num:
        return k.entry_limit
    p = k.params
    stock = max(p.initial_vessels, p.initial_operators)
    return min(k.entry_limit, ((2 ** 63 - 1 - den) // (2 * num) - stock) // p.horizon)


def reference_start(k: Kernel, rows: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Week-0 per-wear (ready, in_use) pools: the starting stock idle and fully skilled."""
    ready = np.zeros((rows, 2, k.width), dtype=dtype)
    ready[:, 0, 0] = k.params.initial_vessels
    ready[:, 1, 0] = k.params.initial_operators
    return ready, np.zeros_like(ready)


def _take(pool: np.ndarray, before: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The n units of each pool row taken lowest wear first, given before,
    each row's count below every wear; n may exceed the row."""
    return np.minimum(np.maximum(n[..., None] - before, 0), pool)


def reference_step_week(ready: np.ndarray, in_use: np.ndarray, buys: np.ndarray,
                        demand: np.ndarray, k: Kernel) -> ReferenceWeek:
    """fleetplan.model.step_week as it was on per-wear pools, statement
    for statement: ready and in_use are (B, 2, W), buys (B, 2) and
    demand (B,)."""
    if buys.min() < 0 or demand.min() < 0:
        raise ValueError("purchases and demand must be >= 0")

    # attrition strikes last week's working units; survivors go to the shop
    num, den = k.params.attrition_rate.as_integer_ratio()
    if num:
        upto = np.add.accumulate(in_use, axis=2)
        worked = upto[:, :, -1]
        destroyed = (2 * num * worked + den) // (2 * den)
        survivors = in_use - _take(in_use, upto - in_use, destroyed)
        surviving = worked - destroyed
    else:
        destroyed = np.zeros(in_use.shape[:2], dtype=in_use.dtype)
        survivors = in_use
        surviving = in_use.sum(axis=2)
    # one more week of wear; the units it takes to their kind's first
    # discard wear are discarded on entry, take no slot and cost nothing
    discards = survivors[:, _KINDS, k.last_wear]
    shop = surviving - discards
    maint = np.zeros_like(survivors)
    keep = np.arange(k.width) < k.last_wear[:, None]
    maint[:, :, 1:] = np.where(keep, survivors, 0)[:, :, :-1]

    # crews and instructors against the ready pools
    upto = np.add.accumulate(ready, axis=2)
    avail = upto[:, :, -1]
    instructors = -(-buys[:, 1] // k.params.instruct_capacity)
    need = np.multiply.outer(demand, _CREW)
    need[:, 1] += instructors
    short = need - avail
    short_v, short_g = short[:, 0], short[:, 1]
    short_o = short_g - instructors
    lack_v, lack_o, lack_g = short_v > 0, short_o > 0, short_g > 0
    code = np.where(lack_v, 1, np.where(lack_o, 2, 3 * lack_g))
    shortfall = np.where(lack_v, short_v, np.where(lack_o, short_o, np.where(lack_g, short_g, 0)))

    # instructors, then crews, then vessels, each lowest wear first
    before = upto - ready
    use = _take(ready, before, need)
    use[:, 1] -= _take(ready[:, 1], before[:, 1], instructors)
    # next week's ready pools: the idle, the shop, the instructors and the intake
    nxt = ready - use + maint
    nxt[:, :, 0] += buys

    cost = buys @ k.buy_prices + shop @ k.shop_prices + instructors * k.training_price
    return ReferenceWeek(code, shortfall, nxt, use, cost, destroyed, discards, shop, instructors)


def reference_repair_batch(plans: list[ProcurementPlan], demand: DemandSeries,
                           params: FleetParams, costs: CostParams, stats: Counter | None = None,
                           ) -> list[tuple[ProcurementPlan, Decimal] | UnrepairableError]:
    """fleetplan.model.repair_batch as it was, on reference_step_week:
    every failure rewinds the plan to the week it bumps."""
    _check_horizon(plans, demand, params)
    if not plans:
        return []
    k = kernel(demand, params, costs)
    h, n = params.horizon, len(plans)
    span = h + 1
    # slot b*span + i holds plan b's state after i completed weeks, the
    # purchases and demand of week i+1, and the cost of week i
    entry_limit = _entry_limit(k)
    dtype = np.int64 if max(max(p.genes) for p in plans) <= entry_limit else object
    buys = np.array([p.genes for p in plans], dtype=dtype).reshape(n, 2, h).transpose(0, 2, 1)
    dem = np.array(demand.values, dtype=dtype)
    buys = np.concatenate((buys, np.zeros_like(buys[:, :1])), axis=1).reshape(-1, 2)
    dem = np.tile(np.append(dem, 0), n)
    ready_at = np.zeros((n * span, 2, k.width), dtype=buys.dtype)
    in_use_at = np.zeros_like(ready_at)
    cost_of = np.zeros(n * span, dtype=buys.dtype)
    ready_at[::span] = reference_start(k, n, buys.dtype)[0]
    bumped_ops = np.zeros(n * span, dtype=bool)
    pos = np.arange(0, n * span, span)  # each plan's week cursor, as a slot
    stuck = np.zeros(n, dtype=np.intp)  # the week-1 shortfall code of an unrepairable plan
    stuck_by = np.zeros(n, dtype=object)
    # generous guard against a runaway loop; every bump adds >= 1 purchase
    limit = 100 + 20 * (sum(demand) * 5 + h)
    tries = np.zeros(n, dtype=np.int64)  # failed steps per plan
    rounds = stepped = clamps = 0
    bump_codes = [np.zeros(0, dtype=np.intp)]
    rows = np.arange(n)
    while rows.size:
        rounds += 1
        stepped += rows.size
        at = pos[rows]
        w = reference_step_week(ready_at[at], in_use_at[at], buys[at], dem[at], k)
        ok = w.code == 0
        if ok.all():
            r, done, ready, in_use, cost = rows, at, w.ready, w.in_use, w.cost
        else:
            r, done, ready, in_use, cost = rows[ok], at[ok], w.ready[ok], w.in_use[ok], w.cost[ok]
            bad = ~ok
            fr, fat, code, short = rows[bad], at[bad], w.code[bad], w.shortfall[bad]
            tries[fr] += 1
            if rounds > limit and tries.max() > limit:
                raise RuntimeError("repair failed to converge; model invariant broken")
            # a gratuitous intake: shrink it to what the instructors can
            # teach and retry the week.  shortfall = 4R + ceil(ob/G) -
            # available, hence the largest instructable intake is
            # G*(ceil(ob/G) - shortfall).
            clamp = (code == 3) & ~bumped_ops[fat]
            if clamp.any():
                g = k.params.instruct_capacity
                ob = buys[fat[clamp], 1]
                ob_max = g * (-(-ob // g) - short[clamp])
                if np.any(ob_max >= ob):  # strict progress is guaranteed
                    raise RuntimeError("instructor clamp failed to shrink the intake")
                buys[fat[clamp], 1] = np.maximum(ob_max, 0)
                clamps += int(clamp.sum())
                rest = ~clamp
                fr, fat, code, short = fr[rest], fat[rest], code[rest], short[rest]
            # buy the shortfall a week earlier and rerun from that week;
            # week 1 has no earlier week
            week1 = fat % span == 0
            if week1.any():
                stuck[fr[week1]], stuck_by[fr[week1]] = code[week1], short[week1]
                pos[fr[week1]] = fat[week1] + h
                rest = ~week1
                fr, fat, code, short = fr[rest], fat[rest], code[rest], short[rest]
            fat -= 1
            kind = np.minimum(code - 1, 1)  # vessels for a vessel shortfall, else operators
            buys[fat, kind] += short
            bumped_ops[fat] |= kind == 1
            pos[fr] = fat
            bump_codes.append(code)
            if buys.dtype != object and fr.size and buys[fat, kind].max() > entry_limit:
                buys, dem, ready_at, in_use_at, cost_of = (
                    a.astype(object) for a in (buys, dem, ready_at, in_use_at, cost_of))
        done += 1
        ready_at[done] = ready
        in_use_at[done] = in_use
        cost_of[done] = cost
        pos[r] = done
        rows = rows[pos[rows] % span < h]
    if stats is not None:
        bumps = np.bincount(np.concatenate(bump_codes), minlength=4).tolist()
        stats.update({"kernel_rounds": rounds, "rows_stepped": stepped,
                      "instructor_clamps": clamps, "bumps_vessels": bumps[1],
                      "bumps_operators": bumps[2], "bumps_instructors": bumps[3]})
    totals = cost_of.reshape(n, span).sum(axis=1).tolist()
    # a bump only adds units and a clamp floors at zero, so every row of
    # buys is a valid plan's genes: vessels, then operators
    fixed = buys.reshape(n, span, 2)[:, :h].transpose(0, 2, 1).reshape(n, 2 * h).tolist()
    return [_unrepairable(SHORTFALL_CODES[stuck[b]], int(stuck_by[b]), demand, params)
            if stuck[b] else
            (ProcurementPlan._of(tuple(fixed[b])) if tries[b] else plan,
             k.decimal(totals[b], True))
            for b, plan in enumerate(plans)]


def reference_reduce_plan(plan: ProcurementPlan, demand: DemandSeries, params: FleetParams,
                          costs: CostParams,
                          ) -> tuple[ProcurementPlan, list[tuple[int, str, Decimal]]]:
    """The reduced plan and its (week, kind, cost_after) decrements, one
    simulate call per trial.  Each pass keeps the cheapest feasible
    single-unit decrement that lowers the cost, ties toward the latest
    week and then vessels over operators; an infeasible plan raises
    InfeasibleError."""
    current = plan
    current_cost = simulate(current, demand, params, costs).total_cost
    reductions = []
    while True:
        best = None  # ((cost, -week, kind), plan); kind 0 is vessels
        for kind in (0, 1):
            for week in range(1, params.horizon + 1):
                buys = [list(current.vessel_buys), list(current.operator_buys)]
                if not buys[kind][week - 1]:
                    continue
                buys[kind][week - 1] -= 1
                trial = ProcurementPlan(*buys)
                try:
                    cost = simulate(trial, demand, params, costs).total_cost
                except InfeasibleError:
                    continue
                key = (cost, -week, kind)
                if cost < current_cost and (best is None or key < best[0]):
                    best = (key, trial)
        if best is None:
            return current, reductions
        (current_cost, neg_week, kind), current = best
        reductions.append((-neg_week, ("vessel", "operator")[kind], current_cost))


def checked_plan(plan: ProcurementPlan) -> ProcurementPlan:
    """plan rebuilt through the checking constructor, asserting that the
    two are equal and hash equal and that every gene is a plain int: the
    checks plan skipped could not have failed."""
    again = ProcurementPlan(plan.vessel_buys, plan.operator_buys)
    assert plan == again and hash(plan) == hash(again)
    assert all(type(gene) is int for gene in plan.genes)
    return again


def reference_crossover(a: ProcurementPlan, b: ProcurementPlan, rng: Random,
                        rate: float) -> tuple[ProcurementPlan, ProcurementPlan]:
    """Uniform per-week swap of the (vessel, operator) purchase pair."""
    av, ao = list(a.vessel_buys), list(a.operator_buys)
    bv, bo = list(b.vessel_buys), list(b.operator_buys)
    for i in range(len(av)):
        if rng.random() < rate:
            av[i], bv[i] = bv[i], av[i]
            ao[i], bo[i] = bo[i], ao[i]
    return (ProcurementPlan(tuple(av), tuple(ao)),
            ProcurementPlan(tuple(bv), tuple(bo)))


def reference_mutate(plan: ProcurementPlan, magnitude: int, config: SolverConfig,
                     rng: Random) -> ProcurementPlan:
    """Per-gene jitter of up to +-magnitude units, floored at zero."""
    genes = [*plan.vessel_buys, *plan.operator_buys]
    rate, gate, jitter = config.base_mutation_rate, rng.random, rng.randint
    for i, gene in enumerate(genes):
        if gate() < rate:
            genes[i] = max(0, gene + jitter(-magnitude, magnitude))
    h = plan.horizon
    return ProcurementPlan(tuple(genes[:h]), tuple(genes[h:]))


def reference_random_plan(horizon: int, demand: DemandSeries, rng: Random) -> ProcurementPlan:
    hi_v = max(2, 2 * max(demand))
    hi_o = 4 * hi_v
    return ProcurementPlan(
        tuple(rng.randint(0, hi_v) for _ in range(horizon)),
        tuple(rng.randint(0, hi_o) for _ in range(horizon)),
    )


def reference_rls_fit(series, order: ArimaOrder, forgetting_factor: float = 0.98,
                      ) -> tuple[ArimaModel, np.ndarray]:
    """Extended RLS with the regressor rebuilt element by element each sample."""
    if not (0.9 < forgetting_factor <= 1.0):
        raise ValueError(
            f"forgetting factor must lie in (0.9, 1], got {forgetting_factor}")
    x = np.asarray(series, dtype=float)
    dim = order.p + order.q
    if len(x) < max(10 * dim, order.d + 2):
        raise SeriesTooShortError(
            f"need at least {max(10 * dim, order.d + 2)} samples for order "
            f"({order.p},{order.d},{order.q}), got {len(x)}")
    w, _ = difference(x, order.d)
    mean = float(w.mean())
    w = w - mean
    n = len(w)

    if dim == 0:
        # nothing to estimate: the differenced series is bare noise
        model = ArimaModel(order, (), (), mean, _variance(w) if n else 0.0)
        return model, w.copy()

    lam = forgetting_factor
    theta = np.zeros(dim)  # [ar_1..ar_p, ma_1..ma_q]
    P = np.eye(dim) * 1e6
    resid = np.zeros(n)
    for t in range(n):
        phi = np.empty(dim)
        for i in range(order.p):
            phi[i] = w[t - 1 - i] if t - 1 - i >= 0 else 0.0
        for j in range(order.q):
            k = t - 1 - j
            phi[order.p + j] = resid[k] if k >= 0 else 0.0
        Pphi = P @ phi
        denom = lam + float(phi @ Pphi)
        gain = Pphi / denom
        err = w[t] - float(phi @ theta)
        theta = theta + gain * err
        P = (P - np.outer(gain, Pphi)) / lam
        P = (P + P.T) / 2.0
        if not np.all(np.isfinite(P)) or np.any(np.diag(P) <= 0):
            raise NumericalBreakdownError(
                f"covariance lost positive-definiteness at sample {t}")
        resid[t] = w[t] - float(phi @ theta)
        if not (np.all(np.isfinite(theta)) and np.isfinite(resid[t])):
            raise NumericalBreakdownError(f"estimate lost finiteness at sample {t}")

    ma, noise_variance = _flip_inside_ma_roots(theta[order.p:], _variance(resid))
    model = ArimaModel(order, tuple(theta[:order.p]), tuple(ma), mean, noise_variance)
    return model, resid


def reference_astrom_predict(model: ArimaModel, history, k: int) -> float:
    """The G/C filter as one scalar double loop per sample."""
    if k < 1:
        raise ValueError(f"prediction step must be >= 1, got {k}")
    y = np.asarray(history, dtype=float)
    if len(y) == 0:
        raise SeriesTooShortError("history is empty")
    trend = _trend(model.series_mean, model.order.d,
                   np.arange(len(y) + k, dtype=float))
    y = y - trend[:len(y)]
    c = _poly_c(model)
    _check_invertible(c)
    abar = _poly_a(model)
    _, g = diophantine_split(c, abar, k)
    z = np.zeros(len(y))
    for t in range(len(y)):
        acc = 0.0
        for j in range(len(g)):
            if t - j >= 0:
                acc += g[j] * y[t - j]
        for j in range(1, len(c)):
            if t - j >= 0:
                acc -= c[j] * z[t - j]
        z[t] = acc
    return float(z[-1] + trend[-1])


def reference_conditional_expectation_predict(model: ArimaModel, history, k: int) -> float:
    """The noise estimate and the forward roll as scalar double loops."""
    if k < 1:
        raise ValueError(f"prediction step must be >= 1, got {k}")
    y = np.asarray(history, dtype=float)
    if len(y) == 0:
        raise SeriesTooShortError("history is empty")
    trend = _trend(model.series_mean, model.order.d,
                   np.arange(len(y) + k, dtype=float))
    y = y - trend[:len(y)]
    c = _poly_c(model)
    _check_invertible(c)
    abar = _poly_a(model)
    n = len(y)
    e = np.zeros(n)
    for t in range(n):
        acc = y[t]
        for i in range(1, len(abar)):
            if t - i >= 0:
                acc += abar[i] * y[t - i]
        for j in range(1, len(c)):
            if t - j >= 0:
                acc -= c[j] * e[t - j]
        e[t] = acc
    ext = list(y)
    for h in range(1, k + 1):
        acc = 0.0
        for i in range(1, len(abar)):
            idx = n - 1 + h - i
            if idx >= 0:
                acc -= abar[i] * ext[idx]
        for j in range(1, len(c)):
            idx = n - 1 + h - j
            if 0 <= idx < n:  # future noise has expectation zero
                acc += c[j] * e[idx]
        ext.append(acc)
    return float(ext[-1] + trend[-1])
