"""Genetic search over purchase plans: one loop, two policies.

The hybrid seeds its population from the greedy plan and lets an
annealing temperature scale mutation magnitude and end the run through
geometric cooling with a logarithmic reheat whenever the best cost
improves.  The plain-GA baseline starts from random plans, mutates with
unit magnitude and has no temperature.  Both run the same generation
loop, which also stops at the evaluation budget or when it stalls.
Fitness is total schedule cost after repair, so every evaluated
individual is feasible and no penalty terms are needed.

Determinism: one Random(seed) stream is consumed in a fixed order each
generation (two selection draws per pairing, one crossover draw per
week, then per gene one gate draw and, if the gate opens, one magnitude
draw), so equal seeds give byte-identical traces.

Evaluation draws no random numbers, so a generation breeds first and
evaluates after: it breeds exactly the pairs a one-child-at-a-time loop
would breed next (ceil(short/2) pairs while the population is short),
repairs and costs their distinct uncached children as one
model.repair_batch, and then replays the cache, the evaluation count,
the rejects, the best plan and the budget stop in child order
(_Evaluator.outcomes).  The outputs are those of evaluating each child
as it is bred, including the second child of a pair that is evaluated
after the population fills; children bred past a budget stop are never
counted.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from decimal import Decimal
from itertools import accumulate
from pathlib import Path
from random import Random

from .domain import (CostParams, DemandSeries, FleetParams, NumericalBreakdownError,
                     ProcurementPlan, round_half_up)
from .greedy import reduce_plan, seed_plan
# repair_and_simulate is not called here; perfbench wraps it by this name
from .model import (Schedule, UnrepairableError, repair_and_simulate,  # noqa: F401
                    repair_batch, simulate)

REHEAT_EPS = 1e-9

# The search stops after this many consecutive generations without a
# single novel evaluation.  The budget counts distinct plans, so on a
# search space smaller than the budget the baseline could otherwise spin
# forever re-breeding cached individuals; a hybrid that stalls this long
# is just as stuck.
_STALL_GENERATIONS = 200


def _require_finite(settings) -> None:
    """Reject a non-finite float field by name: nan passes every range
    check, and inf overflows the mutation magnitude."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class AnnealSchedule:
    """Temperature program: start, geometric cooling, termination floor."""

    initial_temp: float = 100.0
    cooling_coeff: float = 0.98
    termination_temp: float = 0.01

    def __post_init__(self):
        _require_finite(self)
        if self.initial_temp <= 0:
            raise ValueError(f"initial_temp must be > 0, got {self.initial_temp}")
        if not (0 < self.cooling_coeff < 1):
            raise ValueError(f"cooling_coeff must lie in (0, 1), got {self.cooling_coeff}")
        if self.termination_temp <= 0:
            raise ValueError(f"termination_temp must be > 0, got {self.termination_temp}")


@dataclass(frozen=True)
class SolverConfig:
    population_size: int = 60
    crossover_rate: float = 0.8
    base_mutation_rate: float = 0.1
    mutation_magnitude_per_temp: float = 0.05
    rng_seed: int = 0
    max_iterations: int = 200_000  # cap on fitness evaluations

    def __post_init__(self):
        _require_finite(self)
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        for name in ("crossover_rate", "base_mutation_rate"):
            v = getattr(self, name)
            if not (0 <= v <= 1):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.mutation_magnitude_per_temp <= 0:
            raise ValueError("mutation_magnitude_per_temp must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    temperature: float
    best_cost: Decimal
    mean_cost: Decimal
    reheats: int


@dataclass
class ConvergenceTrace:
    points: list[TracePoint] = field(default_factory=list)
    evals_total: int = 0
    evals_to_best: int = 0


# the counters a solve reports, in stats.csv order
STATS = ("evaluations", "cache_hits", "unrepairable", "bumps_vessels", "bumps_operators",
         "bumps_instructors", "instructor_clamps", "rows_stepped", "kernel_rounds",
         "greedy_reductions")


@dataclass(frozen=True)
class SolveResult:
    plan: ProcurementPlan
    schedule: Schedule
    trace: ConvergenceTrace
    # deterministic counts, keyed by STATS
    stats: dict[str, int]
    # wall seconds per phase; these differ between identical runs
    phase_s: dict[str, float] = field(compare=False)


def anneal_step(temperature: float, improved: bool, schedule: AnnealSchedule) -> float:
    """One temperature update: reheat on improvement (guarded), then cool.

    The reheat term 0.5*ln(T-1) is only defined above T=1 and is negative
    just above it, so a slightly warm improvement can cool a little; the
    guard keeps the argument positive rather than keeping the step a true
    warming.
    """
    t = temperature
    if improved and t > 1.0 + REHEAT_EPS:
        t = t + 0.5 * math.log(t - 1.0)
    return t * schedule.cooling_coeff


def selection_weights(costs_: list[Decimal]) -> list[float]:
    """Minimization transform: weight = max(cost) - cost + 1."""
    top = max(costs_)
    weights = [float(top - c) + 1.0 for c in costs_]
    if not math.isfinite(sum(weights)):
        raise NumericalBreakdownError(f"selection weights overflow the float range: "
                                      f"the population's costs span {top - min(costs_)}")
    return weights


def roulette_select(population: list[ProcurementPlan], cum_weights: list[float],
                    rng: Random) -> tuple[ProcurementPlan, ProcurementPlan]:
    """Two independent draws, each plan with odds in proportion to its
    selection weight.

    cum_weights are the weights' running sums, list(accumulate(weights)),
    the list rng.choices would build from the weights on every call; the
    draws and the stream consumed are those of choices with the weights.
    """
    if len(population) != len(cum_weights) or not population:
        raise ValueError("population and weight lists must match and be nonempty")
    a, b = rng.choices(population, cum_weights=cum_weights, k=2)
    return a, b


def crossover(a: ProcurementPlan, b: ProcurementPlan, rng: Random,
              rate: float) -> tuple[ProcurementPlan, ProcurementPlan]:
    """Uniform per-week swap of the (vessel, operator) purchase pair:
    genes i and i + H swap together."""
    ga, gb = list(a.genes), list(b.genes)
    h, draw = a.horizon, rng.random
    for i in range(h):
        if draw() < rate:
            j = i + h
            ga[i], gb[i], ga[j], gb[j] = gb[i], ga[i], gb[j], ga[j]
    return ProcurementPlan._of(tuple(ga)), ProcurementPlan._of(tuple(gb))


def mutate(plan: ProcurementPlan, magnitude: int, config: SolverConfig,
           rng: Random) -> ProcurementPlan:
    """Per-gene jitter of up to +-magnitude units, floored at zero.

    Each jitter is drawn by the loop rng.randint(-magnitude, magnitude)
    runs (getrandbits(k) until it is below n, the range's width), without
    randint's call stack, so it consumes the stream as randint does.
    """
    if magnitude < 0:
        raise ValueError(f"magnitude must be >= 0, got {magnitude}")
    rate, gate, bits = config.base_mutation_rate, rng.random, rng.getrandbits
    n = 2 * magnitude + 1
    k = n.bit_length()
    genes = list(plan.genes)
    for i, gene in enumerate(genes):
        if gate() < rate:
            r = bits(k)
            while r >= n:
                r = bits(k)
            genes[i] = max(0, gene - magnitude + r)
    return ProcurementPlan._of(tuple(genes))


def mutation_magnitude(temperature: float, config: SolverConfig) -> int:
    """Mutation step size: scales with temperature, floor at 1."""
    step = config.mutation_magnitude_per_temp * temperature
    if not math.isfinite(step):
        raise NumericalBreakdownError(
            f"mutation magnitude overflows the float range: mutation_magnitude_per_temp "
            f"{config.mutation_magnitude_per_temp!r} x temperature {temperature!r}")
    return max(1, round_half_up(step))


class _Evaluator:
    """Repairs and costs plans in batches, counting distinct evaluations.

    stats counts cache hits and rejects as outcomes are taken, and the
    kernel's work (rounds, rows stepped, bumps, clamps) as it is done.
    """

    def __init__(self, demand, params, costs):
        self.demand = demand
        self.params = params
        self.costs = costs
        self.cache: dict[ProcurementPlan, tuple[ProcurementPlan, Decimal]] = {}
        self.evals = 0
        self.rejects = 0
        self.best_plan: ProcurementPlan | None = None
        self.best_cost: Decimal | None = None
        self.evals_to_best = 0
        self.stats: Counter = Counter()

    def outcomes(self, plans: list[ProcurementPlan]):
        """Yield each plan's (fixed plan, cost), or None for an unrepairable
        one, in order.

        The distinct uncached plans are repaired as one batch first; each
        outcome then updates the counters, the cache and the best plan
        when it is taken, exactly as evaluating that plan alone at that
        point would, so a caller that stops early leaves no trace of the
        plans it did not take.  Mutation and crossover can breed plans no
        purchase increase saves (an intake cascade hitting the week-1
        instructor wall); the caller redraws on None.  A long run of
        consecutive rejections means nothing is repairable, so the error
        surfaces.
        """
        novel = list(dict.fromkeys(p for p in plans if p not in self.cache))
        fresh = dict(zip(novel, repair_batch(novel, self.demand, self.params, self.costs,
                                             self.stats)))
        for plan in plans:
            hit = self.cache.get(plan)
            if hit is not None:
                self.stats["cache_hits"] += 1
                yield hit
                continue
            got = fresh[plan]
            if isinstance(got, UnrepairableError):
                self.rejects += 1
                self.stats["unrepairable"] += 1
                if self.rejects > 1000:
                    raise got
                yield None
                continue
            fixed, cost = got
            self.evals += 1
            self.rejects = 0
            if self.best_cost is None or cost < self.best_cost:
                self.best_plan, self.best_cost = fixed, cost
                self.evals_to_best = self.evals
            self.cache[plan] = got
            yield got


def _random_plan(horizon: int, demand: DemandSeries, rng: Random) -> ProcurementPlan:
    """A uniform random plan: every vessel buy is drawn before any operator
    buy, each by the loop rng.randint(0, hi) runs (see mutate)."""
    hi_v = max(2, 2 * max(demand))
    bits = rng.getrandbits

    def draws(n: int):
        k = n.bit_length()
        for _ in range(horizon):
            r = bits(k)
            while r >= n:
                r = bits(k)
            yield r

    return ProcurementPlan._of(tuple([*draws(hi_v + 1), *draws(4 * hi_v + 1)]))


def _mean(costs_: list[Decimal]) -> Decimal:
    return sum(costs_, Decimal(0)) / len(costs_)


def _next_generation(population: list[tuple[ProcurementPlan, Decimal]],
                     temperature: float | None, config: SolverConfig,
                     rng: Random, evaluate: _Evaluator) -> list[tuple[ProcurementPlan, Decimal]]:
    """Elite first, then selection/crossover/mutation children, evaluated.

    Breeding stops as soon as the evaluation budget is spent, so the last
    generation of a run may be short.
    """
    plans = [p for p, _ in population]
    costs_ = [c for _, c in population]
    cum_weights = list(accumulate(selection_weights(costs_)))
    best_idx = min(range(len(costs_)), key=lambda k: costs_[k])
    nxt = [population[best_idx]]
    magnitude = 1 if temperature is None else mutation_magnitude(temperature, config)
    while (short := config.population_size - len(nxt)) > 0:
        children = []
        for _ in range(-(-short // 2)):
            pa, pb = roulette_select(plans, cum_weights, rng)
            children += [mutate(child, magnitude, config, rng)
                         for child in crossover(pa, pb, rng, config.crossover_rate)]
        for got in evaluate.outcomes(children):
            if got is not None and len(nxt) < config.population_size:
                nxt.append(got)
            if evaluate.evals >= config.max_iterations:
                return nxt
    return nxt


def _populate(population: list[tuple[ProcurementPlan, Decimal]], breed,
              config: SolverConfig, evaluate: _Evaluator) -> list[tuple[ProcurementPlan, Decimal]]:
    """Fill the population with evaluated plans from breed(), skipping
    unrepairable ones."""
    while (short := config.population_size - len(population)) > 0:
        plans = [breed() for _ in range(short)]
        population += [got for got in evaluate.outcomes(plans) if got is not None]
    return population


def _search(population: list[tuple[ProcurementPlan, Decimal]], breed,
            schedule: AnnealSchedule | None, config: SolverConfig, rng: Random,
            evaluate: _Evaluator, phase_s: dict[str, float]) -> SolveResult:
    """The generation loop both solvers share; schedule None is the baseline.

    The population is first filled from breed().  With a schedule, the
    temperature scales mutation magnitude and the run ends once it drops
    below the termination floor.  Without one, mutation magnitude is 1
    and the trace records temperature 0.0.  Either way the run also ends
    at the evaluation budget or after _STALL_GENERATIONS generations
    without a novel evaluation.  phase_s gains the wall seconds of the
    loop and of the final simulation.
    """
    started = time.perf_counter()
    population = _populate(population, breed, config, evaluate)
    points: list[TracePoint] = []
    temperature = None if schedule is None else schedule.initial_temp
    reheats = 0
    prev_best: Decimal | None = None
    stall = 0
    iteration = 0
    while True:
        iteration += 1
        if schedule is not None:
            improved = prev_best is None or evaluate.best_cost < prev_best
            prev_best = evaluate.best_cost
            if improved and temperature > 1.0 + REHEAT_EPS:
                reheats += 1
            temperature = anneal_step(temperature, improved, schedule)
        points.append(TracePoint(iteration, 0.0 if temperature is None else temperature,
                                 evaluate.best_cost, _mean([c for _, c in population]),
                                 reheats))
        if ((schedule is not None and temperature < schedule.termination_temp)
                or evaluate.evals >= config.max_iterations
                or stall >= _STALL_GENERATIONS):
            break
        before = evaluate.evals
        population = _next_generation(population, temperature, config, rng, evaluate)
        stall = stall + 1 if evaluate.evals == before else 0
    phase_s["ga_loop"] = time.perf_counter() - started

    started = time.perf_counter()
    best = evaluate.best_plan
    best_schedule = simulate(best, evaluate.demand, evaluate.params, evaluate.costs)
    phase_s["final_simulate"] = time.perf_counter() - started
    stats = {name: evaluate.stats[name] for name in STATS} | {"evaluations": evaluate.evals}
    return SolveResult(best, best_schedule,
                       ConvergenceTrace(points, evaluate.evals, evaluate.evals_to_best),
                       stats, phase_s)


def solve(demand: DemandSeries, params: FleetParams, costs: CostParams,
          config: SolverConfig = SolverConfig(),
          schedule: AnnealSchedule = AnnealSchedule()) -> SolveResult:
    """Hybrid search: greedy-seeded population, annealing-driven loop.

    Runs until the temperature drops below the termination floor, the
    evaluation cap is hit, or the search stalls.  Returns the best plan,
    its schedule, and the per-generation convergence trace.
    """
    started = time.perf_counter()
    rng = Random(config.rng_seed)
    evaluate = _Evaluator(demand, params, costs)
    seeded = seed_plan(demand, params, costs)
    seeded, greedy = reduce_plan(seeded, demand, params, costs)
    evaluate.stats["greedy_reductions"] = greedy.passes
    phase_s = {"seed_reduce": time.perf_counter() - started}
    magnitude = mutation_magnitude(schedule.initial_temp, config)
    # a reduced plan is feasible, so repair keeps it
    return _search(list(evaluate.outcomes([seeded])),
                   lambda: mutate(seeded, magnitude, config, rng),
                   schedule, config, rng, evaluate, phase_s)


def solve_plain_ga(demand: DemandSeries, params: FleetParams, costs: CostParams,
                   config: SolverConfig = SolverConfig()) -> SolveResult:
    """Baseline: the same GA loop with random init, unit mutation
    magnitude, no temperature, and a fixed evaluation budget."""
    rng = Random(config.rng_seed)
    evaluate = _Evaluator(demand, params, costs)
    return _search([], lambda: _random_plan(len(demand), demand, rng),
                   None, config, rng, evaluate, {})


def write_trace_csv(path: str | Path, trace: ConvergenceTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "temperature", "best_cost", "mean_cost", "reheats"])
        for p in trace.points:
            writer.writerow([p.iteration, repr(p.temperature), p.best_cost, p.mean_cost, p.reheats])


def write_stats_csv(path: str | Path, stats: dict[str, int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["counter", "value"])
        for name in STATS:
            writer.writerow([name, stats[name]])
