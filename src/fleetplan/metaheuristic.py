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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from random import Random

from .domain import CostParams, DemandSeries, FleetParams, ProcurementPlan, round_half_up
from .greedy import reduce_plan, seed_plan
from .model import Schedule, UnrepairableError, repair_and_simulate, simulate

REHEAT_EPS = 1e-9

# The search stops after this many consecutive generations without a
# single novel evaluation.  The budget counts distinct plans, so on a
# search space smaller than the budget the baseline could otherwise spin
# forever re-breeding cached individuals; a hybrid that stalls this long
# is just as stuck.
_STALL_GENERATIONS = 200


@dataclass(frozen=True)
class AnnealSchedule:
    """Temperature program: start, geometric cooling, termination floor."""

    initial_temp: float = 100.0
    cooling_coeff: float = 0.98
    termination_temp: float = 0.01

    def __post_init__(self):
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


@dataclass(frozen=True)
class SolveResult:
    plan: ProcurementPlan
    schedule: Schedule
    trace: ConvergenceTrace


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
    return [float(top - c) + 1.0 for c in costs_]


def roulette_select(population: list[ProcurementPlan], costs_: list[Decimal],
                    rng: Random) -> tuple[ProcurementPlan, ProcurementPlan]:
    """Two independent draws, lower cost means proportionally higher odds."""
    if len(population) != len(costs_) or not population:
        raise ValueError("population and fitness lists must match and be nonempty")
    weights = selection_weights(costs_)
    i, j = rng.choices(range(len(population)), weights=weights, k=2)
    return population[i], population[j]


def crossover(a: ProcurementPlan, b: ProcurementPlan, rng: Random,
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


def mutate(plan: ProcurementPlan, magnitude: int, config: SolverConfig,
           rng: Random) -> ProcurementPlan:
    """Per-gene jitter of up to +-magnitude units, floored at zero."""
    genes = list(plan.vessel_buys) + list(plan.operator_buys)
    for i in range(len(genes)):
        if rng.random() < config.base_mutation_rate:
            genes[i] = max(0, genes[i] + rng.randint(-magnitude, magnitude))
    h = plan.horizon
    return ProcurementPlan(tuple(genes[:h]), tuple(genes[h:]))


def mutation_magnitude(temperature: float, config: SolverConfig) -> int:
    """Mutation step size: scales with temperature, floor at 1."""
    return max(1, round_half_up(config.mutation_magnitude_per_temp * temperature))


class _Evaluator:
    """Repairs and costs plans, counting distinct simulator evaluations."""

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

    def __call__(self, plan: ProcurementPlan) -> tuple[ProcurementPlan, Decimal]:
        hit = self.cache.get(plan)
        if hit is not None:
            return hit
        fixed, schedule = repair_and_simulate(plan, self.demand, self.params, self.costs)
        cost = schedule.total_cost
        self.evals += 1
        self.rejects = 0
        if self.best_cost is None or cost < self.best_cost:
            self.best_plan, self.best_cost = fixed, cost
            self.evals_to_best = self.evals
        self.cache[plan] = (fixed, cost)
        return fixed, cost

    def try_call(self, plan: ProcurementPlan) -> tuple[ProcurementPlan, Decimal] | None:
        """Evaluate a variation-produced plan, rejecting unrepairable ones.

        Mutation and crossover can breed plans no purchase increase
        saves (an intake cascade hitting the week-1 instructor wall);
        the caller redraws on None.  A long run of consecutive
        rejections means nothing is repairable, so the error surfaces.
        """
        try:
            return self(plan)
        except UnrepairableError:
            self.rejects += 1
            if self.rejects > 1000:
                raise
            return None


def _random_plan(horizon: int, demand: DemandSeries, rng: Random) -> ProcurementPlan:
    hi_v = max(2, 2 * max(demand))
    hi_o = 4 * hi_v
    return ProcurementPlan(
        tuple(rng.randint(0, hi_v) for _ in range(horizon)),
        tuple(rng.randint(0, hi_o) for _ in range(horizon)),
    )


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
    best_idx = min(range(len(costs_)), key=lambda k: costs_[k])
    nxt = [population[best_idx]]
    magnitude = 1 if temperature is None else mutation_magnitude(temperature, config)
    while len(nxt) < config.population_size:
        pa, pb = roulette_select(plans, costs_, rng)
        for child in crossover(pa, pb, rng, config.crossover_rate):
            child = mutate(child, magnitude, config, rng)
            got = evaluate.try_call(child)
            if got is not None and len(nxt) < config.population_size:
                nxt.append(got)
            if evaluate.evals >= config.max_iterations:
                return nxt
    return nxt


def _populate(population: list[tuple[ProcurementPlan, Decimal]], breed,
              config: SolverConfig, evaluate: _Evaluator) -> list[tuple[ProcurementPlan, Decimal]]:
    """Fill the population with evaluated plans from breed(), skipping
    unrepairable ones."""
    while len(population) < config.population_size:
        got = evaluate.try_call(breed())
        if got is not None:
            population.append(got)
    return population


def _search(population: list[tuple[ProcurementPlan, Decimal]],
            schedule: AnnealSchedule | None, config: SolverConfig, rng: Random,
            evaluate: _Evaluator) -> SolveResult:
    """The generation loop both solvers share; schedule None is the baseline.

    With a schedule, the temperature scales mutation magnitude and the run
    ends once it drops below the termination floor.  Without one, mutation
    magnitude is 1 and the trace records temperature 0.0.  Either way the
    run also ends at the evaluation budget or after _STALL_GENERATIONS
    generations without a novel evaluation.
    """
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

    best = evaluate.best_plan
    return SolveResult(best, simulate(best, evaluate.demand, evaluate.params, evaluate.costs),
                       ConvergenceTrace(points, evaluate.evals, evaluate.evals_to_best))


def solve(demand: DemandSeries, params: FleetParams, costs: CostParams,
          config: SolverConfig = SolverConfig(),
          schedule: AnnealSchedule = AnnealSchedule(),
          use_greedy_seed: bool = True) -> SolveResult:
    """Hybrid search: greedy-seeded population, annealing-driven loop.

    Runs until the temperature drops below the termination floor, the
    evaluation cap is hit, or the search stalls.  Returns the best plan,
    its schedule, and the per-generation convergence trace.
    """
    rng = Random(config.rng_seed)
    evaluate = _Evaluator(demand, params, costs)
    if use_greedy_seed:
        seeded = seed_plan(demand, params, costs)
        seeded, _ = reduce_plan(seeded, demand, params, costs)
        magnitude = mutation_magnitude(schedule.initial_temp, config)
        population = _populate([evaluate(seeded)],
                               lambda: mutate(seeded, magnitude, config, rng),
                               config, evaluate)
    else:
        population = _populate([], lambda: _random_plan(len(demand), demand, rng),
                               config, evaluate)
    return _search(population, schedule, config, rng, evaluate)


def solve_plain_ga(demand: DemandSeries, params: FleetParams, costs: CostParams,
                   config: SolverConfig = SolverConfig()) -> SolveResult:
    """Baseline: the same GA loop with random init, unit mutation
    magnitude, no temperature, and a fixed evaluation budget."""
    rng = Random(config.rng_seed)
    evaluate = _Evaluator(demand, params, costs)
    population = _populate([], lambda: _random_plan(len(demand), demand, rng),
                           config, evaluate)
    return _search(population, None, config, rng, evaluate)


def write_trace_csv(path: str | Path, trace: ConvergenceTrace) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "temperature", "best_cost", "mean_cost", "reheats"])
        for p in trace.points:
            writer.writerow([p.iteration, repr(p.temperature), p.best_cost, p.mean_cost, p.reheats])
