"""Annealing machinery and the two GA drivers."""

import math
from decimal import Decimal
from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from fleetplan.domain import (CostParams, DemandSeries, FleetParams, NumericalBreakdownError,
                              ProcurementPlan, round_half_up)
from fleetplan.metaheuristic import (
    AnnealSchedule, SolverConfig, _random_plan, anneal_step, crossover, mutation_magnitude,
    mutate, selection_weights, solve, solve_plain_ga,
    write_trace_csv,
)
from fleetplan.model import UnrepairableError, validate
from oracles import checked_plan, reference_crossover, reference_mutate, reference_random_plan

COSTS = CostParams(Decimal("100"), Decimal("50"), Decimal("20"),
                   Decimal("10"), Decimal("15"))


def params(iv, io, g=10, k="0", horizon=1):
    return FleetParams(instruct_capacity=g, attrition_rate=Decimal(k),
                       initial_vessels=iv, initial_operators=io, horizon=horizon)


SMALL = dict(demand=DemandSeries((1, 2, 1, 2)),
             params=params(2, 9, horizon=4))


class TestAnnealStep:
    def test_reheat_value_at_two(self):
        # 2 + 0.5*ln(1) = 2 exactly, then cool by 0.9
        sched = AnnealSchedule(cooling_coeff=0.9)
        assert anneal_step(2.0, True, sched) == pytest.approx(1.8)

    def test_pure_cooling_without_improvement(self):
        sched = AnnealSchedule(cooling_coeff=0.9)
        assert anneal_step(5.0, False, sched) == pytest.approx(4.5)

    def test_reheat_formula(self):
        sched = AnnealSchedule(cooling_coeff=0.98)
        want = (1.5 + 0.5 * math.log(0.5)) * 0.98
        assert anneal_step(1.5, True, sched) == pytest.approx(want)

    def test_guard_blocks_log_domain_error(self):
        sched = AnnealSchedule(cooling_coeff=0.98)
        # at or below T = 1 the reheat term is undefined; the guard must
        # swallow the reheat, not crash
        assert anneal_step(1.0, True, sched) == pytest.approx(0.98)
        assert anneal_step(0.5, True, sched) == pytest.approx(0.49)
        assert anneal_step(1.0 + 1e-10, True, sched) == pytest.approx(0.98)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(initial_temp=0)
        with pytest.raises(ValueError):
            AnnealSchedule(cooling_coeff=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(termination_temp=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, name", [
        (AnnealSchedule, "initial_temp"), (AnnealSchedule, "cooling_coeff"),
        (AnnealSchedule, "termination_temp"), (SolverConfig, "crossover_rate"),
        (SolverConfig, "base_mutation_rate"), (SolverConfig, "mutation_magnitude_per_temp"),
    ])
    def test_non_finite_settings_rejected_by_name(self, cls, name, value):
        # nan passes every range comparison, so finiteness is checked first
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{name: value})


class TestVariationOperators:
    def test_mutation_magnitude_scales_with_temperature(self):
        cfg = SolverConfig(mutation_magnitude_per_temp=0.05)
        assert mutation_magnitude(100.0, cfg) == 5
        assert mutation_magnitude(30.0, cfg) == 2   # 1.5 rounds up
        assert mutation_magnitude(10.0, cfg) == 1
        assert mutation_magnitude(0.01, cfg) == 1   # floor at one step

    def test_selection_weights(self):
        assert selection_weights([Decimal(100), Decimal(300)]) == [201.0, 1.0]
        assert selection_weights([Decimal(7)]) == [1.0]

    def test_selection_weights_past_float_range(self):
        with pytest.raises(NumericalBreakdownError, match="selection weights overflow"):
            selection_weights([Decimal("1E+309"), Decimal(0)])
        # each weight finite, their total not
        with pytest.raises(NumericalBreakdownError, match="selection weights overflow"):
            selection_weights([Decimal("1E+308"), Decimal(0), Decimal(0)])

    def test_mutation_magnitude_past_float_range(self):
        cfg = SolverConfig(mutation_magnitude_per_temp=1.79e306)
        assert mutation_magnitude(100.0, cfg) == round_half_up(1.79e308)
        # a reheat lifts the temperature past the start, and the product
        # past float range
        hot = anneal_step(100.0, True, AnnealSchedule(cooling_coeff=0.999))
        with pytest.raises(NumericalBreakdownError, match="mutation magnitude overflows"):
            mutation_magnitude(hot, cfg)

    def test_roulette_prefers_cheap(self):
        a, b = ProcurementPlan((1,), (0,)), ProcurementPlan((0,), (1,))
        rng = Random(1)
        cum_weights = list(accumulate(selection_weights([Decimal(100), Decimal(300)])))
        picks = [rng.choices([a, b], cum_weights=cum_weights, k=2) for _ in range(500)]
        flat = [p for pair in picks for p in pair]
        # expected share for the cheap plan is 201/202
        assert flat.count(a) > 950

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40).filter(
               lambda w: sum(w) > 0.0),
           seed=st.integers(0, 2 ** 64))
    def test_roulette_draws_what_choices_draws(self, weights, seed):
        # the cumulative weights of a generation draw the pair that
        # choices with the weights would, from and to the same Random state
        population = [ProcurementPlan((v,), (0,)) for v in range(len(weights))]
        new, old = Random(seed), Random(seed)
        pair = new.choices(population, cum_weights=list(accumulate(weights)), k=2)
        i, j = old.choices(range(len(weights)), weights=weights, k=2)
        assert pair == [population[i], population[j]]
        assert new.getstate() == old.getstate()

    def test_crossover_rate_zero_copies(self):
        a = ProcurementPlan((1, 2, 3), (4, 5, 6))
        b = ProcurementPlan((9, 8, 7), (6, 5, 4))
        ca, cb = crossover(a, b, Random(3), 0.0)
        assert (ca, cb) == (a, b)

    def test_crossover_rate_one_swaps_all(self):
        a = ProcurementPlan((1, 2, 3), (4, 5, 6))
        b = ProcurementPlan((9, 8, 7), (6, 5, 4))
        ca, cb = crossover(a, b, Random(3), 1.0)
        assert (ca, cb) == (b, a)

    def test_crossover_swaps_pairs_together(self):
        # a week's vessel and operator genes must travel as a unit
        a = ProcurementPlan((1, 1, 1), (2, 2, 2))
        b = ProcurementPlan((7, 7, 7), (9, 9, 9))
        for seed in range(20):
            ca, cb = crossover(a, b, Random(seed), 0.5)
            for v, o in zip(ca.vessel_buys, ca.operator_buys):
                assert (v, o) in {(1, 2), (7, 9)}
            for v, o in zip(cb.vessel_buys, cb.operator_buys):
                assert (v, o) in {(1, 2), (7, 9)}

    def test_mutate_rate_zero_is_identity(self):
        cfg = SolverConfig(base_mutation_rate=0.0)
        plan = ProcurementPlan((1, 2), (3, 4))
        assert mutate(plan, 5, cfg, Random(0)) == plan

    def test_mutate_clamps_at_zero(self):
        cfg = SolverConfig(base_mutation_rate=1.0)
        plan = ProcurementPlan.zero(6)
        for seed in range(10):
            out = mutate(plan, 5, cfg, Random(seed))
            assert all(v >= 0 for v in out.vessel_buys + out.operator_buys)
        # a negative magnitude leaves no range to draw a jitter from
        with pytest.raises(ValueError):
            mutate(plan, -1, cfg, Random(0))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gene_tuple_operators_match_tuple_pairs(self, data):
        # the operators on one gene tuple breed what the tuple-pair ones
        # bred, from and to the same Random state, and every plan they
        # build unchecked passes the public constructor's checks
        horizon = data.draw(st.integers(1, 30))
        genes = st.lists(st.integers(0, 40), min_size=horizon, max_size=horizon)
        a = ProcurementPlan(data.draw(genes), data.draw(genes))
        b = ProcurementPlan(data.draw(genes), data.draw(genes))
        cfg = SolverConfig(crossover_rate=data.draw(st.floats(0, 1)),
                           base_mutation_rate=data.draw(st.floats(0, 1)))
        magnitude = data.draw(st.integers(1, 50))
        seed = data.draw(st.integers(0, 2 ** 64))
        new, old = Random(seed), Random(seed)
        children = crossover(a, b, new, cfg.crossover_rate)
        assert children == reference_crossover(a, b, old, cfg.crossover_rate)
        assert new.getstate() == old.getstate()
        mutants = [mutate(child, magnitude, cfg, new) for child in children]
        assert mutants == [reference_mutate(child, magnitude, cfg, old) for child in children]
        assert new.getstate() == old.getstate()
        demand = DemandSeries(data.draw(genes))
        drawn = _random_plan(horizon, demand, new)
        assert drawn == reference_random_plan(horizon, demand, old)
        assert new.getstate() == old.getstate()
        for plan in (*children, *mutants, drawn):
            checked_plan(plan)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(population_size=1)
        with pytest.raises(ValueError):
            SolverConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            SolverConfig(base_mutation_rate=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(mutation_magnitude_per_temp=0)
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)


def small_solve(seed=0):
    cfg = SolverConfig(population_size=12, rng_seed=seed, max_iterations=1500)
    sched = AnnealSchedule(initial_temp=50.0, cooling_coeff=0.9,
                           termination_temp=0.5)
    return solve(SMALL["demand"], SMALL["params"], COSTS, cfg, sched)


class TestSolve:
    def test_deterministic(self):
        a = small_solve(seed=7)
        b = small_solve(seed=7)
        assert a.plan == b.plan
        assert a.schedule.total_cost == b.schedule.total_cost
        assert a.trace.points == b.trace.points
        assert a.trace.evals_total == b.trace.evals_total

    def test_result_is_feasible(self):
        res = small_solve()
        bad = validate(res.schedule, SMALL["demand"], SMALL["params"], COSTS)
        assert bad == []

    def test_best_trace_monotone(self):
        res = small_solve()
        bests = [pt.best_cost for pt in res.trace.points]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        assert bests[-1] == res.schedule.total_cost

    def test_strict_temperature_termination(self):
        res = small_solve()
        assert res.trace.points[-1].temperature < 0.5
        for pt in res.trace.points[:-1]:
            assert pt.temperature >= 0.5

    def test_reheats_monotone_counter(self):
        res = small_solve()
        heats = [pt.reheats for pt in res.trace.points]
        assert all(a <= b for a, b in zip(heats, heats[1:]))
        assert heats[0] >= 1  # the first generation always counts as improved

    def test_cache_spares_repeat_evals(self):
        res = small_solve()
        assert res.trace.evals_to_best <= res.trace.evals_total

    def test_seeded_start_never_worse_than_seed(self):
        from fleetplan.greedy import reduce_plan, seed_plan
        seeded = seed_plan(SMALL["demand"], SMALL["params"], COSTS)
        seeded, trace = reduce_plan(seeded, SMALL["demand"], SMALL["params"], COSTS)
        res = small_solve()
        assert res.schedule.total_cost <= trace.final_cost

    def test_infeasible_instance_raises(self):
        p = params(0, 4, horizon=2)
        with pytest.raises(UnrepairableError):
            solve(DemandSeries((1, 1)), p, COSTS)

    def test_eval_budget_respected(self):
        cfg = SolverConfig(population_size=12, rng_seed=0, max_iterations=40)
        res = solve(SMALL["demand"], SMALL["params"], COSTS, cfg,
                    AnnealSchedule(initial_temp=50.0, cooling_coeff=0.999,
                                   termination_temp=0.01))
        # breeding stops the moment the budget is spent
        assert res.trace.evals_total == 40


class TestPlainGA:
    def test_runs_to_budget_and_validates(self):
        cfg = SolverConfig(population_size=12, rng_seed=5, max_iterations=150)
        res = solve_plain_ga(SMALL["demand"], SMALL["params"], COSTS, cfg)
        assert res.trace.evals_total == 150
        assert res.trace.points[-1].temperature == 0.0
        bad = validate(res.schedule, SMALL["demand"], SMALL["params"], COSTS)
        assert bad == []

    def test_exhausted_search_space_terminates(self):
        # a one-week no-demand instance has only a handful of distinct
        # plans, far fewer than the budget; the stall guard must stop the
        # run instead of breeding cached individuals forever
        p = params(1, 4, horizon=1)
        cfg = SolverConfig(population_size=6, rng_seed=2, max_iterations=100_000)
        res = solve_plain_ga(DemandSeries((0,)), p, COSTS, cfg)
        assert res.trace.evals_total < 100_000
        assert res.schedule.total_cost == Decimal("0")

    def test_deterministic(self):
        cfg = SolverConfig(population_size=12, rng_seed=9, max_iterations=300)
        a = solve_plain_ga(SMALL["demand"], SMALL["params"], COSTS, cfg)
        b = solve_plain_ga(SMALL["demand"], SMALL["params"], COSTS, cfg)
        assert a.plan == b.plan and a.trace.points == b.trace.points

    def test_unrepairable_instance_raises(self):
        # week-1 demand can never be staffed, and random init cannot dodge
        # that, so the baseline surfaces the failure
        p = params(0, 4, horizon=2)
        cfg = SolverConfig(population_size=4, rng_seed=0, max_iterations=50)
        with pytest.raises(UnrepairableError):
            solve_plain_ga(DemandSeries((1, 1)), p, COSTS, cfg)


def test_trace_csv(tmp_path):
    res = small_solve()
    path = tmp_path / "trace.csv"
    write_trace_csv(path, res.trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,temperature,best_cost,mean_cost,reheats"
    assert len(lines) == 1 + len(res.trace.points)
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) > 0
