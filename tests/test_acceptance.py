"""End-to-end acceptance gates for the package.

Each test measures one release bar: optimizer quality against exhaustive
search, solver/validator agreement across attrition scenarios, convergence
speed against the plain-GA baseline, exact ownership bookkeeping, the
temperature program, forecast model recovery, predictor-form equivalence,
transform round trips, and byte-stable CLI output.  Every test prints a
one-line summary with the measured numbers (visible with ``pytest -rA`` or
``-s``) and asserts its quality threshold plus, where one applies, a
wall-clock budget.

The optimizer gates feed each schedule they produce into a shared pool that
the ownership gate replays through the independent validator, so the file
is designed to run top to bottom; gates that consume the pool regenerate a
small batch when run in isolation.
"""
from __future__ import annotations

import statistics
import time
from decimal import Decimal
from pathlib import Path
from random import Random

import numpy as np
import pytest

from fleetplan.cli import main
from fleetplan.domain import (
    CostParams,
    DemandSeries,
    FleetParams,
    ProcurementPlan,
    gen_demand,
    save_config,
    save_demand,
)
from fleetplan.forecast import (
    ArimaModel,
    ArimaOrder,
    astrom_predict,
    conditional_expectation_predict,
    difference,
    integrate,
    rls_fit,
    whiteness_check,
)
from fleetplan.metaheuristic import (
    AnnealSchedule,
    SolverConfig,
    anneal_step,
    solve,
    solve_plain_ga,
)
from fleetplan.model import UnrepairableError, read_schedule_csv, repair, simulate, validate

from oracles import brute_force_optimum

STD_COSTS = CostParams(100, 50, 20, 10, 15)

# Schedules produced by the optimizer gates, replayed by the ownership gate:
# (label, schedule, demand, params, costs).
_POOL: list = []
# Convergence traces from the benchmark gate, reused by the temperature gate.
_TRACES: list = []


# ---------------------------------------------------------------------------
# gate 1: tiny instances against exhaustive search


PRICE_SETS = [(100, 50, 20, 10, 15), (80, 40, 25, 12, 9), (120, 60, 10, 8, 20)]
K_CHOICES = ("0", "0.20", "0.10")


def _tiny_instance(rng: Random):
    horizon = rng.randint(2, 4)
    demand = tuple(rng.randint(0, 2) for _ in range(horizon))
    costs = CostParams(*(Decimal(p) for p in rng.choice(PRICE_SETS)))
    k = Decimal(rng.choice(K_CHOICES))
    g = rng.choice((1, 4, 10, 20))
    iv = demand[0] + rng.randint(0, 2)
    io = 4 * demand[0] + rng.randint(0, 8)
    params = FleetParams(instruct_capacity=g, attrition_rate=k,
                         initial_vessels=iv, initial_operators=io,
                         horizon=horizon)
    return DemandSeries(demand), params, costs


def test_01_small_instances_match_exhaustive_search():
    start = time.perf_counter()
    rng = Random(20260818)
    exact = 0
    worst_gap = 0.0
    n = 0
    while n < 50:
        demand, params, costs = _tiny_instance(rng)
        try:
            best_plan, best_cost = brute_force_optimum(demand, params, costs, max_buy=8)
        except (UnrepairableError, ValueError):
            # unstaffable from the initial fleet, or the minimal feasible
            # plan already exceeds the per-week bound of the tiny domain
            continue
        n += 1
        res = solve(demand, params, costs,
                    SolverConfig(rng_seed=n, max_iterations=10_000))
        _POOL.append(("tiny-hybrid", res.schedule, demand, params, costs))
        _POOL.append(("tiny-exhaustive", simulate(best_plan, demand, params, costs),
                      demand, params, costs))
        got = res.schedule.total_cost
        if got == best_cost:
            exact += 1
        elif best_cost:
            worst_gap = max(worst_gap, float((got - best_cost) / best_cost))
        else:
            worst_gap = float("inf")
    wall = time.perf_counter() - start
    print(f"[acceptance] tiny instances vs exhaustive search: exact {exact}/50, "
          f"worst gap {worst_gap * 100:.3f}% (need >=45 exact, gap <=5%), "
          f"wall {wall:.1f}s (<120s)")
    assert exact >= 45
    assert worst_gap <= 0.05
    assert wall < 120.0


# ---------------------------------------------------------------------------
# gate 2: every solver output validates, across all attrition scenarios


_FAST_SOLVE = ["--population", "10", "--t0", "20", "--cooling", "0.85",
               "--termination", "0.5", "--max-evals", "3000"]

_SCENARIO_OVERRIDES = {
    "base": (Decimal("0"), 10),
    "k20": (Decimal("0.20"), 10),
    "k10g20": (Decimal("0.10"), 20),
}


def test_02_solver_output_validates_across_scenarios(tmp_path, capsys):
    start = time.perf_counter()
    clean = 0
    for i in range(200):
        scenario = ("base", "k20", "k10g20")[i % 3]
        rng = Random(5000 + i)
        horizon = rng.randint(4, 10)
        level = rng.randint(1, 5)
        demand = DemandSeries(tuple(rng.randint(0, level) for _ in range(horizon)))
        peak = max(demand)
        params = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0"),
                             initial_vessels=peak + 2,
                             initial_operators=4 * peak + 8,
                             horizon=horizon)
        case = tmp_path / f"case{i:03d}"
        case.mkdir()
        save_config(case / "fleet.cfg", STD_COSTS, params)
        save_demand(case / "demand.csv", demand)
        rc = main(["solve", "--config", str(case / "fleet.cfg"),
                   "--demand", str(case / "demand.csv"),
                   "--seed", str(i), "--out-dir", str(case / "run"),
                   "--scenario", scenario, *_FAST_SOLVE])
        assert rc == 0, f"case {i} ({scenario}): solve exited {rc}"
        capsys.readouterr()
        rc = main(["validate", "--config", str(case / "fleet.cfg"),
                   "--demand", str(case / "demand.csv"),
                   "--schedule", str(case / "run" / "schedule.csv"),
                   "--scenario", scenario])
        out = capsys.readouterr().out
        assert rc == 0, f"case {i} ({scenario}): validator reported {out!r}"
        k, g = _SCENARIO_OVERRIDES[scenario]
        effective = FleetParams(instruct_capacity=g, attrition_rate=k,
                                initial_vessels=params.initial_vessels,
                                initial_operators=params.initial_operators,
                                horizon=horizon)
        _POOL.append((f"cli-{scenario}-{i}",
                      read_schedule_csv(case / "run" / "schedule.csv"),
                      demand, effective, STD_COSTS))
        clean += 1
    wall = time.perf_counter() - start
    print(f"[acceptance] solve->validate: {clean}/200 runs clean across 3 "
          f"scenarios, wall {wall:.1f}s (<300s)")
    assert clean == 200
    assert wall < 300.0


# ---------------------------------------------------------------------------
# gate 3: the hybrid converges faster and lands lower than the plain GA


def test_03_hybrid_converges_faster_than_plain_ga():
    start = time.perf_counter()
    demand = gen_demand(26, 17, 5, 0.3)
    params = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0"),
                         initial_vessels=6, initial_operators=24, horizon=26)
    anneal = AnnealSchedule(100.0, 0.98, 0.001)
    h_iters, h_costs, p_iters, p_costs = [], [], [], []
    for seed in range(20):
        res_h = solve(demand, params, STD_COSTS,
                      SolverConfig(population_size=30, rng_seed=seed), anneal)
        budget = max(res_h.trace.evals_total, 30)
        res_p = solve_plain_ga(demand, params, STD_COSTS,
                               SolverConfig(population_size=30, rng_seed=seed,
                                            max_iterations=budget))
        h_iters.append(res_h.trace.evals_to_best)
        h_costs.append(res_h.schedule.total_cost)
        p_iters.append(res_p.trace.evals_to_best)
        p_costs.append(res_p.schedule.total_cost)
        _POOL.append((f"bench-hybrid-{seed}", res_h.schedule, demand, params, STD_COSTS))
        _POOL.append((f"bench-plain-{seed}", res_p.schedule, demand, params, STD_COSTS))
        _TRACES.append(res_h.trace)
        _TRACES.append(res_p.trace)
    med_h = statistics.median(h_iters)
    med_p = statistics.median(p_iters)
    ratio = med_h / med_p
    cost_h = statistics.median(h_costs)
    cost_p = statistics.median(p_costs)
    wall = time.perf_counter() - start
    print(f"[acceptance] convergence benchmark: median evals-to-best hybrid "
          f"{med_h} vs plain {med_p} (ratio {ratio:.4f}, need <=0.7); median "
          f"cost hybrid {cost_h} vs plain {cost_p} (need <=); wall {wall:.1f}s (<600s)")
    assert ratio <= 0.7
    assert cost_h <= cost_p
    assert wall < 600.0


# ---------------------------------------------------------------------------
# gate 4: ownership bookkeeping is exact on every schedule produced above


def _fallback_pool():
    rng = Random(424242)
    batch = []
    while len(batch) < 10:
        horizon = rng.randint(3, 6)
        demand = DemandSeries(tuple(rng.randint(0, 3) for _ in range(horizon)))
        peak = max(max(demand), 1)
        params = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0.10"),
                             initial_vessels=peak + 1,
                             initial_operators=4 * peak + 4,
                             horizon=horizon)
        try:
            plan = repair(ProcurementPlan.zero(horizon), demand, params, STD_COSTS)
        except UnrepairableError:
            continue
        batch.append(("fallback", simulate(plan, demand, params, STD_COSTS),
                      demand, params, STD_COSTS))
    return batch


def test_04_ownership_bookkeeping_exact_everywhere():
    batch = _POOL or _fallback_pool()
    for label, schedule, demand, params, costs in batch:
        bad = validate(schedule, demand, params, costs)
        assert bad == [], f"{label}: {[(v.week, v.constraint) for v in bad[:3]]}"
    print(f"[acceptance] ownership bookkeeping: {len(batch)} schedules "
          f"re-validated clean (integer stock recurrences hold exactly)")


# ---------------------------------------------------------------------------
# gate 5: the temperature program behaves as designed


def test_05_temperature_program():
    sched = AnnealSchedule(100.0, 0.9, 0.01)
    # improvement at T=2: the reheat term 0.5*ln(1) vanishes, cooling gives 1.8
    assert anneal_step(2.0, True, sched) == pytest.approx(1.8, abs=1e-12)
    # no improvement: pure geometric cooling
    assert anneal_step(5.0, False, sched) == pytest.approx(4.5, abs=1e-12)
    # at or below the guard the reheat is skipped even on improvement
    assert anneal_step(1.0, True, sched) == pytest.approx(0.9, abs=1e-12)
    assert anneal_step(0.5, True, sched) == pytest.approx(0.45, abs=1e-12)
    # a warm improvement reheats before cooling
    expected = (3.0 + 0.5 * np.log(2.0)) * 0.9
    assert anneal_step(3.0, True, sched) == pytest.approx(float(expected), abs=1e-12)

    # termination is strict: only the final recorded temperature sits below
    # the floor, and the best-cost trace never rises
    demand = DemandSeries((1, 2, 1, 2))
    params = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0"),
                         initial_vessels=2, initial_operators=9, horizon=4)
    res = solve(demand, params, STD_COSTS,
                SolverConfig(population_size=8, rng_seed=1, max_iterations=2000),
                AnnealSchedule(5.0, 0.8, 1.0))
    temps = [p.temperature for p in res.trace.points]
    assert temps[-1] < 1.0
    assert all(t >= 1.0 for t in temps[:-1])

    traces = _TRACES or [res.trace]
    for tr in traces:
        bests = [p.best_cost for p in tr.points]
        assert all(a >= b for a, b in zip(bests, bests[1:]))
    print(f"[acceptance] temperature program: reheat/cooling arithmetic exact, "
          f"strict termination, best-cost monotone on {len(traces)} traces")


# ---------------------------------------------------------------------------
# gate 6: full-order model recovery on integrated ARMA data


GAMMA = (-1.016, -0.877, -0.860)
THETA = (-1.323, -0.718, 0.324)


def _integrated_arma_series(seed: int, n: int = 2000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + 200)
    w = np.zeros(n + 200)
    for t in range(n + 200):
        acc = e[t]
        for i, g in enumerate(GAMMA, start=1):
            if t - i >= 0:
                acc += g * w[t - i]
        for j, th in enumerate(THETA, start=1):
            if t - j >= 0:
                acc += th * e[t - j]
        w[t] = acc
    return 30.0 + np.cumsum(w[200:])


def test_06_integrated_arma_recovery():
    start = time.perf_counter()
    errs = []
    whites = 0
    for seed in range(20):
        y = _integrated_arma_series(seed)
        model, resid = rls_fit(y, ArimaOrder(3, 1, 4), 0.99)
        errs.append(float(np.median(np.abs(np.asarray(model.ar_coeffs)
                                           - np.asarray(GAMMA)))))
        _, white = whiteness_check(resid[250:], 20, n_params=7)
        whites += bool(white)
    med = statistics.median(errs)
    wall = time.perf_counter() - start
    print(f"[acceptance] integrated-ARMA recovery: median AR error {med:.4f} "
          f"(need <=0.15), white residuals {whites}/20 (need >=16), "
          f"wall {wall:.1f}s (<60s)")
    assert med <= 0.15
    assert whites >= 16
    assert wall < 60.0


# ---------------------------------------------------------------------------
# gate 7: the filter-form and recursive predictors are the same function


def _poly_outside_unit_circle(order: int, rng) -> np.ndarray:
    """Constant-first real polynomial, constant term 1, all roots strictly
    outside the unit circle; complex roots enter as conjugate pairs."""
    if order == 0:
        return np.ones(1)
    roots = []
    while len(roots) < order:
        if order - len(roots) >= 2 and rng.random() < 0.5:
            r = rng.uniform(1.1, 3.0)
            th = rng.uniform(0.1, np.pi - 0.1)
            roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        else:
            roots.append(rng.uniform(1.1, 3.0) * rng.choice([-1.0, 1.0]))
    poly = np.poly(roots)
    poly = np.real(poly / poly[-1])
    return poly[::-1]


def test_07_predictor_forms_agree():
    rng = np.random.default_rng(20260818)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(0, 4))
        q = int(rng.integers(0, 4))
        d = int(rng.integers(0, 3))
        if p + q + d == 0:
            p = 1
        apoly = _poly_outside_unit_circle(p, rng)  # 1 - a1 B - ...: negate tail
        cpoly = _poly_outside_unit_circle(q, rng)  # 1 + c1 B + ...: tail as is
        model = ArimaModel(ArimaOrder(p, d, q), tuple(-apoly[1:]), tuple(cpoly[1:]),
                           float(rng.normal(0, 2)), 1.0)
        hist = [float(v) for v in rng.normal(0, 3, int(rng.integers(20, 60)))]
        for k in range(1, 13):
            direct = astrom_predict(model, hist, k)
            stepped = conditional_expectation_predict(model, hist, k)
            worst = max(worst, abs(direct - stepped))

    # a first-order autoregression with coefficient one half: 8 -> 4 -> 2
    ar1 = ArimaModel(ArimaOrder(1, 0, 0), (0.5,), (), 0.0, 1.0)
    hist = [0.0] * 11 + [8.0]
    ladder = [astrom_predict(ar1, hist, k) for k in (1, 2)]
    ladder += [conditional_expectation_predict(ar1, hist, k) for k in (1, 2)]
    print(f"[acceptance] predictor equivalence: worst disagreement {worst:.3e} "
          f"over 100 random models x 12 horizons (need <=1e-9); halving chain "
          f"{ladder[0]:.12f}, {ladder[1]:.12f} (want 4, 2)")
    assert worst <= 1e-9
    for got, want in zip(ladder, (4.0, 2.0, 4.0, 2.0)):
        assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# gate 8: differencing and integration invert each other exactly


def test_08_difference_integrate_round_trip():
    rng = np.random.default_rng(8)
    trips = 0
    for _ in range(1000):
        n = int(rng.integers(3, 48))
        x = [float(v) for v in rng.integers(-1000, 1001, n)]
        for d in (0, 1, 2):
            w, head = difference(x, d)
            back = integrate(w, head, d)
            assert list(back) == x, f"round trip broke at d={d}"
            trips += 1
    print(f"[acceptance] difference/integrate: {trips} integer round trips "
          f"exact across d in (0, 1, 2)")


# ---------------------------------------------------------------------------
# gate 9: rerunning any CLI command reproduces its data files byte for byte


def test_09_cli_reruns_byte_identical(tmp_path):
    params = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0.10"),
                         initial_vessels=4, initial_operators=18, horizon=8)
    save_config(tmp_path / "fleet.cfg", STD_COSTS, params)
    assert main(["gen-demand", "--horizon", "8", "--seed", "3", "--level", "2",
                 "--volatility", "0.2", "--out", str(tmp_path / "demand8.csv")]) == 0
    assert main(["gen-demand", "--horizon", "60", "--seed", "11", "--level", "6",
                 "--volatility", "0.25", "--out", str(tmp_path / "demand60.csv")]) == 0

    def run_all(rep: Path) -> None:
        rc = main(["solve", "--config", str(tmp_path / "fleet.cfg"),
                   "--demand", str(tmp_path / "demand8.csv"), "--seed", "7",
                   "--out-dir", str(rep / "run"), *_FAST_SOLVE])
        assert rc == 0
        rc = main(["forecast", "--demand", str(tmp_path / "demand60.csv"),
                   "--order", "2,1,2", "--horizon", "6", "--lambda", "0.97",
                   "--max-lag", "12", "--out-dir", str(rep / "fc")])
        assert rc == 0
        rc = main(["bench", "--config", str(tmp_path / "fleet.cfg"),
                   "--demand", str(tmp_path / "demand8.csv"), "--seeds", "2",
                   "--traces", "--out", str(rep / "bench" / "results.csv"),
                   "--population", "8", "--t0", "10", "--cooling", "0.8",
                   "--termination", "0.5", "--max-evals", "1500"])
        assert rc == 0

    run_all(tmp_path / "rep1")
    run_all(tmp_path / "rep2")

    data_files = [
        "run/schedule.csv", "run/trace.csv",
        "fc/forecast.csv", "fc/diagnostics.csv",
        "bench/results.csv",
        "bench/trace_hybrid_seed0.csv", "bench/trace_plain_seed0.csv",
        "bench/trace_hybrid_seed1.csv", "bench/trace_plain_seed1.csv",
    ]
    for name in data_files:
        a = (tmp_path / "rep1" / name).read_bytes()
        b = (tmp_path / "rep2" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    for manifest in ("run/run.manifest", "fc/run.manifest", "bench/run.manifest"):
        assert (tmp_path / "rep1" / manifest).exists()
    print(f"[acceptance] CLI determinism: {len(data_files)} data files "
          f"byte-identical across reruns (manifests exempt: they carry wall time)")
