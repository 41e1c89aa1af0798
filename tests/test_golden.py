"""Golden outputs on the README instance, on a small instance with rejects,
and of the forecaster.

The README instance is standard prices, G = 10, K = 0.10, 6 vessels,
24 operators, 26 weeks, demand from
`gen-demand --horizon 26 --seed 17 --level 5 --volatility 0.3`.
`fleetplan solve --seed 0` with the default flags, and a one-seed
`fleetplan bench` under the K = 0 scenario (which also runs the plain-GA
baseline), must reproduce these files byte for byte.  A refactor of the
search loop, the simulator or repair that changes any of them changes
the search.  The forecaster goldens pin `fleetplan forecast` on a fixed
`gen-demand` series and `rls_fit` plus both predictors on gate 6's
seed-0 series to the last bit, so a faster filter or fit that reorders
one float operation shows here.
"""

import hashlib
from decimal import Decimal

from fleetplan.cli import main
from fleetplan.domain import (CostParams, DemandSeries, FleetParams, gen_demand, save_config,
                              save_demand)
from fleetplan.forecast import (ArimaOrder, astrom_predict,
                                conditional_expectation_predict, rls_fit)
from fleetplan.metaheuristic import (AnnealSchedule, SolverConfig, solve, solve_plain_ga,
                                    write_trace_csv)
from fleetplan.model import write_schedule_csv
from test_acceptance import _integrated_arma_series

STD_COSTS = CostParams(100, 50, 20, 10, 15)

SCHEDULE_SHA256 = "9400a22a62b22260a7a8add9756a283747a54a0c13c90452699ff6128739e4db"
TRACE_SHA256 = "ee54c9f2bcd7d718042aedf85ed72b2537b8e5723bd0a9e7b43e183f14c9d39a"
BENCH_RESULTS_SHA256 = "b14193787d717a06210f149df4328cac5a0029672e34460094fc826ad676e831"
BENCH_TRACE_HYBRID_SHA256 = "ffe0bde059d35a823b50fb1de9263779b811075bffce2058e45439312003ac2e"
BENCH_TRACE_PLAIN_SHA256 = "29d7998d8c16707e5d7e9b4860c65a18740bf02c59fb133030e44b48b2297dd3"
# the one-seed bench's stats.csv: each run's counters, hybrid then plain
BENCH_STATS = [
    "method,seed,evaluations,cache_hits,unrepairable,bumps_vessels,bumps_operators,"
    "bumps_instructors,instructor_clamps,rows_stepped,kernel_rounds,greedy_reductions",
    "hybrid,0,1500,21,0,229,263,100,153,39802,2208,0",
    "plain,0,1500,5,0,90,10,6,32,39410,1982,0"]
# the README solve's stats.csv; rows_stepped and kernel_rounds count the
# repair loop's work, so a cheaper loop may lower them without moving the rest
README_STATS = (("evaluations", 15629), ("cache_hits", 31), ("unrepairable", 0),
                ("bumps_vessels", 4515), ("bumps_operators", 4344),
                ("bumps_instructors", 1885), ("instructor_clamps", 2145),
                ("rows_stepped", 412796), ("kernel_rounds", 8190), ("greedy_reductions", 1))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _readme_instance(tmp_path):
    config = tmp_path / "fleet.cfg"
    demand = tmp_path / "demand.csv"
    save_config(config, STD_COSTS,
                FleetParams(instruct_capacity=10, attrition_rate=Decimal("0.10"),
                            initial_vessels=6, initial_operators=24, horizon=26))
    assert main(["gen-demand", "--horizon", "26", "--seed", "17", "--level", "5",
                 "--volatility", "0.3", "--out", str(demand)]) == 0
    return config, demand


def test_readme_solve_is_byte_identical(tmp_path, capsys):
    config, demand = _readme_instance(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--demand", str(demand),
                 "--seed", "0", "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()

    manifest = dict(line.split(" = ", 1)
                    for line in (run_dir / "run.manifest").read_text().splitlines())
    assert manifest["best_cost"] == "15065"
    assert manifest["evals_total"] == "15629"
    assert manifest["evals_to_best"] == "15600"
    assert _sha256(run_dir / "schedule.csv") == SCHEDULE_SHA256
    assert _sha256(run_dir / "trace.csv") == TRACE_SHA256
    assert (run_dir / "stats.csv").read_text().splitlines() == [
        "counter,value", *(f"{name},{value}" for name, value in README_STATS)]


def test_readme_bench_is_byte_identical(tmp_path, capsys):
    config, demand = _readme_instance(tmp_path)
    out = tmp_path / "bench" / "results.csv"
    assert main(["bench", "--config", str(config), "--demand", str(demand),
                 "--scenario", "base", "--seeds", "1", "--population", "20",
                 "--max-evals", "1500", "--traces", "--out", str(out)]) == 0
    capsys.readouterr()

    rows = out.read_text().splitlines()
    assert rows[1] == "hybrid,0,12255,1496,0"
    assert rows[2] == "plain,0,40350,1476,0"
    assert _sha256(out) == BENCH_RESULTS_SHA256
    assert _sha256(out.parent / "trace_hybrid_seed0.csv") == BENCH_TRACE_HYBRID_SHA256
    assert _sha256(out.parent / "trace_plain_seed0.csv") == BENCH_TRACE_PLAIN_SHA256
    assert (out.parent / "stats.csv").read_text().splitlines() == BENCH_STATS


# the hybrid of the benchmark's bench-k0 workload: the README instance at
# K = 0, population 30, termination 0.001, seed 0
BENCH_K0_STATS = {"evaluations": 18280, "cache_hits": 560, "unrepairable": 0,
                  "bumps_vessels": 2835, "bumps_operators": 1785, "bumps_instructors": 1082,
                  "instructor_clamps": 1518, "rows_stepped": 478494, "kernel_rounds": 18116,
                  "greedy_reductions": 0}


def test_bench_k0_hybrid_search():
    fleet = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0"),
                        initial_vessels=6, initial_operators=24, horizon=26)
    result = solve(gen_demand(26, 17, 5.0, 0.3), fleet, STD_COSTS,
                   SolverConfig(population_size=30, rng_seed=0),
                   AnnealSchedule(100.0, 0.98, 0.001))
    assert result.schedule.total_cost == Decimal(11705)
    assert result.trace.evals_total == 18280
    assert result.stats == BENCH_K0_STATS


# A 7-week instance where bred children are often unrepairable (their
# operator intake cascades into the week-1 instructor wall) and where
# both runs stop at the evaluation budget after the first child of a
# pair, so the rejects, the budget stop and the second child of a pair
# evaluated after the population fills all shape these files.
SMALL_FLEET = FleetParams(instruct_capacity=2, attrition_rate=Decimal("0.2"),
                          initial_vessels=4, initial_operators=9, horizon=7)
SMALL_DEMAND = (2, 0, 3, 2, 0, 1, 2)
SMALL_SOLVE_SCHEDULE_SHA256 = "a71def68a4d68f444fd9db8924776664f7f492c1121691df9fbc8712a8ac24d6"
SMALL_SOLVE_TRACE_SHA256 = "be92c42bcd8a0be139f941b7774ec2bf9911b64190884014512bdfe2e2386ae1"
SMALL_PLAIN_SCHEDULE_SHA256 = "7614976b8ea5031692e037047c422ac97655a172373f6badbbd88f61026e5942"
SMALL_PLAIN_TRACE_SHA256 = "66c5844b6a83f38485b18ab58c5bcb16082033f1028e7a363e31cb3b91039132"


def test_small_solve_with_rejects_is_byte_identical(tmp_path, capsys):
    config, demand = tmp_path / "fleet.cfg", tmp_path / "demand.csv"
    save_config(config, STD_COSTS, SMALL_FLEET)
    save_demand(demand, DemandSeries(SMALL_DEMAND))
    run_dir = tmp_path / "run"
    assert main(["solve", "--config", str(config), "--demand", str(demand), "--seed", "0",
                 "--population", "8", "--t0", "50", "--cooling", "0.95",
                 "--termination", "0.01", "--max-evals", "152",
                 "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()

    manifest = dict(line.split(" = ", 1)
                    for line in (run_dir / "run.manifest").read_text().splitlines())
    assert (manifest["best_cost"], manifest["evals_total"], manifest["evals_to_best"]) == (
        "1505", "152", "1")
    assert _sha256(run_dir / "schedule.csv") == SMALL_SOLVE_SCHEDULE_SHA256
    assert _sha256(run_dir / "trace.csv") == SMALL_SOLVE_TRACE_SHA256


def test_small_plain_ga_with_rejects_is_byte_identical(tmp_path):
    result = solve_plain_ga(DemandSeries(SMALL_DEMAND), SMALL_FLEET, STD_COSTS,
                            SolverConfig(population_size=8, rng_seed=0, max_iterations=152))
    assert (result.schedule.total_cost, result.trace.evals_total,
            result.trace.evals_to_best, len(result.trace.points)) == (Decimal(3355), 152, 149, 29)
    write_schedule_csv(tmp_path / "schedule.csv", result.schedule)
    write_trace_csv(tmp_path / "trace.csv", result.trace)
    assert _sha256(tmp_path / "schedule.csv") == SMALL_PLAIN_SCHEDULE_SHA256
    assert _sha256(tmp_path / "trace.csv") == SMALL_PLAIN_TRACE_SHA256


FORECAST_SHA256 = "a88f08d2a0e0bcda4d7c148df6864efc15d7c3449caa7eb14c3515bb4bfbd2bb"
DIAGNOSTICS_SHA256 = "504c72e4834a4884f2531014a5858cce62e9cb8e35d922da2e6911e3bddb34c7"


def test_forecast_command_is_byte_identical(tmp_path, capsys):
    demand = tmp_path / "demand.csv"
    assert main(["gen-demand", "--horizon", "120", "--seed", "23", "--level", "20",
                 "--volatility", "0.3", "--out", str(demand)]) == 0
    run_dir = tmp_path / "fc"
    assert main(["forecast", "--demand", str(demand), "--order", "3,1,4",
                 "--horizon", "12", "--out-dir", str(run_dir)]) == 0
    capsys.readouterr()

    manifest = dict(line.split(" = ", 1)
                    for line in (run_dir / "run.manifest").read_text().splitlines())
    assert manifest["q_statistic"] == "23.240068421921652"
    assert manifest["r_squared"] == "0.6521294233280874"
    assert _sha256(run_dir / "forecast.csv") == FORECAST_SHA256
    assert _sha256(run_dir / "diagnostics.csv") == DIAGNOSTICS_SHA256


# ARIMA(3,1,4) with lambda 0.99 on gate 6's seed-0 series (2000 samples)
GATE6_AR = "(-1.0268734548785867, -0.9611590167483137, -0.9191269647252912)"
GATE6_MA = ("(-0.2908914790386621, -0.31083667978815444, -0.009474890716614264, "
            "-0.04456418338417102)")
GATE6_MEAN_AND_VARIANCE = "(0.008290189609747792, 2.5777580256864545)"
GATE6_RESID_SHA256 = "6e9394d3a6f820573c29f6ed4d861e1f9a83719c2949cc94ff018bb8ddeeec26"
GATE6_ASTROM = [
    "32.58305110841535", "30.06826016863949", "38.44908512482604", "31.09679389987395",
    "32.935164372843744", "30.44346042722983", "38.025238920107704", "30.977330779097755",
    "33.24992917719457", "30.754192706719454", "37.64298330671621", "30.91145134026777"]
GATE6_CONDITIONAL = [
    "32.58305110841535", "30.068260168639487", "38.44908512482604", "31.09679389987395",
    "32.935164372843744", "30.443460427229834", "38.0252389201077", "30.977330779097755",
    "33.24992917719457", "30.75419270671945", "37.64298330671622", "30.91145134026777"]


def test_gate6_fit_and_predictions_are_bit_identical():
    y = _integrated_arma_series(0)
    model, resid = rls_fit(y, ArimaOrder(3, 1, 4), 0.99)
    assert repr(model.ar_coeffs) == GATE6_AR
    assert repr(model.ma_coeffs) == GATE6_MA
    assert repr((model.series_mean, model.noise_variance)) == GATE6_MEAN_AND_VARIANCE
    assert hashlib.sha256(resid.tobytes()).hexdigest() == GATE6_RESID_SHA256
    assert [repr(astrom_predict(model, y, k)) for k in range(1, 13)] == GATE6_ASTROM
    assert [repr(conditional_expectation_predict(model, y, k))
            for k in range(1, 13)] == GATE6_CONDITIONAL
