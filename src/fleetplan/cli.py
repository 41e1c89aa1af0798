"""Command-line interface.

Subcommands: gen-demand, solve, validate, forecast, bench.  Exit codes:
0 success, 1 I/O failure, 2 usage or input validation, 3 infeasible,
4 constraint validation failure, 5 numerical failure.

Every run that produces an output directory writes a run.manifest of
flat key = value pairs recording the invocation.  The manifest is the
one file allowed to differ between identical reruns (it records wall
time); all data outputs are byte-identical for identical arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from decimal import MAX_PREC, Decimal, localcontext
from pathlib import Path

import numpy as np

from . import __version__
from .domain import (ConfigError, CostParams, DemandSeries, FleetParams,
                     NumericalBreakdownError, gen_demand, load_config, load_demand,
                     save_demand)
from .forecast import (ArimaOrder, DegenerateSeriesError, NoninvertibleMAError,
                       acf, extend_demand, pacf, r_squared, rls_fit, whiteness_check,
                       write_diagnostics_csv, write_forecast_csv)
from .metaheuristic import (STATS, AnnealSchedule, SolverConfig, solve, solve_plain_ga,
                            write_stats_csv, write_trace_csv)
from .model import (InfeasibleError, ScheduleFormatError, UnrepairableError,
                    read_schedule_csv, validate, write_schedule_csv)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4
EXIT_NUMERICAL = 5

SCENARIOS = {
    "base": {"attrition_rate": Decimal("0")},
    "k20": {"attrition_rate": Decimal("0.20")},
    "k10g20": {"attrition_rate": Decimal("0.10"), "instruct_capacity": 20},
}


def _load_instance(args) -> tuple[CostParams, FleetParams, DemandSeries]:
    """Prices, fleet under the scenario, and a demand series that covers
    the config's horizon."""
    costs, fleet = load_config(args.config)
    if args.scenario:
        fleet = dataclasses.replace(fleet, **SCENARIOS[args.scenario])
    demand = load_demand(args.demand)
    if len(demand) != fleet.horizon:
        raise ConfigError(
            f"demand covers {len(demand)} weeks but config horizon is {fleet.horizon}")
    return costs, fleet, demand


def _ms_since(started_ns: int) -> int:
    return (time.perf_counter_ns() - started_ns) // 1_000_000


def write_manifest(out_dir: Path, started_ns: int, entries: dict) -> None:
    """Write out_dir/run.manifest: the command's entries plus the output
    directory, the tool version and the wall time since started_ns."""
    entries = {**entries, "output_dir": out_dir, "tool_version": __version__,
               "wall_ms": _ms_since(started_ns)}
    lines = [f"{k} = {v}" for k, v in entries.items()]
    (out_dir / "run.manifest").write_text("\n".join(lines) + "\n")


# Each solver flag's dest and the settings field it sets.  A flag takes
# its type and default from that field, so every default is written once,
# in its dataclass; the manifests list the settings under these dests.
_SOLVER_FLAGS = {
    "population": (SolverConfig, "population_size"),
    "t0": (AnnealSchedule, "initial_temp"),
    "cooling": (AnnealSchedule, "cooling_coeff"),
    "termination": (AnnealSchedule, "termination_temp"),
    "crossover_rate": (SolverConfig, "crossover_rate"),
    "mutation_rate": (SolverConfig, "base_mutation_rate"),
    "mutation_magnitude": (SolverConfig, "mutation_magnitude_per_temp"),
    "max_evals": (SolverConfig, "max_iterations"),
}


def _add_solver_flags(sub) -> None:
    for dest, (cls, name) in _SOLVER_FLAGS.items():
        default = getattr(cls, name)
        sub.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default)


def _solver_settings(args, seed: int) -> tuple[SolverConfig, AnnealSchedule]:
    """The settings the solver flags give; each dataclass checks its own."""
    values = {SolverConfig: {"rng_seed": seed}, AnnealSchedule: {}}
    for dest, (cls, name) in _SOLVER_FLAGS.items():
        values[cls][name] = getattr(args, dest)
    return SolverConfig(**values[SolverConfig]), AnnealSchedule(**values[AnnealSchedule])


def cmd_gen_demand(args) -> int:
    demand = gen_demand(args.horizon, args.seed, args.level, args.volatility)
    save_demand(args.out, demand)
    print(f"wrote {len(demand)} weeks to {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.perf_counter_ns()
    costs, fleet, demand = _load_instance(args)
    config, schedule_prog = _solver_settings(args, args.seed)
    # made before the search, so an unwritable path fails before a long run
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = solve(demand, fleet, costs, config, schedule_prog)
    write_schedule_csv(out_dir / "schedule.csv", result.schedule)
    write_trace_csv(out_dir / "trace.csv", result.trace)
    write_stats_csv(out_dir / "stats.csv", result.stats)
    write_manifest(out_dir, started, {
        "command": "solve",
        "config_path": args.config,
        "demand_path": args.demand,
        "rng_seed": args.seed,
        "scenario": args.scenario or "",
        **{dest: getattr(args, dest) for dest in _SOLVER_FLAGS},
        "best_cost": result.schedule.total_cost,
        "evals_total": result.trace.evals_total,
        "evals_to_best": result.trace.evals_to_best,
        **{f"{phase}_ms": round(seconds * 1e3) for phase, seconds in result.phase_s.items()},
    })
    print(f"best cost {result.schedule.total_cost}, reached after "
          f"{result.trace.evals_to_best} iterations "
          f"({result.trace.evals_total} total evaluations); outputs in {out_dir}")
    return EXIT_OK


def cmd_validate(args) -> int:
    costs, fleet, demand = _load_instance(args)
    try:
        schedule = read_schedule_csv(args.schedule)
    except ScheduleFormatError as err:
        print(f"schedule rejected: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    violations = validate(schedule, demand, fleet, costs)
    if violations:
        for v in violations:
            print(f"week {v.week}: {v.constraint}: {v.detail}")
        return EXIT_VALIDATION
    print("OK")
    return EXIT_OK


def _parse_order(raw: str) -> ArimaOrder:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigError(f"order must be p,d,q, got {raw!r}")
    try:
        p, d, q = (int(v) for v in parts)
    except ValueError:
        raise ConfigError(f"order must be three integers, got {raw!r}") from None
    try:
        return ArimaOrder(p, d, q)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _residual_acf_pacf(resid, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    # all-zero residuals (perfect fit) have no correlation structure
    if float(np.max(np.abs(resid))) == 0.0:
        flat = np.zeros(max_lag + 1)
        flat[0] = 1.0
        return flat, flat.copy()
    return acf(resid, max_lag), pacf(resid, max_lag)


def cmd_forecast(args) -> int:
    started = time.perf_counter_ns()
    demand = load_demand(args.demand)
    order = _parse_order(args.order)
    if args.horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {args.horizon}")

    fit_stats: dict[str, float] = {}
    model, resid = rls_fit(demand.values, order, args.forgetting, fit_stats)
    forecast_series = extend_demand(model, demand, args.horizon)

    n_params = order.p + order.q
    max_lag = min(args.max_lag, len(resid) - 1)
    if max_lag <= n_params:
        raise ConfigError(
            f"need max_lag > {n_params} fitted coefficients, feasible max is {max_lag}")
    q_stat, white = whiteness_check(resid, max_lag, n_params)
    acf_vals, pacf_vals = _residual_acf_pacf(resid, max_lag)
    actual = np.asarray(demand.values, dtype=float)[order.d:]
    fitted = actual - resid
    try:
        r2 = r_squared(fitted, actual)
    except DegenerateSeriesError:
        r2 = float("nan")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_forecast_csv(out_dir / "forecast.csv", demand, forecast_series)
    write_diagnostics_csv(out_dir / "diagnostics.csv", acf_vals, pacf_vals,
                          q_stat, max_lag - n_params, white, r2)
    write_manifest(out_dir, started, {
        "command": "forecast",
        "config_path": "",
        "demand_path": args.demand,
        "rng_seed": "",
        "order": f"{order.p},{order.d},{order.q}",
        "horizon": args.horizon,
        "lambda": args.forgetting,
        "max_lag": max_lag,
        "q_statistic": repr(q_stat),
        "white": str(white).lower(),
        "r_squared": repr(r2),
        # empty when p = q = 0: no coefficients, no covariance
        "rls_covariance_trace": fit_stats.get("covariance_trace", ""),
        "rls_covariance_condition": fit_stats.get("covariance_condition", ""),
    })
    print(f"forecast {args.horizon} weeks; residual Q={q_stat:.3f} "
          f"(white={str(white).lower()}), r_squared={r2:.4f}; outputs in {out_dir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    started = time.perf_counter_ns()
    if args.seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {args.seeds}")
    costs, fleet, demand = _load_instance(args)
    base_config, schedule_prog = _solver_settings(args, args.seed_base)
    out_path = Path(args.out)
    out_dir = out_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []  # (method, seed, SolveResult) in results.csv order
    timings = {"hybrid": 0, "plain": 0}
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        config = dataclasses.replace(base_config, rng_seed=seed)
        t0 = time.perf_counter_ns()
        hybrid = solve(demand, fleet, costs, config, schedule_prog)
        timings["hybrid"] += _ms_since(t0)
        # the baseline gets the same evaluation budget the hybrid spent
        plain_config = dataclasses.replace(
            config, max_iterations=max(hybrid.trace.evals_total, config.population_size))
        t0 = time.perf_counter_ns()
        plain = solve_plain_ga(demand, fleet, costs, plain_config)
        timings["plain"] += _ms_since(t0)
        runs += [("hybrid", seed, hybrid), ("plain", seed, plain)]
        if args.traces:
            write_trace_csv(out_dir / f"trace_hybrid_seed{seed}.csv", hybrid.trace)
            write_trace_csv(out_dir / f"trace_plain_seed{seed}.csv", plain.trace)

    rows = [(method, seed, result.schedule.total_cost, result.trace.evals_to_best)
            for method, seed, result in runs]
    # wall_ms stays 0 in the CSV so identical reruns are byte-identical;
    # measured times go to stdout and the manifest
    lines = ["method,seed,best_cost,iterations_to_best,wall_ms"]
    for method, seed, cost, iters in rows:
        lines.append(f"{method},{seed},{cost},{iters},0")
    summary = {}
    for method in ("hybrid", "plain"):
        costs_ = [cost for m, _, cost, _ in rows if m == method]
        iters_ = [it for m, _, _, it in rows if m == method]
        with localcontext(prec=MAX_PREC):  # an even count's mean of two stays exact
            med_cost = statistics.median(costs_)
        med_iters = statistics.median(iters_)
        summary[method] = (med_cost, med_iters)
        lines.append(f"{method},median,{med_cost},{med_iters},0")
    out_path.write_text("\n".join(lines) + "\n")
    # each run's counters go to stats.csv; its phases' wall times,
    # summed per method, go to the manifest only
    counts = [",".join(["method", "seed", *STATS])]
    phase_s = {}
    for method, seed, result in runs:
        counts.append(",".join(map(str, [method, seed, *(result.stats[n] for n in STATS)])))
        for phase, seconds in result.phase_s.items():
            key = f"{method}_{phase}_ms"
            phase_s[key] = phase_s.get(key, 0.0) + seconds
    (out_dir / "stats.csv").write_text("\n".join(counts) + "\n")

    write_manifest(out_dir, started, {
        "command": "bench",
        "config_path": args.config,
        "demand_path": args.demand,
        "rng_seed": args.seed_base,
        "scenario": args.scenario or "",
        "seeds": args.seeds,
        **{dest: getattr(args, dest) for dest in _SOLVER_FLAGS},
        "hybrid_median_cost": summary["hybrid"][0],
        "hybrid_median_iters": summary["hybrid"][1],
        "plain_median_cost": summary["plain"][0],
        "plain_median_iters": summary["plain"][1],
        "hybrid_wall_ms": timings["hybrid"],
        "plain_wall_ms": timings["plain"],
        **{key: round(seconds * 1e3) for key, seconds in phase_s.items()},
    })
    print(f"hybrid median cost {summary['hybrid'][0]} at {summary['hybrid'][1]} evals; "
          f"plain median cost {summary['plain'][0]} at {summary['plain'][1]} evals "
          f"(wall: hybrid {timings['hybrid']}ms, plain {timings['plain']}ms)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetplan",
        description="Weekly fleet procurement planning and demand forecasting.")
    parser.add_argument("--version", action="version", version=f"fleetplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-demand", help="generate a synthetic demand series")
    g.add_argument("--horizon", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--level", type=float, required=True)
    g.add_argument("--volatility", type=float, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_demand)

    s = sub.add_parser("solve", help="optimize a purchase schedule")
    s.add_argument("--config", required=True)
    s.add_argument("--demand", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-dir", required=True)
    s.add_argument("--scenario", choices=sorted(SCENARIOS))
    _add_solver_flags(s)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="check a schedule against the constraints")
    v.add_argument("--config", required=True)
    v.add_argument("--demand", required=True)
    v.add_argument("--schedule", required=True)
    v.add_argument("--scenario", choices=sorted(SCENARIOS))
    v.set_defaults(func=cmd_validate)

    f = sub.add_parser("forecast", help="extend a demand series")
    f.add_argument("--demand", required=True)
    f.add_argument("--order", required=True, help="p,d,q")
    f.add_argument("--horizon", type=int, required=True)
    f.add_argument("--lambda", dest="forgetting", type=float, default=0.98,
                   help="forgetting factor in (0.9, 1]")
    f.add_argument("--max-lag", type=int, default=20)
    f.add_argument("--out-dir", required=True)
    f.set_defaults(func=cmd_forecast)

    b = sub.add_parser("bench", help="compare hybrid and plain GA over seeds")
    b.add_argument("--config", required=True)
    b.add_argument("--demand", required=True)
    b.add_argument("--seeds", type=int, required=True)
    b.add_argument("--seed-base", type=int, default=0)
    b.add_argument("--scenario", choices=sorted(SCENARIOS))
    b.add_argument("--traces", action="store_true",
                   help="also write per-run convergence traces")
    b.add_argument("--out", required=True,
                   help="path of the summary CSV; companion files go beside it")
    _add_solver_flags(b)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UnrepairableError, InfeasibleError) as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoninvertibleMAError, NumericalBreakdownError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:  # ConfigError and the forecaster's input errors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
