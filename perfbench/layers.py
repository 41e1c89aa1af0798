"""Per-layer figures derived from the traced round's spans.

Span names follow the module that owns the wrapped function; a name is
given once per binding so that, for example, the greedy trials
(`greedy.simulate`) and the final re-simulation (`metaheuristic.simulate`)
stay apart.  Model, greedy and GA figures count only spans inside an
operation, not inside the correctness checks; `model.validate` counts the
validator calls that the checks make.
"""

from __future__ import annotations

import statistics

import numpy as np

from fleetplan import cli, forecast, greedy, metaheuristic, model

from calib import rescale
from tracing import INFEASIBLE, OK, UNREPAIRABLE, Spans, Tracer

OP_ROOTS = ("op.solve", "op.hybrid", "op.plain", "op.series", "op.tail")

FORECAST_FUNCTIONS = ("rls_fit", "astrom_predict", "conditional_expectation_predict",
                      "acf", "pacf", "whiteness_check", "difference", "integrate",
                      "diophantine_split")

# name -> unit, in report order
UNITS = {
    "model.step_week_us": "us",
    "model.step_week_calls": "count",
    "model.weeks_per_eval": "ratio",
    "model.infeasible_steps": "count",
    "model.repair_and_simulate_us": "us",
    "model.repair_and_simulate_s": "s",
    "model.unrepairable": "count",
    "model.simulate_us": "us",
    "model.validate_us": "us",
    "greedy.seed_plan_ms": "ms",
    "greedy.reduce_plan_ms": "ms",
    "greedy.trial_simulations": "count",
    "greedy.reductions": "count",
    "metaheuristic.evaluations": "count",
    "metaheuristic.generations": "count",
    "metaheuristic.ga_self_s": "s",
    "metaheuristic.ga_self_us_per_eval": "us",
    "forecast.rls_fit_us_per_sample": "us",
    "forecast.astrom_predict_us": "us",
    "forecast.conditional_expectation_predict_us": "us",
    "forecast.diagnostics_ms": "ms",
    "cli.self_ms": "ms",
    "search.evals_to_best": "count",
    "search.plain_ga_s": "s",
    "search.plain_best_cost": "cost",
    "search.plain_evals_to_best": "count",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def install(tracer: Tracer, counters: dict[str, int]) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    def count_reductions(result) -> None:
        counters["greedy.reductions"] += result[1].passes

    tracer.wrap(model, "step_week", "model.step_week")
    tracer.wrap(metaheuristic, "repair_and_simulate", "model.repair_and_simulate")
    tracer.wrap(metaheuristic, "seed_plan", "greedy.seed_plan")
    tracer.wrap(metaheuristic, "reduce_plan", "greedy.reduce_plan", count_reductions)
    tracer.wrap(metaheuristic, "simulate", "metaheuristic.simulate")
    tracer.wrap(metaheuristic, "_next_generation", "metaheuristic.generation")
    tracer.wrap(metaheuristic, "solve", "metaheuristic.solve")
    tracer.wrap(metaheuristic, "solve_plain_ga", "metaheuristic.solve_plain_ga")
    tracer.wrap(greedy, "simulate", "greedy.simulate")
    tracer.wrap(cli, "solve", "metaheuristic.solve")
    tracer.wrap(cli, "validate", "model.validate")
    for fn in FORECAST_FUNCTIONS:
        tracer.wrap(forecast, fn, f"forecast.{fn}")


def _per_call(total: float, calls: int) -> float:
    return total / calls if calls else 0.0


def from_spans(sp: Spans, calibration_s: float, counters: dict[str, int],
               horizon: int, samples_per_fit: int) -> dict[str, float]:
    def seconds(mask: np.ndarray, self_only: bool = False) -> float:
        times = sp.self_time if self_only else sp.duration
        return rescale(float(times[mask].sum()) / 1e9, calibration_s)

    in_ops = sp.under(OP_ROOTS)
    ok = sp.outcome == OK
    step = sp.mask("model.step_week") & in_ops
    repair = sp.mask("model.repair_and_simulate")
    evals = int((repair & ok).sum())
    sims = (sp.mask("greedy.simulate") | sp.mask("metaheuristic.simulate")) & in_ops
    validate = sp.mask("model.validate")
    seeds = sp.mask("greedy.seed_plan")
    reduces = sp.mask("greedy.reduce_plan")
    ga = (sp.mask("metaheuristic.solve") | sp.mask("metaheuristic.solve_plain_ga")
          | sp.mask("metaheuristic.generation")) & in_ops
    fits = sp.mask("forecast.rls_fit") & in_ops
    astrom = sp.mask("forecast.astrom_predict")
    cond = sp.mask("forecast.conditional_expectation_predict")
    diag = sp.mask("forecast.diagnostics")
    cli_main = sp.mask("cli.main")
    ga_self = seconds(ga, self_only=True)
    return {
        "model.step_week_us": _per_call(seconds(step) * 1e6, int(step.sum())),
        "model.step_week_calls": int(step.sum()),
        "model.weeks_per_eval": _per_call(int((step & sp.parent_is("model.repair_and_simulate"))
                                              .sum()), evals * horizon),
        "model.infeasible_steps": int((step & (sp.outcome == INFEASIBLE)).sum()),
        "model.repair_and_simulate_us": _per_call(seconds(repair) * 1e6, evals),
        "model.repair_and_simulate_s": seconds(repair),
        "model.unrepairable": int((repair & (sp.outcome == UNREPAIRABLE)).sum()),
        "model.simulate_us": _per_call(seconds(sims) * 1e6, int(sims.sum())),
        "model.validate_us": _per_call(seconds(validate) * 1e6, int(validate.sum())),
        "greedy.seed_plan_ms": _per_call(seconds(seeds) * 1e3, int(seeds.sum())),
        "greedy.reduce_plan_ms": _per_call(seconds(reduces) * 1e3, int(reduces.sum())),
        "greedy.trial_simulations": int((sp.mask("greedy.simulate") & in_ops).sum()),
        "greedy.reductions": counters["greedy.reductions"],
        "metaheuristic.evaluations": evals,
        "metaheuristic.generations": int((sp.mask("metaheuristic.generation") & in_ops).sum()),
        "metaheuristic.ga_self_s": ga_self,
        "metaheuristic.ga_self_us_per_eval": _per_call(ga_self * 1e6, evals),
        "forecast.rls_fit_us_per_sample": _per_call(seconds(fits) * 1e6,
                                                    int(fits.sum()) * samples_per_fit),
        "forecast.astrom_predict_us": _per_call(seconds(astrom) * 1e6, int(astrom.sum())),
        "forecast.conditional_expectation_predict_us": _per_call(seconds(cond) * 1e6,
                                                                 int(cond.sum())),
        "forecast.diagnostics_ms": _per_call(seconds(diag) * 1e3, int(diag.sum())),
        "cli.self_ms": _per_call(seconds(cli_main, self_only=True) * 1e3,
                                 int(cli_main.sum())),
        "trace.spans": len(sp),
    }


def search_figures(ops, round_calibration_s: float) -> dict[str, float]:
    """Convergence figures from the untraced reference round."""
    hybrid = [op for op in ops if op.kind in ("solve", "hybrid")]
    plain = [op for op in ops if op.kind == "plain"]
    out = {"search.evals_to_best": 0, "search.plain_ga_s": 0.0,
           "search.plain_best_cost": 0, "search.plain_evals_to_best": 0}
    if hybrid:
        out["search.evals_to_best"] = statistics.median(op.values["evals_to_best"]
                                                        for op in hybrid)
    if plain:
        out["search.plain_ga_s"] = statistics.median(
            rescale(op.cpu_s, op.calibration_s or round_calibration_s) for op in plain)
        out["search.plain_best_cost"] = float(statistics.median(
            op.values["best_cost"] for op in plain))
        out["search.plain_evals_to_best"] = statistics.median(op.values["evals_to_best"]
                                                              for op in plain)
    return out


def self_time_table(sp: Spans, calibration_s: float) -> list[tuple[str, int, float, float]]:
    """(span name, calls, total s, self s) per name, largest self time first."""
    rows = []
    for i, name in enumerate(sp.names):
        m = sp.name == i
        rows.append((name, int(m.sum()),
                     rescale(float(sp.duration[m].sum()) / 1e9, calibration_s),
                     rescale(float(sp.self_time[m].sum()) / 1e9, calibration_s)))
    return sorted(rows, key=lambda r: -r[3])
