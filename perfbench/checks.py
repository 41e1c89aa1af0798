"""Correctness checks run on every operation's outputs.

Each check returns a list of failure messages; an empty list is a pass.
Costs are recomputed here from the config file's prices, parsed by this
module rather than by fleetplan, so the cost check does not share code
with the simulator, the validator or the CSV reader it audits.
"""

from __future__ import annotations

import csv
import io
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import numpy as np

from fleetplan import cli
from fleetplan.domain import ProcurementPlan
from fleetplan.model import InfeasibleError, UnrepairableError, repair, simulate

# schedule.csv columns, in file order after "week"
COUNT_COLUMNS = ("vessel_buys", "operator_buys", "vessel_discards", "operator_discards",
                 "vessels_destroyed", "operators_destroyed", "vessels_maint",
                 "operators_maint", "instructors", "trainees", "robots_deployed")
AR_ERROR_LIMIT = 0.15
PREDICTOR_TOLERANCE = 1e-9


def read_prices(config_path: Path) -> dict[str, Decimal]:
    prices = {}
    for line in config_path.read_text().splitlines():
        key, sep, value = line.split("#", 1)[0].partition("=")
        if sep and key.strip().endswith("_price"):
            prices[key.strip()] = Decimal(value.strip())
    return prices


def read_schedule_rows(path: Path) -> tuple[list[dict], dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows[:-1], rows[-1]


def week_cost(row: dict, prices: dict[str, Decimal]) -> Decimal:
    n = {k: int(row[k]) for k in COUNT_COLUMNS}
    return (n["vessel_buys"] * prices["vessel_price"]
            + n["operator_buys"] * prices["operator_price"]
            + (n["instructors"] + n["trainees"]) * prices["training_price"]
            + n["vessels_maint"] * prices["vessel_maint_price"]
            + n["operators_maint"] * prices["operator_maint_price"])


def check_validates(config: Path, demand: Path, schedule: Path) -> list[str]:
    """`fleetplan validate` must exit 0 on the schedule."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(["validate", "--config", str(config), "--demand", str(demand),
                         "--schedule", str(schedule)])
    if code != 0:
        return [f"fleetplan validate exited {code}: {sink.getvalue().strip()[:200]}"]
    return []


def check_costs(schedule: Path, prices: dict[str, Decimal], reported: Decimal) -> list[str]:
    """Every week_cost, the total row and the reported best cost must
    equal the costs recomputed from the counts and the config prices."""
    rows, total = read_schedule_rows(schedule)
    out = []
    recomputed = Decimal(0)
    for row in rows:
        want = week_cost(row, prices)
        recomputed += want
        if Decimal(row["week_cost"]) != want:
            out.append(f"week {row['week']}: week_cost {row['week_cost']}, counts give {want}")
    if Decimal(total["week_cost"]) != recomputed:
        out.append(f"total row {total['week_cost']}, weekly costs recompute to {recomputed}")
    if reported != recomputed:
        out.append(f"reported best cost {reported}, schedule recomputes to {recomputed}")
    return out


def plan_of(schedule: Path) -> ProcurementPlan:
    rows, _ = read_schedule_rows(schedule)
    return ProcurementPlan(tuple(int(r["vessel_buys"]) for r in rows),
                           tuple(int(r["operator_buys"]) for r in rows))


def check_replay(schedule: Path, demand, fleet, costs) -> list[str]:
    """The plan in the buy columns is a fixed point of repair, and
    simulating it reproduces every row of the file."""
    plan = plan_of(schedule)
    try:
        if repair(plan, demand, fleet, costs) != plan:
            return ["the plan read back from schedule.csv is not a fixed point of repair"]
        replay = simulate(plan, demand, fleet, costs)
    except (InfeasibleError, UnrepairableError) as err:
        return [f"the plan read back from schedule.csv is infeasible: {err}"]
    rows, _ = read_schedule_rows(schedule)
    out = []
    for row, rec in zip(rows, replay.records, strict=True):
        want = {k: getattr(rec, k) for k in COUNT_COLUMNS}
        got = {k: int(row[k]) for k in COUNT_COLUMNS}
        if got != want or Decimal(row["week_cost"]) != rec.week_cost:
            out.append(f"week {row['week']}: file row differs from the simulated record")
    return out


def check_trace(trace: Path, best: Decimal) -> list[str]:
    """trace.csv's best_cost never rises and ends at the best cost."""
    with open(trace, newline="") as fh:
        best_costs = [Decimal(r["best_cost"]) for r in csv.DictReader(fh)]
    out = []
    rises = sum(1 for a, b in zip(best_costs, best_costs[1:]) if b > a)
    if rises:
        out.append(f"trace best_cost rises {rises} time(s)")
    if not best_costs or best_costs[-1] != best:
        out.append(f"trace ends at {best_costs[-1] if best_costs else None}, best cost is {best}")
    return out


def check_not_above(best: Decimal, greedy_cost: Decimal) -> list[str]:
    """Elitism keeps the greedy seed, so the hybrid can never end above it."""
    if best > greedy_cost:
        return [f"best cost {best} exceeds the greedy reduce_plan(seed_plan) cost {greedy_cost}"]
    return []


def check_budget(evals_total: int, budget: int) -> list[str]:
    if evals_total > budget:
        return [f"plain GA spent {evals_total} distinct evaluations on a budget of {budget}"]
    return []


def check_ar_error(errors: list[float]) -> list[str]:
    med = float(np.median(errors))
    if med > AR_ERROR_LIMIT:
        return [f"median AR coefficient error {med:.4f} exceeds {AR_ERROR_LIMIT}"]
    return []


def check_predictors_agree(direct: list[float], stepped: list[float]) -> list[str]:
    worst = max(abs(a - b) for a, b in zip(direct, stepped, strict=True))
    if worst > PREDICTOR_TOLERANCE:
        return [f"astrom and conditional-expectation predictions differ by {worst:.3e}"]
    return []


def check_beats_naive(mae: float, naive_mae: float) -> list[str]:
    if not mae < naive_mae:
        return [f"one-step MAE {mae:.4f} does not beat the last-value forecast {naive_mae:.4f}"]
    return []


def check_round_trip(original: np.ndarray, back: np.ndarray) -> list[str]:
    if len(back) != len(original) or not np.array_equal(back, original):
        return ["difference followed by integrate does not reproduce the series"]
    return []
