"""Show that every correctness check passes on real output and fails on a
deliberately corrupted copy of it.

    python3 perfbench/check_checks.py

Solves the README instance at K = 0.10 once (seed 0, about 7 s), fits one
forecast series, then runs each check on the clean output and on a
tampered copy.  Prints one line per case and exits 1 if any clean case
fails or any corrupted case passes.  The first corruption is the
validator's blind spot: every week_cost set to 1 and the total row to
the week count, which `fleetplan validate` accepts.
"""

from __future__ import annotations

import csv
import shutil
import sys
from decimal import Decimal
from pathlib import Path

import run  # noqa: F401  (puts ./src first on sys.path, as the benchmark does)

import numpy as np

from fleetplan import forecast
from fleetplan.forecast import ArimaModel

import checks
import workloads

OUT = run.OUT / "check-checks"


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _copy(src: Path, name: str) -> Path:
    dst = OUT / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    return dst


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    fleet_wl = workloads.SolveK10(OUT, 0)
    clean = OUT / "clean"
    code = workloads._quiet_main(["solve", "--config", str(fleet_wl.config_path), "--demand",
                                  str(fleet_wl.demand_path), "--seed", "0",
                                  "--out-dir", str(clean)])
    if code != 0:
        print(f"fleetplan solve exited {code}")
        return 1
    best = Decimal(workloads._read_manifest(clean / "run.manifest")["best_cost"])
    cases = []

    def case(name: str, clean_result: list[str], corrupt_result: list[str]) -> None:
        cases.append((name, clean_result, corrupt_result))

    def validates(d: Path) -> list[str]:
        return checks.check_validates(fleet_wl.config_path, fleet_wl.demand_path,
                                      d / "schedule.csv")

    def costs(d: Path, reported: Decimal = best) -> list[str]:
        return checks.check_costs(d / "schedule.csv", fleet_wl.prices, reported)

    def replay(d: Path) -> list[str]:
        return checks.check_replay(d / "schedule.csv", fleet_wl.demand, fleet_wl.fleet,
                                   fleet_wl.costs)

    # every week_cost 1, total row 26: the validator accepts it, the cost check does not
    ones = _copy(clean, "costs_set_to_one")
    weeks = len(fleet_wl.demand)

    def set_costs_to_one(rows):
        for row in rows[1:-1]:
            row[-1] = "1"
        rows[-1][-1] = str(weeks)
    _rewrite_csv(ones / "schedule.csv", set_costs_to_one)
    blind = validates(ones)
    print(f"fleetplan validate on the costs-set-to-one schedule: "
          f"{'exit 0 (accepted)' if not blind else blind[0]}")
    case("cost check: every week_cost 1, total 26", costs(clean), costs(ones))

    total_off = _copy(clean, "total_row_off")
    _rewrite_csv(total_off / "schedule.csv",
                 lambda rows: rows[-1].__setitem__(-1, str(Decimal(rows[-1][-1]) + 5)))
    case("fleetplan validate: total row off by 5", validates(clean), validates(total_off))
    case("cost check: total row off by 5", costs(clean), costs(total_off))
    case("cost check: manifest best cost off by 5", costs(clean), costs(clean, best + 5))

    # one more vessel in the shop in week 5, its cost carried through every total
    maint = _copy(clean, "extra_maintenance")

    def add_maintenance(rows):
        col = rows[0].index("vessels_maint")
        rows[5][col] = str(int(rows[5][col]) + 1)
        rows[5][-1] = str(Decimal(rows[5][-1]) + 15)
        rows[-1][col] = str(int(rows[-1][col]) + 1)
        rows[-1][-1] = str(Decimal(rows[-1][-1]) + 15)
    _rewrite_csv(maint / "schedule.csv", add_maintenance)
    case("replay check: a maintenance count the simulator did not produce",
         replay(clean), replay(maint))

    # no purchases at all: repair has to add some, so the plan is no fixed point
    unbought = _copy(clean, "no_purchases")

    def drop_purchases(rows):
        for row in rows[1:]:
            row[1] = row[2] = "0"
    _rewrite_csv(unbought / "schedule.csv", drop_purchases)
    case("replay check: purchases removed", replay(clean), replay(unbought))

    rising = _copy(clean, "trace_rises")

    def raise_best(rows):
        col = rows[0].index("best_cost")
        rows[len(rows) // 2][col] = str(Decimal(rows[len(rows) // 2][col]) + 100)
    _rewrite_csv(rising / "trace.csv", raise_best)
    case("trace check: best_cost rises once", checks.check_trace(clean / "trace.csv", best),
         checks.check_trace(rising / "trace.csv", best))
    case("trace check: trace ends above the best cost",
         checks.check_trace(clean / "trace.csv", best),
         checks.check_trace(clean / "trace.csv", best - 10))
    greedy = fleet_wl.greedy_cost()
    case("greedy bound: best cost above reduce_plan(seed_plan)",
         checks.check_not_above(best, greedy), checks.check_not_above(greedy + 1, greedy))
    case("budget check: one evaluation over", checks.check_budget(100, 100),
         checks.check_budget(101, 100))

    fc = workloads.ForecastArima(OUT, 0)
    y = fc.series[0]
    history = y[:-fc.tail]
    model, _ = forecast.rls_fit(history, fc.order, fc.forgetting)
    err = float(np.median(np.abs(np.asarray(model.ar_coeffs) - np.asarray(workloads.GAMMA))))
    off = ArimaModel(model.order, tuple(a + 0.5 for a in model.ar_coeffs), model.ma_coeffs,
                     model.series_mean, model.noise_variance)
    off_err = float(np.median(np.abs(np.asarray(off.ar_coeffs) - np.asarray(workloads.GAMMA))))
    case("AR error check: coefficients shifted by 0.5", checks.check_ar_error([err]),
         checks.check_ar_error([off_err]))
    direct = [forecast.astrom_predict(model, history, k) for k in range(1, 13)]
    stepped = [forecast.conditional_expectation_predict(model, history, k) for k in range(1, 13)]
    nudged = stepped[:6] + [stepped[6] + 1e-8] + stepped[7:]
    case("predictor check: one step moved by 1e-8",
         checks.check_predictors_agree(direct, stepped),
         checks.check_predictors_agree(direct, nudged))
    n = len(y)
    one_step = np.asarray([forecast.astrom_predict(model, y[:t], 1)
                           for t in range(n - fc.tail, n)])
    actual = y[-fc.tail:]
    naive = float(np.mean(np.abs(actual - y[-fc.tail - 1:-1])))
    mae = float(np.mean(np.abs(one_step - actual)))
    # forecasts pushed away from the truth by more than the naive error
    bad = float(np.mean(np.abs(one_step + 2 * naive - actual)))
    case("naive check: forecasts offset by twice the naive error",
         checks.check_beats_naive(mae, naive), checks.check_beats_naive(bad, naive))
    counts = np.rint(y)
    diffed, head = forecast.difference(counts, 1)
    back = forecast.integrate(diffed, head, 1)
    broken = back.copy()
    broken[len(broken) // 2] += 1
    case("round-trip check: one integrated sample off by 1",
         checks.check_round_trip(counts, back), checks.check_round_trip(counts, broken))

    bad_cases = 0
    for name, clean_result, corrupt_result in cases:
        ok = not clean_result and bool(corrupt_result)
        bad_cases += not ok
        print(f"{'ok  ' if ok else 'BAD '} {name}: clean "
              f"{'passes' if not clean_result else 'FAILS ' + clean_result[0]}; corrupted "
              f"{'fails: ' + corrupt_result[0] if corrupt_result else 'PASSES'}")
    print(f"{len(cases) - bad_cases}/{len(cases)} checks pass clean output and fail corrupted")
    return 1 if bad_cases else 0


if __name__ == "__main__":
    sys.exit(main())
