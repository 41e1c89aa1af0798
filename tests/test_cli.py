"""End-to-end command-line behavior: exit codes, outputs, reproducibility."""

import io
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import MAX_PREC, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fleetplan.cli import main
from fleetplan.domain import (CONFIG_KEYS, CostParams, DemandSeries, FleetParams,
                              save_config, save_demand)
from fleetplan.forecast import NoninvertibleMAError

COSTS = CostParams(Decimal("100"), Decimal("50"), Decimal("20"),
                   Decimal("10"), Decimal("15"))
FLEET = FleetParams(instruct_capacity=10, attrition_rate=Decimal("0"),
                    initial_vessels=3, initial_operators=13, horizon=6)
DEMAND = DemandSeries((2, 3, 2, 3, 2, 2))

FAST_SOLVE = ["--population", "10", "--t0", "20", "--cooling", "0.85",
              "--termination", "0.5", "--max-evals", "3000"]


@pytest.fixture
def workdir(tmp_path):
    save_config(tmp_path / "config.txt", COSTS, FLEET)
    save_demand(tmp_path / "demand.csv", DEMAND)
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


class TestGenDemand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["gen-demand", "--horizon", 30, "--seed", 7,
                    "--level", 5, "--volatility", 0.3, "--out", a]) == 0
        assert run(["gen-demand", "--horizon", 30, "--seed", 7,
                    "--level", 5, "--volatility", 0.3, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_flag_is_usage_error(self, tmp_path, capsys):
        code = run(["gen-demand", "--horizon", 30, "--seed", 7])
        capsys.readouterr()
        assert code == 2

    def test_bad_value_is_usage_error(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["gen-demand", "--horizon", 0, "--seed", 1,
                    "--level", 5, "--volatility", 0.3, "--out", out]) == 2

    def test_unwritable_out_is_io_error(self, tmp_path):
        out = tmp_path / "missing" / "deep" / "d.csv"
        assert run(["gen-demand", "--horizon", 5, "--seed", 1,
                    "--level", 5, "--volatility", 0.3, "--out", out]) == 1


class TestSolveValidate:
    def test_solve_then_validate_ok(self, workdir, capsys):
        out = workdir / "run1"
        code = run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--seed", 0, "--out-dir", out] + FAST_SOLVE)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "best cost" in stdout and "outputs in" in stdout
        assert (out / "schedule.csv").exists()
        assert (out / "trace.csv").exists()
        assert (out / "run.manifest").exists()

        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--schedule", out / "schedule.csv"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "OK"

    @pytest.mark.parametrize("scenario", ["base", "k20", "k10g20"])
    def test_scenarios_round_trip(self, workdir, scenario, capsys):
        out = workdir / f"run_{scenario}"
        code = run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--scenario", scenario,
                    "--seed", 1, "--out-dir", out] + FAST_SOLVE)
        assert code == 0
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--scenario", scenario,
                    "--schedule", out / "schedule.csv"])
        capsys.readouterr()
        assert code == 0

    def test_validate_scenario_mismatch_fails(self, workdir, capsys):
        # a schedule produced under attrition has destruction rows the
        # base scenario forbids
        out = workdir / "run_mismatch"
        assert run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--scenario", "k20",
                    "--seed", 1, "--out-dir", out] + FAST_SOLVE) == 0
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--schedule", out / "schedule.csv"])
        stdout = capsys.readouterr().out
        assert code == 4
        assert "EQ18_ATTRITION_SUPPLY" in stdout

    def test_corrupted_cell_detected(self, workdir, capsys):
        out = workdir / "run2"
        assert run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--seed", 0, "--out-dir", out] + FAST_SOLVE) == 0
        sched = out / "schedule.csv"
        lines = sched.read_text().splitlines()
        # bump robots_deployed (last count column) in week 3, and its
        # column total so the reader passes the file to the validator
        for row in (3, -1):
            parts = lines[row].split(",")
            parts[-2] = str(int(parts[-2]) + 1)
            lines[row] = ",".join(parts)
        sched.write_text("\n".join(lines) + "\n")
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--schedule", sched])
        stdout = capsys.readouterr().out
        assert code == 4
        assert "week 3" in stdout and "EQ7_USAGE" in stdout

    def test_tampered_totals_rejected(self, workdir, capsys):
        out = workdir / "run3"
        assert run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--seed", 0, "--out-dir", out] + FAST_SOLVE) == 0
        sched = out / "schedule.csv"
        lines = sched.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[-1] = str(Decimal(parts[-1]) + 5)
        lines[-1] = ",".join(parts)
        sched.write_text("\n".join(lines) + "\n")
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--schedule", sched])
        capsys.readouterr()
        assert code == 4

    def test_costs_set_to_one_rejected(self, workdir, capsys):
        # every week_cost 1 and the total row the week count: the totals
        # agree, so only the cost account can catch it
        out = workdir / "run3b"
        assert run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--seed", 0, "--out-dir", out] + FAST_SOLVE) == 0
        sched = out / "schedule.csv"
        rows = [line.split(",") for line in sched.read_text().splitlines()]
        for row in rows[1:-1]:
            row[-1] = "1"
        rows[-1][-1] = str(len(rows) - 2)
        sched.write_text("\n".join(",".join(row) for row in rows) + "\n")
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--schedule", sched])
        stdout = capsys.readouterr().out
        assert code == 4
        assert "COST_ACCOUNT" in stdout

    def test_renumbered_weeks_rejected(self, workdir, capsys):
        out = workdir / "run3c"
        assert run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--seed", 0, "--out-dir", out] + FAST_SOLVE) == 0
        sched = out / "schedule.csv"
        rows = [line.split(",") for line in sched.read_text().splitlines()]
        for row in rows[1:-1]:
            row[0] = "99"
        sched.write_text("\n".join(",".join(row) for row in rows) + "\n")
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--schedule", sched])
        stdout = capsys.readouterr().out
        assert code == 4
        assert "WEEK_INDEX" in stdout

    def test_snan_cost_rejected(self, workdir, capsys):
        out = workdir / "run3d"
        assert run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv",
                    "--seed", 0, "--out-dir", out] + FAST_SOLVE) == 0
        sched = out / "schedule.csv"
        rows = [line.split(",") for line in sched.read_text().splitlines()]
        rows[2][-1] = "sNaN"
        sched.write_text("\n".join(",".join(row) for row in rows) + "\n")
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "demand.csv", "--schedule", sched])
        assert code == 4
        assert "schedule rejected" in capsys.readouterr().err

    def test_counts_beyond_decimal_precision(self, tmp_path, capsys):
        # attrition of 10^30 units at K = 0.1 needs 30 exact digits
        save_config(tmp_path / "config.txt", COSTS,
                    FleetParams(instruct_capacity=10, attrition_rate=Decimal("0.1"),
                                initial_vessels=10 ** 30, initial_operators=5 * 10 ** 30,
                                horizon=2))
        save_demand(tmp_path / "demand.csv", DemandSeries((10 ** 30, 1)))
        files = ["--config", tmp_path / "config.txt", "--demand", tmp_path / "demand.csv"]
        out = tmp_path / "run"
        assert run(["solve", *files, "--out-dir", out, "--population", 4, "--max-evals", 20]) == 0
        assert run(["validate", *files, "--schedule", out / "schedule.csv"]) == 0
        stdout = capsys.readouterr().out
        assert "OK" in stdout
        # every total is exact: the week costs' sum, the totals row, the
        # manifest, the trace's last best cost and the printed best cost
        rows = [line.split(",") for line in (out / "schedule.csv").read_text().splitlines()]
        with localcontext(prec=MAX_PREC):
            exact = str(sum(Decimal(row[-1]) for row in rows[1:-1]))
        manifest = dict(line.split(" = ", 1)
                        for line in (out / "run.manifest").read_text().splitlines())
        trace_best = (out / "trace.csv").read_text().splitlines()[-1].split(",")[2]
        assert len(exact) > 28
        assert [rows[-1][-1], manifest["best_cost"], trace_best] == [exact] * 3
        assert f"best cost {exact}," in stdout
        # bench's median over two seeds is a mean of two, exact as well
        results = tmp_path / "bench" / "results.csv"
        assert run(["bench", *files, "--seeds", 2, "--population", 4, "--max-evals", 20,
                    "--out", results]) == 0
        capsys.readouterr()
        costs = {(row[0], row[1]): row[2]
                 for row in (line.split(",") for line in results.read_text().splitlines()[1:])}
        with localcontext(prec=MAX_PREC):
            want = (Decimal(costs["plain", "0"]) + Decimal(costs["plain", "1"])) / 2
        assert len(costs["plain", "0"]) > 28
        assert costs["plain", "median"] == str(want)
        assert costs["hybrid", "median"] == costs["hybrid", "0"] == exact

    @pytest.mark.parametrize("flags, code, message", [
        pytest.param(["--t0", "nan"], 2, "initial_temp must be finite", id="t0-nan"),
        pytest.param(["--termination", "nan"], 2, "termination_temp must be finite",
                     id="termination-nan"),
        pytest.param(["--t0", "inf"], 2, "initial_temp must be finite", id="t0-inf"),
        pytest.param(["--mutation-magnitude", "1e307"], 5, "mutation magnitude overflows",
                     id="mutation-magnitude-1e307"),
        # mutations near 10^306 breed costs whose spread no float holds
        pytest.param(["--t0", "1e308"], 5, "selection weights overflow", id="t0-1e308"),
    ])
    def test_solver_settings_past_float_range(self, workdir, capsys, flags, code, message):
        got = run(["solve", "--config", workdir / "config.txt", "--demand", workdir / "demand.csv",
                   "--out-dir", workdir / "run", "--population", 4, "--max-evals", 20, *flags])
        assert got == code
        assert message in capsys.readouterr().err

    def test_bench_selection_weights_past_float_range(self, tmp_path, capsys):
        # the plain GA's random plans on a 10^320 fleet cost up to ~10^323
        big = 10 ** 320
        save_config(tmp_path / "config.txt", COSTS,
                    FleetParams(instruct_capacity=10, attrition_rate=Decimal("0"),
                                initial_vessels=big, initial_operators=5 * big, horizon=2))
        save_demand(tmp_path / "demand.csv", DemandSeries((big, big)))
        code = run(["bench", "--config", tmp_path / "config.txt",
                    "--demand", tmp_path / "demand.csv", "--seeds", 1, "--population", 4,
                    "--max-evals", 20, "--out", tmp_path / "bench" / "results.csv"])
        assert code == 5
        assert "numerical failure: selection weights overflow" in capsys.readouterr().err

    def test_infeasible_instance_exit_3(self, workdir, capsys):
        save_demand(workdir / "hopeless.csv", DemandSeries((9, 2, 2, 2, 2, 2)))
        code = run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "hopeless.csv",
                    "--out-dir", workdir / "run4"] + FAST_SOLVE)
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_horizon_mismatch_exit_2(self, workdir, capsys):
        save_demand(workdir / "short.csv", DemandSeries((2, 2)))
        code = run(["solve", "--config", workdir / "config.txt",
                    "--demand", workdir / "short.csv",
                    "--out-dir", workdir / "run5"] + FAST_SOLVE)
        assert code == 2
        code = run(["validate", "--config", workdir / "config.txt",
                    "--demand", workdir / "short.csv", "--schedule", workdir / "none.csv"])
        assert code == 2
        assert "config horizon is 6" in capsys.readouterr().err

    def test_solve_outputs_byte_identical_across_reruns(self, workdir, capsys):
        out_a, out_b = workdir / "rep_a", workdir / "rep_b"
        args = ["solve", "--config", workdir / "config.txt",
                "--demand", workdir / "demand.csv", "--seed", 3] + FAST_SOLVE
        assert run(args + ["--out-dir", out_a]) == 0
        assert run(args + ["--out-dir", out_b]) == 0
        capsys.readouterr()
        assert (out_a / "schedule.csv").read_bytes() == (out_b / "schedule.csv").read_bytes()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        # the manifest records wall time and paths; it is the one file
        # that may differ
        assert (out_a / "run.manifest").exists()

    def test_solve_counters(self, workdir, capsys):
        out_a, out_b = workdir / "stats_a", workdir / "stats_b"
        args = ["solve", "--config", workdir / "config.txt",
                "--demand", workdir / "demand.csv", "--seed", 3] + FAST_SOLVE
        assert run(args + ["--out-dir", out_a]) == 0
        assert run(args + ["--out-dir", out_b]) == 0
        capsys.readouterr()
        assert (out_a / "stats.csv").read_bytes() == (out_b / "stats.csv").read_bytes()
        lines = (out_a / "stats.csv").read_text().splitlines()
        assert lines[0] == "counter,value"
        stats = {name: int(value) for name, value in (line.split(",") for line in lines[1:])}
        assert list(stats) == ["evaluations", "cache_hits", "unrepairable", "bumps_vessels",
                               "bumps_operators", "bumps_instructors", "instructor_clamps",
                               "rows_stepped", "kernel_rounds", "greedy_reductions"]
        manifest = dict(line.split(" = ", 1)
                        for line in (out_a / "run.manifest").read_text().splitlines())
        assert stats["evaluations"] == int(manifest["evals_total"])
        # every evaluation steps at least the horizon's six weeks
        assert stats["rows_stepped"] >= 6 * stats["evaluations"]
        assert 6 <= stats["kernel_rounds"] <= stats["rows_stepped"]
        # wall times go to the manifest only
        for phase in ("seed_reduce_ms", "ga_loop_ms", "final_simulate_ms"):
            assert int(manifest[phase]) >= 0


class TestForecastCommand:
    @pytest.fixture
    def demand104(self, tmp_path):
        path = tmp_path / "demand104.csv"
        assert run(["gen-demand", "--horizon", 104, "--seed", 11,
                    "--level", 6, "--volatility", 0.25, "--out", path]) == 0
        return path

    def test_forecast_appends_rows(self, demand104, tmp_path, capsys):
        out = tmp_path / "fc"
        code = run(["forecast", "--demand", demand104, "--order", "3,1,4",
                    "--horizon", 8, "--out-dir", out])
        assert code == 0
        assert "forecast 8 weeks" in capsys.readouterr().out
        rows = (out / "forecast.csv").read_text().splitlines()
        assert rows[0] == "week,demand,source"
        observed = [r for r in rows[1:] if r.endswith(",observed")]
        forecast = [r for r in rows[1:] if r.endswith(",forecast")]
        assert len(observed) == 104 and len(forecast) == 8
        assert forecast[0].startswith("105,")
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == "lag,acf,pacf"
        assert diag[-2] == "Q,df,pass,r_squared"
        manifest = dict(line.split(" = ", 1)
                        for line in (out / "run.manifest").read_text().splitlines())
        assert float(manifest["rls_covariance_trace"]) > 0.0
        assert float(manifest["rls_covariance_condition"]) >= 1.0

    def test_forecast_deterministic(self, demand104, tmp_path, capsys):
        a, b = tmp_path / "fa", tmp_path / "fb"
        args = ["forecast", "--demand", demand104, "--order", "2,1,2",
                "--horizon", 6, "--lambda", 0.97]
        assert run(args + ["--out-dir", a]) == 0
        assert run(args + ["--out-dir", b]) == 0
        capsys.readouterr()
        assert (a / "forecast.csv").read_bytes() == (b / "forecast.csv").read_bytes()
        assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()

    def test_order_all_zero_rejected(self, demand104, tmp_path, capsys):
        code = run(["forecast", "--demand", demand104, "--order", "0,0,0",
                    "--horizon", 4, "--out-dir", tmp_path / "fz"])
        capsys.readouterr()
        assert code == 2

    def test_order_malformed_rejected(self, demand104, tmp_path, capsys):
        code = run(["forecast", "--demand", demand104, "--order", "3;1;4",
                    "--horizon", 4, "--out-dir", tmp_path / "fm"])
        capsys.readouterr()
        assert code == 2

    def test_bad_lambda_rejected(self, demand104, tmp_path, capsys):
        code = run(["forecast", "--demand", demand104, "--order", "1,0,0",
                    "--horizon", 4, "--lambda", 0.5, "--out-dir", tmp_path / "fl"])
        capsys.readouterr()
        assert code == 2

    def test_split_precision_loss_exit_5(self, demand104, tmp_path, capsys):
        # twelve differences 81 steps out: F's terms swamp the split's check
        code = run(["forecast", "--demand", demand104, "--order", "0,12,0",
                    "--horizon", 81, "--out-dir", tmp_path / "fs"])
        assert code == 5
        assert "polynomial split lost the low-order terms" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_prediction_exit_5(self, tmp_path, capsys):
        # demand tripling weekly fits an AR(1) near 3, whose far predictions
        # overflow to inf
        demand = tmp_path / "tripling.csv"
        save_demand(demand, DemandSeries(tuple(3 ** i for i in range(40))))
        code = run(["forecast", "--demand", demand, "--order", "1,0,0",
                    "--horizon", 700, "--out-dir", tmp_path / "fo"])
        assert code == 5
        assert "prediction is inf" in capsys.readouterr().err

    def test_forecast_then_solve_then_validate(self, tmp_path, capsys):
        # forecast.csv is a demand file: solve plans over the observed
        # weeks and the forecast ones, and validate accepts the schedule
        history = tmp_path / "history.csv"
        assert run(["gen-demand", "--horizon", 40, "--seed", 11,
                    "--level", 3, "--volatility", 0.25, "--out", history]) == 0
        assert run(["forecast", "--demand", history, "--order", "1,0,1",
                    "--horizon", 4, "--out-dir", tmp_path / "fc"]) == 0
        config = tmp_path / "config.txt"
        save_config(config, COSTS, FleetParams(instruct_capacity=10,
                                               attrition_rate=Decimal("0.1"),
                                               initial_vessels=6, initial_operators=24,
                                               horizon=44))
        files = ["--config", config, "--demand", tmp_path / "fc" / "forecast.csv"]
        assert run(["solve", *files, "--seed", 0, "--out-dir", tmp_path / "run"]
                   + FAST_SOLVE) == 0
        assert run(["validate", *files, "--schedule", tmp_path / "run" / "schedule.csv"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_numerical_failure_exit_5(self, demand104, tmp_path, capsys, monkeypatch):
        def boom(*a, **kw):
            raise NoninvertibleMAError("synthetic failure")
        monkeypatch.setattr("fleetplan.cli.rls_fit", boom)
        code = run(["forecast", "--demand", demand104, "--order", "1,0,1",
                    "--horizon", 4, "--out-dir", tmp_path / "f5"])
        assert code == 5
        assert "numerical failure" in capsys.readouterr().err


class TestBench:
    def test_bench_csv_and_reruns(self, workdir, capsys):
        out_csv = workdir / "bench" / "results.csv"
        args = ["bench", "--config", workdir / "config.txt",
                "--demand", workdir / "demand.csv", "--seeds", 2,
                "--population", 8, "--t0", 10, "--cooling", "0.8",
                "--termination", "0.5", "--max-evals", 2000,
                "--traces", "--out", out_csv]
        assert run(args) == 0
        stdout = capsys.readouterr().out
        assert "hybrid median cost" in stdout

        lines = out_csv.read_text().splitlines()
        assert lines[0] == "method,seed,best_cost,iterations_to_best,wall_ms"
        body = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in body] == ["hybrid", "plain"] * 2 + ["hybrid", "plain"]
        assert body[-2][1] == body[-1][1] == "median"
        assert all(r[-1] == "0" for r in body)  # wall stays out of the data
        for seed in (0, 1):
            assert (out_csv.parent / f"trace_hybrid_seed{seed}.csv").exists()
            assert (out_csv.parent / f"trace_plain_seed{seed}.csv").exists()
        assert (out_csv.parent / "run.manifest").exists()

        # identical rerun into a sibling directory is byte-identical on
        # every data file
        out2 = workdir / "bench2" / "results.csv"
        args2 = [("--out" if a == "--out" else a) for a in args]
        args2[args2.index(out_csv)] = out2
        assert run(args2) == 0
        capsys.readouterr()
        assert out_csv.read_bytes() == out2.read_bytes()
        for seed in (0, 1):
            for stem in (f"trace_hybrid_seed{seed}.csv", f"trace_plain_seed{seed}.csv"):
                assert (out_csv.parent / stem).read_bytes() == (out2.parent / stem).read_bytes()


    @pytest.mark.parametrize("argv, message", [
        pytest.param(["bench", "--seeds", 0], "seeds must be >= 1", id="bench-seeds-0"),
        pytest.param(["bench", "--seeds", 1, "--population", 1],
                     "population_size must be >= 2", id="bench-population-1"),
        pytest.param(["bench", "--seeds", 1, "--cooling", 1.5],
                     "cooling_coeff must lie in (0, 1)", id="bench-cooling-1.5"),
        pytest.param(["forecast", "--order", "1,0,0", "--horizon", 4, "--lambda", 0.5],
                     "forgetting factor must lie in (0.9, 1]", id="forecast-lambda-0.5"),
    ])
    def test_zero_seeds_rejected_up_front(self, workdir, capsys, argv, message):
        # a usage error leaves no output directory behind
        out_dir = workdir / "rejected"
        outputs = {"bench": ["--config", workdir / "config.txt", "--demand", workdir / "demand.csv",
                             "--out", out_dir / "results.csv"],
                   "forecast": ["--demand", workdir / "demand.csv", "--out-dir", out_dir]}
        code = run(argv + outputs[argv[0]])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()


class TestFuzzedInputs:
    """Malformed or extreme input ends in a documented exit code, never a
    traceback out of main()."""

    @settings(max_examples=40, deadline=None)
    @given(key=st.sampled_from(CONFIG_KEYS),
           raw=st.one_of(st.sampled_from(["9E+999999", "NaN", "-0", "1E-999999", "sNaN",
                                          "-Infinity", "1E+18", "999999999999999999.9",
                                          "0.5", "1e3", "99999999999999999999", ""]),
                         st.decimals().map(str),
                         st.integers().map(str),
                         st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)))
    @example(key="vessel_price", raw="9E+999999")
    def test_config_value(self, key, raw):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_config(tmp / "config.txt", COSTS, FLEET)
            lines = (tmp / "config.txt").read_text().splitlines()
            (tmp / "config.txt").write_text("\n".join(
                f"{key} = {raw}" if line.startswith(f"{key} =") else line
                for line in lines) + "\n")
            save_demand(tmp / "demand.csv", DEMAND)
            code = run(["solve", "--config", tmp / "config.txt", "--demand", tmp / "demand.csv",
                        "--out-dir", tmp / "run", "--population", 4, "--max-evals", 20])
        assert code in range(6)

    @settings(max_examples=40, deadline=None)
    @given(level=st.floats(), volatility=st.floats())
    @example(level=1e308, volatility=float("inf"))
    @example(level=float("inf"), volatility=0.3)
    def test_gen_demand_floats(self, level, volatility):
        with tempfile.TemporaryDirectory() as tmp:
            code = run(["gen-demand", "--horizon", 3, "--seed", 2, f"--level={level!r}",
                        f"--volatility={volatility!r}", "--out", Path(tmp) / "g.csv"])
        assert code in range(6)


@pytest.fixture(scope="module")
def solved_k20(tmp_path_factory):
    """A schedule solved under attrition (the k20 scenario) and its inputs."""
    tmp = tmp_path_factory.mktemp("solved_k20")
    save_config(tmp / "config.txt", COSTS, FLEET)
    save_demand(tmp / "demand.csv", DEMAND)
    files = ["--config", tmp / "config.txt", "--demand", tmp / "demand.csv",
             "--scenario", "k20"]
    assert run(["solve", *files, "--seed", 0, "--out-dir", tmp / "run"] + FAST_SOLVE) == 0
    return files, (tmp / "run" / "schedule.csv").read_text()


def _retotal(rows):
    """Set each totals cell to its column's sum wherever the column still parses."""
    for col, kind in enumerate([int] * 11 + [Decimal], start=1):
        try:
            rows[-1][col] = str(sum((kind(row[col]) for row in rows[1:-1]), kind(0)))
        except (ValueError, ArithmeticError):
            pass


class TestFuzzedSchedule:
    """A schedule with one cell replaced is accepted (exit 0) or rejected
    (exit 4), never a traceback out of main().  An "@" in the new text
    stands for the cell's old value."""

    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(1, len(DEMAND) + 1), col=st.integers(0, 12),
           text=st.one_of(st.integers(-10 ** 40, 10 ** 40).map(str),
                          st.sampled_from(["nan", "NaN", "sNaN", "inf", "-Infinity", "1e30",
                                           "", "total", "garbage", "1.5", "-0"]),
                          st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)),
           retotal=st.booleans())
    @example(row=len(DEMAND) + 1, col=1, text="999", retotal=False)
    @example(row=len(DEMAND) + 1, col=5, text="-7", retotal=False)
    @example(row=len(DEMAND) + 1, col=12, text="@\ngarbage", retotal=False)
    @example(row=1, col=11, text=str(10 ** 30), retotal=True)
    # totals are summed exactly, so the reader bounds a cost's exponent
    # before a sum could need 10^9 digits
    @example(row=2, col=12, text="1E-999999999", retotal=True)
    def test_schedule_cell(self, solved_k20, row, col, text, retotal):
        files, schedule = solved_k20
        rows = [line.split(",") for line in schedule.splitlines()]
        rows[row][col] = text.replace("@", rows[row][col])
        if retotal:
            _retotal(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "schedule.csv"
            path.write_text("\n".join(",".join(r) for r in rows) + "\n")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run(["validate", *files, "--schedule", path])
        assert code in (0, 4)


class TestFuzzedDemand:
    """A demand CSV with one cell replaced ends in a documented exit code
    under solve and under validate, never a traceback out of main()."""

    @settings(max_examples=60, deadline=None)
    @given(row=st.integers(1, len(DEMAND)), col=st.integers(0, 1),
           text=st.one_of(st.integers(-10 ** 40, 10 ** 40).map(str),
                          st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "", "week",
                                           "demand", "1.5", "1e3", "-0", " 2"]),
                          st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)))
    @example(row=3, col=1, text=str(10 ** 30))  # past int64: the kernel runs on Python ints
    def test_demand_cell(self, solved_k20, row, col, text):
        files, schedule = solved_k20
        rows = [line.split(",") for line in files[3].read_text().splitlines()]
        rows[row][col] = text
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            demand = tmp / "demand.csv"
            demand.write_text("\n".join(",".join(r) for r in rows) + "\n")
            (tmp / "schedule.csv").write_text(schedule)
            inputs = ["--config", files[1], "--demand", demand, "--scenario", "k20"]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                solved = run(["solve", *inputs, "--out-dir", tmp / "run", "--population", 4,
                              "--max-evals", 20])
                checked = run(["validate", *inputs, "--schedule", tmp / "schedule.csv"])
        assert solved in range(6)
        assert checked in range(6)


def _fuzz_text(ints):
    return st.one_of(ints.map(str),
                     st.sampled_from(["", "nan", "inf", "-inf", "-1", "0", "1.5", "-0.5",
                                      "1e3", "0.9", "3,1", "3,1,4,1"]),
                     st.floats().map(repr),
                     st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))


class TestFuzzedForecast:
    """forecast with one of --order, --horizon, --lambda or --max-lag
    replaced ends in a documented exit code, never a traceback out of
    main().  Horizons stay at or below 10^3: a horizon of 10^9 would ask
    the trend for gigabytes, and is left untested."""

    @pytest.fixture(scope="class")
    def demand104(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzzed_forecast") / "demand104.csv"
        assert run(["gen-demand", "--horizon", 104, "--seed", 11,
                    "--level", 6, "--volatility", 0.25, "--out", path]) == 0
        return path

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), flag=st.sampled_from(["order", "horizon", "lambda", "max-lag"]))
    def test_flag(self, demand104, data, flag):
        flags = {"order": "3,1,4", "horizon": "8", "lambda": "0.98", "max-lag": "20"}
        if flag == "horizon":
            text = data.draw(_fuzz_text(st.integers(-10 ** 40, 10 ** 3)))
        else:
            text = data.draw(_fuzz_text(st.integers(-10 ** 40, 10 ** 40)))
        if flag == "order" and data.draw(st.booleans()):
            parts = flags["order"].split(",")
            parts[data.draw(st.integers(0, 2))] = text
            text = ",".join(parts)
        flags[flag] = text
        with tempfile.TemporaryDirectory() as tmp:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run(["forecast", "--demand", demand104, "--out-dir", Path(tmp) / "fc",
                            *(f"--{name}={value}" for name, value in flags.items())])
        assert code in range(6)


# the fuzzed solve and bench flags; seed only solve has, seeds and
# seed-base only bench
_RUN_FLAGS = ("seed", "seeds", "seed-base", "scenario", "population", "t0", "cooling",
              "termination", "crossover-rate", "mutation-rate", "mutation-magnitude",
              "max-evals")
# the largest value drawn for a flag whose larger values only make a run long
_RUN_LENGTH_CAPS = {"population": 12, "seeds": 3, "max-evals": 200}


def _run_flag_case(flag):
    floats = (st.floats(max_value=0.99) | st.floats(min_value=1.0) if flag == "cooling"
              else st.floats())
    text = st.one_of(st.integers(-10 ** 40, _RUN_LENGTH_CAPS.get(flag, 10 ** 40)).map(str),
                     st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "-0", "0",
                                      "", " ", "base", "k20", "fast"]),
                     floats.map(repr),
                     st.text(st.characters(blacklist_categories=("Cs",)), max_size=12))
    return st.tuples(st.just(flag), text)


class TestFuzzedRunFlags:
    """solve or bench with one of its own flags replaced ends in a
    documented exit code, never a traceback out of main().  Population,
    seeds and max-evals are drawn at or below _RUN_LENGTH_CAPS, and
    cooling outside (0.99, 1), since larger values only make a run long
    and are left untested."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzzed_run_flags")
        save_config(tmp / "config.txt", COSTS, FLEET)
        save_demand(tmp / "demand.csv", DEMAND)
        return ["--config", tmp / "config.txt", "--demand", tmp / "demand.csv"]

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(_RUN_FLAGS).flatmap(_run_flag_case), bench=st.booleans())
    @example(case=("t0", "nan"), bench=False)
    @example(case=("termination", "nan"), bench=False)
    @example(case=("t0", "inf"), bench=True)
    @example(case=("mutation-magnitude", "1e307"), bench=False)
    @example(case=("t0", "1e308"), bench=True)
    def test_flag(self, inputs, case, bench):
        flag, text = case
        bench = flag in ("seeds", "seed-base") or (bench and flag != "seed")
        flags = {"population": "4", "t0": "20", "cooling": "0.85", "termination": "0.5",
                 "max-evals": "20"}
        flags[flag] = text
        with tempfile.TemporaryDirectory() as tmp:
            out = (["bench", "--seeds=1", "--out", Path(tmp) / "bench" / "results.csv"] if bench
                   else ["solve", "--out-dir", Path(tmp) / "run"])
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = run([*out, *inputs, *(f"--{name}={value}" for name, value in flags.items())])
        assert code in range(6)


class TestConsoleScript:
    def test_version_runs(self):
        exe = shutil.which("fleetplan")
        if exe is None:
            pytest.skip("console script not installed")
        got = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert got.returncode == 0
        assert got.stdout.startswith("fleetplan ")

    def test_module_help(self):
        got = subprocess.run([sys.executable, "-c",
                              "from fleetplan.cli import main; raise SystemExit(main(['--help']))"],
                             capture_output=True, text=True)
        assert got.returncode == 0
        assert "gen-demand" in got.stdout
