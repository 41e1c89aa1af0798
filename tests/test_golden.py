"""Golden outputs on the README instance.

The README instance is standard prices, G = 10, K = 0.10, 6 vessels,
24 operators, 26 weeks, demand from
`gen-demand --horizon 26 --seed 17 --level 5 --volatility 0.3`.
`fleetplan solve --seed 0` with the default flags, and a one-seed
`fleetplan bench` under the K = 0 scenario (which also runs the plain-GA
baseline), must reproduce these files byte for byte.  A refactor of the
search loop, the simulator or repair that changes any of them changes
the search.
"""

import hashlib
from decimal import Decimal

from fleetplan.cli import main
from fleetplan.domain import CostParams, FleetParams, save_config

STD_COSTS = CostParams(100, 50, 20, 10, 15)

SCHEDULE_SHA256 = "9400a22a62b22260a7a8add9756a283747a54a0c13c90452699ff6128739e4db"
TRACE_SHA256 = "ee54c9f2bcd7d718042aedf85ed72b2537b8e5723bd0a9e7b43e183f14c9d39a"
BENCH_RESULTS_SHA256 = "b14193787d717a06210f149df4328cac5a0029672e34460094fc826ad676e831"
BENCH_TRACE_HYBRID_SHA256 = "ffe0bde059d35a823b50fb1de9263779b811075bffce2058e45439312003ac2e"
BENCH_TRACE_PLAIN_SHA256 = "29d7998d8c16707e5d7e9b4860c65a18740bf02c59fb133030e44b48b2297dd3"


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
