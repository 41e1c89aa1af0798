"""Golden output of the README solve example.

`fleetplan solve --seed 0` with the default flags on the README instance
(standard prices, G = 10, K = 0.10, 6 vessels, 24 operators, 26 weeks,
demand from `gen-demand --horizon 26 --seed 17 --level 5 --volatility 0.3`)
must reproduce these files byte for byte.  A refactor of the search loop,
the simulator or repair that changes any of them changes the search.
"""

import hashlib
from decimal import Decimal

from fleetplan.cli import main
from fleetplan.domain import CostParams, FleetParams, save_config

STD_COSTS = CostParams(100, 50, 20, 10, 15)

SCHEDULE_SHA256 = "9400a22a62b22260a7a8add9756a283747a54a0c13c90452699ff6128739e4db"
TRACE_SHA256 = "ee54c9f2bcd7d718042aedf85ed72b2537b8e5723bd0a9e7b43e183f14c9d39a"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_readme_solve_is_byte_identical(tmp_path, capsys):
    config = tmp_path / "fleet.cfg"
    demand = tmp_path / "demand.csv"
    run_dir = tmp_path / "run"
    save_config(config, STD_COSTS,
                FleetParams(instruct_capacity=10, attrition_rate=Decimal("0.10"),
                            initial_vessels=6, initial_operators=24, horizon=26))
    assert main(["gen-demand", "--horizon", "26", "--seed", "17", "--level", "5",
                 "--volatility", "0.3", "--out", str(demand)]) == 0
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
