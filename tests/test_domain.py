"""Core types, rounding, config and demand file I/O."""

import copy
import dataclasses
import pickle
from decimal import Decimal

import pytest

from fleetplan.domain import (
    CONFIG_KEYS, ConfigError, CostParams, DemandSeries, FleetParams,
    ProcurementPlan, gen_demand, load_config, load_demand,
    round_half_up, save_config, save_demand,
)


STD_COSTS = CostParams(Decimal("100"), Decimal("50"), Decimal("20"),
                       Decimal("10"), Decimal("15"))


class TestRounding:
    def test_half_goes_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3
        assert round_half_up(0.49) == 0

    def test_integers_fixed(self):
        for v in range(-3, 7):
            assert round_half_up(float(v)) == v


class TestParams:
    def test_cost_coercion(self):
        c = CostParams(100, 50.0, "20", Decimal("10"), 15)
        assert c.vessel_price == Decimal("100")
        assert c.operator_price == Decimal("50.0")
        assert isinstance(c.training_price, Decimal)

    @pytest.mark.parametrize("bad", [0, -1, "-0.5", float("inf"), float("nan"),
                                     "1E+18", "9E+999999"])
    def test_cost_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            CostParams(bad, 50, 20, 10, 15)

    def test_fleet_invariants(self):
        FleetParams(1, Decimal("0"), 0, 0, 1)
        FleetParams(20, Decimal("0.99"), 5, 40, 52)
        with pytest.raises(ValueError):
            FleetParams(0, Decimal("0"), 0, 0, 1)
        with pytest.raises(ValueError):
            FleetParams(1, Decimal("1"), 0, 0, 1)     # attrition must be < 1
        with pytest.raises(ValueError):
            FleetParams(1, Decimal("-0.1"), 0, 0, 1)
        with pytest.raises(ValueError):
            FleetParams(1, Decimal("0"), -1, 0, 1)
        with pytest.raises(ValueError):
            FleetParams(1, Decimal("0"), 0, -1, 1)
        with pytest.raises(ValueError):
            FleetParams(1, Decimal("0"), 0, 0, 0)

    def test_demand_series(self):
        d = DemandSeries((3, 0, 2))
        assert len(d) == 3
        assert list(d) == [3, 0, 2]
        assert d[1] == 0
        with pytest.raises(ValueError):
            DemandSeries(())
        with pytest.raises(ValueError):
            DemandSeries((1, -1))

    def test_plan_invariants(self):
        p = ProcurementPlan((1, 0), (4, 2))
        assert p.horizon == 2
        assert ProcurementPlan.zero(3).vessel_buys == (0, 0, 0)
        with pytest.raises(ValueError):
            ProcurementPlan((1,), (1, 2))
        with pytest.raises(ValueError):
            ProcurementPlan((), ())
        with pytest.raises(ValueError):
            ProcurementPlan((-1,), (0,))


class TestPlanIdentity:
    """A plan is its genes: equal genes make equal plans with equal
    hashes, however the plan was built, copied or unpickled."""

    GENES = (1, 0, 3, 4, 2, 10 ** 30)

    def plans(self):
        return ProcurementPlan((1, 0, 3), (4, 2, 10 ** 30)), ProcurementPlan._of(self.GENES)

    def test_both_constructors_agree(self):
        checked, unchecked = self.plans()
        assert checked == unchecked and not checked != unchecked
        assert hash(checked) == hash(unchecked)
        assert {checked: "a"}[unchecked] == "a"
        assert checked.genes == unchecked.genes == self.GENES

    def test_never_equal_to_a_tuple(self):
        for plan in self.plans():
            assert plan != self.GENES and self.GENES != plan
            assert not plan == self.GENES
            assert plan != (self.GENES,)
            assert self.GENES not in {plan} and plan not in {self.GENES: 0}

    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_copies_and_pickles_keep_equality_and_hash(self, hashed_first):
        for plan in self.plans():
            if hashed_first:
                hash(plan)
            for twin in (copy.copy(plan), copy.deepcopy(plan),
                         pickle.loads(pickle.dumps(plan)),
                         pickle.loads(pickle.dumps(plan, protocol=0))):
                assert type(twin) is ProcurementPlan
                assert twin == plan and hash(twin) == hash(plan)
                assert twin.genes == plan.genes

    def test_frozen_and_repr(self):
        checked, unchecked = self.plans()
        with pytest.raises(dataclasses.FrozenInstanceError):
            checked.genes = (0, 0)
        want = f"ProcurementPlan((1, 0, 3), (4, 2, {10 ** 30}))"
        assert repr(checked) == repr(unchecked) == want
        assert repr(ProcurementPlan.zero(2)) == "ProcurementPlan((0, 0), (0, 0))"


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        fleet = FleetParams(20, Decimal("0.15"), 3, 14, 12)
        path = tmp_path / "cfg.txt"
        save_config(path, STD_COSTS, fleet)
        costs2, fleet2 = load_config(path)
        assert costs2 == STD_COSTS
        assert fleet2 == fleet

    def test_comments_and_blanks(self, tmp_path):
        fleet = FleetParams(10, Decimal("0"), 2, 8, 4)
        path = tmp_path / "cfg.txt"
        save_config(path, STD_COSTS, fleet)
        text = "# fleet study\n\n" + path.read_text() + "\n  # trailing note\n"
        path.write_text(text)
        assert load_config(path) == (STD_COSTS, fleet)

    def _write_std(self, path):
        save_config(path, STD_COSTS, FleetParams(10, Decimal("0"), 2, 8, 4))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        self._write_std(path)
        path.write_text(path.read_text() + "warp_speed = 9\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        self._write_std(path)
        path.write_text(path.read_text() + "horizon = 9\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        self._write_std(path)
        kept = [l for l in path.read_text().splitlines() if not l.startswith("horizon")]
        path.write_text("\n".join(kept) + "\n")
        with pytest.raises(ConfigError, match="missing"):
            load_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        self._write_std(path)
        path.write_text(path.read_text().replace("attrition_rate = 0", "attrition_rate = soon"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_value_violating_invariant(self, tmp_path):
        path = tmp_path / "cfg.txt"
        self._write_std(path)
        path.write_text(path.read_text().replace("vessel_price = 100", "vessel_price = 0"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_not_key_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)

    def test_all_keys_covered(self):
        assert len(CONFIG_KEYS) == 10


class TestDemandIO:
    def test_round_trip(self, tmp_path):
        d = DemandSeries((5, 0, 3, 3, 7))
        path = tmp_path / "demand.csv"
        save_demand(path, d)
        assert load_demand(path) == d

    def test_header_required(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("wk,demand\n1,5\n")
        with pytest.raises(ConfigError, match="week,demand"):
            load_demand(path)

    def test_weeks_contiguous(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("week,demand\n1,5\n3,2\n")
        with pytest.raises(ConfigError, match="contiguous"):
            load_demand(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("week,demand\n1,5,9\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_demand(path)

    def test_source_column_ignored(self, tmp_path):
        path = tmp_path / "forecast.csv"
        path.write_text("week,demand,source\n1,5,observed\n2,3,forecast\n")
        assert load_demand(path) == DemandSeries((5, 3))
        path.write_text("week,demand,source\n1,5,observed\n2,3\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_demand(path)

    def test_negative_demand(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("week,demand\n1,-2\n")
        with pytest.raises(ConfigError):
            load_demand(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("week,demand\n")
        with pytest.raises(ConfigError, match="no rows"):
            load_demand(path)


class TestGenDemand:
    def test_deterministic(self):
        a = gen_demand(26, 17, 5, 0.3)
        b = gen_demand(26, 17, 5, 0.3)
        assert a == b
        assert len(a) == 26

    def test_zero_level(self):
        assert list(gen_demand(1, 0, 0, 0)) == [0]

    def test_zero_volatility_settles_at_level(self):
        d = gen_demand(50, 3, 8, 0.0)
        # pure mean reversion: converges onto the level and stays
        assert d[-1] == 8
        assert all(v == 8 for v in list(d)[10:])

    def test_mean_tracks_level(self):
        d = gen_demand(1000, 7, 50, 0.1)
        mean = sum(d) / len(d)
        assert 42.5 <= mean <= 57.5

    def test_nonnegative_always(self):
        d = gen_demand(300, 11, 2, 2.0)
        assert all(v >= 0 for v in d)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_demand(0, 1, 5, 0.1)
        with pytest.raises(ValueError):
            gen_demand(5, 1, -5, 0.1)
        with pytest.raises(ValueError):
            gen_demand(5, 1, 5, -0.1)
        with pytest.raises(ValueError, match="level must be finite"):
            gen_demand(5, 1, float("inf"), 0.1)
        with pytest.raises(ValueError, match="volatility must be finite"):
            gen_demand(5, 1, 5, float("nan"))
        with pytest.raises(ValueError, match="left the finite range"):
            gen_demand(5, 1, 1e308, 5.0)
