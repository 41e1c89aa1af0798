"""Core domain types, config file I/O, and synthetic demand generation.

Money is held as Decimal throughout so weekly cost sums are exact and
reproducible byte-for-byte across platforms.  Counts are plain ints.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from pathlib import Path
from random import Random


class ConfigError(ValueError):
    """A config or demand file could not be parsed or failed validation."""


class NumericalBreakdownError(ArithmeticError):
    """A computed value lost finiteness or the precision it needs."""


def round_half_up(x: float) -> int:
    """Round a float to the nearest integer with ties going up (0.5 -> 1)."""
    return math.floor(x + 0.5)


# Prices must lie below this, so a week's cost (counts times prices,
# summed) stays far inside Decimal's exponent range.
PRICE_CEILING = Decimal("1E+18")


@dataclass(frozen=True)
class CostParams:
    """Unit prices: purchase, training, and weekly maintenance."""

    vessel_price: Decimal
    operator_price: Decimal
    training_price: Decimal
    operator_maint_price: Decimal
    vessel_maint_price: Decimal

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, Decimal):
                object.__setattr__(self, f.name, Decimal(str(v)))
                v = getattr(self, f.name)
            if not v.is_finite() or v <= 0:
                raise ValueError(f"{f.name} must be a positive finite amount, got {v}")
            if v >= PRICE_CEILING:
                raise ValueError(f"{f.name} must be below {PRICE_CEILING}, got {v}")


@dataclass(frozen=True)
class FleetParams:
    """Fleet-level settings: training capacity, attrition, initial stock, horizon."""

    instruct_capacity: int
    attrition_rate: Decimal
    initial_vessels: int
    initial_operators: int
    horizon: int

    def __post_init__(self):
        if not isinstance(self.attrition_rate, Decimal):
            object.__setattr__(self, "attrition_rate", Decimal(str(self.attrition_rate)))
        if self.instruct_capacity < 1:
            raise ValueError(f"instruct_capacity must be >= 1, got {self.instruct_capacity}")
        if not self.attrition_rate.is_finite() or not (0 <= self.attrition_rate < 1):
            raise ValueError(f"attrition_rate must lie in [0, 1), got {self.attrition_rate}")
        if self.initial_vessels < 0:
            raise ValueError(f"initial_vessels must be >= 0, got {self.initial_vessels}")
        if self.initial_operators < 0:
            raise ValueError(f"initial_operators must be >= 0, got {self.initial_operators}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class DemandSeries:
    """Weekly deployment demand, week 1 first."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if len(self.values) < 1:
            raise ValueError("demand series must cover at least one week")
        for i, v in enumerate(self.values, start=1):
            if v < 0:
                raise ValueError(f"demand for week {i} must be >= 0, got {v}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True, init=False, repr=False, eq=False, slots=True)
class ProcurementPlan:
    """Decision variables: vessels and operators to buy each week.

    The plan is one gene tuple, the H vessel buys and then the H operator
    buys; vessel_buys, operator_buys and horizon are read from it.  Plans
    are equal when their genes are, and a plan hashes its genes once, on
    first use: the evaluator keys several dicts by each bred plan.
    """

    genes: tuple[int, ...]
    _hash: int | None

    def __init__(self, vessel_buys, operator_buys):
        vessel_buys, operator_buys = tuple(map(int, vessel_buys)), tuple(map(int, operator_buys))
        if len(vessel_buys) != len(operator_buys):
            raise ValueError("vessel and operator buy vectors must have equal length")
        if len(vessel_buys) < 1:
            raise ValueError("plan must cover at least one week")
        for name, values in (("vessel_buys", vessel_buys), ("operator_buys", operator_buys)):
            if min(values) < 0:
                i = next(i for i, v in enumerate(values) if v < 0)
                raise ValueError(f"{name} for week {i + 1} must be >= 0, got {values[i]}")
        object.__setattr__(self, "genes", vessel_buys + operator_buys)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, genes: tuple[int, ...]) -> "ProcurementPlan":
        """A plan of genes that already hold what __init__ checks: 2H >= 2
        ints, none negative.  Breeding and repair build plans this way,
        since they only swap, floor at zero or add units."""
        plan = object.__new__(cls)
        object.__setattr__(plan, "genes", genes)
        object.__setattr__(plan, "_hash", None)
        return plan

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.genes == other.genes
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.genes)
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # copies and pickles carry the genes alone and hash them afresh
        return self._of, (self.genes,)

    @property
    def horizon(self) -> int:
        return len(self.genes) // 2

    @property
    def vessel_buys(self) -> tuple[int, ...]:
        return self.genes[:len(self.genes) // 2]

    @property
    def operator_buys(self) -> tuple[int, ...]:
        return self.genes[len(self.genes) // 2:]

    def __repr__(self) -> str:
        return f"ProcurementPlan({self.vessel_buys!r}, {self.operator_buys!r})"

    @classmethod
    def zero(cls, horizon: int) -> "ProcurementPlan":
        return cls((0,) * horizon, (0,) * horizon)


# config file format: one "key = value" per line, '#' starts a comment line
_COST_KEYS = ("vessel_price", "operator_price", "training_price",
              "operator_maint_price", "vessel_maint_price")
_FLEET_KEYS = ("instruct_capacity", "attrition_rate", "initial_vessels",
               "initial_operators", "horizon")
CONFIG_KEYS = _COST_KEYS + _FLEET_KEYS


def _parse_decimal(key: str, raw: str) -> Decimal:
    try:
        return Decimal(raw)
    except InvalidOperation:
        raise ConfigError(f"{key}: not a decimal number: {raw!r}") from None


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from None


def load_config(path: str | Path) -> tuple[CostParams, FleetParams]:
    """Read a key = value config file into (CostParams, FleetParams).

    Unknown, duplicate, or missing keys raise ConfigError naming the key,
    as do values that fail a field invariant.
    """
    seen: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key: {key}")
        if key in seen:
            raise ConfigError(f"duplicate key: {key}")
        seen[key] = raw
    missing = [k for k in CONFIG_KEYS if k not in seen]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    try:
        costs = CostParams(*(_parse_decimal(k, seen[k]) for k in _COST_KEYS))
        fleet = FleetParams(
            instruct_capacity=_parse_int("instruct_capacity", seen["instruct_capacity"]),
            attrition_rate=_parse_decimal("attrition_rate", seen["attrition_rate"]),
            initial_vessels=_parse_int("initial_vessels", seen["initial_vessels"]),
            initial_operators=_parse_int("initial_operators", seen["initial_operators"]),
            horizon=_parse_int("horizon", seen["horizon"]),
        )
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e)) from None
    return costs, fleet


def save_config(path: str | Path, costs: CostParams, fleet: FleetParams) -> None:
    """Write params in the same format load_config reads; exact round trip."""
    lines = []
    for key in _COST_KEYS:
        lines.append(f"{key} = {getattr(costs, key)}")
    for key in _FLEET_KEYS:
        lines.append(f"{key} = {getattr(fleet, key)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_demand(path: str | Path) -> DemandSeries:
    """Read a week,demand CSV; weeks must run 1..N contiguously.

    A week,demand,source file, such as the forecast.csv that forecast
    writes, reads the same way: each row still needs all three cells,
    and the source cell is ignored.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (["week", "demand"], ["week", "demand", "source"]):
            raise ConfigError(f"demand file must start with 'week,demand' "
                              f"or 'week,demand,source', got {header}")
        values = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ConfigError(f"malformed demand row: {row}")
            week = _parse_int("week", row[0])
            if week != len(values) + 1:
                raise ConfigError(f"weeks must be contiguous from 1, got week {week}")
            values.append(_parse_int("demand", row[1]))
    if not values:
        raise ConfigError("demand file has no rows")
    try:
        return DemandSeries(tuple(values))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def save_demand(path: str | Path, demand: DemandSeries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["week", "demand"])
        for week, value in enumerate(demand, start=1):
            writer.writerow([week, value])


def gen_demand(horizon: int, seed: int, level: float, volatility: float) -> DemandSeries:
    """Deterministic mean-reverting random walk around level, clamped at 0.

    The shock term is a scaled sum of 12 uniforms (variance 1), which keeps
    the generator free of transcendental calls so output is bit-identical
    across platforms.  Reversion strength 0.3 holds the long-run mean near
    level while leaving week-to-week structure for the forecaster to chew on.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for name, value in (("level", level), ("volatility", volatility)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if volatility < 0:
        raise ValueError(f"volatility must be >= 0, got {volatility}")
    rng = Random(seed)
    scale = volatility * level
    x = float(level)
    out = []
    for week in range(1, horizon + 1):
        shock = (sum(rng.random() for _ in range(12)) - 6.0) * scale
        x = x + 0.3 * (level - x) + shock
        if not math.isfinite(x):
            raise ValueError(f"demand walk left the finite range in week {week}; "
                             f"level {level} and volatility {volatility} are too large")
        if x < 0.0:
            x = 0.0
        out.append(round_half_up(x))
    return DemandSeries(tuple(out))
