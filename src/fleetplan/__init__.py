"""fleetplan: weekly fleet procurement planning.

Builds minimum-cost weekly purchase schedules for a vessel-and-operator
fleet under maintenance turnover, training capacity, commissioning lead
times, and attrition, with a greedy-seeded hybrid of a genetic algorithm
and annealing temperature control.  A forecasting module extends the
demand history when future weeks are unknown.
"""

from .domain import (CostParams, DemandSeries, FleetParams, ProcurementPlan,
                     gen_demand, load_config, load_demand, save_config, save_demand)
from .forecast import ArimaModel, ArimaOrder, forecast_demand, rls_fit
from .greedy import reduce_plan, seed_plan
from .metaheuristic import AnnealSchedule, SolverConfig, solve, solve_plain_ga
from .model import Schedule, Violation, repair, simulate, validate

__all__ = [
    "AnnealSchedule", "ArimaModel", "ArimaOrder", "CostParams", "DemandSeries",
    "FleetParams", "ProcurementPlan", "Schedule", "SolverConfig", "Violation",
    "forecast_demand", "gen_demand", "load_config", "load_demand", "reduce_plan",
    "repair", "rls_fit", "save_config", "save_demand", "seed_plan", "simulate",
    "solve", "solve_plain_ga", "validate",
]

__version__ = "0.1.0"
