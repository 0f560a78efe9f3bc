"""Statistical laboratory for a resonantly pumped two-level atom."""

from .core import (
    JumpSemantics,
    ModelParams,
    drift_angle,
    emission_intensity,
    no_pump_excited_population,
    reduce_angle,
    waiting_time_cdf,
    waiting_time_density,
    weak_field_delay_scale,
)
from .pde import ProbabilityField, ThetaGrid, solve
from .mc import Emissions, EmissionTimes
from .baseline import delay_function, integrate, steady_state
from .stats import DelayDistribution, KsReport, ks_test, mean_delay, scaling_regression

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
