"""Statistical laboratory for a resonantly pumped two-level atom."""

from .core import (
    JumpSemantics,
    ModelParams,
    drift_angle,
    emission_intensity,
    jump_hazard,
    no_pump_emission_probability,
    no_pump_excited_population,
    no_pump_final_state,
    reduce_angle,
    waiting_time_cdf,
    waiting_time_density,
    weak_field_delay_scale,
)
from .pde import ProbabilityField, ThetaGrid, init_delta, populations, solve, step
from .mc import Emissions, EmissionTimes
from .baseline import DensityMatrix2, delay_function, integrate
from .stats import DelayDistribution, KsReport, ks_test, mean_delay, scaling_regression

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
