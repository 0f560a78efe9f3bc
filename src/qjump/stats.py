"""Estimators and tests connecting simulation output to the closed forms."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

_KINDS = ("analytic", "empirical", "baseline")
MASS_TOL = 1e-3


@dataclass
class DelayDistribution:
    """Waiting-time density sampled on an increasing tau grid."""

    tau_grid: np.ndarray
    density: np.ndarray
    kind: str = "analytic"

    def __post_init__(self):
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.tau_grid.ndim != 1 or self.tau_grid.shape != self.density.shape:
            raise ValueError("tau_grid and density must be matching 1-d arrays")
        if self.tau_grid.size >= 2 and np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau_grid must be strictly increasing")
        if np.any(self.density < 0):
            raise ValueError("density must be nonnegative")
        if self.integral() > 1.0 + 1e-6:
            raise ValueError("density mass exceeds 1")

    def integral(self):
        if self.tau_grid.size < 2:
            return 0.0
        return float(np.trapezoid(self.density, self.tau_grid))

    def normalized(self):
        mass = self.integral()
        if mass <= 0:
            raise ValueError("cannot normalize a zero-mass distribution")
        return DelayDistribution(self.tau_grid, self.density / mass, self.kind)


def _kolmogorov_sf(x):
    """Limiting P(sqrt(n) D_n > x): 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2).

    Below x = 0.2 the value is 1 to within 4e-13 and the series converges
    too slowly to sum; above it 100 terms reach double precision (Marsaglia,
    Tsang and Wang, J. Stat. Softw. 8(18), 2003).
    """
    if x < 0.2:
        return 1.0
    k = np.arange(1, 101)
    series = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * x) ** 2))
    return float(np.clip(series, 0.0, 1.0))


@dataclass(frozen=True)
class KsReport:
    statistic: float
    n: int
    p_value: float
    reject_at_1pct: bool


def ks_test(samples, cdf) -> KsReport:
    """One-sample Kolmogorov-Smirnov test with the asymptotic p-value."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    if not np.isfinite(samples).all() or samples[0] < 0:
        raise ValueError("samples must be finite and nonnegative")
    f = np.asarray(cdf(samples), dtype=float)
    grid = np.arange(n + 1) / n
    stat = float(max(np.max(grid[1:] - f), np.max(f - grid[:-1])))
    p = _kolmogorov_sf(np.sqrt(n) * stat)
    return KsReport(statistic=stat, n=n, p_value=p, reject_at_1pct=p < 0.01)


def mean_delay(dist: DelayDistribution) -> float:
    """Trapezoidal mean of the distribution over its grid."""
    if dist.tau_grid.size < 2:
        raise ValueError("mean_delay needs a grid with at least two points")
    mass = dist.integral()
    if dist.kind in ("analytic", "empirical") and abs(mass - 1.0) > MASS_TOL:
        raise ValueError(
            f"{dist.kind} distribution mass {mass:.6f} deviates from 1 "
            f"by more than {MASS_TOL}"
        )
    if mass < 1.0 - MASS_TOL:
        warnings.warn(
            f"grid captures only {mass:.6f} of the mass; "
            "the mean is biased low by the missing tail",
            stacklevel=2,
        )
    return float(np.trapezoid(dist.tau_grid * dist.density, dist.tau_grid) / mass)


def empirical_delay_distribution(samples, tau_grid) -> DelayDistribution:
    """Histogram density of interarrival samples on the given grid."""
    samples = np.asarray(samples, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples")
    counts, _ = np.histogram(samples, bins=tau_grid)
    widths = np.diff(tau_grid)
    dens_bins = counts / (samples.size * widths)
    # bin densities assigned to bin midpoints, then interpolated to the grid
    mids = 0.5 * (tau_grid[:-1] + tau_grid[1:])
    density = np.interp(tau_grid, mids, dens_bins, left=0.0, right=0.0)
    dist = DelayDistribution(tau_grid, density, kind="empirical")
    return dist.normalized()


def scaling_regression(points) -> tuple[float, float]:
    """Log-log least-squares slope and r^2 of (gamma, mean_delay) pairs."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least 3 (gamma, mean_delay) pairs")
    if np.any(pts <= 0):
        raise ValueError("all values must be positive")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    if np.ptp(lx) == 0:
        raise ValueError("gamma values must hold at least two distinct numbers")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2


def l1_distance(a: DelayDistribution, b: DelayDistribution) -> float:
    """L1 distance between the unit-normalized curves on the union grid."""
    grid = np.union1d(a.tau_grid, b.tau_grid)
    an = a.normalized()
    bn = b.normalized()
    fa = np.interp(grid, an.tau_grid, an.density, left=0.0, right=0.0)
    fb = np.interp(grid, bn.tau_grid, bn.density, left=0.0, right=0.0)
    return float(np.trapezoid(np.abs(fa - fb), grid))

