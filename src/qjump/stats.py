"""Estimators and tests connecting simulation output to the closed forms."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

_KINDS = ("analytic", "empirical", "baseline")
MASS_TOL = 1e-3
_KS_CHUNK = 1 << 14  # samples per cdf call in ks_test


def _finite(name, values):
    """`values` as a float array, or a ValueError naming `name`."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


@dataclass
class DelayDistribution:
    """Waiting-time density sampled on an increasing tau grid."""

    tau_grid: np.ndarray
    density: np.ndarray
    kind: str = "analytic"

    def __post_init__(self):
        self.tau_grid = _finite("tau_grid", self.tau_grid)
        self.density = _finite("density", self.density)
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.tau_grid.ndim != 1 or self.tau_grid.shape != self.density.shape:
            raise ValueError("tau_grid and density must be matching 1-d arrays")
        if self.tau_grid.size < 2:
            raise ValueError("tau_grid must hold at least two points")
        steps = np.diff(self.tau_grid)
        if not np.all((steps > 0) & (steps < np.inf)):
            raise ValueError("tau_grid must be strictly increasing in finite steps")
        if np.any(self.density < 0):
            raise ValueError("density must be nonnegative")
        if self.integral() > 1.0 + 1e-6:
            raise ValueError("density mass exceeds 1")

    def integral(self):
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
    """One-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    `cdf` is called on consecutive chunks of the sorted samples, so it must
    act elementwise.  Sorted samples are not copied.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 10:
        raise ValueError(f"ks_test needs at least 10 samples, got {n}")
    if not np.all(samples[1:] >= samples[:-1]):  # NaN fails it
        samples = np.sort(samples)
    # sorted, with any NaN last: the ends alone can be negative or non-finite
    if not (samples[0] >= 0 and samples[-1] < np.inf):
        raise ValueError("samples must be finite and nonnegative")
    stat = -np.inf  # max over k of (k + 1)/n - F and F - k/n
    for a in range(0, n, _KS_CHUNK):
        x = samples[a : a + _KS_CHUNK]
        f = _finite("cdf", cdf(x))
        grid = np.arange(a, a + x.size + 1) / n
        stat = max(stat, np.max(grid[1:] - f), np.max(f - grid[:-1]))
    stat = float(stat)
    p = _kolmogorov_sf(np.sqrt(n) * stat)
    return KsReport(statistic=stat, n=n, p_value=p, reject_at_1pct=p < 0.01)


def mean_delay(dist: DelayDistribution) -> float:
    """Trapezoidal mean of the distribution over its grid."""
    mass = dist.integral()
    if mass <= 0:
        raise ValueError("density has no mass")
    if dist.kind in ("analytic", "empirical") and abs(mass - 1.0) > MASS_TOL:
        raise ValueError(
            f"{dist.kind} density mass {mass:.6f} deviates from 1 "
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
    samples = _finite("samples", samples)
    # DelayDistribution's checks of the grid
    tau_grid = DelayDistribution(tau_grid, np.zeros(np.shape(tau_grid))).tau_grid
    if samples.size == 0:
        raise ValueError("samples must not be empty")
    counts, _ = np.histogram(samples, bins=tau_grid)
    with np.errstate(all="ignore"):  # a non-finite result is refused below
        dens_bins = counts / (samples.size * np.diff(tau_grid))
        # bin densities assigned to bin midpoints, then interpolated to the
        # grid; across a wide bin interp can round a near-0 value below 0
        mids = 0.5 * (tau_grid[:-1] + tau_grid[1:])
        density = np.interp(tau_grid, mids, dens_bins, left=0.0, right=0.0)
        density = np.maximum(density, 0.0)
        density = density / np.trapezoid(density, tau_grid)
    if not np.isfinite(density).all():
        raise ValueError("samples must give a finite, nonzero mass on tau_grid")
    return DelayDistribution(tau_grid, density, kind="empirical")


def scaling_regression(points) -> tuple[float, float]:
    """Log-log least-squares slope and r^2 of (gamma, mean_delay) pairs."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("points must hold at least 3 (gamma, mean_delay) pairs")
    if not np.all(np.isfinite(pts) & (pts > 0)):
        raise ValueError("points must be finite and positive")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    if np.ptp(lx) == 0:
        raise ValueError("points must hold at least two distinct gamma values")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2


def l1_distance(a: DelayDistribution, b: DelayDistribution) -> float:
    """L1 distance between the unit-normalized curves on the union grid."""
    for name, dist in (("a", a), ("b", b)):
        if not dist.integral() > 0:
            raise ValueError(f"curve {name} has zero mass and cannot be normalized")
    # np.union1d's sort and distinct-neighbour mask; np.union1d imports numpy.ma
    grid = np.sort(np.concatenate([a.tau_grid, b.tau_grid]))
    grid = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    fa = _interp(grid, a.normalized())
    fb = _interp(grid, b.normalized())
    return float(np.trapezoid(np.abs(fa - fb), grid))


def _interp(x, dist):
    """The density of `dist` at x, linear between its grid points, 0 outside.

    np.interp forms each interval's slope, which overflows over a tiny
    spacing where every density is finite; there the interval fraction
    (x - x0)/(x1 - x0) takes its place."""
    xp, fp = dist.tau_grid, dist.density
    f = np.interp(x, xp, fp, left=0.0, right=0.0)
    steep = ~np.isfinite(f)
    if steep.any():  # strictly inside an interval: np.interp returns fp at xp
        x = x[steep]
        k = np.searchsorted(xp, x) - 1
        f[steep] = fp[k] + (fp[k + 1] - fp[k]) * ((x - xp[k]) / (xp[k + 1] - xp[k]))
    return f

