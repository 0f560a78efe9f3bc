"""Event-driven Monte Carlo trajectories by Poisson thinning.

Candidate events are proposed at the constant majorant rate gamma (both
hazards are bounded by gamma) and accepted with probability hazard/gamma
evaluated at the drifted angle, so event times carry no discretization bias.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import JumpSemantics, ModelParams, reduce_angle
from .pde import ProbabilityField, ThetaGrid

_BLOCK = 64


@dataclass(frozen=True)
class SeededSource:
    """Reproducible RNG identity: same (seed, stream_id) gives the same path."""

    seed: int
    stream_id: int = 0

    def rng(self):
        return np.random.default_rng((self.seed, self.stream_id))


@dataclass
class Trajectory:
    """One piecewise-deterministic path: drift segments and tagged jumps."""

    segments: list = field(default_factory=list)  # (t_start, theta_start)
    jumps: list = field(default_factory=list)  # (t, theta_before, emitted)
    horizon: float = 0.0
    omega: float = 0.0

    def angle_at(self, t):
        """Angle at time t in [0, horizon]."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        t_seg, th_seg = self.segments[0]
        for seg in self.segments:
            if seg[0] > t:
                break
            t_seg, th_seg = seg
        return reduce_angle(th_seg + 0.5 * self.omega * (t - t_seg))


@dataclass
class EmissionRecord:
    """Photon-emission times of one trajectory, censored at t_end."""

    times: np.ndarray
    t_end: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.size and (
            np.any(np.diff(self.times) <= 0) or self.times[-1] > self.t_end
        ):
            raise ValueError("emission times must be increasing and <= t_end")


class _Draws:
    """Blocked scalar draws from one generator (cuts per-call rng overhead)."""

    def __init__(self, rng):
        self.rng = rng
        self._exp = rng.exponential(size=_BLOCK)
        self._uni = rng.random(size=_BLOCK)
        self._ie = 0
        self._iu = 0

    def exponential(self):
        if self._ie == self._exp.size:
            self._exp = self.rng.exponential(size=_BLOCK)
            self._ie = 0
        v = self._exp[self._ie]
        self._ie += 1
        return v

    def uniform(self):
        if self._iu == self._uni.size:
            self._uni = self.rng.random(size=_BLOCK)
            self._iu = 0
        v = self._uni[self._iu]
        self._iu += 1
        return v


def _simulate_core(params, semantics, horizon, rng, jumps=None):
    """Thinning loop.  Returns (emission_times, segments).

    When `jumps` is a list it also receives (t, theta_before, emitted).
    """
    omega, gamma = params.omega, params.gamma
    draws = _Draws(rng)
    literal = semantics is JumpSemantics.KOLMOGOROV_LITERAL

    t = 0.0
    t_seg = 0.0
    th_seg = params.theta0
    segments = [(0.0, th_seg)]
    emissions = []

    while True:
        if omega == 0.0 and th_seg == 0.0:
            break  # hazard is identically zero from here on
        t = t + draws.exponential() / gamma
        if t >= horizon:
            break
        th = reduce_angle(th_seg + 0.5 * omega * (t - t_seg))
        s2 = np.sin(th) ** 2
        accept_prob = s2 if literal else s2 * s2
        if draws.uniform() < accept_prob:
            emitted = (draws.uniform() < s2) if literal else True
            if emitted:
                emissions.append(t)
            if jumps is not None:
                jumps.append((t, th, emitted))
            t_seg, th_seg = t, 0.0
            segments.append((t, 0.0))
    return emissions, segments


def simulate(
    params: ModelParams,
    semantics: JumpSemantics,
    horizon: float,
    src: SeededSource,
):
    """Simulate one trajectory; returns (Trajectory, EmissionRecord)."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    jumps = []
    emissions, segments = _simulate_core(params, semantics, horizon, src.rng(), jumps)
    traj = Trajectory(
        segments=segments, jumps=jumps, horizon=horizon, omega=params.omega
    )
    return traj, EmissionRecord(np.array(emissions), horizon)


def _worker(args):
    params, semantics, horizon, seed, lo, hi, want_theta = args
    out = []
    for i in range(lo, hi):
        rng = SeededSource(seed, i).rng()
        emissions, segments = _simulate_core(params, semantics, horizon, rng)
        if want_theta:
            t_seg, th_seg = segments[-1]
            theta = reduce_angle(th_seg + 0.5 * params.omega * (horizon - t_seg))
            out.append((np.asarray(emissions), theta))
        else:
            out.append((np.asarray(emissions), None))
    return out


def _n_workers():
    value = os.environ.get("QJUMP_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"QJUMP_THREADS must be an integer >= 1, got {value!r}")
    return workers


def _run_ensemble(params, semantics, horizon, seed, n, want_theta):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    workers = min(_n_workers(), n)
    if workers == 1:
        return _worker((params, semantics, horizon, seed, 0, n, want_theta))
    bounds = np.linspace(0, n, workers + 1).astype(int)
    tasks = [
        (params, semantics, horizon, seed, int(lo), int(hi), want_theta)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    out = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # chunks are dispatched in stream order, so results are
        # independent of scheduling
        for part in pool.map(_worker, tasks):
            out.extend(part)
    return out


def ensemble_records(
    params: ModelParams,
    semantics: JumpSemantics,
    horizon: float,
    seed: int,
    n: int,
) -> list[EmissionRecord]:
    """Emission records of n trajectories with per-trajectory seeded streams."""
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    out = _run_ensemble(params, semantics, horizon, seed, n, want_theta=False)
    return [EmissionRecord(times, horizon) for times, _ in out]


def ensemble_theta_at(
    params: ModelParams,
    semantics: JumpSemantics,
    t: float,
    seed: int,
    n: int,
) -> np.ndarray:
    """Angles of n independent trajectories sampled at time t."""
    if t <= 0:
        raise ValueError("t must be > 0")
    out = _run_ensemble(params, semantics, t, seed, n, want_theta=True)
    return np.array([theta for _, theta in out])


def histogram_from_angles(angles, grid: ThetaGrid) -> ProbabilityField:
    """Normalized density histogram of reduced angles on the grid."""
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("empty ensemble")
    idx = ((reduce_angle(angles) + np.pi / 2) // grid.cell_width).astype(int)
    idx = np.clip(idx, 0, grid.n_cells - 1)
    counts = np.bincount(idx, minlength=grid.n_cells).astype(float)
    values = counts / (angles.size * grid.cell_width)
    return ProbabilityField(grid, values)


def ensemble_histogram_theta(
    trajectories: list[Trajectory], t: float, grid: ThetaGrid
) -> ProbabilityField:
    """Ensemble law of theta at time t as a normalized histogram."""
    if not trajectories:
        raise ValueError("empty ensemble")
    angles = [traj.angle_at(t) for traj in trajectories]
    fld = histogram_from_angles(angles, grid)
    fld.time = t
    return fld


def interarrival_samples(
    records: list[EmissionRecord], origin_anchored: bool = False
) -> np.ndarray:
    """Pooled successive emission-time differences.

    With origin_anchored=True the first emission time of each record is also
    counted as an interval, which is valid when a photon is emitted at t=0 by
    construction (trajectory started at theta=0).  Intervals censored by the
    horizon are discarded.
    """
    pooled = []
    for rec in records:
        if rec.times.size == 0:
            continue
        if origin_anchored:
            pooled.append(rec.times[0])
        pooled.extend(np.diff(rec.times))
    return np.sort(np.asarray(pooled, dtype=float))


def ever_emitted_fraction(records: list[EmissionRecord]) -> float:
    """Fraction of records containing at least one emission."""
    if not records:
        raise ValueError("empty ensemble")
    return sum(1 for rec in records if rec.times.size > 0) / len(records)
