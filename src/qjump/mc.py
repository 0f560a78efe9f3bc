"""Event-driven Monte Carlo trajectories by Poisson thinning.

Candidate events are proposed at the constant majorant rate gamma (both
hazards are bounded by gamma) and accepted with probability hazard/gamma
evaluated at the drifted angle, so event times carry no discretization bias.
One kernel advances many trajectories at once: each round draws one array
per variate, sized to the trajectories still active, and applies masks.

Streams are keyed by (seed, block): trajectories 0..BLOCK-1 of an ensemble
share SeededSource(seed, 0), the next BLOCK share SeededSource(seed, 1), and
so on.  Workers get contiguous runs of blocks, so an ensemble is
bit-identical for any QJUMP_THREADS.  An ensemble of n is not a prefix of a
larger one, and simulate(SeededSource(seed, i)) is not its trajectory i.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import JumpSemantics, ModelParams, reduce_angle
from .pde import ProbabilityField, ThetaGrid

BLOCK = 4096  # trajectories per RNG stream


@dataclass(frozen=True)
class SeededSource:
    """Reproducible RNG identity: same (seed, stream_id) gives the same path."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")

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
        t = self.times = np.asarray(self.times, dtype=float)
        # np.diff is the costly part, and it is empty below two times
        if t.size and (t[-1] > self.t_end or t.size > 1 and np.any(np.diff(t) <= 0)):
            raise ValueError("emission times must be increasing and <= t_end")


def _check_horizon(horizon, name="horizon"):
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"{name} must be finite and > 0, got {horizon}")


def _kernel(params, semantics, horizon, rng, n, jumps=None):
    """Thinning on n trajectories at once.

    Returns (times, counts, theta): the emission times of all trajectories
    in order, how many belong to each, and each angle at `horizon`.  When
    `jumps` is a list it receives (t, theta_before, emitted) for n = 1.
    """
    omega, gamma = params.omega, params.gamma
    literal = semantics is JumpSemantics.KOLMOGOROV_LITERAL
    # between jumps theta(t) = phase + omega*t/2; a jump at t resets it to 0
    phase = np.full(n, float(params.theta0))
    buf, counts = np.empty((n, 4)), np.zeros(n, dtype=np.intp)
    # the hazard is identically zero once omega = 0 and theta = 0
    ids = np.arange(n if omega != 0.0 or params.theta0 != 0.0 else 0)
    t, ph = np.zeros(ids.size), phase[ids]  # state of the active trajectories
    while ids.size:
        m = ids.size
        t = t + rng.exponential(size=m) / gamma
        th = ph + 0.5 * omega * t
        s2 = np.sin(th) ** 2
        u = rng.random(m)
        live = t < horizon
        jump = live & (u < (s2 if literal else s2 * s2))
        emit = (jump & (rng.random(m) < s2)) if literal else jump
        if emit.any():
            rows = ids[emit]
            if counts[rows].max() == buf.shape[1]:
                buf = np.concatenate([buf, np.empty_like(buf)], axis=1)
            buf[rows, counts[rows]] = t[emit]
            counts[rows] += 1
        if jump.any():
            if jumps is not None:
                jumps.append((float(t[0]), float(reduce_angle(th[0])), bool(emit[0])))
            ph = np.where(jump, -0.5 * omega * t, ph)
            phase[ids[jump]] = ph[jump]
        keep = live & ~jump if omega == 0.0 else live
        if not keep.all():
            ids, t, ph = ids[keep], t[keep], ph[keep]
    times = buf[np.arange(buf.shape[1]) < counts[:, None]]
    return times, counts, reduce_angle(phase + 0.5 * omega * horizon)


def simulate(
    params: ModelParams,
    semantics: JumpSemantics,
    horizon: float,
    src: SeededSource,
):
    """Simulate one trajectory; returns (Trajectory, EmissionRecord)."""
    _check_horizon(horizon)
    jumps = []
    times, _, _ = _kernel(params, semantics, horizon, src.rng(), 1, jumps)
    segments = [(0.0, params.theta0)] + [(t, 0.0) for t, _, _ in jumps]
    traj = Trajectory(
        segments=segments, jumps=jumps, horizon=horizon, omega=params.omega
    )
    return traj, EmissionRecord(times, horizon)


def _worker(args):
    params, semantics, horizon, seed, n, lo, hi = args
    return [
        _kernel(
            params, semantics, horizon, SeededSource(seed, b).rng(),
            min(BLOCK, n - b * BLOCK),
        )
        for b in range(lo, hi)
    ]


def _n_workers():
    value = os.environ.get("QJUMP_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"QJUMP_THREADS must be an integer >= 1, got {value!r}")
    return workers


def _run_ensemble(params, semantics, horizon, seed, n):
    """(times, counts, theta) of n trajectories, BLOCK per stream."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    SeededSource(seed)  # validates seed
    n_blocks = -(-n // BLOCK)
    workers = min(_n_workers(), n_blocks)
    bounds = np.linspace(0, n_blocks, workers + 1).astype(int)
    tasks = [
        (params, semantics, horizon, seed, n, int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if workers == 1:
        parts = _worker(tasks[0])
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # results come back in block order whatever the scheduling
            parts = [p for chunk in pool.map(_worker, tasks) for p in chunk]
    return tuple(np.concatenate(column) for column in zip(*parts))


def ensemble_records(
    params: ModelParams,
    semantics: JumpSemantics,
    horizon: float,
    seed: int,
    n: int,
) -> list[EmissionRecord]:
    """Emission records of n trajectories with block-keyed seeded streams."""
    _check_horizon(horizon)
    times, counts, _ = _run_ensemble(params, semantics, horizon, seed, n)
    ends = np.cumsum(counts).tolist()
    return [
        EmissionRecord(times[a:b], horizon) for a, b in zip([0] + ends[:-1], ends)
    ]


def ensemble_theta_at(
    params: ModelParams,
    semantics: JumpSemantics,
    t: float,
    seed: int,
    n: int,
) -> np.ndarray:
    """Angles of n independent trajectories sampled at time t."""
    _check_horizon(t, "t")
    return _run_ensemble(params, semantics, t, seed, n)[2]


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
