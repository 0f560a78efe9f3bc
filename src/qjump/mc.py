"""Event-driven Monte Carlo trajectories by Poisson thinning.

Candidate events are proposed at the constant majorant rate gamma (both
hazards are bounded by gamma) and accepted with probability hazard/gamma
evaluated at the drifted angle, so event times carry no discretization bias.
One kernel advances many trajectories at once: each round draws one array
per variate, sized to the trajectories still active, and applies masks.

Streams are keyed by (seed, block): trajectories 0..BLOCK-1 of an ensemble
share SeededSource(seed, 0), the next BLOCK share SeededSource(seed, 1), and
so on.  An ensemble of n is not a prefix of a larger one, and
simulate(SeededSource(seed, i)) is not its trajectory i.

Emission times come back as one columnar table (`Emissions`), the list
layout of the Arrow columnar format: one flat array of times and one offset
per trajectory boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


class EmissionTimes(NamedTuple):
    """Emission times of one trajectory: a view into an `Emissions` table."""

    times: np.ndarray
    t_end: float


class Emissions:
    """Photon-emission times of many trajectories, censored at t_end.

    The i-th trajectory owns times[offsets[i]:offsets[i+1]]: the times increase
    within a trajectory and may drop across a boundary.  len() is the number
    of trajectories; indexing and iteration give `EmissionTimes` views.
    """

    def __init__(self, times, offsets, t_end):
        self.times = np.asarray(times, dtype=float)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.t_end = t_end
        t, off = self.times, self.offsets
        if not (t.ndim == off.ndim == 1 and off.size and off[0] == 0
                and off[-1] == t.size and np.all(np.diff(off) >= 0)):
            raise ValueError("offsets must rise from 0 to the number of times")
        inside = np.all((t > 0) & (t <= t_end))
        if not (inside and np.all(np.diff(t)[self._inner()] > 0)):
            raise ValueError("emission times must lie in (0, t_end] and increase")

    def _inner(self):
        """Mask of the np.diff(times) entries within one trajectory."""
        inner = np.ones(self.times.size + 1, dtype=bool)
        inner[self.offsets] = False  # times[k] starts a trajectory
        return inner[1:-1]

    def __len__(self):
        return self.offsets.size - 1

    def __getitem__(self, i):
        i = range(len(self))[i]  # negative indices count from the end
        a, b = self.offsets[i], self.offsets[i + 1]
        return EmissionTimes(self.times[a:b], self.t_end)

    def __iter__(self):
        bounds = self.offsets.tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            yield EmissionTimes(self.times[a:b], self.t_end)


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
    """Simulate one trajectory; returns (jumps, Emissions).

    jumps lists (t, theta_before, emitted) for every jump in time order.
    """
    _check_horizon(horizon)
    jumps = []
    times, _, _ = _kernel(params, semantics, horizon, src.rng(), 1, jumps)
    return jumps, Emissions(times, [0, times.size], horizon)


def _run_ensemble(params, semantics, horizon, seed, n):
    """(times, counts, theta) of n trajectories, BLOCK per stream."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    parts = [
        _kernel(
            params, semantics, horizon, SeededSource(seed, b).rng(),
            min(BLOCK, n - b * BLOCK),
        )
        for b in range(-(-n // BLOCK))
    ]
    return tuple(np.concatenate(column) for column in zip(*parts))


def ensemble_records(
    params: ModelParams,
    semantics: JumpSemantics,
    horizon: float,
    seed: int,
    n: int,
) -> Emissions:
    """Emission table of n trajectories with block-keyed seeded streams."""
    _check_horizon(horizon)
    times, counts, _ = _run_ensemble(params, semantics, horizon, seed, n)
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return Emissions(times, offsets, horizon)


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
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    idx = ((reduce_angle(angles) + np.pi / 2) // grid.cell_width).astype(int)
    idx = np.clip(idx, 0, grid.n_cells - 1)
    counts = np.bincount(idx, minlength=grid.n_cells).astype(float)
    values = counts / (angles.size * grid.cell_width)
    return ProbabilityField(grid, values)


def interarrival_samples(
    emissions: Emissions, origin_anchored: bool = False
) -> np.ndarray:
    """Pooled successive emission-time differences, sorted.

    With origin_anchored=True the first emission time of each trajectory is
    also counted as an interval, which is valid when a photon is emitted at
    t=0 by construction (trajectory started at theta=0).  Intervals censored
    by the horizon are discarded.
    """
    gaps = np.diff(emissions.times)[emissions._inner()]
    if origin_anchored:
        starts = emissions.offsets[:-1][np.diff(emissions.offsets) > 0]
        gaps = np.concatenate([emissions.times[starts], gaps])
    return np.sort(gaps)


def ever_emitted_fraction(emissions: Emissions) -> float:
    """Fraction of trajectories with at least one emission."""
    if not len(emissions):
        raise ValueError("empty ensemble")
    return int(np.count_nonzero(np.diff(emissions.offsets))) / len(emissions)
