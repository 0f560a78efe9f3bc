"""Event-driven Monte Carlo trajectories by Poisson thinning.

Candidate events are proposed at the constant majorant rate gamma (both
hazards are bounded by gamma) and accepted with probability hazard/gamma
evaluated at the drifted angle, so event times carry no discretization bias.
One kernel advances many lanes at once: each round draws one array per
variate, sized to the lanes still active, and applies masks.

Renewal lanes: every jump resets theta to 0, so a trajectory's jump cycles
are i.i.d.  A block of n trajectories with horizon H runs each as
max(1, min(ceil(BLOCK/n), floor(gamma*H/LANE_SPAN))) lanes, one if omega = 0.
Lane 1 starts at theta0, the others at 0; each stops at its first jump past
H/lanes, or once the rest of it would lie past H.  Put end to end in order
and cut at H, the lanes have the law of one run to H.

One stream rule: block b of an ensemble, BLOCK trajectories, draws all its
lanes from np.random.default_rng((seed, b)).  An ensemble of n is not a
prefix of a larger one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import MAX_STEPS, JumpSemantics, ModelParams, reduce_angle
from .pde import ProbabilityField, ThetaGrid

BLOCK = 4096  # trajectories per RNG stream
LANE_SPAN = 256  # gamma * time that every renewal lane spans at least


class EmissionTimes(NamedTuple):
    """Emission times of one trajectory: a view into an `Emissions` table."""

    times: np.ndarray
    t_end: float


class Emissions:
    """Photon-emission times of many trajectories, censored at t_end.

    A columnar table, in the list layout of the Arrow format: the i-th
    trajectory owns times[offsets[i]:offsets[i+1]].  The times increase
    within a trajectory and may drop across a boundary.  len() is the number
    of trajectories; iteration gives each one's `EmissionTimes` view.
    """

    def __init__(self, times, offsets, t_end):
        t = self.times = np.asarray(times, dtype=float)
        off = self.offsets = np.asarray(offsets, dtype=np.intp)
        self.t_end = t_end
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

    def __iter__(self):
        bounds = self.offsets.tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            yield EmissionTimes(self.times[a:b], self.t_end)


def _lane_starts(buf, counts, ids, t, stop, horizon, lanes):
    """Least start of each lane on its trajectory's clock: the spans before it.

    A finished lane spans its last jump if that passed `stop`, else the horizon;
    an active lane at time t spans max(t, stop) or more."""
    span, ran = np.full(counts.size, horizon), counts > 0
    last = np.abs(buf[ran, counts[ran] - 1])
    span[ran] = np.where(last >= stop, last, horizon)
    span[ids] = np.maximum(t, stop)
    start = np.zeros((counts.size // lanes, lanes))
    np.cumsum(span.reshape(-1, lanes)[:, :-1], axis=1, out=start[:, 1:])
    return start.ravel()


def _kernel(params, semantics, horizon, rng, n):
    """Thinning on n trajectories at once, each run as renewal lanes.

    Returns (times, counts, theta): all trajectories' emission times in order,
    how many belong to each, and each angle at `horizon`."""
    omega, gamma = params.omega, params.gamma
    literal = semantics is JumpSemantics.KOLMOGOROV_LITERAL
    lanes = min(-(-BLOCK // n), int(gamma * horizon // LANE_SPAN)) if omega else 1
    lanes = max(1, lanes)
    stop, every = horizon / lanes, lanes > 1  # lanes keep every jump, silent < 0
    # theta(t) = phase + omega*t/2 in lane time; a jump at t resets it to 0
    phase = np.full(n * lanes, float(params.theta0))
    phase.reshape(n, lanes)[:, 1:] = 0.0
    buf, counts = np.empty((phase.size, 4)), np.zeros(phase.size, dtype=np.intp)
    # the hazard is identically zero once omega = 0 and theta = 0
    ids = np.arange(phase.size if omega != 0.0 or params.theta0 != 0.0 else 0)
    t, ph, rounds = np.zeros(ids.size), phase[ids], 0  # state of the active lanes
    while ids.size:
        if lanes > 1 and rounds % LANE_SPAN == 0:  # lane time that can reach H
            need = horizon - _lane_starts(buf, counts, ids, t, stop, horizon, lanes)
        m, rounds = ids.size, rounds + 1
        t = t + rng.exponential(size=m) / gamma
        s2 = np.sin(ph + 0.5 * omega * t) ** 2
        live = t < (horizon if lanes == 1 else need[ids])
        jump = live & (rng.random(m) < (s2 if literal else s2 * s2))
        emit = (jump & (rng.random(m) < s2)) if literal else jump
        rec = jump if every else emit
        if rec.any():
            rows = ids[rec]
            if counts[rows].max() == buf.shape[1]:
                buf = np.concatenate([buf, np.empty_like(buf)], axis=1)
            buf[rows, counts[rows]] = (np.where(emit, t, -t) if every else t)[rec]
            counts[rows] += 1
        if jump.any():
            ph = np.where(jump, -0.5 * omega * t, ph)
            phase[ids[jump]] = ph[jump]
        keep = live & ~jump if omega == 0.0 else live
        if lanes > 1:  # a lane ends at its first jump past its share of H
            keep &= ~(jump & (t >= stop))
        if not keep.all():
            ids, t, ph = ids[keep], t[keep], ph[keep]
    times = buf[np.arange(buf.shape[1]) < counts[:, None]]
    if lanes == 1:
        return times, counts, reduce_angle(phase + 0.5 * omega * horizon)
    start = _lane_starts(buf, counts, ids, t, stop, horizon, lanes)
    t = np.abs(times) + np.repeat(start, counts)
    owner, inside = np.repeat(np.arange(phase.size) // lanes, counts), t < horizon
    jumps = np.bincount(owner[inside], minlength=n)
    phase = np.full(n, float(params.theta0))  # the angle at H follows the last jump
    phase[jumps > 0] = -0.5 * omega * t[inside][np.cumsum(jumps)[jumps > 0] - 1]
    keep = inside & (times > 0)
    theta = reduce_angle(phase + 0.5 * omega * horizon)
    return np.copysign(t, times)[keep], np.bincount(owner[keep], minlength=n), theta


def _run_ensemble(params, semantics, horizon, seed, n):
    """(times, counts, theta) of n trajectories, BLOCK per stream.

    About gamma * horizon * n candidates are drawn, at most MAX_STEPS."""
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    # Python floats: a numpy product that overflows would warn
    if not float(params.gamma) * float(horizon) <= MAX_STEPS / n:
        raise ValueError(
            f"gamma*horizon*n must be at most {MAX_STEPS} candidate events: "
            f"gamma={params.gamma}, horizon={horizon}, n={n}"
        )
    rngs = [np.random.default_rng((seed, b)) for b in range(-(-n // BLOCK))]
    sizes = [min(BLOCK, n - b * BLOCK) for b in range(len(rngs))]
    parts = [_kernel(params, semantics, horizon, *pair) for pair in zip(rngs, sizes)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def ensemble_records(
    params: ModelParams, semantics: JumpSemantics, horizon: float, seed: int, n: int
) -> Emissions:
    """Emission table of n trajectories with block-keyed seeded streams."""
    times, counts, _ = _run_ensemble(params, semantics, horizon, seed, n)
    return Emissions(times, np.concatenate([[0], np.cumsum(counts)]), horizon)


def ensemble_theta_at(
    params: ModelParams, semantics: JumpSemantics, horizon: float, seed: int, n: int
) -> np.ndarray:
    """Angles of n independent trajectories sampled at the horizon."""
    return _run_ensemble(params, semantics, horizon, seed, n)[2]


def histogram_from_angles(angles, grid: ThetaGrid) -> ProbabilityField:
    """Normalized density histogram of reduced angles on the grid."""
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("empty ensemble")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    counts = np.bincount(grid.cell_of(angles), minlength=grid.n_cells).astype(float)
    return ProbabilityField(grid, counts / (angles.size * grid.cell_width))


def interarrival_samples(emissions: Emissions, origin_anchored=False) -> np.ndarray:
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
