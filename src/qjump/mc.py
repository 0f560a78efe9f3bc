"""Event-driven Monte Carlo trajectories by Poisson thinning.

Candidate events are proposed at a majorant of the hazard and accepted with
probability hazard/majorant at the drifted angle, so event times carry no
discretization bias (Lewis and Shedler 1979; Ogata 1981).  The majorant is
gamma (both hazards are at most gamma).  Below gamma, a segment that starts
at theta = 0 at t0 (a reset, or theta0 = 0), where theta = y = omega*(t - t0)/2,
is thinned against gamma*min(1, y^2p) >= gamma*sin^2p(y), with p = 1 (literal)
or 2 (emission).  Its clock G(y) = int_0^y min(1, s^2p) ds is y^q/q up to 1,
q = 2p + 1, and inverts in closed form; at omega/gamma = 1/6 that draws a
sixth of the candidates.
One kernel advances many lanes at once: each round draws one array per
variate, sized to the lanes still active, and updates their compacted clock,
phase and (with several lanes) reachable lane time; only the jumps' index
list touches a lane's record row.  An ensemble of angles alone with one lane
records no times and writes a lane's phase only as it leaves.

Renewal lanes: every jump resets theta to 0, so a trajectory's jump cycles
are i.i.d.  A block of n trajectories with horizon H runs each as
max(1, min(ceil(BLOCK/n), floor(gamma*H/LANE_SPAN))) lanes, one if omega = 0.
Lane 1 starts at theta0, the others at 0; each stops at its first jump past
H/lanes, or once the rest of it would lie past H.  Put end to end in order
and cut at H, the lanes have the law of one run to H.  Stitching adds each
lane's start to its recorded times in place; a trajectory's lanes are
adjacent and its stitched times increase, so its jumps before H are a prefix
of its slice, and the slice bounds give its count and last jump without a
per-event owner array.

One stream rule: block b of an ensemble, BLOCK trajectories, draws all its
lanes from np.random.default_rng((seed, b)).  An ensemble of n is not a
prefix of a larger one.  Its outputs are allocated once, at their final
size, and filled block by block; only the emission times, whose total is
known at the end, are gathered per block and joined.
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
                and off[-1] == t.size and np.all(off[1:] >= off[:-1])):
            raise ValueError("offsets must rise from 0 to the number of times")
        inside = np.all((t > 0) & (t <= t_end))
        first = np.zeros(t.size + 1, dtype=bool)
        first[off] = True  # times[k] starts a trajectory: it need not exceed times[k - 1]
        rise = t[1:] > t[:-1]
        if not (inside and np.all(np.logical_or(rise, first[1:-1], out=rise))):
            raise ValueError("emission times must lie in (0, t_end] and increase")

    def __len__(self):
        return self.offsets.size - 1

    def __iter__(self):
        bounds = self.offsets.tolist()
        for a, b in zip(bounds[:-1], bounds[1:]):
            yield EmissionTimes(self.times[a:b])


def _lane_starts(span, ids, t, stop, lanes):
    """Least start of each lane on its trajectory's clock: the spans before it.

    `span` holds each finished lane's: its last jump if that passed `stop`,
    else the horizon; an active lane at time t spans max(t, stop) or more."""
    span = span.copy()
    span[ids] = np.maximum(t, stop)
    start = np.zeros((span.size // lanes, lanes))
    np.cumsum(span.reshape(-1, lanes)[:, :-1], axis=1, out=start[:, 1:])
    return start.ravel()


def _clock_step(params, q):
    """Advance of the majorant clock z = q*G(y) per unit exponential draw.

    0 where every candidate comes at gamma: at omega >= gamma, or where the
    step underflows (omega/2 = 0)."""
    return q * (0.5 * params.omega) / params.gamma if params.omega < params.gamma else 0.0


def _kernel(params, semantics, horizon, rng, n, record=True):
    """Thinning on n trajectories at once, each run as renewal lanes.

    Returns (times, counts, theta): all trajectories' emission times in order,
    how many belong to each, and each angle at `horizon`.  With record=False
    and one lane the times are not kept: times is empty and counts are 0."""
    omega, gamma, half = params.omega, params.gamma, 0.5 * params.omega
    literal = semantics is JumpSemantics.KOLMOGOROV_LITERAL
    lanes = min(-(-BLOCK // n), int(gamma * horizon // LANE_SPAN)) if omega else 1
    lanes = max(1, lanes)
    stop, every = horizon / lanes, lanes > 1  # lanes keep every jump, silent < 0
    record = record or every  # lanes rebuild the angle at H from the jump times
    size = n * lanes
    # theta(t) = phase + omega*t/2 in lane time; a jump at t resets it to 0
    phase = np.zeros(size)
    phase[::lanes] = params.theta0
    # no columns when no times are kept, so the gather after the loop is empty too
    buf, counts = np.empty((size, 4 if record else 0)), np.zeros(size, dtype=np.intp)
    span = np.full(size, horizon)  # of each finished lane, as _lane_starts reads it
    # the hazard is identically zero once omega = 0 and theta = 0
    ids = np.arange(size if omega != 0.0 or params.theta0 != 0.0 else 0)
    t, ph, rounds = np.zeros(ids.size), phase[ids], 0  # state of the active lanes
    q = 3 if literal else 5  # 2p + 1
    step = _clock_step(params, q)
    weak = step > 0
    if weak:  # cap = 0 marks a lane still on its theta0 segment, thinned at gamma
        z, t0, cap = lane = np.zeros((3, ids.size))
        cap[ph == 0.0] = 1.0
    while ids.size:
        if every and rounds % LANE_SPAN == 0:  # lane time that can reach H
            need = horizon - _lane_starts(span, ids, t, stop, lanes)[ids]
        m, rounds = ids.size, rounds + 1
        e = rng.exponential(size=m)
        if weak:  # z is y^q up to 1, then 1 + q*(y - 1); on a theta0 segment y = z/q
            z += np.multiply(e, step, out=e)
            y = np.minimum(z, cap)
            y = (np.cbrt(y) if literal else y**0.2) + (z - y) / q
            with np.errstate(over="ignore"):  # an infinite t lies past H
                t = t0 + y / half
            fresh = 1.0 - cap
        else:
            t += np.divide(e, gamma, out=e)
        back = t * -half  # the phase that a jump now sets
        s2 = np.sin(fresh * ph + y if weak else ph - back)
        np.square(s2, out=s2)
        live = t < (need if every else horizon)
        accept = rng.random(m)
        if weak:  # the majorant over gamma: min(1, y^2p), or 1 on a theta0 segment
            bound = np.square(y, out=y)
            bound = np.minimum(bound if literal else np.square(bound, out=bound), 1.0, out=bound)
            accept *= np.maximum(bound, fresh, out=bound)
        jump = accept < (s2 if literal else np.square(s2, out=s2))
        jump &= live
        u = rng.random(m) if literal else None
        j = jump.nonzero()[0]
        if record and j.size:
            rec, v = j, t[j]
            if literal:  # the jumps that emit; lanes record a silent one as -t
                sent = u[j] < s2[j]
                rec, v = (j, np.where(sent, v, -v)) if every else (j[sent], v[sent])
            rows = ids[rec]
            c = counts[rows]
            if rows.size and c.max() == buf.shape[1]:
                buf = np.concatenate([buf, np.empty_like(buf)], axis=1)
            buf[rows, c] = v
            counts[rows] = c + 1
        ph[j] = back[j]
        if weak:
            z[j], t0[j], cap[j] = 0.0, t[j], 1.0
        keep = live  # a lane ends past H, and at its jump if omega = 0
        if omega == 0.0:
            keep[j] = False
        elif every:  # or at its first jump past its share of H
            done = j[t[j] >= stop]
            span[ids[done]] = t[done]
            keep[done] = False
        if not keep.all():
            if not every:
                gone = (~keep).nonzero()[0]
                phase[ids[gone]] = ph[gone]
            k = keep.nonzero()[0]
            ids, t, ph = ids[k], t[k], ph[k]
            if weak:
                z, t0, cap = lane = lane[:, k]
            if every:
                need = need[k]
    times = buf[np.arange(buf.shape[1]) < counts[:, None]]
    del buf  # the largest array: free it before the lanes are stitched
    if not every:
        return times, counts, reduce_angle(phase + half * horizon)
    start = _lane_starts(span, ids, t, stop, lanes)
    sent = times > 0  # lanes record a silent jump as -t
    t = np.abs(times, out=times)
    t += np.repeat(start, counts)
    # a trajectory's lanes are adjacent rows and its stitched times increase,
    # so its jumps before H are a prefix of its slice of the table
    events = counts.reshape(n, lanes).sum(axis=1)
    first = np.cumsum(events) - events
    inside = t < horizon
    jumps = _segment_sums(inside, first, events)
    phase = np.full(n, float(params.theta0))  # the angle at H follows the last jump
    last = jumps > 0
    phase[last] = -half * t[(first + jumps - 1)[last]]
    theta = reduce_angle(phase + half * horizon)
    keep = np.logical_and(inside, sent, out=inside)
    emitted = _segment_sums(keep, first, events)  # before t[keep]: reduceat copies keep as intp
    return t[keep], emitted, theta


def _segment_sums(mask, first, size):
    """Trues of `mask` in each slice mask[first[i]:first[i] + size[i]], which tile it."""
    sums = np.zeros(size.size, dtype=np.intp)
    # reduceat reads an empty slice as the element at its start, and refuses a
    # start equal to mask.size, so only the nonempty slices are passed
    full = size > 0
    sums[full] = np.add.reduceat(mask, first[full], dtype=np.intp)
    return sums


def _blocks(params, semantics, horizon, seed, n, record=True):
    """The blocks of n trajectories, BLOCK per stream, one at a time.

    Each is (a, (times, counts, theta)) with a its first trajectory.  At most
    about gamma * horizon * n candidates are drawn (MAX_STEPS)."""
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
    # a generator expression: the checks above run at the call, before the
    # caller allocates its outputs, and each block is drawn as it is read
    return (
        (a, _kernel(params, semantics, horizon, np.random.default_rng((seed, b)),
                    min(BLOCK, n - a), record))
        for b, a in enumerate(range(0, n, BLOCK))
    )


def ensemble_records(
    params: ModelParams, semantics: JumpSemantics, horizon: float, seed: int, n: int
) -> Emissions:
    """Emission table of n trajectories with block-keyed seeded streams."""
    blocks = _blocks(params, semantics, horizon, seed, n)
    offsets = np.zeros(n + 1, dtype=np.intp)  # counts first, summed in place
    parts = []  # the times alone are gathered: their total is known at the end
    for a, (times, counts, theta) in blocks:
        offsets[a + 1 : a + 1 + counts.size] = counts
        parts.append(times)
        del times, counts, theta  # unbound before the next block is drawn
    np.cumsum(offsets, out=offsets)
    times = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts  # the blocks' times: free them before the table is checked
    return Emissions(times, offsets, horizon)


def ensemble_theta_at(
    params: ModelParams, semantics: JumpSemantics, horizon: float, seed: int, n: int
) -> np.ndarray:
    """Angles of n independent trajectories sampled at the horizon."""
    blocks = _blocks(params, semantics, horizon, seed, n, record=False)
    theta = np.empty(n)
    for a, (times, counts, block) in blocks:
        theta[a : a + block.size] = block
        del times, counts, block  # unbound before the next block is drawn
    return theta


def histogram_from_angles(angles, grid: ThetaGrid) -> ProbabilityField:
    """Normalized density histogram of reduced angles on the grid."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1:
        raise ValueError("angles must be a 1-d array")
    if angles.size == 0:
        raise ValueError("empty ensemble")
    counts = np.zeros(grid.n_cells, dtype=np.intp)
    for a in range(0, angles.size, BLOCK):  # temporaries of one block of angles
        chunk = angles[a : a + BLOCK]
        if not np.isfinite(chunk).all():
            raise ValueError("angles must be finite")
        counts += np.bincount(grid.cell_of(chunk), minlength=grid.n_cells)
    return ProbabilityField(grid, counts / (angles.size * grid.cell_width))


def interarrival_samples(emissions: Emissions, origin_anchored=False) -> np.ndarray:
    """Pooled successive emission-time differences, sorted.

    With origin_anchored=True the first emission time of each trajectory is
    also counted as an interval, which is valid when a photon is emitted at
    t=0 by construction (trajectory started at theta=0).  Intervals censored
    by the horizon are discarded.
    """
    t, off = emissions.times, emissions.offsets
    gaps = t.copy()
    gaps[1:] -= t[:-1]
    starts = off[:-1][off[:-1] < off[1:]]  # first time of each trajectory with one
    gaps[starts] = t[starts] if origin_anchored else np.inf  # inf sorts past every gap
    gaps.sort()
    return gaps if origin_anchored else gaps[: gaps.size - starts.size]


def ever_emitted_fraction(emissions: Emissions) -> float:
    """Fraction of trajectories with at least one emission."""
    if not len(emissions):
        raise ValueError("empty ensemble")
    off = emissions.offsets
    return int(np.count_nonzero(off[1:] != off[:-1])) / len(emissions)
