"""Conservative finite-volume solver for the forward equation of p(theta, t).

The scheme is operator-split per step: first-order upwind transport at speed
omega/2 on the periodic cell [-pi/2, pi/2), then an exact exponential sink
gamma*sin^2(theta) per cell with all removed mass reinjected into the cell
containing theta = 0.  Mass is conserved to round-off and positivity is
unconditional.  At Courant number 1 the transport is an exact shift in
floating point.  `ThetaGrid` computes sin^2, sin^4 and sin(2 theta) at its
cell centers once; the step, `populations` and the two dot products of
`population_rate` read them.

At a fixed step the update is one column-stochastic n x n matrix A, a
Markov-chain approximation in the sense of Kushner and Dupuis; `StepOperator`
holds it and applies it as a stencil.  `solve` ends exactly at t_end: it takes
the fewest equal steps t_end/n_steps that are no longer than the dt it is
given.  Between snapshots it advances blocks of B steps with dense linear
algebra: the state by A^B plus the response to the point mass fed into the
source cell, and the excited population at every step of the block from the
precomputed rows s2^T A^j.  B comes from the snapshot stride, the step count
and the grid size; a solve with a snapshot every step, or too short for the
matrix powers to pay, runs the stencil step by step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import HALF_PI, ModelParams, reduce_angle, time_steps

DEFAULT_N_CELLS = 256
DEFAULT_CFL = 0.5
MAX_GAMMA_DT = 0.1
# Block-size cost model, in dense multiply-adds (about 0.04 ns each with a
# single-threaded BLAS): one stencil step, a handful of numpy calls, costs
# about STENCIL_COST of them, and a matrix-vector product about MATVEC_COST
# per element.  A block is at most MAX_BLOCK steps, because its convolution
# grows as B^2, and runs on at most MAX_BLOCK_CELLS cells, which keeps the
# few dense n x n powers it holds under 8 MB each.
STENCIL_COST = 500_000
MATVEC_COST = 5
MAX_BLOCK = 1024
MAX_BLOCK_CELLS = 1024


@dataclass
class ThetaGrid:
    """Uniform periodic grid of n_cells cells covering [-pi/2, pi/2).

    It owns the trigonometric tables at the cell centers that the step, the
    populations and the population rate read: sin2 = sin^2, sin4 = sin^4 and
    sin_2theta = sin(2 theta).
    """

    n_cells: int = DEFAULT_N_CELLS
    cell_width: float = field(init=False)
    centers: np.ndarray = field(init=False)
    source_index: int = field(init=False)
    sin2: np.ndarray = field(init=False, repr=False)
    sin4: np.ndarray = field(init=False, repr=False)
    sin_2theta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.n_cells, numbers.Integral) and self.n_cells >= 16):
            raise ValueError(f"n_cells must be an integer >= 16, got {self.n_cells!r}")
        self.cell_width = math.pi / self.n_cells
        edges = -HALF_PI + self.cell_width * np.arange(self.n_cells + 1)
        self.centers = 0.5 * (edges[:-1] + edges[1:])
        # cell whose half-open interval [left, right) contains theta = 0
        self.source_index = int(np.searchsorted(edges, 0.0, side="right") - 1)
        sin = np.sin(self.centers)
        self.sin2 = sin * sin
        self.sin4 = self.sin2 * self.sin2
        self.sin_2theta = np.sin(2.0 * self.centers)

    def cell_of(self, theta):
        """Index of the cell containing the reduced angle theta."""
        theta = reduce_angle(theta)
        return int((theta + HALF_PI) // self.cell_width) % self.n_cells


@dataclass
class ProbabilityField:
    """Discretized density p(theta) on a ThetaGrid at a given time."""

    grid: ThetaGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError("values must have one entry per grid cell")
        # min is NaN if any value is; max catches +inf
        if not 0.0 <= self.values.min() <= self.values.max() < math.inf:
            raise ValueError("densities must be finite and nonnegative")

    def total_mass(self):
        return float(np.sum(self.values) * self.grid.cell_width)

    def copy(self):
        return ProbabilityField(self.grid, self.values.copy(), self.time)


def init_delta(grid: ThetaGrid, theta0: float) -> ProbabilityField:
    """Unit mass deposited at theta0.

    The mass is split linearly between the two cells whose centers bracket
    theta0 so that the deposited first moment matches theta0 exactly; a
    single-cell spike would bias the represented angle by up to half a cell.
    """
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")
    theta0 = reduce_angle(theta0)
    dx = grid.cell_width
    # position in units of cells, measured from the center of cell 0
    x = (theta0 - grid.centers[0]) / dx
    j = int(np.floor(x))
    w_hi = x - j
    values = np.zeros(grid.n_cells)
    values[j % grid.n_cells] += (1.0 - w_hi) / dx
    values[(j + 1) % grid.n_cells] += w_hi / dx
    return ProbabilityField(grid, values, 0.0)


def max_stable_dt(params: ModelParams, grid: ThetaGrid, cfl: float = DEFAULT_CFL):
    """Largest dt satisfying the advective CFL bound and gamma*dt <= 0.1."""
    if not 0 < cfl <= 1:
        raise ValueError("cfl must lie in (0, 1]")
    dt = MAX_GAMMA_DT / params.gamma
    if params.omega > 0:
        # not cfl*w/(0.5*omega): halving a subnormal omega underflows to 0;
        # dividing by it overflows to inf, which min() ignores
        dt = min(dt, 2.0 * cfl * grid.cell_width / params.omega)
    return dt


def _check_dt(params: ModelParams, grid: ThetaGrid, dt: float):
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    if params.omega > 0 and dt * 0.5 * params.omega > grid.cell_width * (1 + 1e-12):
        raise ValueError(
            f"dt={dt} violates the advective stability bound "
            f"dt <= {grid.cell_width / (0.5 * params.omega)}"
        )
    if dt * params.gamma > MAX_GAMMA_DT * (1 + 1e-12):
        raise ValueError(f"dt={dt} violates gamma*dt <= {MAX_GAMMA_DT}")


class StepOperator:
    """One split step of size dt as a fixed linear map A on the cell densities.

    Built once per (params, grid, dt): it owns the Courant number, the
    per-cell survival factors and their complements, the loss factors.
    Transport is the convex combination (1 - c) v + c upwind, which at
    Courant number c = 1 is an exact shift in floating point.
    """

    def __init__(self, params: ModelParams, grid: ThetaGrid, dt: float):
        _check_dt(params, grid, dt)
        self.grid = grid
        self.courant = 0.5 * params.omega * dt / grid.cell_width
        self.survival = np.exp(-params.gamma * grid.sin2 * dt)
        self.loss = 1.0 - self.survival

    def apply(self, values):
        """A along the last axis: upwind transport, then sink + source reinjection."""
        c = self.courant
        if c > 0.0:
            upwind = np.concatenate((values[..., -1:], values[..., :-1]), axis=-1)
            values = (1.0 - c) * values + c * upwind
        # density increment = removed mass / cell_width = sum of removed densities
        removed = (values * self.loss).sum(axis=-1)
        values = values * self.survival
        values[..., self.grid.source_index] += removed
        return values

    def matrix(self):
        """A as a dense n x n array (column j is the stencil applied to e_j)."""
        return self.apply(np.eye(self.grid.n_cells)).T


def step(field: ProbabilityField, params: ModelParams, dt: float) -> ProbabilityField:
    """Advance the field by one time step of size dt."""
    values = StepOperator(params, field.grid, dt).apply(field.values)
    return ProbabilityField(field.grid, values, field.time + dt)


def populations(field: ProbabilityField):
    """(rho0, rho1): ground and excited populations of the field."""
    dx = field.grid.cell_width
    s2 = field.grid.sin2
    rho1 = float(np.sum(field.values * s2) * dx)
    rho0 = float(np.sum(field.values * (1.0 - s2)) * dx)
    return rho0, rho1


def population_rate(field: ProbabilityField, params: ModelParams):
    """d(rho1)/dt as the quadrature of p * (omega/2 * sin(2 theta) - gamma sin^4)."""
    g, v = field.grid, field.values
    return float(
        g.cell_width * (0.5 * params.omega * (v @ g.sin_2theta) - params.gamma * (v @ g.sin4))
    )


@dataclass
class SolveResult:
    """Sampled populations plus periodic field snapshots from a solve."""

    times: np.ndarray
    rho0: np.ndarray
    rho1: np.ndarray
    snapshot_times: list
    snapshots: list
    final: ProbabilityField


def _hazard_integrals(angle, dt, params: ModelParams):
    """Exact int gamma*sin^2 over each step of the characteristic angle[k].

    With y = omega*dt/2 the integral is gamma*dt/2 * (1 - cos(a + b) sin(y)/y)
    for a step from a to b = a + y; sin(y)/y -> 1 covers omega = 0 without
    dividing by omega.
    """
    y = 0.5 * params.omega * dt
    ratio = np.sinc(y / math.pi)
    return 0.5 * params.gamma * dt * (1.0 - np.cos(angle[:-1] + angle[1:]) * ratio)


def _block_size(n_steps, stride, n_cells):
    """Steps per dense block, or 1 to run the stencil step by step.

    Blocks end on every snapshot, so none is longer than the gap between
    snapshots; a gap is split into equal blocks of at most b steps for each
    power of two b up to MAX_BLOCK, and the size whose estimated cost is
    lowest wins.  The set-up costs about log2(B) + 2 dense n x n products (the
    squarings of A and the powers the block lengths need) and B n^2 for each
    of the two block tables; each block costs a few numpy calls plus
    matrix-vector products over n^2 + 2 B n + B^2 elements.
    """
    gap = min(stride, n_steps)
    full, last = divmod(n_steps, stride)
    best, best_cost = 1, n_steps * STENCIL_COST
    if n_cells > MAX_BLOCK_CELLS:
        return best
    b = 1
    while b < min(gap, MAX_BLOCK):
        b *= 2
        size = -(-gap // -(-gap // b))
        n_blocks = full * -(-stride // size) + -(-last // size)
        setup = (math.log2(size) + 2) * n_cells**3 + 2 * size * n_cells**2
        per_block = STENCIL_COST / 2 + MATVEC_COST * (n_cells + size) ** 2
        cost = setup + n_blocks * per_block
        if cost < best_cost:
            best, best_cost = size, cost
    return best


def _stencil(op: StepOperator, values, forcing, s2, stride, out):
    """Step by step; yields (k, state) at each snapshot step and at the end.

    Sets out[k] = s2 . state for every step before the last.
    """
    n_steps = forcing.size
    source = op.grid.source_index
    for k in range(n_steps):
        out[k] = s2 @ values
        if k % stride == 0:
            yield k, values
        values = op.apply(values)
        values[source] += forcing[k]
    yield n_steps, values


def _block_tables(a, s2, source, size, lengths):
    """Rows s2^T A^j and (A^j e_source)^T for j < size, and A^L per block length.

    Built by doubling: with P = A^span, the tables grow from span to 2 span
    rows by one product with P, and A^L collects the P whose bit is set in L.
    Every power keeps mass as A does: the round-off in each column sum, which
    would otherwise compound through the products, goes back into the source
    row, where the scheme reinjects what the sink removes.
    """

    def keep_mass(m):
        m[source] += 1.0 - m.sum(axis=0)
        return m

    rows = s2[None, :]
    states = np.eye(a.shape[0])[[source]]
    powers = dict.fromkeys(lengths)
    span, p = 1, keep_mass(a)
    while True:
        for length, power in powers.items():
            if length & span:
                powers[length] = p if power is None else keep_mass(power @ p)
        if span < size:
            rows = np.vstack([rows, rows[: size - span] @ p])
            states = np.vstack([states, states[: size - span] @ p.T])
        if 2 * span > size:
            return rows, states, powers
        p = keep_mass(p @ p)
        span *= 2


def _blocks(op: StepOperator, values, forcing, s2, stride, size, out):
    """Blocks of at most size steps; yields and sets out like _stencil.

    Over a block of L steps from state v with source forcing f_0..f_{L-1}:
    the state ends at A^L v + sum_j f_j A^(L-1-j) e_source, and
    s2 . state_j = (s2^T A^j) v + sum_{i<j} h_(j-1-i) f_i, h_j = s2^T A^j e_source.
    """
    n_steps = forcing.size
    lengths = []
    for start in range(0, n_steps, stride):
        q, r = divmod(min(stride, n_steps - start), size)
        lengths += [size] * q + [r] * (r > 0)
    rows, states, powers = _block_tables(
        op.matrix(), s2, op.grid.source_index, size, set(lengths)
    )
    impulse = rows[:, op.grid.source_index]
    yield 0, values
    k = 0
    for length in lengths:
        f = forcing[k : k + length]
        out[k : k + length] = rows[:length] @ values
        values = powers[length] @ values
        if f.any():
            values += f[::-1] @ states[:length]
            out[k + 1 : k + length] += np.convolve(impulse[:length], f)[: length - 1]
        k += length
        if k % stride == 0 or k == n_steps:
            yield k, values


def solve(
    params: ModelParams,
    grid: ThetaGrid,
    t_end: float,
    dt: float,
    theta0: float | None = None,
    snapshot_stride: int | None = None,
    track_delta: bool = True,
) -> SolveResult:
    """Run the solver from a delta at theta0 (default params.theta0) to t_end.

    The solve takes n_steps = ceil(t_end/dt) equal steps of t_end/n_steps, so
    it ends exactly at t_end with a step no longer than dt.  Snapshots are
    kept every snapshot_stride steps (default n_steps // 100) and at t_end.

    With track_delta (default) the not-yet-jumped point mass is propagated
    analytically along its characteristic with exact survival decay, and only
    the regular (post-jump) part lives on the grid; grid schemes smear a
    transported delta, and at moderate resolution that smearing dominates
    every comparison against trajectory ensembles.  Snapshots deposit the
    surviving mass into the cell containing the characteristic; the rho series
    uses the exact angle.  track_delta=False reproduces the pure grid scheme.
    """
    n_steps, dt = time_steps(t_end, dt)
    op = StepOperator(params, grid, dt)
    if snapshot_stride is None:
        snapshot_stride = max(1, n_steps // 100)
    if not (isinstance(snapshot_stride, numbers.Integral) and snapshot_stride >= 1):
        raise ValueError(f"snapshot_stride must be an integer >= 1, got {snapshot_stride!r}")
    if theta0 is None:
        theta0 = params.theta0
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")
    if not -HALF_PI <= theta0 < HALF_PI:
        # the model is pi-periodic in theta; a huge angle would overflow to
        # inf in the hazard integral's cos(a + b)
        theta0 = reduce_angle(theta0)

    dx = grid.cell_width
    s2 = grid.sin2
    times = np.linspace(0.0, t_end, n_steps + 1)
    angle = theta0 + 0.5 * params.omega * times
    point = np.zeros(n_steps + 1)
    if track_delta:
        values = np.zeros(grid.n_cells)
        point[0] = 1.0
        np.cumprod(np.exp(-_hazard_integrals(angle, dt, params)), out=point[1:])
    else:
        values = init_delta(grid, theta0).values
    # density the point mass feeds into the source cell during step k
    forcing = (point[:-1] - point[1:]) / dx

    def deposited(vals, k):
        out = vals.copy()
        if point[k] > 0.0:
            out[grid.cell_of(angle[k])] += point[k] / dx
        return ProbabilityField(grid, out, float(times[k]))

    size = _block_size(n_steps, snapshot_stride, grid.n_cells)
    grid_rho1 = np.empty(n_steps + 1)
    args = (op, values, forcing, s2, snapshot_stride)
    states = _stencil(*args, grid_rho1) if size == 1 else _blocks(*args, size, grid_rho1)
    snapshot_times, snapshots = [], []
    for k, vals in states:
        snapshot_times.append(float(times[k]))
        snapshots.append(deposited(vals, k))
    final = deposited(vals, n_steps)
    grid_rho1[n_steps] = s2 @ vals

    rho1 = dx * grid_rho1 + point * np.sin(angle) ** 2
    # A keeps mass, so the grid holds its initial mass plus the cumulative
    # forcing, which is what the point mass has lost: rho0 + rho1 stays at
    # the initial total
    rho0 = (dx * np.sum(values) + point[0]) - rho1
    return SolveResult(times, rho0, rho1, snapshot_times, snapshots, final)
