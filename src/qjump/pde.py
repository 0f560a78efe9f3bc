"""Conservative finite-volume solver for the forward equation of p(theta, t).

The scheme is operator-split per step: first-order upwind transport at speed
omega/2 on the periodic cell [-pi/2, pi/2), then an exact exponential sink
gamma*sin^2(theta) per cell with all removed mass reinjected into the cell
containing theta = 0.  Mass is conserved to round-off and positivity is
unconditional.  At Courant number 1 the transport is an exact shift in
floating point.

At a fixed step the update is one column-stochastic n x n matrix A, a
Markov-chain approximation in the sense of Kushner and Dupuis; `StepOperator`
holds it and applies it as a stencil.  `solve` starts from a point mass at
params.theta0 and ends exactly at t_end.  Its snapshots are the rows of one
table, checked once and returned read-only beside their times; `Snapshots`
makes each row's `ProbabilityField` view only when it is read.  A solve long
enough for dense powers of A to pay, from (n / BREAK_EVEN_CELLS)^3 steps on n
cells, advances in uniform blocks of B ~ sqrt(n_steps) steps, as in ParaExp
(Gander and Guettel, SIAM J. Sci. Comput. 35, C123 (2013)) in exact linear
form: a short loop of matrix-vector products with A^B gives every block
start, a few matrix products give the population at every step from the
block starts and the source forcing, and stencil steps over the stack of the
blocks that hold a snapshot give the snapshots, whatever the stride.  A
shorter solve runs the stencil one state at a time.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import HALF_PI, ModelParams, reduce_angle, time_steps

DEFAULT_N_CELLS = 256
DEFAULT_CFL = 0.5
MAX_GAMMA_DT = 0.1
# A block is at most MAX_BLOCK steps (its forcing's Toeplitz product grows as
# B^2) on at most MAX_BLOCK_CELLS cells (each dense n x n power under 8 MB).
# The blocks run in chunks of about CHUNK_ELEMENTS numbers (1 MB) each.
MAX_BLOCK = 1024
MAX_BLOCK_CELLS = 1024
BREAK_EVEN_CELLS = 28  # see _block_size
CHUNK_ELEMENTS = 2**17


# eq=False: field-wise == over ndarrays is ambiguous, so == is identity
@dataclass(eq=False)
class ThetaGrid:
    """Uniform periodic grid of n_cells cells covering [-pi/2, pi/2).

    The step, the solve and the population rate read its tables at the cell
    centers: sin2 = sin^2, sin4 = sin^4 and sin_2theta = sin(2 theta).
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
        """Cell of the reduced angle theta, elementwise on arrays; pi/2 wraps to 0."""
        if not np.isfinite(theta).all():
            raise ValueError("theta must be finite, got NaN or inf")
        index = (reduce_angle(theta) + HALF_PI) // self.cell_width % self.n_cells
        return index.astype(int) if isinstance(index, np.ndarray) else int(index)


# eq=False: field-wise == over ndarrays is ambiguous, so == is identity
@dataclass(eq=False, slots=True)
class ProbabilityField:
    """Discretized density p(theta) on a ThetaGrid."""

    grid: ThetaGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError("values must have one entry per grid cell")
        self._check(self.values)

    @staticmethod
    def _check(values):
        if not 0.0 <= values.min() <= values.max() < math.inf:  # NaN fails min
            raise ValueError("densities must be finite and nonnegative")


def _view(grid: ThetaGrid, values) -> ProbabilityField:
    """A field over a row of a table that has passed ProbabilityField._check."""
    view = object.__new__(ProbabilityField)
    view.grid, view.values = grid, values
    return view


class Snapshots(Sequence):
    """A table's rows as `ProbabilityField` views, made as they are read; indexes,
    slices (a `Snapshots` too) and iteration behave as on a list of the views."""

    __slots__ = ("grid", "table")

    def __init__(self, grid: ThetaGrid, table):
        self.grid, self.table = grid, table

    def __len__(self):
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Snapshots(self.grid, self.table[index])
        k = range(len(self))[index]  # IndexError past either end
        return _view(self.grid, self.table[k])

    def __iter__(self):
        return map(_view, repeat(self.grid), self.table)


def max_stable_dt(params: ModelParams, grid: ThetaGrid):
    """Largest dt with Courant number DEFAULT_CFL and gamma*dt <= 0.1."""
    dt = MAX_GAMMA_DT / params.gamma
    if params.omega > 0:
        # not cfl*w/(0.5*omega): halving a subnormal omega underflows to 0;
        # dividing by it overflows to inf, which min() ignores
        dt = min(dt, 2.0 * DEFAULT_CFL * grid.cell_width / params.omega)
    return dt


class StepOperator:
    """One split step of size dt as a fixed linear map A on the cell densities.

    Built once per (params, grid, dt): it owns the Courant number c, the
    per-cell survival factors and their complements, the loss factors.
    """

    def __init__(self, params: ModelParams, grid: ThetaGrid, dt: float):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        if params.omega > 0 and dt * 0.5 * params.omega > grid.cell_width * (1 + 1e-12):
            raise ValueError(
                f"dt={dt} violates the advective stability bound "
                f"dt <= {grid.cell_width / (0.5 * params.omega)}"
            )
        if dt * params.gamma > MAX_GAMMA_DT * (1 + 1e-12):
            raise ValueError(f"dt={dt} violates gamma*dt <= {MAX_GAMMA_DT}")
        self.grid = grid
        # a c past 1 by round-off, as the check above admits, counts as 1:
        # 1 - c never goes negative
        self.courant = min(0.5 * params.omega * dt / grid.cell_width, 1.0)
        self.survival = np.exp(-params.gamma * grid.sin2 * dt)
        self.loss = 1.0 - self.survival
        self._work = np.empty(grid.n_cells)

    def apply(self, values, out=None):
        """A along the last axis: upwind transport, then sink + source reinjection.

        Writes into out (a new array if None; it may be values itself) and
        returns it.  One state's step works in the operator's one spare row, so
        one thread at a time; with out given it allocates nothing.
        """
        c = self.courant
        out = np.empty(values.shape) if out is None else out
        work = self._work if out.ndim == 1 else np.empty(out.shape)
        if c > 0.0:
            # (1 - c) v + c upwind, an exact shift at c = 1; .T: cells first
            np.multiply(values.T[:-1], c, out=work.T[1:])
            work.T[0] = values.T[-1] * c
            np.multiply(values, 1.0 - c, out=out)
            values = np.add(out, work, out=out)
        # density increment = removed mass / cell_width = sum of removed densities
        removed = np.add.reduce(np.multiply(values, self.loss, out=work), axis=-1)
        np.multiply(values, self.survival, out=out)
        out.T[self.grid.source_index] += removed
        return out

    def matrix(self):
        """A as a dense n x n array (column j is the stencil applied to e_j)."""
        return self.apply(np.eye(self.grid.n_cells)).T


def population_rate(field: ProbabilityField, params: ModelParams):
    """d(rho1)/dt as the quadrature of p * (omega/2 * sin(2 theta) - gamma sin^4)."""
    g, v = field.grid, field.values
    return float(
        g.cell_width * (0.5 * params.omega * v.dot(g.sin_2theta) - params.gamma * v.dot(g.sin4))
    )


@dataclass
class SolveResult:
    """Sampled populations plus periodic field snapshots, the last at t_end.

    Row i of the read-only table is the density at snapshot_times[i];
    snapshots views the rows as `ProbabilityField`s, and final views the last.
    """

    times: np.ndarray
    rho0: np.ndarray
    rho1: np.ndarray
    table: np.ndarray
    snapshot_times: np.ndarray
    final: ProbabilityField

    @property
    def snapshots(self) -> Snapshots:
        return Snapshots(self.final.grid, self.table)


def _hazard_integrals(angle, dt, params: ModelParams):
    """Exact int gamma*sin^2 over each step of the characteristic angle[k].

    With y = omega*dt/2 the integral is gamma*dt/2 * (1 - cos(a + b) sin(y)/y)
    for a step from a to b = a + y; sin(y)/y -> 1 covers omega = 0 without
    dividing by omega.
    """
    y = 0.5 * params.omega * dt
    ratio = np.sinc(y / math.pi)
    return 0.5 * params.gamma * dt * (1.0 - np.cos(angle[:-1] + angle[1:]) * ratio)


def _point_mass(angle, dt, params: ModelParams):
    """Survival of the not-yet-jumped point mass at each angle[k]: the running
    product of exp(-hazard) over the steps, exact 0 once it leaves the normal range.

    Past a cumulative hazard of -ln(tiny) the product is subnormal, where
    x * f can round back to x and never reach 0, and every operation on it
    runs at subnormal speed.  The product stops one unit of hazard later, far
    beyond the round-off of either running sum, and what fell below tiny, a
    suffix since no factor exceeds 1, is 0.
    """
    hazard = _hazard_integrals(angle, dt, params)
    tiny, stop = np.finfo(float).tiny, hazard.size
    if hazard.sum() > 1.0 - math.log(tiny):
        stop = int(np.searchsorted(np.cumsum(hazard), 1.0 - math.log(tiny), side="right"))
    point = np.zeros(angle.size)
    point[0] = 1.0
    np.cumprod(np.exp(-hazard[:stop]), out=point[1 : stop + 1])
    point[point.size - np.searchsorted(point[::-1], tiny) :] = 0.0
    return point


def _block_size(n_steps, n_cells):
    """Steps per dense block, or 1 to run the stencil step by step.

    B is the largest power of two <= sqrt(n_steps), where B-row tables (B n^2)
    balance n_steps / B chain links (n^2 each).  The stencil runs below
    (n / BREAK_EVEN_CELLS)^3 steps on n cells: a dense product costs about n^3.
    """
    if n_cells > MAX_BLOCK_CELLS or n_steps * BREAK_EVEN_CELLS**3 < n_cells**3:
        return 1
    return min(1 << (math.isqrt(n_steps).bit_length() - 1), MAX_BLOCK)


def _stencil(op: StepOperator, table, forcing, s2, stride, out):
    """Step by step, each into the row of the state it makes; fills table like _blocks."""
    source = op.grid.source_index
    values = table[0]
    for k, f in enumerate(forcing.tolist(), 1):
        out[k - 1] = s2.dot(values)
        values = op.apply(values, out=table[-(-k // stride)])
        values[source] += f


def _block_tables(a, s2, source, size):
    """A^size and the rows s2^T A^j and (A^j e_source)^T for j < size, a power of two.

    Built by doubling: with P = A^span, the tables grow from span to 2 span
    rows by one product with P, and P squares to A^(2 span).  Every power
    keeps mass as A does: the round-off in each column sum, which would
    otherwise compound through the products, goes back into the source row,
    where the scheme reinjects what the sink removes.
    """

    def keep_mass(m):
        m[source] += 1.0 - m.sum(axis=0)
        return m

    rows = s2[None, :]
    states = np.eye(a.shape[0])[[source]]
    p = keep_mass(a)
    for _ in range(size.bit_length() - 1):
        rows = np.vstack([rows, rows @ p])
        states = np.vstack([states, states @ p.T])
        p = keep_mass(p @ p)
    return p, rows, states


def _blocks(op: StepOperator, table, forcing, s2, stride, size, out):
    """Uniform blocks of size steps from table[0], the state at step 0.

    Block b starts at step b * size, whatever the snapshots; the state at
    step k goes into table[ceil(k / stride)] if that row is a snapshot's, and
    out[k] gets s2 . state for every step k before the last.  Over a block
    from state v with source forcing f_0..f_(size-1), 0 past the last step,
    the state ends at A^size v + sum_j f_j A^(size-1-j) e_source, and
    s2 . state_j = (s2^T A^j) v + sum_{i<j} h_(j-1-i) f_i, h_j = s2^T A^j e_source.

    Chunks of CHUNK_ELEMENTS / max(size, n) blocks keep the work arrays from
    growing with the step count.  Per chunk, one product of the reversed
    forcing rows with the (A^i e_source) table gives every block's pushed
    forcing, a loop of products with A^size every block start, and two
    products every population: the starts times the s2^T A^j rows plus the
    forcing rows times the strictly upper triangular Toeplitz matrix of h.
    Then stencil steps advance the starts of the blocks that hold a snapshot
    and write each snapshot's row.
    """
    n_steps, n_cells = forcing.size, op.grid.n_cells
    source = op.grid.source_index
    power, rows, states = _block_tables(op.matrix(), s2, source, size)
    # toeplitz[i, j] = h_(j-1-i) above the diagonal, 0 on and below it
    padded = np.append(np.zeros(size), rows[:-1, source])
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, size)[::-1].copy()
    # the last step opens a block of its own when size divides it
    n_blocks = n_steps // size + 1
    # one stack row per block that holds a snapshot, ordered by the offset
    # of its last one, latest first: the rows still stepping are a prefix
    block, offset = np.divmod(np.append(np.arange(0, n_steps, stride), n_steps), size)
    ends = np.flatnonzero(np.diff(block, append=n_blocks))
    rank = np.argsort(-offset[ends], kind="stable")
    held, reach = block[ends[rank]], offset[ends[rank]]
    stack = np.empty((held.size, n_cells))
    chunk = max(1, CHUNK_ELEMENTS // max(size, n_cells))
    starts = np.empty((min(chunk, n_blocks) + 1, n_cells))
    starts[0] = table[0]
    for b in range(0, n_blocks, chunk):
        m = min(chunk, n_blocks - b)
        span = forcing[b * size : (b + m) * size]
        ahead = np.zeros((m, size))
        ahead.ravel()[: span.size] = span
        pushed = ahead[:, ::-1] @ states
        for i in range(m):
            starts[i + 1] = power @ starts[i] + pushed[i]
        pops = starts[:m] @ rows.T + ahead @ toeplitz
        out[b * size : b * size + span.size] = pops.ravel()[: span.size]
        inside = (b <= held) & (held < b + m)
        stack[inside] = starts[held[inside] - b]
        starts[0] = starts[m]
    # the rows that step on to each offset, each up to its block's last snapshot
    active = np.searchsorted(-reach, -np.arange(reach[0] + 1), side="right")
    snapshot_offsets = set(offset.tolist())
    for j, a in enumerate(active.tolist()):
        step = held[:a] * size + j
        if j:
            live = op.apply(stack[:a], out=stack[:a])
            live[:, source] += forcing[step - 1]
        if j in snapshot_offsets:
            kept = (step % stride == 0) | (step == n_steps)
            # with a snapshot every step, every row is kept and copies once
            table[-(-step[kept] // stride)] = stack[:a] if kept.all() else stack[:a][kept]


def solve(
    params: ModelParams,
    grid: ThetaGrid,
    t_end: float,
    dt: float,
    snapshot_stride: int | None = None,
) -> SolveResult:
    """Run the solver from a delta at params.theta0 to t_end.

    The solve takes the n_steps equal steps of t_end/n_steps that
    core.time_steps counts, so it ends exactly at t_end with a step no longer
    than dt (to 1e-13).  Snapshots are kept every snapshot_stride steps and
    at t_end; by default there are two, at 0 and t_end.
    The not-yet-jumped point mass moves analytically along its characteristic
    with exact survival decay, and only the post-jump part lives on the grid,
    which starts empty: grid schemes smear a transported delta, and at
    moderate resolution that smearing dominates every comparison against
    trajectory ensembles.  Snapshots deposit the surviving mass into the cell
    containing the characteristic; the rho series uses the exact angle.
    """
    n_steps, dt = time_steps(t_end, dt)
    op = StepOperator(params, grid, dt)
    if snapshot_stride is None:
        snapshot_stride = n_steps
    if not (isinstance(snapshot_stride, numbers.Integral) and snapshot_stride >= 1):
        raise ValueError(f"snapshot_stride must be an integer >= 1, got {snapshot_stride!r}")
    # a longer stride keeps the same two snapshots, and keeps np.arange's steps integers
    snapshot_stride = min(snapshot_stride, n_steps)
    dx, s2 = grid.cell_width, grid.sin2
    times = np.linspace(0.0, t_end, n_steps + 1)
    angle = params.theta0 + 0.5 * params.omega * times
    point = _point_mass(angle, dt, params)
    # density the point mass feeds into the source cell during step k
    forcing = (point[:-1] - point[1:]) / dx

    size = _block_size(n_steps, grid.n_cells)
    grid_rho1 = np.empty(n_steps + 1)
    # the snapshot table: row i holds the state at step min(i * stride, n_steps)
    steps = np.append(np.arange(0, n_steps, snapshot_stride), n_steps)
    table = np.zeros((steps.size, grid.n_cells))
    if size == 1:
        _stencil(op, table, forcing, s2, snapshot_stride, grid_rho1)
    else:
        _blocks(op, table, forcing, s2, snapshot_stride, size, grid_rho1)
    grid_rho1[n_steps] = s2 @ table[-1]
    # a row whose point mass is gone gains an exact 0
    table[np.arange(steps.size), grid.cell_of(angle[steps])] += point[steps] / dx
    ProbabilityField._check(table)
    snapshot_times = times[steps]
    table.flags.writeable = snapshot_times.flags.writeable = False
    rho1 = dx * grid_rho1 + point * np.sin(angle) ** 2
    # A keeps mass, so the grid holds the cumulative forcing, which is what
    # the point mass has lost: rho0 + rho1 stays at the unit total
    return SolveResult(times, 1.0 - rho1, rho1, table, snapshot_times, _view(grid, table[-1]))
