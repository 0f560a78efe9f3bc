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
table, checked once and handed out as `ProbabilityField` views.  A solve long
enough for dense powers of A to pay advances in blocks of B steps, B chosen
from the snapshot stride, the step count and the grid size, in the manner of
ParaExp-style time parallelism (Gander and Guettel, SIAM J. Sci. Comput. 35,
C123 (2013)), here in its exact linear form: one short loop of
matrix-vector products with A^B gives every block start, and the states and
populations in between come from batched work over all the blocks at once.
With a snapshot every step (the fill), B - 1 stencil steps over the stack of
block starts give every state.  With a sparser stride (the blocks), a few
matrix products give the population at every step from the block starts
and the source forcing.  A solve too short for the powers to pay runs the
stencil one state at a time.
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
# Block-size cost model, in dense multiply-adds (about 0.05 ns each with a
# single-threaded BLAS; the fits are in BENCH_pde_fill.json and
# BENCH_pde_chunked.json): one stencil step, a handful of numpy calls, costs
# about STENCIL_COST of them (12.5 us), a matrix-vector product about
# MATVEC_COST per element, a stencil step over a stack of states CELL_COST per
# cell on top of a stencil step's calls, and one link of the strided blocks'
# chain of block starts CHAIN_COST (2 us) on top of its matrix-vector product.
# A block is at most MAX_BLOCK steps, because its forcing's Toeplitz product
# grows as B^2, and runs on at most MAX_BLOCK_CELLS cells, which keeps the few
# dense n x n powers it holds under 8 MB each.  The strided blocks run in
# chunks whose arrays hold about CHUNK_ELEMENTS numbers (1 MB) each.
STENCIL_COST = 250_000
MATVEC_COST = 5
CELL_COST = 150
CHAIN_COST = 40_000
MAX_BLOCK = 1024
MAX_BLOCK_CELLS = 1024
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
        index = (reduce_angle(theta) + HALF_PI) // self.cell_width % self.n_cells
        return index.astype(int) if isinstance(index, np.ndarray) else int(index)


# eq=False: field-wise == over ndarrays is ambiguous, so == is identity
@dataclass(eq=False)
class ProbabilityField:
    """Discretized density p(theta) on a ThetaGrid at a given time."""

    grid: ThetaGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise ValueError("values must have one entry per grid cell")
        self._check(self.values)

    @staticmethod
    def _check(values):
        if not 0.0 <= values.min() <= values.max() < math.inf:  # NaN fails min
            raise ValueError("densities must be finite and nonnegative")

    @classmethod
    def _row(cls, grid: ThetaGrid, values, time: float):
        """A field over a row of a table that has passed _check."""
        view = cls.__new__(cls)
        view.grid, view.values, view.time = grid, values, time
        return view


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
        self.courant = 0.5 * params.omega * dt / grid.cell_width
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
    """Sampled populations plus periodic field snapshots, the last at t_end."""

    times: np.ndarray
    rho0: np.ndarray
    rho1: np.ndarray
    snapshots: list

    @property
    def final(self) -> ProbabilityField:
        return self.snapshots[-1]


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


def _block_size(n_steps, stride, n_cells):
    """Steps per dense block, or 1 to run the stencil step by step.

    Each power of two b up to MAX_BLOCK is priced, and the size with the
    lowest estimated cost wins.  With a snapshot every stride > 1 steps,
    blocks end on every snapshot: each gap between snapshots is blocks of
    b steps and a shorter remainder, or one block if the gap is shorter.
    With a snapshot every step (stride 1, the fill) the blocks are b steps
    each, the last one shorter.

    The set-up costs 2 + floor(log2 B) dense n x n products (A and its
    squarings), plus popcount(L) - 1 for the power of each block length L,
    each product with about two stencil steps of numpy calls, and B n^2 for
    each of the two block tables.  In the fill each block costs a stencil step
    of numpy calls plus a matrix-vector product, and each of its B - 1 steps
    over the stack of block starts a stencil step plus CELL_COST per cell,
    n_steps n cells in all.  A strided block costs CHAIN_COST of calls and a
    matrix-vector product in the chain of block starts, and 2 B n + B^2
    multiply-adds in the chunked products (its pushed forcing, and its
    populations from its start and from its forcing).
    """
    best, best_cost = 1, n_steps * STENCIL_COST
    if n_cells > MAX_BLOCK_CELLS:
        return best
    fill = stride == 1
    gap = n_steps if fill else min(stride, n_steps)
    b = 1
    while b < min(gap, MAX_BLOCK):
        b *= 2
        if fill:
            size, lengths, n_blocks = b, {b}, n_steps // b
            cost = n_blocks * (STENCIL_COST + MATVEC_COST * n_cells**2)
            cost += (size - 1) * STENCIL_COST + n_steps * n_cells * CELL_COST
        else:
            size = min(b, gap)
            lengths, n_blocks = _strided_blocks(n_steps, stride, size)
            cost = n_blocks * (CHAIN_COST + MATVEC_COST * n_cells**2 + size * (2 * n_cells + size))
        products = 2 + int(math.log2(size)) + sum(bin(n).count("1") - 1 for n in lengths)
        cost += products * (n_cells**3 + 2 * STENCIL_COST) + 2 * size * n_cells**2
        if cost < best_cost:
            best, best_cost = size, cost
    return best


def _strided_blocks(n_steps, stride, size):
    """The distinct lengths and the number of the strided blocks: each gap
    between snapshots (the last one possibly shorter) is blocks of size steps
    and a shorter remainder."""
    full, last = divmod(n_steps, stride)
    gaps = {stride, last} if full else {last}
    lengths = {size for gap in gaps if gap >= size} | {gap % size for gap in gaps}
    return lengths - {0}, full * -(-stride // size) + -(-last // size)


def _stencil(op: StepOperator, table, forcing, s2, stride, out):
    """Step by step, each into the row of the state it makes; fills table like _blocks."""
    source = op.grid.source_index
    rows = list(table)
    values = rows[0]
    for k, f in enumerate(forcing.tolist(), 1):
        out[k - 1] = s2.dot(values)
        values = op.apply(values, out=rows[-(-k // stride)])
        values[source] += f


def _chain(powers, starts, pushed):
    """starts[b + 1] = powers[b] @ starts[b] + pushed[b], block after block."""
    for b, power in enumerate(powers):
        starts[b + 1] = power @ starts[b] + pushed[b]


def _fill(op: StepOperator, table, forcing, s2, size, out):
    """Every state from table[0], the state at step 0, into table[k] for step k.

    The block starts table[::size] come first, each from the one before by
    A^size and the forcing its block adds (as in _blocks).  Then size - 1
    stencil steps advance the stack of every block's start at once, and step
    j writes the states at steps j, size + j, ...; out[k] gets s2 . state for
    every step k before the last.
    """
    n_steps = forcing.size
    source = op.grid.source_index
    full = n_steps // size
    _, states, powers = _block_tables(op.matrix(), s2, source, size, {size})
    starts = table[::size]
    pushed = forcing[: full * size].reshape(full, size)[:, ::-1] @ states
    _chain([powers[size]] * full, starts, pushed)
    stack = starts[: -(-n_steps // size)].copy()
    for j in range(1, size):
        f = forcing[j - 1 :: size]
        stack = op.apply(stack[: f.size], out=stack[: f.size])
        stack[:, source] += f
        table[j::size] = stack
    np.matmul(table[:-1], s2, out=out[:-1])


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


def _blocks(op: StepOperator, table, forcing, s2, stride, size, out):
    """Blocks of at most size steps from table[0], the state at step 0.

    Blocks restart at every snapshot: each gap of stride steps (the last one
    possibly shorter) is blocks of size steps and a shorter remainder.  The
    state at step k goes into table[ceil(k / stride)], and out[k] gets
    s2 . state for every step k before the last.  Over a block of L steps
    from state v with source forcing f_0..f_{L-1}: the state ends at
    A^L v + sum_j f_j A^(L-1-j) e_source, and
    s2 . state_j = (s2^T A^j) v + sum_{i<j} h_(j-1-i) f_i, h_j = s2^T A^j e_source.

    The blocks run in chunks of CHUNK_ELEMENTS / max(size, n) blocks, so the
    work arrays do not grow with the step count.  A chunk lays out each
    block's forcing as a row of size entries, zero-padded, and then: one
    product of the reversed rows with the (A^i e_source) table gives every
    block's pushed forcing; _chain gives every block start, the only loop
    over blocks; and two products give every population, the starts times
    the s2^T A^j rows plus the forcing rows times the strictly upper
    triangular Toeplitz matrix of h.
    """
    n_steps, n_cells = forcing.size, op.grid.n_cells
    source = op.grid.source_index
    lengths, n_blocks = _strided_blocks(n_steps, stride, size)
    rows, states, powers = _block_tables(op.matrix(), s2, source, size, lengths)
    # toeplitz[i, j] = h_(j-1-i) above the diagonal, 0 on and below it
    padded = np.append(np.zeros(size), rows[:-1, source])
    toeplitz = np.lib.stride_tricks.sliding_window_view(padded, size)[::-1].copy()
    j = np.arange(size)
    chunk = max(1, CHUNK_ELEMENTS // max(size, n_cells))
    starts = np.empty((min(chunk, n_blocks) + 1, n_cells))
    starts[0] = table[0]
    for b in range(0, n_blocks, chunk):
        gap, i = np.divmod(np.arange(b, min(b + chunk, n_blocks)), -(-stride // size))
        first = gap * stride + i * size
        # size steps on, or at the end of the gap, or at the last step
        end = np.minimum(np.minimum(first + size, (gap + 1) * stride), n_steps)
        m, length = first.size, (end - first)[:, None]
        span = slice(first[0], end[-1])
        # each block's forcing f_0..f_(L-1) as a row of size, zero-padded at
        # the end, and reversed, f_(L-1)..f_0, zero-padded at the end
        ahead, behind = np.zeros((2, m, size))
        live = j < length
        ahead[live] = behind[:, ::-1][j >= size - length] = forcing[span]
        _chain([powers[n] for n in length[:, 0].tolist()], starts, behind @ states)
        out[span] = (starts[:m] @ rows.T + ahead @ toeplitz)[live]
        # the blocks that end on a snapshot fill their table rows
        done = (end % stride == 0) | (end == n_steps)
        table[-(-end[done] // stride)] = starts[1 : m + 1][done]
        starts[0] = starts[m]


def solve(
    params: ModelParams,
    grid: ThetaGrid,
    t_end: float,
    dt: float,
    snapshot_stride: int | None = None,
) -> SolveResult:
    """Run the solver from a delta at params.theta0 to t_end.

    The solve takes n_steps = ceil(t_end/dt) equal steps of t_end/n_steps, so
    it ends exactly at t_end with a step no longer than dt.  Snapshots are
    kept every snapshot_stride steps (default n_steps // 100) and at t_end.
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
        snapshot_stride = max(1, n_steps // 100)
    if not (isinstance(snapshot_stride, numbers.Integral) and snapshot_stride >= 1):
        raise ValueError(f"snapshot_stride must be an integer >= 1, got {snapshot_stride!r}")
    dx, s2 = grid.cell_width, grid.sin2
    times = np.linspace(0.0, t_end, n_steps + 1)
    angle = params.theta0 + 0.5 * params.omega * times
    point = _point_mass(angle, dt, params)
    # density the point mass feeds into the source cell during step k
    forcing = (point[:-1] - point[1:]) / dx

    size = _block_size(n_steps, snapshot_stride, grid.n_cells)
    grid_rho1 = np.empty(n_steps + 1)
    # the snapshot table: row i holds the state at step min(i * stride, n_steps)
    steps = np.append(np.arange(0, n_steps, snapshot_stride), n_steps)
    table = np.zeros((steps.size, grid.n_cells))
    if size == 1:
        _stencil(op, table, forcing, s2, snapshot_stride, grid_rho1)
    elif snapshot_stride == 1:
        _fill(op, table, forcing, s2, size, grid_rho1)
    else:
        _blocks(op, table, forcing, s2, snapshot_stride, size, grid_rho1)
    grid_rho1[n_steps] = s2 @ table[-1]
    # a row whose point mass is gone gains an exact 0
    table[np.arange(steps.size), grid.cell_of(angle[steps])] += point[steps] / dx
    ProbabilityField._check(table)
    snapshots = [ProbabilityField._row(grid, v, t) for v, t in zip(table, times[steps].tolist())]
    rho1 = dx * grid_rho1 + point * np.sin(angle) ** 2
    # A keeps mass, so the grid holds the cumulative forcing, which is what
    # the point mass has lost: rho0 + rho1 stays at the unit total
    return SolveResult(times, 1.0 - rho1, rho1, snapshots)
