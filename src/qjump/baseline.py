"""Two-level Lindblad baseline and the truncated-evolution delay function.

Basis ordering is (ground, excited).  The dissipator uses the lowering
operator in the trace-conserving standard form, with the rate fixed so the
excited population decays at exactly gamma when the drive is off.  Dropping
the gain (recycling) term gives a nonconservative evolution whose trace loss
rate, gamma*rho_ee, is the delay function: the density of the first emission
after a reset to the ground state.

A state is the real 4-vector x = (rho_gg, rho_ee, Re rho_ge, Im rho_ge),
Hermitian by construction.  One real 4x4 generator, `_generator(params,
weight)`, carries the master equation; `weight` scales the jump term
gamma*rho_ee -> rho_gg (1: full, 0: truncated).  On a uniform time grid,
which `integrate` always has and `delay_function` requires, the states come
from powers of the exact propagator exp(L h) (`_powers`, in the manner of
the PDE's blocks).  `steady_state` solves for L's null vector, and
`delay_tail_cutoff` reads the slowest decay rate off the truncated L.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ModelParams, time_steps
from .stats import DelayDistribution

GROUND = (1.0, 0.0, 0.0, 0.0)
# most (omega + gamma) * h per step; at this bound _expm's round-off (about the
# norm times eps) stayed under 6.3e-10 per entry against a 60-digit exp(L h)
MAX_STEP_NORM = 1e6


def _generator(params: ModelParams, weight: float):
    """Master equation d/dt (rho_gg, rho_ee, Re rho_ge, Im rho_ge) = L x.

    H = (omega/2) sigma_x drives the populations through Im rho_ge; decay at
    gamma empties rho_ee into rho_gg with the jump term scaled by `weight`,
    and damps the coherence at gamma/2.
    """
    om, g = params.omega, params.gamma
    return np.array(
        [
            [0.0, weight * g, 0.0, -om],
            [0.0, -g, 0.0, om],
            [0.0, 0.0, -0.5 * g, 0.0],
            [0.5 * om, -0.5 * om, 0.0, -0.5 * g],
        ]
    )


def _expm(a):
    """exp(a) of an n x n matrix, n <= 4: a Taylor series of a / 2**s, squared s times.

    s brings the 1-norm of the scaled matrix below 1/2, where 16 terms leave
    a remainder far below double precision.  The norm is taken of a/4, whose
    column sums cannot overflow for n <= 4.
    """
    s = max(0, math.frexp(np.abs(0.25 * a).sum(axis=0).max())[1] + 3)
    a = a * 0.5**s
    term = np.eye(len(a))
    out = term
    for k in range(1, 17):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _check_step(params: ModelParams, h: float, name: str):
    if not (params.omega + params.gamma) * h <= MAX_STEP_NORM:
        raise ValueError(f"{name} under-resolves the evolution: a step of {h} "
                         f"takes (omega + gamma) * h past {MAX_STEP_NORM:g}")


def _powers(generator, x, h, n):
    """States of x' = generator x from x at times k h, k = 0..n: an (n + 1, 4) array.

    With P = exp(generator h) and B = ceil(sqrt(n + 1)), a table of P^j, j < B,
    takes B products, the chain of block starts P^(bB) x about n/B, and one
    product of the starts with the table gives every state, P^j times start
    b at step bB + j: round-off builds up over about 2 sqrt(n) products.
    """
    size = math.isqrt(n) + 1
    p, table = _expm(generator * h), [np.eye(4)]
    for _ in range(size):
        table.append(p @ table[-1])
    power = table.pop()
    starts = np.empty((-(-(n + 1) // size), 4))
    starts[0] = x
    for b in range(1, len(starts)):
        starts[b] = power @ starts[b - 1]
    # row b holds P^j starts[b] for j < size, one after another
    return (starts @ np.vstack(table).T).reshape(-1, 4)[: n + 1]


def integrate(x0, params: ModelParams, t_end: float, dt: float, truncated: bool = False):
    """Evolution from the 4-vector x0; returns (times, states), states[k] at times[k].

    Takes n_steps = ceil(t_end/dt) equal steps of t_end/n_steps, each exact
    up to a round-off of about 1e-15 * h * (omega + gamma).
    """
    try:
        x = np.asarray(x0, dtype=float)
    except (TypeError, ValueError):  # not numbers, or a ragged sequence
        x = np.empty(0)
    if x.shape != (4,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be 4 finite numbers, got {x0!r}")
    n_steps, h = time_steps(t_end, dt)
    _check_step(params, h, "dt")
    generator = _generator(params, 0.0 if truncated else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        states = _powers(generator, x, h, n_steps)
    if not np.all(np.isfinite(states)):
        raise ValueError(f"x0={x0!r} is too large: the states overflow")
    return np.linspace(0.0, t_end, n_steps + 1), states


def steady_state(params: ModelParams):
    """Stationary 4-vector of the full evolution: L x = 0 with unit trace."""
    # L scaled to unit max entry, so its rows cannot outweigh the trace row
    a = np.vstack([_generator(params, 1.0) / max(params.omega, params.gamma),
                   [1.0, 1.0, 0.0, 0.0]])
    return np.linalg.lstsq(a, [0.0, 0.0, 0.0, 0.0, 1.0], rcond=None)[0]


def delay_tail_cutoff(params: ModelParams) -> float:
    """Time T past which the delay function holds about 1e-9 of its mass.

    That mass is the trace the truncated evolution keeps at T, which decays as
    exp(-r T), r the slowest decay rate (-max Re of L_0's eigenvalues); T =
    ln(1e9)/r left (0.85-1.15)e-9 at omega/gamma = 1e-3 to 100.
    """
    rate = -float(np.linalg.eigvals(_generator(params, 0.0)).real.max())
    cutoff = math.log(1e9) / rate if rate > 0 else math.inf
    if not cutoff < math.inf:
        raise ValueError(
            f"omega={params.omega}, gamma={params.gamma} give the delay function "
            "no tail cutoff within the float range"
        )
    return cutoff


def delay_function(params: ModelParams, tau_grid) -> DelayDistribution:
    """Delay function from the truncated evolution started in the ground state.

    Equal to -d/dtau Tr rho(tau) = gamma * rho_ee(tau), with the truncated
    state carried along by powers of the one propagator exp(L_0 h).  The
    grid must be uniform, as np.linspace gives: every tau_k within 8 eps
    tau_n of k tau_n/n.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size < 2:
        raise ValueError("tau_grid must contain at least two points")
    steps = np.diff(tau_grid)
    if not (tau_grid[0] == 0.0 and np.all(steps > 0)):
        raise ValueError("tau_grid must start at 0 and increase")
    _check_step(params, float(steps.max()), "tau_grid")
    n = steps.size
    h = tau_grid[-1] / n
    if not np.all(np.abs(tau_grid - h * np.arange(n + 1)) <= 8 * np.finfo(float).eps * tau_grid[-1]):
        raise ValueError("tau_grid must be uniform, as np.linspace gives")
    excited = _powers(_generator(params, 0.0), GROUND, h, n)[:, 1]
    # rho_ee is |psi_e|^2 >= 0 (the truncated state stays pure), but where it
    # touches 0 the 4x4 step can round it to about -1e-17
    density = params.gamma * np.maximum(excited, 0.0)
    return DelayDistribution(tau_grid, density, kind="baseline")
