"""Two-level Lindblad baseline and the truncated-evolution delay function.

Basis ordering is (ground, excited).  The dissipator uses the lowering
operator in the trace-conserving standard form, with the rate fixed so the
excited population decays at exactly gamma when the drive is off.  Dropping
the gain (recycling) term gives a nonconservative evolution whose trace loss
rate, gamma*rho_ee, is the delay function: the density of the first emission
after a reset to the ground state.

One real 4x4 generator, `_generator(params, weight)`, acting on
(rho_gg, rho_ee, Re rho_ge, Im rho_ge), carries the whole master equation;
`weight` scales the jump term gamma*rho_ee -> rho_gg (1: full evolution,
0: truncated).  `integrate` and `delay_function` advance the state by the
exact step propagator exp(L h), and `steady_state` solves for L's null vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, time_steps
from .stats import DelayDistribution


@dataclass
class DensityMatrix2:
    """2x2 Hermitian density matrix in the (ground, excited) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if not np.allclose(self.matrix, self.matrix.conj().T, atol=1e-10):
            raise ValueError("density matrix must be Hermitian")

    @classmethod
    def ground(cls):
        return cls(np.diag([1.0, 0.0]).astype(complex))

    @classmethod
    def excited(cls):
        return cls(np.diag([0.0, 1.0]).astype(complex))

    @property
    def rho_gg(self):
        return self.matrix[0, 0].real

    @property
    def rho_ee(self):
        return self.matrix[1, 1].real

    def trace(self):
        return float(self.matrix.trace().real)


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


def _density_matrix(x) -> DensityMatrix2:
    gg, ee, re_ge, im_ge = x
    rho_ge = complex(re_ge, im_ge)
    return DensityMatrix2(np.array([[gg, rho_ge], [rho_ge.conjugate(), ee]]))


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


def integrate(
    rho0: DensityMatrix2,
    params: ModelParams,
    t_end: float,
    dt: float,
    truncated: bool = False,
):
    """Evolution by the exact step propagator; returns (times, list of DensityMatrix2).

    Takes n_steps = ceil(t_end/dt) equal steps of t_end/n_steps.  Any step is
    stable, with a trace round-off of about 1e-15 * h * (omega + gamma) each.
    """
    n_steps, h = time_steps(t_end, dt)
    propagator = _expm(_generator(params, 0.0 if truncated else 1.0) * h)
    m = rho0.matrix
    x = np.array([m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag])
    states = [_density_matrix(x)]
    for _ in range(n_steps):
        x = propagator @ x
        states.append(_density_matrix(x))
    return np.linspace(0.0, t_end, n_steps + 1), states


def steady_state(params: ModelParams) -> DensityMatrix2:
    """Stationary state of the full evolution: L x = 0 with unit trace."""
    a = np.vstack([_generator(params, 1.0), [1.0, 1.0, 0.0, 0.0]])
    b = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return _density_matrix(x)


def delay_function(params: ModelParams, tau_grid) -> DelayDistribution:
    """Delay function from the truncated evolution started in the ground state.

    Equal to -d/dtau Tr rho(tau) = gamma * rho_ee(tau), where the truncated
    state advances from one grid point to the next by the exact step
    propagator exp(L_0 h), computed once per distinct spacing h.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size < 2:
        raise ValueError("tau_grid must contain at least two points")
    # the step generator times the span must stay finite for _expm
    span_rate = float(tau_grid[-1]) * (params.omega + params.gamma)
    if not (tau_grid[0] == 0.0 and np.all(np.diff(tau_grid) > 0)
            and math.isfinite(span_rate)):
        raise ValueError("tau_grid must start at 0 and increase, with "
                         "tau_grid[-1] * (omega + gamma) finite")

    generator = _generator(params, 0.0)
    propagators = {}
    gg, ee, re_ge, im_ge = 1.0, 0.0, 0.0, 0.0
    excited = np.empty(tau_grid.size)
    excited[0] = ee
    for i, h in enumerate(np.diff(tau_grid).tolist(), start=1):
        p = propagators.get(h)
        if p is None:
            p = propagators[h] = _expm(generator * h).ravel().tolist()
        # unpacked into locals: indexing p sixteen times per step costs more
        p00, p01, p02, p03, p10, p11, p12, p13, p20, p21, p22, p23, p30, p31, p32, p33 = p
        gg, ee, re_ge, im_ge = (
            p00 * gg + p01 * ee + p02 * re_ge + p03 * im_ge,
            p10 * gg + p11 * ee + p12 * re_ge + p13 * im_ge,
            p20 * gg + p21 * ee + p22 * re_ge + p23 * im_ge,
            p30 * gg + p31 * ee + p32 * re_ge + p33 * im_ge,
        )
        excited[i] = ee
    # rho_ee is |psi_e|^2 >= 0 (the truncated state stays pure), but where it
    # touches 0 the 4x4 step can round it to about -1e-17
    density = params.gamma * np.maximum(excited, 0.0)
    bad = ~np.isfinite(density)
    if bad.any():
        raise ArithmeticError(f"propagator failure at tau={tau_grid[bad.argmax()]}")
    try:
        return DelayDistribution(tau_grid, density, kind="baseline")
    except ValueError as exc:  # trapezoid mass > 1 on an under-resolved grid
        raise ValueError(f"tau_grid under-resolves the delay function: {exc}") from None
