"""Two-level Lindblad baseline and the truncated-evolution delay function.

Basis ordering is (ground, excited).  The dissipator uses the lowering
operator in the trace-conserving standard form, with the rate fixed so the
excited population decays at exactly gamma when the drive is off.  Dropping
the gain (recycling) term gives a nonconservative evolution whose trace loss
rate, gamma*rho_ee, is the delay function: the density of the first emission
after a reset to the ground state.

`integrate` evolves a density matrix with fixed-step RK4.  `delay_function`
does not: started in the ground state, the truncated evolution keeps the
state pure, psi' = -i H_eff psi with H_eff = H - i gamma/2 |e><e|, so it
propagates the two amplitudes exactly with exp(-i H_eff h) for each grid
spacing h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, time_steps
from .stats import DelayDistribution

MAX_RATE_DT = 0.1

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
_N_EXCITED = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


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


def _hamiltonian(params: ModelParams):
    return 0.5 * params.omega * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rhs(m, params: ModelParams, truncated: bool):
    h = _hamiltonian(params)
    out = -1j * (h @ m - m @ h)
    out -= 0.5 * params.gamma * (_N_EXCITED @ m + m @ _N_EXCITED)
    if not truncated:
        out += params.gamma * (_SIGMA_MINUS @ m @ _SIGMA_MINUS.conj().T)
    return out


def lindblad_rhs(
    rho: DensityMatrix2, params: ModelParams, truncated: bool = False
) -> DensityMatrix2:
    """Right-hand side of the (optionally truncated) master equation."""
    return DensityMatrix2(_rhs(rho.matrix, params, truncated))


def _rk4_step(m, dt, params, truncated):
    k1 = _rhs(m, params, truncated)
    k2 = _rhs(m + 0.5 * dt * k1, params, truncated)
    k3 = _rhs(m + 0.5 * dt * k2, params, truncated)
    k4 = _rhs(m + dt * k3, params, truncated)
    m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (m + m.conj().T)  # enforce Hermiticity against drift


def _check_dt(params: ModelParams, dt: float):
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if dt * max(params.omega, params.gamma) > MAX_RATE_DT * (1 + 1e-12):
        raise ValueError(
            f"dt={dt} violates dt*max(omega, gamma) <= {MAX_RATE_DT}"
        )


def integrate(
    rho0: DensityMatrix2,
    params: ModelParams,
    t_end: float,
    dt: float,
    truncated: bool = False,
):
    """Fixed-step RK4 evolution; returns (times, list of DensityMatrix2).

    Takes n_steps = ceil(t_end/dt) equal steps of t_end/n_steps.
    """
    _check_dt(params, dt)
    n_steps, h = time_steps(t_end, dt)
    m = rho0.matrix.copy()
    times = np.linspace(0.0, t_end, n_steps + 1)
    states = [DensityMatrix2(m.copy())]
    for _ in range(n_steps):
        m = _rk4_step(m, h, params, truncated)
        states.append(DensityMatrix2(m.copy()))
    return times, states


def steady_state(params: ModelParams) -> DensityMatrix2:
    """Stationary state of the full evolution, from the linear system."""
    # unknowns: rho_gg, rho_ee, Re(rho_ge), Im(rho_ge)
    om, g = params.omega, params.gamma
    a = np.array(
        [
            [0.0, g, 0.0, -om],
            [0.0, -g, 0.0, om],
            [0.0, 0.0, -0.5 * g, 0.0],
            [0.5 * om, -0.5 * om, 0.0, -0.5 * g],
        ]
    )
    a = np.vstack([a, [1.0, 1.0, 0.0, 0.0]])
    b = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    rho_ge = x[2] + 1j * x[3]
    return DensityMatrix2(
        np.array([[x[0], rho_ge], [np.conj(rho_ge), x[1]]], dtype=complex)
    )


def _expm2(a):
    """exp(a) of a 2x2 matrix: a Taylor series of a / 2**s, squared s times.

    s brings the 1-norm of the scaled matrix below 1/2, where 16 terms leave
    a remainder far below double precision.
    """
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max())[1] + 1)
    a = a * 0.5**s
    term = np.eye(2, dtype=complex)
    out = term.copy()
    for k in range(1, 17):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def delay_function(params: ModelParams, tau_grid) -> DelayDistribution:
    """Delay function from the truncated evolution started in the ground state.

    Equal to -d/dtau Tr rho(tau) = gamma * |psi_e(tau)|^2, where the pure
    truncated state psi advances from one grid point to the next by the exact
    step propagator exp(-i H_eff h), computed once per distinct spacing h.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.ndim != 1 or tau_grid.size < 2:
        raise ValueError("tau_grid must contain at least two points")
    # the step generator times the span must stay finite for _expm2
    span_rate = float(tau_grid[-1]) * (params.omega + params.gamma)
    if not (tau_grid[0] == 0.0 and np.all(np.diff(tau_grid) > 0)
            and math.isfinite(span_rate)):
        raise ValueError("tau_grid must start at 0 and increase, with "
                         "tau_grid[-1] * (omega + gamma) finite")

    half_rabi = 0.5j * params.omega
    generator = np.array([[0.0, -half_rabi], [-half_rabi, -0.5 * params.gamma]])
    propagators = {}
    amp_g, amp_e = 1.0 + 0.0j, 0.0j
    excited = np.empty(tau_grid.size, dtype=complex)
    excited[0] = amp_e
    for i, h in enumerate(np.diff(tau_grid).tolist(), start=1):
        p = propagators.get(h)
        if p is None:
            p = propagators[h] = _expm2(generator * h).ravel().tolist()
        amp_g, amp_e = p[0] * amp_g + p[1] * amp_e, p[2] * amp_g + p[3] * amp_e
        excited[i] = amp_e
    density = params.gamma * (excited.real**2 + excited.imag**2)
    bad = ~np.isfinite(density)
    if bad.any():
        raise ArithmeticError(f"propagator failure at tau={tau_grid[bad.argmax()]}")
    try:
        return DelayDistribution(tau_grid, density, kind="baseline")
    except ValueError as exc:  # trapezoid mass > 1 on an under-resolved grid
        raise ValueError(f"tau_grid under-resolves the delay function: {exc}") from None
