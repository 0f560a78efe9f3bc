"""Closed-form model of the pumped two-level atom.

Between jumps the atomic angle drifts at omega/2; jumps reset it to zero.
Two jump semantics coexist: resets at rate gamma*sin^2(theta) with
probabilistic photon tagging ("literal"), or resets only at emissions with
rate gamma*sin^4(theta) ("emission only").  Everything here is a pure
function of its arguments.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0
# Gauss-Legendre panels evaluated per block of the waiting-time moments
_PANELS_PER_BLOCK = 2048
# most steps time_steps allows: a sparse-snapshot pde.solve peaks at 56 bytes
# per step (seven float64 arrays; tracemalloc, 56.2 MB at 10^6 steps, 112.4 MB
# at 2 * 10^6, a snapshot every 10^4 on 256 cells), 0.56 GB at this count
MAX_STEPS = 10**7
# most Gauss-Legendre panels of the waiting-time moments: omega/gamma = 1e4
# takes about 117 000 of them, 1 s on one core
MAX_PANELS = 120_000
# Taylor coefficients of int_0^X sin^4(x) dx / X^5 in powers of X^2, from
# sin^4 x = 3/8 - cos(2x)/2 + cos(4x)/8: (-1)^k (4^(2k)/8 - 4^k/2) / ((2k+1) (2k)!)
# for k >= 2; below X = 1/2 the next term is under 1e-17 of the sum
_SIN4_SERIES = [
    (-1) ** k * (4.0 ** (2 * k) / 8.0 - 4.0**k / 2.0) / ((2 * k + 1) * math.factorial(2 * k))
    for k in range(2, 12)
]
# the 32-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.
# leggauss(32) gives it: nodes ascending, x[i] = -x[31 - i], w[i] = w[31 - i];
# the upper halves below, mirrored
_GL_UPPER = (
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
)
_GL_NODES = np.array([-x for x, _ in reversed(_GL_UPPER)] + [x for x, _ in _GL_UPPER])
_GL_WEIGHTS = np.array([w for _, w in reversed(_GL_UPPER)] + [w for _, w in _GL_UPPER])


class JumpSemantics(enum.Enum):
    """Which events reset the trajectory to the ground state."""

    KOLMOGOROV_LITERAL = "literal"
    EMISSION_ONLY = "emission"


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters: Rabi frequency, emission coefficient, initial angle."""

    omega: float
    gamma: float
    theta0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (math.isfinite(self.omega) and self.omega >= 0):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        if not (-HALF_PI <= self.theta0 < HALF_PI):
            raise ValueError(
                f"theta0 must lie in [-pi/2, pi/2), got {self.theta0}"
            )


def reduce_angle(theta):
    """Reduce an angle modulo pi into the principal cell [-pi/2, pi/2)."""
    return (theta + HALF_PI) % math.pi - HALF_PI


def time_steps(t_end, dt):
    """(n, h): the fewest equal steps h = t_end/n <= dt that end at t_end.

    A ratio t_end/dt within 1e-13 (relative) of a whole number counts as that
    number, so t_end = n*dt gives n steps and not n + 1 from round-off; h
    then exceeds dt by at most that tolerance.  n is at most MAX_STEPS.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    ratio = t_end / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"t_end/dt must be at most {MAX_STEPS}: t_end={t_end}, dt={dt}")
    n = max(1, math.ceil(ratio * (1.0 - 1e-13)))
    return n, t_end / n


def emission_intensity(theta, gamma):
    """Photo-emission rate gamma*sin^4(theta); lies in [0, gamma]."""
    return gamma * np.sin(theta) ** 4


def intensity_integral(tau, omega):
    """int_0^tau sin^4(omega*t/2) dt.

    sin^4(x) = 3/8 - cos(2x)/2 + cos(4x)/8 gives the antiderivative
    3 tau/8 - sin(omega tau)/(2 omega) + sin(2 omega tau)/(16 omega), whose
    terms cancel to a relative error of about 30 eps/(omega tau)^4.  Below
    omega tau = 1 the Taylor series tau X^4 (1/5 - 2 X^2/21 + ...) in
    X = omega tau/2 takes its place.
    """
    tau = np.asarray(tau, dtype=float)
    out = (
        3.0 * tau / 8.0
        - np.sin(omega * tau) / (2.0 * omega)
        + np.sin(2.0 * omega * tau) / (16.0 * omega)
    )
    x = 0.5 * omega * tau
    small = x < 0.5
    if small.any():
        out, x = np.array(out), x[small]
        # Horner's rule, term by term as numpy.polynomial.polynomial.polyval
        y, series = x * x, _SIN4_SERIES[-1]
        for c in reversed(_SIN4_SERIES[:-1]):
            series = c + series * y
        out[small] = tau[small] * x**4 * series
        out = out[()]
    return out


def _secular_time(params: ModelParams, exponent):
    """(8/(3 gamma))(exponent + gamma/omega): past it gamma*I(tau) > exponent,
    by the secular bound gamma*I(tau) >= 3*gamma*tau/8 - gamma/omega."""
    if params.omega == 0:
        raise ValueError(
            "the waiting-time law requires omega > 0; "
            "use the no_pump_* functions for an unpumped atom"
        )
    return (8.0 / (3.0 * params.gamma)) * (exponent + params.gamma / params.omega)


def _waiting_tau(tau, params: ModelParams):
    """tau >= 0 as an array, capped where exp(-gamma*I(tau)) is exactly 0.

    Past the cap gamma*I exceeds 800 and exp(-800) underflows to 0: the laws
    take the same values there, and their limits 0 and 1 at tau = inf.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all(tau >= 0):
        raise ValueError("tau must be >= 0 (and not NaN)")
    return np.minimum(tau, _secular_time(params, 800.0))


def waiting_time_density(tau, params: ModelParams):
    """Inter-emission density gamma*sin^4(omega tau/2)*exp(-gamma*I(tau))."""
    tau = _waiting_tau(tau, params)
    lam = emission_intensity(0.5 * params.omega * tau, params.gamma)
    return lam * np.exp(-params.gamma * intensity_integral(tau, params.omega))


def waiting_time_cdf(tau, params: ModelParams):
    """P(interval <= tau) = 1 - exp(-gamma*I(tau))."""
    tau = _waiting_tau(tau, params)
    return 1.0 - np.exp(-params.gamma * intensity_integral(tau, params.omega))


def waiting_time_tail_cutoff(params: ModelParams, mass_tol=1e-12):
    """Time T such that the density mass beyond T, exp(-gamma*I(T)), is below mass_tol."""
    if not 0.0 < mass_tol < 1.0:  # NaN fails too
        raise ValueError(f"mass_tol must be in (0, 1), got {mass_tol}")
    cutoff = _secular_time(params, -math.log(mass_tol))
    if not cutoff < math.inf:
        raise ValueError(
            f"omega={params.omega}, gamma={params.gamma} put the waiting-time tail "
            "cutoff past the float range"
        )
    return cutoff


def _tail_panels(params: ModelParams):
    """Gauss-Legendre nodes and weights on [0, T], T = waiting_time_tail_cutoff.

    [0, T] is cut into equal panels no wider than min(2 pi/omega, 2 tau_K, T),
    with tau_K = weak_field_delay_scale: a drive period bounds the panel in the
    strong field, tau_K in the weak field, where one period holds all the mass.
    Yields (nodes, weights) a block of panels at a time, so memory stays
    bounded however many periods T spans.
    """
    T = waiting_time_tail_cutoff(params)
    tau_k = weak_field_delay_scale(params)
    width = min(2.0 * math.pi / params.omega, 2.0 * tau_k, T)
    if not T / width <= MAX_PANELS:  # T / width may be inf
        raise ValueError(
            f"omega={params.omega}, gamma={params.gamma} need {T / width:.3g} panels for "
            f"the waiting-time moments, more than MAX_PANELS = {MAX_PANELS}"
        )
    n_panels = math.ceil(T / width)
    h = T / n_panels
    offsets = 0.5 * h * (_GL_NODES + 1.0)
    weights = 0.5 * h * _GL_WEIGHTS
    for start in range(0, n_panels, _PANELS_PER_BLOCK):
        left = h * np.arange(start, min(start + _PANELS_PER_BLOCK, n_panels))
        nodes = (left[:, None] + offsets).ravel()
        yield nodes, np.tile(weights, left.size)


def _panel_sum(params: ModelParams, integrand):
    """Sum of w * integrand(t) over _tail_panels; np.sum's order, unlike a BLAS
    dot's, does not depend on the thread count, so neither do the bits."""
    return sum(float(np.sum(w * integrand(t))) for t, w in _tail_panels(params))


def waiting_time_normalization(params: ModelParams):
    """Mass of the waiting-time density on [0, T], by Gauss-Legendre panels."""
    return _panel_sum(params, lambda t: waiting_time_density(t, params))


def mean_waiting_time(params: ModelParams):
    """Mean inter-emission delay, by Gauss-Legendre panels of tau*density."""
    return _panel_sum(params, lambda t: t * waiting_time_density(t, params))


def no_pump_excited_population(t, params: ModelParams):
    """Excited population sin^2(theta0)*exp(-gamma*sin^2(theta0)*t) at omega=0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    s2 = math.sin(params.theta0) ** 2
    return s2 * np.exp(-params.gamma * s2 * t)


def _delay_scale(params: ModelParams, name, scale):
    """scale(omega, gamma) in Python floats, refused past the float range.

    Each scale is factored so that a factor leaves the float range only where
    the scale does, and then Python floats give inf or 0 without a warning.
    """
    if params.omega <= 0:
        raise ValueError(f"{name} requires omega > 0")
    value = scale(float(params.omega), float(params.gamma))
    if not value < math.inf:
        raise ValueError(
            f"omega={params.omega}, gamma={params.gamma} give a delay scale past the float range"
        )
    return value


def weak_field_delay_scale(params: ModelParams):
    """Weak-field mean-delay scale (omega^4 * gamma)^(-1/5), as omega^(-4/5) * gamma^(-1/5)."""
    return _delay_scale(params, "weak_field_delay_scale", lambda om, g: om**-0.8 * g**-0.2)


def _dressed(om, g):
    """gamma/omega/omega.  Where gamma/omega is subnormal it keeps fewer bits
    than gamma/omega^2 may need, so gamma is first scaled by 2^53, exactly,
    and the quotient scaled back: there gamma * 2^53/omega^2 < 2^105."""
    if g / om >= sys.float_info.min:
        return g / om / om
    return math.ldexp(math.ldexp(g, 53) / om / om, -53)


def dressed_delay_scale(params: ModelParams):
    """Dressed-atom delay scale gamma/omega^2, as gamma/omega/omega, for comparison output."""
    return _delay_scale(params, "dressed_delay_scale", _dressed)
