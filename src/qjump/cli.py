"""Command-line front end.

Subcommands: delay | pde | mc | baseline | sweep | fig1 | duality.  Each
runner returns (columns, scalars), or one pair per panel for fig1, and one
writer emits them: CSV as a table with the scalars in the '# key=value'
header, JSON as lists followed by the scalars.  Every output file embeds the
full configuration (and seed) in its header; pass --no-timestamp for
byte-identical reruns.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import baseline, core, io, mc, pde, stats

FIG1_RATIOS = {"a": 3.33, "b": 1.0 / 6.0}
FIG1_SPANS = {"a": 30.0, "b": 600.0}


@dataclass
class RunConfig:
    command: str
    omega: float = 1.0
    gamma: float = 1.0
    theta0: float = 0.0
    n: int = 1000
    grid_n: int = pde.DEFAULT_N_CELLS
    horizon: float = 10.0
    dt: float | None = None
    seed: int = 0
    semantics: str = "literal"
    out_path: str = "out.csv"
    format: str = "csv"
    timestamp: bool = True
    panel: str = "both"
    gamma_min: float | None = None
    gamma_max: float | None = None
    sweep_points: int = 9
    sizes: tuple = ()

    def params(self) -> core.ModelParams:
        return core.ModelParams(self.omega, self.gamma, self.theta0)

    def jump_semantics(self) -> core.JumpSemantics:
        return (
            core.JumpSemantics.KOLMOGOROV_LITERAL
            if self.semantics == "literal"
            else core.JumpSemantics.EMISSION_ONLY
        )

    def header(self) -> dict:
        keys = (
            "command omega gamma theta0 n grid_n horizon dt seed "
            "semantics format".split()
        )
        return {k: getattr(self, k) for k in keys}


# model flags, each given only to the subcommands whose runner reads it
_MODEL_FLAGS = {
    "omega": dict(type=float, default=1.0, help="Rabi frequency"),
    "gamma": dict(type=float, default=1.0, help="emission coefficient"),
    "theta0": dict(type=float, default=0.0, help="initial angle (rad)"),
    "seed": dict(type=int, default=0),
    "semantics": dict(choices=["literal", "emission"], default="literal"),
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="qjump",
        description="Pumped two-level atom laboratory: analytic waiting times, "
        "forward-equation solver, jump Monte Carlo, Lindblad baseline.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *model_flags):
        for flag in model_flags:
            sp.add_argument(f"--{flag}", **_MODEL_FLAGS[flag])
        sp.add_argument("--out", dest="out_path", default="out.csv", help="output file")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument(
            "--no-timestamp",
            dest="timestamp",
            action="store_false",
            help="omit the timestamp header line (byte-identical reruns)",
        )

    sp = sub.add_parser("delay", help="analytic inter-emission density curve")
    common(sp, "omega", "gamma")
    sp.add_argument("--horizon", type=float, default=None, help="tau-grid span")
    sp.add_argument("--n", type=int, default=2000, help="tau-grid points")

    sp = sub.add_parser("pde", help="forward-equation solve (population series)")
    common(sp, "omega", "gamma", "theta0")
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=pde.DEFAULT_N_CELLS)
    sp.add_argument("--horizon", type=float, default=10.0, help="end time")
    sp.add_argument("--dt", type=float, default=None, help="time step (default: stable)")

    sp = sub.add_parser("mc", help="Monte Carlo trajectory ensemble")
    common(sp, "omega", "gamma", "theta0", "seed", "semantics")
    sp.add_argument("--n", type=int, default=1000, help="number of trajectories")
    sp.add_argument("--horizon", type=float, default=20.0)

    sp = sub.add_parser("baseline", help="truncated-Lindblad delay function curve")
    common(sp, "omega", "gamma")
    sp.add_argument("--horizon", type=float, default=None, help="tau-grid span")
    sp.add_argument("--n", type=int, default=2000, help="tau-grid points")

    sp = sub.add_parser("sweep", help="mean-delay scaling sweep over gamma")
    common(sp, "omega")
    sp.add_argument("--gamma-min", type=float, default=None, help="default 4*omega")
    sp.add_argument("--gamma-max", type=float, default=None, help="default 64*omega")
    sp.add_argument("--sweep-points", type=int, default=9)

    sp = sub.add_parser("fig1", help="waiting-time vs delay-function comparison curves")
    common(sp, "gamma")
    sp.add_argument("--panel", choices=["a", "b", "both"], default="both")
    sp.add_argument("--n", type=int, default=4000, help="tau-grid points")

    sp = sub.add_parser(
        "duality", help="Monte Carlo vs forward-equation L1 by ensemble size"
    )
    common(sp, "omega", "gamma", "seed")
    sp.add_argument("--grid-n", dest="grid_n", type=int)
    sp.add_argument("--horizon", type=float, help="time at which the laws are compared")
    sp.add_argument("--sizes", type=int, nargs="+", help="ensemble sizes")
    sp.set_defaults(
        omega=3.33, gamma=1.0, seed=99, grid_n=128, horizon=5.0,
        sizes=[1_000, 10_000, 100_000],
    )
    return p


def parse_config(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
    for key, val in vars(ns).items():
        if hasattr(cfg, key) and val is not None:
            setattr(cfg, key, val)
    if getattr(ns, "horizon", "absent") is None:
        cfg.horizon = -1.0  # sentinel: pick the span from the model's tail
    return cfg


def _delay_grid(cfg: RunConfig, params: core.ModelParams):
    span = cfg.horizon
    if span <= 0:
        span = core.waiting_time_tail_cutoff(params, mass_tol=1e-9)
    return np.linspace(0.0, span, cfg.n)


def _run_delay(cfg: RunConfig):
    params = cfg.params()
    tau = _delay_grid(cfg, params)
    return {"tau": tau, "density": core.waiting_time_density(tau, params)}, {}


def _run_pde(cfg: RunConfig):
    params = cfg.params()
    grid = pde.ThetaGrid(cfg.grid_n)
    dt = cfg.dt if cfg.dt is not None else pde.max_stable_dt(params, grid)
    result = pde.solve(params, grid, cfg.horizon, dt)
    return {"t": result.times, "rho0": result.rho0, "rho1": result.rho1}, {}


def _run_mc(cfg: RunConfig):
    """CSV gets the emission table, JSON the ensemble summary."""
    params = cfg.params()
    emissions = mc.ensemble_records(
        params, cfg.jump_semantics(), cfg.horizon, cfg.seed, cfg.n
    )
    if cfg.format == "csv":
        ids = np.arange(len(emissions), dtype=float)
        return {
            "trajectory_id": np.repeat(ids, np.diff(emissions.offsets)),
            "emission_time": emissions.times,
        }, {}
    gaps = mc.interarrival_samples(emissions)
    return {}, {
        "n_trajectories": cfg.n,
        "semantics": cfg.semantics,
        "ever_emitted_fraction": mc.ever_emitted_fraction(emissions),
        "total_emissions": emissions.times.size,
        "interarrival_mean": float(np.mean(gaps)) if gaps.size else None,
        "interarrival_var": float(np.var(gaps)) if gaps.size else None,
    }


def _run_baseline(cfg: RunConfig):
    params = cfg.params()
    span = cfg.horizon
    if span <= 0:
        span = FIG1_SPANS["a" if params.omega >= params.gamma else "b"] / params.gamma
    dist = baseline.delay_function(params, np.linspace(0.0, span, cfg.n))
    return {"tau": dist.tau_grid, "ell_q": dist.density}, {}


def _run_sweep(cfg: RunConfig):
    omega = cfg.omega
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"sweep requires finite omega > 0, got {omega}")
    lo = cfg.gamma_min if cfg.gamma_min is not None else 4.0 * omega
    hi = cfg.gamma_max if cfg.gamma_max is not None else 64.0 * omega
    for flag, value in (("--gamma-min", lo), ("--gamma-max", hi)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {value}")
    if lo == hi:
        raise ValueError(f"--gamma-min and --gamma-max must differ, both are {lo}")
    if cfg.sweep_points < 3:
        raise ValueError(f"--sweep-points must be >= 3, got {cfg.sweep_points}")
    gammas = np.geomspace(lo, hi, cfg.sweep_points)
    means = np.array(
        [core.mean_waiting_time(core.ModelParams(omega, g)) for g in gammas]
    )
    exponent, r2 = stats.scaling_regression(np.column_stack([gammas, means]))
    tau_k = np.array(
        [core.weak_field_delay_scale(core.ModelParams(omega, g)) for g in gammas]
    )
    tau_q = np.array(
        [core.dressed_delay_scale(core.ModelParams(omega, g)) for g in gammas]
    )
    return (
        {"gamma": gammas, "mean_delay": means, "tau_k": tau_k, "tau_q": tau_q},
        {"fit_exponent": exponent, "fit_r_squared": r2},
    )


def _fig1_panel(panel: str, gamma: float, n_points: int):
    params = core.ModelParams(FIG1_RATIOS[panel] * gamma, gamma)
    tau = np.linspace(0.0, FIG1_SPANS[panel] / gamma, n_points)
    try:
        ell_k = stats.DelayDistribution(tau, core.waiting_time_density(tau, params))
    except ValueError as exc:  # trapezoid mass > 1 on an under-resolved grid
        raise ValueError(f"n={n_points} under-resolves panel {panel}: {exc}") from None
    ell_q = baseline.delay_function(params, tau)
    return (
        {"tau": tau, "ell_kolmogorov": ell_k.density, "ell_baseline": ell_q.density},
        {
            "panel": panel,
            "omega_over_gamma": FIG1_RATIOS[panel],
            "axis_note": "dimensionless axis is omega*tau",
            "mean_kolmogorov": core.mean_waiting_time(params),
            "mean_baseline": stats.mean_delay(ell_q),
            "l1_distance": stats.l1_distance(ell_k, ell_q),
        },
    )


def _run_fig1(cfg: RunConfig):
    panels = ["a", "b"] if cfg.panel == "both" else [cfg.panel]
    return [_fig1_panel(panel, cfg.gamma, cfg.n) for panel in panels]


def _run_duality(cfg: RunConfig):
    """L1 distance between the MC angle histogram and the PDE density at t."""
    params = cfg.params()
    if params.omega == 0:
        raise ValueError("duality needs omega > 0: the drift sets the time step")
    if cfg.horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {cfg.horizon}")
    if len(set(cfg.sizes)) < 2:
        raise ValueError("sizes must hold at least two distinct ensemble sizes")
    grid = pde.ThetaGrid(cfg.grid_n)
    # Courant number as close to 1 as the horizon allows: transport is then
    # an exact shift, and the PDE error is source/sink error alone
    n_steps = int(np.ceil(cfg.horizon / (grid.cell_width / (0.5 * params.omega))))
    reference = pde.solve(
        params, grid, cfg.horizon, cfg.horizon / n_steps, snapshot_stride=n_steps
    ).final.values
    l1 = []
    for n in cfg.sizes:
        angles = mc.ensemble_theta_at(
            params, cfg.jump_semantics(), cfg.horizon, cfg.seed, n
        )
        hist = mc.histogram_from_angles(angles, grid)
        l1.append(float(np.sum(np.abs(hist.values - reference)) * grid.cell_width))
    slope = float(np.polyfit(np.log(cfg.sizes), np.log(l1), 1)[0])
    columns = {"ensemble_size": np.asarray(cfg.sizes, float), "l1_distance": l1}
    return columns, {"slope": slope}


def _write(cfg: RunConfig, outputs):
    """Write each (columns, scalars) output; several get one file per panel."""
    if not isinstance(outputs, list):
        outputs = [outputs]
    writer = io.write_csv if cfg.format == "csv" else io.write_json
    for columns, scalars in outputs:
        path = cfg.out_path
        if len(outputs) > 1:
            stem, dot, ext = path.rpartition(".")
            tag = scalars["panel"]
            path = f"{stem}_{tag}{dot}{ext}" if dot else f"{path}_{tag}"
        writer(path, columns, scalars, cfg.header(), cfg.timestamp)


_RUNNERS = {
    "delay": _run_delay,
    "pde": _run_pde,
    "mc": _run_mc,
    "baseline": _run_baseline,
    "sweep": _run_sweep,
    "fig1": _run_fig1,
    "duality": _run_duality,
}


def run(config: RunConfig) -> int:
    try:
        if not math.isfinite(config.horizon):
            raise ValueError(f"horizon must be finite, got {config.horizon}")
        _write(config, _RUNNERS[config.command](config))
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"qjump {config.command}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    config = parse_config(argv if argv is not None else sys.argv[1:])
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
