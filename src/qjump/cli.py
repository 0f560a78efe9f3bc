"""Command-line front end.

Subcommands: delay | pde | mc | baseline | sweep | fig1 | duality.  Each
runner reads the parsed flags and returns (columns, scalars), or one pair per
panel for fig1, and one writer emits them: CSV as a table with the scalars in
the '# key=value' header, JSON as lists followed by the scalars.  The parser
is the only place a flag or its default lives.  Every output file records
exactly its subcommand's flags (and the command) in its header, so the header
rebuilds the run; a flag left at None (an omitted --horizon, --dt or gamma
bound) means "choose automatically".  Pass --no-timestamp for byte-identical
reruns.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import baseline, core, io, mc, pde, stats

FIG1_RATIOS = {"a": 3.33, "b": 1.0 / 6.0}
FIG1_SPANS = {"a": 30.0, "b": 600.0}


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
        omega=3.33, seed=99, grid_n=128, horizon=5.0, sizes=[1_000, 10_000, 100_000]
    )
    return p


def parse_config(argv) -> argparse.Namespace:
    """The parsed flags: the only record of a run's configuration."""
    return _build_parser().parse_args(argv)


def _params(ns) -> core.ModelParams:
    """The run's model; subcommands without --theta0 start at theta = 0."""
    return core.ModelParams(ns.omega, ns.gamma, getattr(ns, "theta0", 0.0))


def _tau_grid(ns, default_span):
    """--n points on [0, --horizon], or on [0, default_span()] without it."""
    if ns.n < 2:
        raise ValueError(f"--n must be >= 2 tau-grid points, got {ns.n}")
    span = getattr(ns, "horizon", None)
    return np.linspace(0.0, default_span() if span is None else span, ns.n)


def _run_delay(ns):
    params = _params(ns)
    tau = _tau_grid(ns, lambda: core.waiting_time_tail_cutoff(params, mass_tol=1e-9))
    return {"tau": tau, "density": core.waiting_time_density(tau, params)}, {}


def _run_pde(ns):
    params = _params(ns)
    grid = pde.ThetaGrid(ns.grid_n)
    dt = ns.dt if ns.dt is not None else pde.max_stable_dt(params, grid)
    result = pde.solve(params, grid, ns.horizon, dt)
    return {"t": result.times, "rho0": result.rho0, "rho1": result.rho1}, {}


def _run_mc(ns):
    """CSV gets the emission table, JSON the ensemble summary."""
    emissions = mc.ensemble_records(
        _params(ns), core.JumpSemantics(ns.semantics), ns.horizon, ns.seed, ns.n
    )
    if ns.format == "csv":
        ids = np.arange(len(emissions), dtype=float)
        return {
            "trajectory_id": np.repeat(ids, np.diff(emissions.offsets)),
            "emission_time": emissions.times,
        }, {}
    gaps = mc.interarrival_samples(emissions)
    return {}, {
        "n_trajectories": ns.n,
        "ever_emitted_fraction": mc.ever_emitted_fraction(emissions),
        "total_emissions": emissions.times.size,
        "interarrival_mean": float(np.mean(gaps)) if gaps.size else None,
        "interarrival_var": float(np.var(gaps)) if gaps.size else None,
    }


def _run_baseline(ns):
    params = _params(ns)
    tau = _tau_grid(ns, lambda: baseline.delay_tail_cutoff(params))
    try:
        dist = baseline.delay_function(params, tau)
    except ValueError as exc:  # the tau grid is too coarse; name its flags
        raise ValueError(
            f"--n={ns.n} points over a span of {tau[-1]:g} under-resolve the delay "
            f"function: raise --n or give a shorter --horizon ({exc})"
        ) from None
    return {"tau": dist.tau_grid, "ell_q": dist.density}, {}


def _run_sweep(ns):
    omega = ns.omega
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"sweep requires finite omega > 0, got {omega}")
    lo = ns.gamma_min if ns.gamma_min is not None else 4.0 * omega
    hi = ns.gamma_max if ns.gamma_max is not None else 64.0 * omega
    for flag, value in (("--gamma-min", lo), ("--gamma-max", hi)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {value}")
    if lo == hi:
        raise ValueError(f"--gamma-min and --gamma-max must differ, both are {lo}")
    if ns.sweep_points < 3:
        raise ValueError(f"--sweep-points must be >= 3, got {ns.sweep_points}")
    gammas = np.geomspace(lo, hi, ns.sweep_points)
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


def _fig1_panel(panel: str, ns):
    params = core.ModelParams(FIG1_RATIOS[panel] * ns.gamma, ns.gamma)
    tau = _tau_grid(ns, lambda: FIG1_SPANS[panel] / ns.gamma)
    try:
        ell_k = stats.DelayDistribution(tau, core.waiting_time_density(tau, params))
        # a coarse grid misses the peak (mass far below 1) or overshoots it
        off = abs(ell_k.integral() - 1.0)
        if not off <= stats.MASS_TOL:
            raise ValueError(f"ell_K's mass is off 1 by {off:.3g}, more than {stats.MASS_TOL}")
    except ValueError as exc:
        raise ValueError(f"--n={ns.n} under-resolves panel {panel}: {exc}") from None
    ell_q = baseline.delay_function(params, tau)
    return (
        {"tau": tau, "ell_kolmogorov": ell_k.density, "ell_baseline": ell_q.density},
        {
            "this_panel": panel,
            "omega_over_gamma": FIG1_RATIOS[panel],
            "axis_note": "dimensionless axis is omega*tau",
            "mean_kolmogorov": core.mean_waiting_time(params),
            "mean_baseline": stats.mean_delay(ell_q),
            "l1_distance": stats.l1_distance(ell_k, ell_q),
        },
    )


def _run_fig1(ns):
    panels = ["a", "b"] if ns.panel == "both" else [ns.panel]
    return [_fig1_panel(panel, ns) for panel in panels]


def _run_duality(ns):
    """L1 distance between the MC angle histogram and the PDE density at t."""
    params = _params(ns)
    if params.omega == 0:
        raise ValueError("duality needs omega > 0: the drift sets the time step")
    if min(ns.sizes) < 1:
        raise ValueError(f"sizes must be >= 1, got {ns.sizes}")
    if len(set(ns.sizes)) < 2:
        raise ValueError("sizes must hold at least two distinct ensemble sizes")
    grid = pde.ThetaGrid(ns.grid_n)
    literal = core.JumpSemantics.KOLMOGOROV_LITERAL
    # largest ensemble first: it refuses a horizon too long before any work;
    # each block keeps its own stream, so the order moves no draw
    angles = {
        n: mc.ensemble_theta_at(params, literal, ns.horizon, ns.seed, n)
        for n in sorted(set(ns.sizes), reverse=True)
    }
    # Courant number 1 unless gamma*dt or the horizon's steps need less: at 1,
    # transport is an exact shift and the PDE error is source/sink error alone.
    # 2 w / omega as in pde.max_stable_dt: a tiny omega overflows it to inf,
    # where halving omega would divide by 0.  A stride of MAX_STEPS keeps only
    # the first and last snapshots
    dt = min(2.0 * grid.cell_width / params.omega, pde.MAX_GAMMA_DT / params.gamma)
    reference = pde.solve(
        params, grid, ns.horizon, dt, snapshot_stride=core.MAX_STEPS
    ).final.values
    l1 = []
    for n in ns.sizes:
        hist = mc.histogram_from_angles(angles[n], grid)
        l1.append(float(np.sum(np.abs(hist.values - reference)) * grid.cell_width))
    if not all(x > 0.0 for x in l1):  # log 0 has no slope
        raise ValueError(
            f"horizon={ns.horizon} is too short for a slope, or --omega={ns.omega} too "
            "small to move anything off theta = 0: an L1 distance is 0"
        )
    slope = float(np.polyfit(np.log(ns.sizes), np.log(l1), 1)[0])
    columns = {"ensemble_size": np.asarray(ns.sizes, float), "l1_distance": l1}
    return columns, {"slope": slope}


def _write(ns, outputs):
    """Write each (columns, scalars) output; several get one file per panel.

    The header is the parsed flags without --out and --no-timestamp.
    """
    if not isinstance(outputs, list):
        outputs = [outputs]
    header = {k: v for k, v in vars(ns).items() if k not in ("out_path", "timestamp")}
    writer = io.write_csv if ns.format == "csv" else io.write_json
    for columns, scalars in outputs:
        path = ns.out_path
        if len(outputs) > 1:
            stem, dot, ext = path.rpartition(".")
            tag = scalars["this_panel"]
            path = f"{stem}_{tag}{dot}{ext}" if dot else f"{path}_{tag}"
        writer(path, columns, scalars, header, ns.timestamp)


_RUNNERS = {
    "delay": _run_delay,
    "pde": _run_pde,
    "mc": _run_mc,
    "baseline": _run_baseline,
    "sweep": _run_sweep,
    "fig1": _run_fig1,
    "duality": _run_duality,
}


def run(ns: argparse.Namespace) -> int:
    try:
        horizon = getattr(ns, "horizon", None)  # None: the auto span
        if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
            raise ValueError(f"horizon must be finite and > 0, got {horizon}")
        _write(ns, _RUNNERS[ns.command](ns))
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"qjump {ns.command}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    return run(parse_config(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
