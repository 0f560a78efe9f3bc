"""One benchmark process: import qjump, build a workload's inputs, run it.

`run.py` starts this script in a fresh interpreter, from `src/`, with the
thread environment pinned:

    python3 perfbench/worker.py --workload ensemble [--seed N] [--mc-seed S]
                                [--trace] [--setup-only]

It prints `ready` once qjump is imported and the inputs are built, then runs
the workload's stages, checks every output, and prints one JSON line with the
wall time, peak memory, check results, stage times and (traced) spans.

    python3 perfbench/worker.py --replay-cli '["delay", "--omega", "3.33"]'

replays one CLI command in-process through `qjump.cli.main`, with the calls
`qjump.cli` makes into the other modules wrapped in spans; the `cli`
workload uses it in its traced run.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_MODULES_BEFORE = set(sys.modules)
import numpy as np  # noqa: E402

import qjump  # noqa: E402
from qjump import baseline, cli, core, mc, pde, stats  # noqa: E402

_LOADED_BY_IMPORT = set(sys.modules) - _MODULES_BEFORE
_T_IMPORTED = time.perf_counter()

import checks  # noqa: E402
from checks import Check  # noqa: E402
from tracing import LayerProxy, Tracer, Untraced  # noqa: E402

HERE = Path(__file__).resolve().parent
LITERAL = core.JumpSemantics.KOLMOGOROV_LITERAL
EMISSION = core.JumpSemantics.EMISSION_ONLY
# sub-step rule of baseline.delay_function at the seed: h <= 0.1 / max(omega, gamma)
RK4_RATE_DT = 0.1
CHILD_TIMEOUT_S = 120


# --------------------------------------------------------------- counters


def _arguments(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_ensemble(counts, fn, args, kwargs, out):
    a = _arguments(fn, args, kwargs)
    horizon = a["horizon"] if "horizon" in a else a["t"]
    counts["mc.trajectories"] += a["n"]
    # majorant-rate candidates: gamma * horizon per trajectory (computed)
    counts["mc.candidates_computed"] += a["params"].gamma * horizon * a["n"]
    if fn.__name__ == "ensemble_records":
        counts["mc.emissions"] += sum(rec.times.size for rec in out)


def _count_solve(counts, fn, args, kwargs, out):
    steps = out.times.size - 1
    counts["pde.steps"] += steps
    counts["pde.snapshots"] += len(out.snapshots)
    counts["pde.cell_updates"] += steps * _arguments(fn, args, kwargs)["grid"].n_cells


def _count_delay(counts, fn, args, kwargs, out):
    a = _arguments(fn, args, kwargs)
    p = a["params"]
    dt_max = RK4_RATE_DT / max(p.omega, p.gamma)
    substeps = np.maximum(1, np.ceil(np.diff(np.asarray(a["tau_grid"])) / dt_max))
    counts["baseline.rk4_substeps_computed"] += int(substeps.sum())


def _count_ks(counts, fn, args, kwargs, out):
    counts["stats.ks_samples"] += out.n


def _count_write(counts, fn, args, kwargs, out):
    path = str(_arguments(fn, args, kwargs)["path"])
    data = Path(path).read_bytes()
    counts["io.bytes_written"] += len(data)
    if path.endswith(".csv"):
        lines = data.splitlines()
        counts["io.rows_written"] += sum(not ln.startswith(b"#") for ln in lines) - 1


ACCOUNTS = {
    ("mc", "ensemble_records"): _count_ensemble,
    ("mc", "ensemble_theta_at"): _count_ensemble,
    ("pde", "solve"): _count_solve,
    ("baseline", "delay_function"): _count_delay,
    ("stats", "ks_test"): _count_ks,
    ("io", "write_csv"): _count_write,
    ("io", "write_json"): _count_write,
    ("io", "write_series_csv"): _count_write,
    ("io", "write_emissions_csv"): _count_write,
}


def runtime_deps():
    """Installed distributions whose modules `import qjump` loads."""
    owners = importlib.metadata.packages_distributions()
    tops = {m.partition(".")[0] for m in _LOADED_BY_IMPORT}
    return sorted({d for top in tops if top != "qjump" for d in owners.get(top, [])})


def _masses(result):
    dx = result.final.grid.cell_width
    return np.array([s.values.sum() for s in result.snapshots]) * dx


def _pick(mc_seed, acceptance_seed):
    return acceptance_seed if mc_seed is None else mc_seed


# --------------------------------------------------------------- ensemble
# Many short trajectories: per-trajectory stream set-up is about half of mc's
# work.  Criteria 2 and 6 with their acceptance seeds 42 and 99.


def build_ensemble(a):
    p6 = core.ModelParams(3.33, 1.0)
    grid = pde.ThetaGrid(128)
    dt0 = grid.cell_width / (0.5 * p6.omega)
    n_steps = math.ceil(5.0 / dt0)
    return {
        "no_pump": core.ModelParams(0.0, 1.0, math.pi / 4),
        "no_pump_seed": _pick(a.mc_seed, 42),
        "duality": p6,
        "grid": grid,
        "ref_dt": 5.0 / n_steps,  # Courant number 1: exact transport
        "ref_steps": n_steps,
        "sizes": [1_000, 10_000, 100_000],
        "duality_seed": _pick(a.mc_seed, 99),
    }


def emitted_fraction(inp, tr, report):
    recs = tr.call(mc.ensemble_records, inp["no_pump"], LITERAL, 30.0, inp["no_pump_seed"], 100_000)
    return checks.emitted_fraction(tr.call(mc.ever_emitted_fraction, recs))


def duality(inp, tr, report):
    p, grid = inp["duality"], inp["grid"]
    ref = tr.call(
        pde.solve, p, grid, 5.0, inp["ref_dt"], snapshot_stride=inp["ref_steps"]
    ).final.values
    l1s = []
    for n in inp["sizes"]:
        theta = tr.call(mc.ensemble_theta_at, p, LITERAL, 5.0, inp["duality_seed"], n)
        hist = tr.call(mc.histogram_from_angles, theta, grid)
        l1s.append(float(np.sum(np.abs(hist.values - ref)) * grid.cell_width))
    return checks.duality(inp["sizes"], l1s)


# --------------------------------------------------------------- transport
# The forward-equation solver alone: long solves with sparse snapshots
# (criterion 5), solves with a snapshot and a population rate every step
# (criterion 10 and a longer dense run), and the no-pump decay (criterion 1).

DENSE_STEPS = 20_000


def build_transport(a):
    grid256 = pde.ThetaGrid(256)
    p_rate = core.ModelParams(3.33, 1.0)
    sparse = []
    for ratio in (1.0 / 6.0, 3.33):
        p = core.ModelParams(ratio, 1.0)
        sparse.append((p, pde.max_stable_dt(p, grid256)))
    ladder = []
    for n in (64, 128, 256, 512):
        grid = pde.ThetaGrid(n)
        dt0 = 0.5 * grid.cell_width / (0.5 * p_rate.omega)
        ladder.append((grid, 3.0 / math.ceil(3.0 / dt0)))
    p0 = core.ModelParams(0.0, 1.0, math.pi / 4)
    return {
        "grid256": grid256,
        "sparse": sparse,
        "rate_params": p_rate,
        "ladder": ladder,
        "dense_dt": pde.max_stable_dt(p_rate, grid256),
        "no_pump": p0,
        "no_pump_dt": pde.max_stable_dt(p0, grid256),
    }


def sparse_mass(inp, tr, report):
    out = []
    for p, dt in inp["sparse"]:
        r = tr.call(pde.solve, p, inp["grid256"], 100_000 * dt, dt, snapshot_stride=10_000)
        out.append(checks.mass_drift(f"sparse_mass_{p.omega:.4g}", _masses(r)))
    return out


def _rates(tr, r, p):
    with tr.span("pde", "population_rate"):
        return np.array([pde.population_rate(s, p) for s in r.snapshots[:-1]])


def refinement(inp, tr, report):
    p = inp["rate_params"]
    errs = []
    for grid, dt in inp["ladder"]:
        r = tr.call(pde.solve, p, grid, 3.0, dt, snapshot_stride=1)
        errs.append(float(np.max(np.abs(np.diff(r.rho1) / dt - _rates(tr, r, p)))))
    return checks.refinement([grid.n_cells for grid, _ in inp["ladder"]], errs)


def dense_snapshots(inp, tr, report):
    p, dt = inp["rate_params"], inp["dense_dt"]
    r = tr.call(pde.solve, p, inp["grid256"], DENSE_STEPS * dt, dt, snapshot_stride=1)
    rates = _rates(tr, r, p)
    return [
        checks.mass_drift("dense_mass", _masses(r)),
        Check("dense_rates_finite", bool(np.isfinite(rates).all()), f"{rates.size} rates"),
    ]


def no_pump_decay(inp, tr, report):
    p = inp["no_pump"]
    r = tr.call(pde.solve, p, inp["grid256"], 10.0, inp["no_pump_dt"])
    return checks.no_pump_decay(r.times, r.rho1, p.theta0, p.gamma)


# --------------------------------------------------------------- waiting_time
# The inter-emission law by three routes: closed forms (core), the
# truncated-Lindblad delay function (baseline, which dominates), and
# emission-semantics Monte Carlo with few trajectories at long horizons, so
# mc's per-event loop runs with negligible stream set-up.

PANELS = {"a": (3.33, 30.0, 3000), "b": (1.0 / 6.0, 600.0, 6000)}
# (trajectories, horizon, histogram bins) per panel
EMISSION_MC = {"a": (20, 10_000.0, 300), "b": (40, 40_000.0, 600)}


def build_waiting_time(a):
    panels = {}
    for key, (ratio, span, n) in PANELS.items():
        p = core.ModelParams(ratio, 1.0)
        n_traj, horizon, bins = EMISSION_MC[key]
        panels[key] = {
            "params": p,
            "tau": np.linspace(0.0, span, n),
            "mc": (n_traj, horizon),
            "hist_tau": np.linspace(0.0, span, bins + 1),
        }
    sweep = []
    for g in np.geomspace(1.0, 4.0, 3):
        pg = core.ModelParams(1.0 / 6.0, g)
        sweep.append((pg, np.linspace(0.0, 20.0 * core.dressed_delay_scale(pg), 4000)))
    return {
        "panels": panels,
        "sweep_8b": sweep,
        "weak_field": [core.ModelParams(1.0, g) for g in np.geomspace(4.0, 64.0, 7)],
        "mc_seed": _pick(a.mc_seed, 7),
    }


def _fig1_curves(tr, panel):
    p, tau = panel["params"], panel["tau"]
    dens = tr.call(core.waiting_time_density, tau, p)
    ell_k = tr.call(stats.DelayDistribution, tau, dens, "analytic")
    return ell_k, tr.call(baseline.delay_function, p, tau)


def panel_a(inp, tr, report):
    ell_k, ell_q = _fig1_curves(tr, inp["panels"]["a"])
    return checks.panel_a_l1(tr.call(stats.l1_distance, ell_k, ell_q))


def panel_b(inp, tr, report):
    ell_k, ell_q = _fig1_curves(tr, inp["panels"]["b"])
    factor = tr.call(stats.mean_delay, ell_q) / tr.call(stats.mean_delay, ell_k)
    gammas, base_means, kolmo_means = [], [], []
    for pg, tau in inp["sweep_8b"]:
        gammas.append(pg.gamma)
        base_means.append(tr.call(stats.mean_delay, tr.call(baseline.delay_function, pg, tau)))
        kolmo_means.append(tr.call(core.mean_waiting_time, pg))
    base_slope, _ = tr.call(stats.scaling_regression, np.column_stack([gammas, base_means]))
    kolmo_slope, _ = tr.call(stats.scaling_regression, np.column_stack([gammas, kolmo_means]))
    return checks.panel_b_scales(factor, base_slope, kolmo_slope)


def weak_field(inp, tr, report):
    params = inp["weak_field"]
    means = [tr.call(core.mean_waiting_time, p) for p in params]
    exponent, _ = tr.call(
        stats.scaling_regression, np.column_stack([[p.gamma for p in params], means])
    )
    return checks.weak_field_exponent(exponent)


def _emission_mc(inp, tr, key):
    panel = inp["panels"][key]
    p = panel["params"]
    n_traj, horizon = panel["mc"]
    recs = tr.call(mc.ensemble_records, p, EMISSION, horizon, inp["mc_seed"], n_traj)
    gaps = tr.call(mc.interarrival_samples, recs, origin_anchored=True)
    ks = tr.call(stats.ks_test, gaps, lambda x: tr.call(core.waiting_time_cdf, x, p))
    grid = panel["hist_tau"]
    emp = tr.call(stats.empirical_delay_distribution, gaps, grid)
    ell_k = tr.call(stats.DelayDistribution, grid, tr.call(core.waiting_time_density, grid, p))
    return [
        checks.ks_not_rejected(f"ks_panel_{key}", ks.p_value, ks.n),
        checks.mc_l1(f"mc_l1_panel_{key}", tr.call(stats.l1_distance, emp, ell_k)),
    ]


def emission_mc_a(inp, tr, report):
    return _emission_mc(inp, tr, "a")


def emission_mc_b(inp, tr, report):
    return _emission_mc(inp, tr, "b")


# --------------------------------------------------------------- cli
# The README's six subcommand examples plus `mc --format json`, each a fresh
# `python -m qjump.cli ... --no-timestamp` process started from src/.


def _pde_rows():
    # the stable step of `qjump pde` at omega=3.33, gamma=1, 256 cells; a
    # horizon of 5 is round()ed or ceil()ed to whole steps, plus the t=0 row
    dt = min(0.1 / 1.0, 0.5 * (math.pi / 256) / (0.5 * 3.33))
    return {round(5.0 / dt) + 1, math.ceil(5.0 / dt) + 1}


def build_cli(a):
    work = HERE / "out" / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    mc_args = ["mc", "--omega", "3.33", "--n", "1000", "--horizon", "50",
               "--semantics", "emission", "--seed", str(a.seed)]
    commands = {
        "delay": ["delay", "--omega", "3.33", "--gamma", "1.0", "--out", "delay.csv"],
        "pde": ["pde", "--omega", "3.33", "--theta0", "0.3", "--horizon", "5", "--out", "p.csv"],
        "mc": mc_args + ["--out", "em.csv"],
        "mc_json": mc_args + ["--format", "json", "--out", "em.json"],
        "baseline": ["baseline", "--omega", "3.33", "--horizon", "20", "--out", "lq.csv"],
        "sweep": ["sweep", "--omega", "1.0", "--gamma-min", "4", "--gamma-max", "64",
                  "--format", "json", "--out", "s.json"],
        "fig1": ["fig1", "--panel", "both", "--out", "fig1.csv"],
    }
    for argv in commands.values():
        argv[argv.index("--out") + 1] = str(work / argv[argv.index("--out") + 1])
        argv.append("--no-timestamp")
    return {"work": work, "commands": commands, "returncodes": {}, "trace": a.trace}


def _cli_command(key):
    def run_command(inp, tr, report):
        argv = inp["commands"][key]
        if inp["trace"]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--replay-cli", json.dumps(argv)]
        else:
            cmd = [sys.executable, "-m", "qjump.cli", *argv]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
        inp["returncodes"][key] = proc.returncode
        if inp["trace"] and proc.stdout:
            replay = json.loads(proc.stdout.splitlines()[-1])
            tr.absorb(replay["spans"], replay["counts"])
        return []

    run_command.__name__ = key
    return run_command


def cli_outputs(inp, tr, report):
    work, rc = inp["work"], inp["returncodes"]
    texts = {}
    for path in sorted(work.iterdir()):
        data = path.read_bytes()
        texts[path.name] = data.decode()
        report.setdefault("sha256", {})[path.name] = hashlib.sha256(data).hexdigest()
    text = texts.get
    emissions = None
    try:
        emissions = json.loads(texts["em.json"])["total_emissions"]
    except (KeyError, TypeError, ValueError):
        pass
    return [
        checks.cli_csv("cli_delay", rc["delay"], text("delay.csv"), 2000),
        checks.cli_csv("cli_pde", rc["pde"], text("p.csv"), _pde_rows()),
        checks.cli_csv("cli_mc", rc["mc"], text("em.csv"), emissions if emissions else ()),
        checks.cli_json(
            "cli_mc_json", rc["mc_json"], text("em.json"),
            {"n_trajectories": None, "total_emissions": None, "ever_emitted_fraction": None},
        ),
        checks.cli_csv("cli_baseline", rc["baseline"], text("lq.csv"), 2000),
        checks.cli_json(
            "cli_sweep", rc["sweep"], text("s.json"),
            {"gamma": 9, "mean_delay": 9, "tau_k": 9, "tau_q": 9, "fit_exponent": None},
        ),
        checks.cli_csv("cli_fig1_a", rc["fig1"], text("fig1_a.csv"), 4000),
        checks.cli_csv("cli_fig1_b", rc["fig1"], text("fig1_b.csv"), 4000),
    ]


def cleanup_cli(inp):
    shutil.rmtree(inp["work"], ignore_errors=True)


def replay_cli(argv):
    """Run one CLI command in this process with its module calls traced."""
    tr = Tracer(ACCOUNTS)
    tr.spans.append(["import", "qjump", _T_START, _T_IMPORTED, -1])
    for name in ("core", "pde", "mc", "baseline", "stats", "io"):
        setattr(cli, name, LayerProxy(getattr(cli, name), tr))
    with tr.span("cli", argv[0]):
        rc = cli.main(argv)
    print(json.dumps({"spans": tr.spans, "counts": tr.counts}))
    return rc


# --------------------------------------------------------------- entry point

WORKLOADS = {
    "ensemble": (build_ensemble, [emitted_fraction, duality], None),
    "transport": (
        build_transport,
        [sparse_mass, refinement, dense_snapshots, no_pump_decay],
        None,
    ),
    "waiting_time": (
        build_waiting_time,
        [panel_a, panel_b, weak_field, emission_mc_a, emission_mc_b],
        None,
    ),
    "cli": (
        build_cli,
        [_cli_command(k) for k in ("delay", "pde", "mc", "mc_json", "baseline", "sweep", "fig1")]
        + [cli_outputs],
        cleanup_cli,
    ),
}


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(a):
    build, stages, cleanup = WORKLOADS[a.workload]
    inp = build(a)
    print("ready", flush=True)
    if a.setup_only:
        if cleanup:
            cleanup(inp)
        return 0
    tr = Tracer(ACCOUNTS) if a.trace else Untraced()
    results, stage_s, report = [], {}, {}
    try:
        t0 = time.perf_counter()
        for stage in stages:
            ts = time.perf_counter()
            try:
                out = stage(inp, tr, report)
            except Exception as exc:  # a stage that raises is a failed check
                out = Check(stage.__name__, False, f"raised {type(exc).__name__}: {exc}")
            results.extend(out if isinstance(out, list) else [out])
            stage_s[stage.__name__] = time.perf_counter() - ts
        wall = time.perf_counter() - t0
    finally:
        if cleanup:
            cleanup(inp)
    report.update(
        wall_s=wall,
        peak_rss_mb=_peak_rss_mb(a.workload),
        checks=[[c.name, c.ok, c.detail] for c in results],
        stage_s=stage_s,
        versions={
            "python": platform.python_version(),
            "qjump": qjump.__version__,
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__ if "scipy" in sys.modules else None,
        },
        runtime_deps=runtime_deps(),
    )
    if a.trace:
        report.update(spans=tr.spans, counts=tr.counts)
    print(json.dumps(report))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="seed of the CLI's mc runs")
    ap.add_argument(
        "--mc-seed", type=int, default=None,
        help="seed of every Monte Carlo stage (default: the acceptance seeds 42, 99, 7)",
    )
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--replay-cli", metavar="ARGV_JSON")
    a = ap.parse_args(argv)
    if a.replay_cli:
        return replay_cli(json.loads(a.replay_cli))
    if a.workload is None:
        ap.error("--workload is required")
    return run_workload(a)


if __name__ == "__main__":
    sys.exit(main())
