"""Benchmark of qjump: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each repetition of a workload is a fresh
`perfbench/worker.py` process started from `src/` with one worker thread
(`QJUMP_THREADS=1`, single-threaded BLAS).  Repetitions start while one more
is expected to fit in `--seconds` (at least one runs).  `--trace 0` prints
the medians of the end-to-end metrics; `--trace 1` runs the workload once
untraced and once traced and prints the per-layer metrics.  Checks of the
outputs are counted in `attempted` and `failed`.  The last line of stdout is
the JSON result; the lines before it are for people.  `--workload all` runs
the four workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("ensemble", "transport", "waiting_time", "cli")
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
# every run, set-up included, ends within this many seconds
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CLI_COMMANDS = ("delay", "pde", "mc", "mc_json", "baseline", "sweep", "fig1")
PER_LAYER = {
    "import.qjump_s": "s",
    "import.scipy_s": "s",
    "core.busy_s": "s",
    "core.calls": "count",
    "core.quad_s": "s",
    "pde.busy_s": "s",
    "pde.steps": "count",
    "pde.cell_updates": "count",
    "pde.ns_per_cell_update": "ns",
    "pde.snapshots": "count",
    "mc.busy_s": "s",
    "mc.trajectories": "count",
    "mc.us_per_trajectory": "us",
    "mc.emissions": "count",
    "mc.candidates_computed": "count",
    "mc.ns_per_candidate": "ns",
    "baseline.busy_s": "s",
    "baseline.rk4_substeps_computed": "count",
    "baseline.us_per_substep": "us",
    "stats.busy_s": "s",
    "stats.calls": "count",
    "stats.ks_samples": "count",
    "io.busy_s": "s",
    "io.bytes_written": "B",
    "io.rows_written": "count",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    for var in (
        "QJUMP_THREADS",
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    # qjump is not installed: it is imported from src/, which is also the
    # working directory of every worker and CLI process
    env["PYTHONPATH"] = str(SRC)
    return env


def _remaining(deadline):
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("deadline passed")
    return left


def start_worker(args, deadline):
    """Run one worker; return its report with the parent-measured setup_s."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=SRC,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    report = json.loads(rest.splitlines()[-1]) if rest.strip() else {}
    report["setup_s"] = setup
    return report


def parse_importtime(text):
    """(qjump, scipy) cumulative import seconds from `-X importtime` output.

    scipy counts every scipy module not imported from inside another one.
    """
    qjump_us = scipy_us = 0
    stack = []  # (depth, module) of the enclosing imports
    # lines are printed child-first; indentation gives the nesting
    for line in reversed(text.splitlines()):
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m[1]), len(m[2]), m[3]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "qjump":
            qjump_us += cumulative
        inside_scipy = any(mod.partition(".")[0] == "scipy" for _, mod in stack)
        if name.partition(".")[0] == "scipy" and not inside_scipy:
            scipy_us += cumulative
        stack.append((depth, name))
    return qjump_us / 1e6, scipy_us / 1e6


def import_times(deadline):
    return parse_importtime(
        subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qjump"],
            cwd=SRC,
            env=worker_env(),
            stderr=subprocess.PIPE,
            text=True,
            timeout=_remaining(deadline),
            check=True,
        ).stderr
    )


def worker_args(a, *extra):
    args = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.mc_seed is not None:
        args += ["--mc-seed", str(a.mc_seed)]
    return args + list(extra)


def timed_runs(a, deadline):
    """Repetitions while one more fits in a.seconds, and set-up samples.

    A set-up-only start precedes every repetition, so the set-up samples are
    spread over the run; more are added at the end up to SETUP_SAMPLES.
    """
    reps, setups = [], []
    t0 = time.perf_counter()
    while True:
        setups.append(start_worker(worker_args(a, "--setup-only"), deadline)["setup_s"])
        reps.append(start_worker(worker_args(a), deadline))
        setups.append(reps[-1]["setup_s"])
        elapsed = time.perf_counter() - t0
        if elapsed * (len(reps) + 1) / len(reps) > a.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(start_worker(worker_args(a, "--setup-only"), deadline)["setup_s"])
    return reps, setups


def end_to_end(reps, setups):
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def _per(total, count, scale):
    return total / count * scale if count else 0.0


def per_layer(untraced, traced, imports):
    s = tracing.summarize(traced["spans"])
    busy, calls, counts = s["busy"], s["calls"], traced["counts"]
    m = {
        "import.qjump_s": statistics.median(q for q, _ in imports),
        "import.scipy_s": statistics.median(sc for _, sc in imports),
        "core.calls": calls["core"],
        "core.quad_s": s["quad_s"],
        "stats.calls": calls["stats"],
        "pde.ns_per_cell_update": _per(busy["pde"], counts.get("pde.cell_updates"), 1e9),
        "mc.us_per_trajectory": _per(busy["mc"], counts.get("mc.trajectories"), 1e6),
        "mc.ns_per_candidate": _per(busy["mc"], counts.get("mc.candidates_computed"), 1e9),
        "baseline.us_per_substep": _per(
            busy["baseline"], counts.get("baseline.rk4_substeps_computed"), 1e6
        ),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.uncovered_s": traced["wall_s"] - s["covered_s"],
    }
    for layer in ("core", "pde", "mc", "baseline", "stats", "io"):
        m[f"{layer}.busy_s"] = busy[layer]
    for c in CLI_COMMANDS:
        m[f"cli.{c}_s"] = untraced["stage_s"][c] if c in untraced["stage_s"] else 0.0
    for name in PER_LAYER:
        m.setdefault(name, counts.get(name, 0))
    return m


def provenance(report):
    info = {
        "python": report["versions"],
        "runtime_deps": report["runtime_deps"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "qjump").rglob("*.py"))
        ),
        "git_sha": None,
    }
    if (ROOT / ".git").exists():  # an exported tree has none
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            info["git_sha"] = sha.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def run_one(a):
    """Print the human-readable lines and the JSON result of one workload."""
    deadline = time.perf_counter() + DEADLINE_S
    if a.trace:
        untraced = start_worker(worker_args(a), deadline)
        traced = start_worker(worker_args(a, "--trace"), deadline)
        imports = [import_times(deadline) for _ in range(IMPORTTIME_SAMPLES)]
        reps = [untraced, traced]
        metrics = per_layer(untraced, traced, imports)
        units = PER_LAYER
    else:
        reps, setups = timed_runs(a, deadline)
        metrics = end_to_end(reps, setups)
        units = END_TO_END
    checks = [c for r in reps for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    print(f"provenance {json.dumps(provenance(reps[0]))}")
    stages = {k: statistics.median(r["stage_s"][k] for r in reps) for k in reps[0]["stage_s"]}
    print(f"stage_s {json.dumps(stages)}")
    if reps[0].get("sha256"):
        print(f"sha256 {json.dumps(reps[0]['sha256'])}")
    for name, ok, detail in reps[0]["checks"]:
        print(f"check {a.workload}.{name} {'ok' if ok else 'FAILED'}: {detail}")
    for name, _, detail in [c for r in reps[1:] for c in r["checks"] if not c[1]]:
        print(f"check {a.workload}.{name} FAILED: {detail}")
    shown = " ".join(f"{k}={metrics[k]:.6g}" for k in units)
    walls = ", ".join(f"{r['wall_s']:.4f}" for r in reps)
    print(
        f"{a.workload}: {shown} checks_failed={len(failed)} checks_run={len(checks)} "
        f"repetitions={len(reps)} (wall_s {walls})"
    )
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(checks),
                "failed": len(failed),
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            }
        ),
        flush=True,
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="seed of the CLI's mc runs")
    ap.add_argument(
        "--mc-seed", type=int, default=None,
        help="seed of every Monte Carlo stage (default: the acceptance seeds 42, 99, 7)",
    )
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (SRC / "qjump" / "__init__.py").is_file():
        print(f"no qjump sources under {SRC}", file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if a.workload == "all" else (a.workload,):
            a.workload = workload
            run_one(a)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
