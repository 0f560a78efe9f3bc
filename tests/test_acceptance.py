"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 8a (panel-a L1 between the analytic waiting-time curve and
the truncated-Lindblad delay function) is implemented exactly as stated and
is expected to fail: the two curves genuinely differ by ~0.34 in L1.
"""

import math
import time

import numpy as np
import pytest

from qjump import baseline, core, mc, pde, stats
from qjump.core import JumpSemantics, ModelParams

LITERAL = JumpSemantics.KOLMOGOROV_LITERAL
EMISSION = JumpSemantics.EMISSION_ONLY


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def cfl1_solve(params, grid, t_end):
    """Solve with Courant number as close to 1 as t_end allows."""
    dt0 = grid.cell_width / (0.5 * params.omega)
    n = int(np.ceil(t_end / dt0))
    return pde.solve(params, grid, t_end, t_end / n)


def test_criterion_1_no_pump_decay():
    t0 = time.perf_counter()
    p = ModelParams(0.0, 1.0, math.pi / 4)
    grid = pde.ThetaGrid(256)
    r = pde.solve(p, grid, 10.0, pde.max_stable_dt(p, grid))
    err = float(np.max(np.abs(r.rho1 - 0.5 * np.exp(-0.5 * r.times))))
    elapsed = time.perf_counter() - t0
    report(1, err < 1e-3 and elapsed < 1.0, f"max abs err {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_emission_probability():
    t0 = time.perf_counter()
    p = ModelParams(0.0, 1.0, math.pi / 4)
    records = mc.ensemble_records(p, LITERAL, 30.0, 42, 100_000)
    frac = mc.ever_emitted_fraction(records)
    elapsed = time.perf_counter() - t0
    report(
        2,
        abs(frac - 0.5) < 0.0047 and elapsed < 5.0,
        f"fraction {frac:.4f}, {elapsed:.2f}s",
    )


@pytest.mark.parametrize("ratio", [1 / 6, 1.0, 3.33, 10.0])
def test_criterion_3_normalization(ratio):
    p = ModelParams(ratio, 1.0)
    mass = core.waiting_time_normalization(p)
    report(3, abs(mass - 1.0) < 1e-6, f"omega/gamma={ratio:g}: mass {mass:.9f}")


def test_criterion_4_point_process_law():
    t0 = time.perf_counter()
    p = ModelParams(3.33, 1.0)
    records = mc.ensemble_records(p, EMISSION, 300.0, 7, 100)
    gaps = mc.interarrival_samples(records, origin_anchored=True)
    rep = stats.ks_test(gaps, lambda x: core.waiting_time_cdf(x, p))
    elapsed = time.perf_counter() - t0
    report(
        4,
        gaps.size >= 10_000 and not rep.reject_at_1pct and elapsed < 10.0,
        f"n={gaps.size}, KS D={rep.statistic:.4f}, p={rep.p_value:.3f}, "
        f"{elapsed:.2f}s",
    )


@pytest.mark.parametrize("ratio", [1 / 6, 3.33])
def test_criterion_5_mass_conservation(ratio):
    p = ModelParams(ratio, 1.0)
    grid = pde.ThetaGrid(256)
    dt = pde.max_stable_dt(p, grid)
    r = pde.solve(p, grid, 100_000 * dt, dt, snapshot_stride=10_000)
    worst = max(abs(s.values.sum() * grid.cell_width - 1.0) for s in r.snapshots)
    report(5, worst < 1e-8, f"omega/gamma={ratio:g}: max |mass-1| {worst:.2e}")


def test_criterion_6_duality():
    p = ModelParams(3.33, 1.0)
    grid = pde.ThetaGrid(128)
    t_end = 5.0
    snap = cfl1_solve(p, grid, t_end).final.values
    l1s = []
    for n in [1_000, 10_000, 100_000]:
        th = mc.ensemble_theta_at(p, LITERAL, t_end, 99, n)
        h = mc.histogram_from_angles(th, grid)
        l1s.append(float(np.sum(np.abs(h.values - snap)) * grid.cell_width))
    slope = float(np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(l1s), 1)[0])
    ok = (
        l1s[-1] < 5e-2
        and l1s[0] > l1s[1] > l1s[2]
        and -0.7 < slope < -0.3
    )
    report(6, ok, f"L1={[f'{v:.3f}' for v in l1s]}, slope {slope:.2f}")


def test_criterion_7_weak_field_scaling():
    omega = 1.0
    gammas = np.geomspace(4.0, 64.0, 7)
    means = [core.mean_waiting_time(ModelParams(omega, g)) for g in gammas]
    exponent, r2 = stats.scaling_regression(np.column_stack([gammas, means]))
    report(
        7,
        abs(exponent - (-0.2)) < 0.05,
        f"exponent {exponent:.3f}, r2 {r2:.4f}",
    )


def fig1_distributions(ratio, span, n):
    p = ModelParams(ratio, 1.0)
    tau = np.linspace(0.0, span, n)
    ell_k = stats.DelayDistribution(
        tau, core.waiting_time_density(tau, p), "analytic"
    )
    ell_q = baseline.delay_function(p, tau)
    return p, ell_k, ell_q


def test_criterion_8a_panel_a_agreement():
    _, ell_k, ell_q = fig1_distributions(3.33, 30.0, 3000)
    dist = stats.l1_distance(ell_k, ell_q)
    report(8, dist < 0.15, f"panel a L1 {dist:.3f} (threshold 0.15)")


def test_criterion_8b_panel_b_disagreement_and_scale_tracking():
    p, ell_k, ell_q = fig1_distributions(1 / 6, 600.0, 6000)
    mean_k = stats.mean_delay(ell_k)
    mean_q = stats.mean_delay(ell_q)
    factor = mean_q / mean_k

    # baseline mean grows like tau_Q = gamma/omega^2; analytic mean decays
    # like tau_K = (omega^4 gamma)^(-1/5)
    omega = 1 / 6
    gammas = np.geomspace(1.0, 4.0, 3)
    base_means = []
    kolmo_means = []
    for g in gammas:
        pg = ModelParams(omega, g)
        span = 20.0 * core.dressed_delay_scale(pg)
        tau = np.linspace(0.0, span, 4000)
        base_means.append(stats.mean_delay(baseline.delay_function(pg, tau)))
        kolmo_means.append(core.mean_waiting_time(pg))
    base_slope, _ = stats.scaling_regression(np.column_stack([gammas, base_means]))
    kolmo_slope, _ = stats.scaling_regression(np.column_stack([gammas, kolmo_means]))

    ok = factor > 3.0 and abs(base_slope - 1.0) < 0.15 and -0.45 < kolmo_slope < 0.0
    report(
        8,
        ok,
        f"panel b mean ratio {factor:.2f}, baseline slope {base_slope:.2f}, "
        f"kolmogorov slope {kolmo_slope:.2f}",
    )


def test_criterion_9_lindblad_trace():
    p = ModelParams(3.33, 1.0)
    dt = 0.02
    _, full = baseline.integrate(baseline.GROUND, p, 20.0, dt)
    worst = float(np.max(np.abs(full[:, 0] + full[:, 1] - 1.0)))
    _, trunc = baseline.integrate(baseline.GROUND, p, 20.0, dt, truncated=True)
    traces = trunc[:, 0] + trunc[:, 1]
    monotone = bool(np.all(np.diff(traces) <= 1e-14))
    report(9, worst < 1e-8 and monotone, f"max |tr-1| {worst:.2e}, monotone {monotone}")


def test_criterion_10_rate_identity_refinement():
    p = ModelParams(3.33, 1.0)
    errs = []
    ladder = [64, 128, 256, 512]
    for n in ladder:
        grid = pde.ThetaGrid(n)
        dt0 = 0.5 * grid.cell_width / (0.5 * p.omega)
        m = int(np.ceil(3.0 / dt0))
        r = pde.solve(p, grid, 3.0, 3.0 / m, snapshot_stride=1)
        fd = np.diff(r.rho1) / (3.0 / m)
        rates = np.array([pde.population_rate(s, p) for s in r.snapshots[:-1]])
        errs.append(float(np.max(np.abs(fd - rates))))
    order = float(-np.polyfit(np.log(ladder), np.log(errs), 1)[0])
    shrinking = all(a > b for a, b in zip(errs, errs[1:]))
    report(
        10,
        shrinking and order >= 0.9,
        f"errors {[f'{e:.3e}' for e in errs]}, observed order {order:.2f}",
    )
