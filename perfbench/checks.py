"""Output checks of the benchmark.

Each function takes an output a workload computed and returns a `Check`.
The tolerances restate the acceptance criteria of the package (criteria 1,
2, 5, 6, 7, 8b and 10, the KS test of criterion 4) in the benchmark's own
code, so the benchmark never imports the test suite.  Criterion 8a stays
red in the test suite; the benchmark only checks that its panel-a distance
still reads the value it had when the benchmark was written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

KS_LEVEL = 0.01
KS_MIN_SAMPLES = 10_000  # criterion 4's sample size
PANEL_A_L1_AT_SEED = 0.345
PANEL_A_L1_TOL = 1e-3
MASS_DRIFT_TOL = 1e-8
# L1 between an emission-semantics histogram and ell_K.  The
# literal-semantics law sits 0.24 (panel a) and 1.06 (panel b) away, so this
# bound separates the two laws; sampling noise at the workload sizes is far
# below it.
MC_L1_BOUND = 0.1


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def emitted_fraction(frac: float) -> Check:
    """Criterion 2: the unpumped atom at theta0 = pi/4 emits with probability 1/2."""
    return Check(
        "emitted_fraction", abs(frac - 0.5) < 0.0047, f"fraction {frac:.5f}"
    )


def duality(sizes, l1s) -> Check:
    """Criterion 6: MC-vs-PDE L1 falls with the ensemble size like N^-1/2."""
    slope = float(np.polyfit(np.log(sizes), np.log(l1s), 1)[0])
    decreasing = all(a > b for a, b in zip(l1s, l1s[1:]))
    ok = decreasing and l1s[-1] < 5e-2 and -0.7 < slope < -0.3
    shown = ", ".join(f"{v:.4f}" for v in l1s)
    return Check("duality", ok, f"L1 [{shown}], slope {slope:.3f}")


def mass_drift(name: str, masses) -> Check:
    """Criterion 5: every snapshot keeps unit mass."""
    worst = float(np.max(np.abs(np.asarray(masses, dtype=float) - 1.0)))
    return Check(name, worst < MASS_DRIFT_TOL, f"max |mass-1| {worst:.2e}")


def refinement(ladder, errs) -> Check:
    """Criterion 10: the rate-identity error shrinks at first order or better."""
    order = float(-np.polyfit(np.log(ladder), np.log(errs), 1)[0])
    shrinking = all(a > b for a, b in zip(errs, errs[1:]))
    shown = ", ".join(f"{e:.3e}" for e in errs)
    return Check(
        "refinement", shrinking and order >= 0.9, f"errors [{shown}], order {order:.3f}"
    )


def no_pump_decay(times, rho1, theta0: float, gamma: float) -> Check:
    """Criterion 1: without pump the excited population decays in closed form."""
    s2 = math.sin(theta0) ** 2
    exact = s2 * np.exp(-gamma * s2 * np.asarray(times))
    err = float(np.max(np.abs(np.asarray(rho1) - exact)))
    return Check("no_pump_decay", err < 1e-3, f"max abs err {err:.2e}")


def ks_not_rejected(name: str, p_value: float, n: int) -> Check:
    """KS of simulated intervals against the closed-form CDF, not rejected at 1 %."""
    ok = n >= KS_MIN_SAMPLES and p_value >= KS_LEVEL
    return Check(name, ok, f"n={n}, p={p_value:.4f}")


def mc_l1(name: str, value: float) -> Check:
    """L1 between an emission-semantics interval histogram and ell_K."""
    return Check(name, value < MC_L1_BOUND, f"L1 {value:.4f} (bound {MC_L1_BOUND})")


def panel_a_l1(value: float) -> Check:
    """Criterion 8a's distance, held at the value it has at the seed (0.345)."""
    ok = abs(value - PANEL_A_L1_AT_SEED) <= PANEL_A_L1_TOL
    return Check("panel_a_l1", ok, f"L1 {value:.5f} (seed value {PANEL_A_L1_AT_SEED})")


def panel_b_scales(factor: float, base_slope: float, kolmo_slope: float) -> Check:
    """Criterion 8b: panel-b mean ratio and the two delay-scale slopes."""
    ok = factor > 3.0 and abs(base_slope - 1.0) < 0.15 and -0.45 < kolmo_slope < 0.0
    return Check(
        "panel_b_scales",
        ok,
        f"mean ratio {factor:.3f}, baseline slope {base_slope:.3f}, "
        f"kolmogorov slope {kolmo_slope:.3f}",
    )


def weak_field_exponent(exponent: float) -> Check:
    """Criterion 7: the weak-field mean delay scales like gamma^-1/5."""
    return Check(
        "weak_field_exponent", abs(exponent + 0.2) < 0.05, f"exponent {exponent:.4f}"
    )


def parse_csv(text: str):
    """(column names, data rows) of a qjump CSV output with a valid header."""
    lines = text.splitlines()
    keys = set()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, sep, _ = lines[i][1:].strip().partition("=")
        if not sep or not key:
            raise ValueError(f"malformed header line {lines[i]!r}")
        keys.add(key)
        i += 1
    if "command" not in keys:
        raise ValueError("header carries no command")
    if i == len(lines):
        raise ValueError("no column row")
    names = lines[i].split(",")
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in lines[i + 1 :]], dtype=float
    ).reshape(-1, len(names))
    return names, rows


def _numbers(node):
    if isinstance(node, dict):
        for v in node.values():
            yield from _numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _numbers(v)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def cli_csv(name: str, returncode: int, text: str | None, expected_rows) -> Check:
    """Exit 0, a parseable header, finite columns and an expected row count.

    `expected_rows` is one count or a collection of admissible counts.
    """
    if returncode != 0:
        return Check(name, False, f"exit code {returncode}")
    if text is None:
        return Check(name, False, "no output file")
    try:
        names, rows = parse_csv(text)
    except ValueError as exc:
        return Check(name, False, f"unparseable output: {exc}")
    admissible = {expected_rows} if isinstance(expected_rows, int) else set(expected_rows)
    if not np.isfinite(rows).all():
        return Check(name, False, "non-finite value in a column")
    ok = len(rows) in admissible
    return Check(name, ok, f"{len(rows)} rows x {len(names)} columns")


def cli_json(name: str, returncode: int, text: str | None, lengths: dict) -> Check:
    """Exit 0, a config header, finite numbers and expected array lengths.

    `lengths` maps a key to the length its list must have, or to None for a
    scalar that must be present.
    """
    if returncode != 0:
        return Check(name, False, f"exit code {returncode}")
    if text is None:
        return Check(name, False, "no output file")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return Check(name, False, f"unparseable output: {exc}")
    if not isinstance(doc, dict) or "command" not in doc.get("config", {}):
        return Check(name, False, "no config header")
    if not all(math.isfinite(v) for v in _numbers(doc)):
        return Check(name, False, "non-finite number")
    for key, length in lengths.items():
        value = doc.get(key)
        if length is None and not isinstance(value, (int, float)):
            return Check(name, False, f"{key} missing")
        if length is not None and (not isinstance(value, list) or len(value) != length):
            return Check(name, False, f"{key} has not {length} entries")
    return Check(name, True, ", ".join(f"{k} ok" for k in lengths))
