"""Each benchmark check passes on a good output and fails on a perturbed one.

A check that cannot fail would let a broken output through silently.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing


def test_emitted_fraction():
    assert checks.emitted_fraction(0.49807).ok
    assert not checks.emitted_fraction(0.4952).ok
    assert not checks.emitted_fraction(0.5048).ok


SIZES = [1_000, 10_000, 100_000]


@pytest.mark.parametrize(
    "l1s, ok",
    [
        ([0.3013, 0.0850, 0.0274], True),
        ([0.3013, 0.3013, 0.0274], False),  # not decreasing
        ([0.6, 0.19, 0.06], False),  # last value above 5e-2
        ([0.09, 0.06, 0.04], False),  # slope -0.18 outside (-0.7, -0.3)
    ],
)
def test_duality(l1s, ok):
    assert checks.duality(SIZES, l1s).ok is ok


def test_mass_drift():
    assert checks.mass_drift("m", [1.0, 1.0 + 1e-12, 1.0 - 1e-13]).ok
    assert not checks.mass_drift("m", [1.0, 1.0 + 1e-6]).ok


def test_refinement():
    ladder = [64, 128, 256, 512]
    assert checks.refinement(ladder, [0.12, 0.061, 0.0306, 0.0153]).ok
    assert not checks.refinement(ladder, [0.12, 0.061, 0.07, 0.0153]).ok
    assert not checks.refinement(ladder, [0.12, 0.085, 0.06, 0.042]).ok  # order 0.5


def test_no_pump_decay():
    t = np.linspace(0.0, 10.0, 101)
    exact = 0.5 * np.exp(-0.5 * t)
    assert checks.no_pump_decay(t, exact, math.pi / 4, 1.0).ok
    assert not checks.no_pump_decay(t, exact + 2e-3, math.pi / 4, 1.0).ok


def test_ks_not_rejected():
    assert checks.ks_not_rejected("ks", 0.4, 20_000).ok
    assert not checks.ks_not_rejected("ks", 0.005, 20_000).ok
    assert not checks.ks_not_rejected("ks", 0.4, 5_000).ok


def test_mc_l1():
    assert checks.mc_l1("l1", 0.02).ok
    assert not checks.mc_l1("l1", 0.24).ok


def test_panel_a_l1():
    assert checks.panel_a_l1(0.3452).ok
    assert not checks.panel_a_l1(0.14).ok
    assert not checks.panel_a_l1(0.36).ok


def test_panel_b_scales():
    assert checks.panel_b_scales(5.0, 1.0, -0.2).ok
    assert not checks.panel_b_scales(2.9, 1.0, -0.2).ok
    assert not checks.panel_b_scales(5.0, 1.2, -0.2).ok
    assert not checks.panel_b_scales(5.0, 1.0, 0.1).ok


def test_weak_field_exponent():
    assert checks.weak_field_exponent(-0.2).ok
    assert not checks.weak_field_exponent(-0.26).ok


CSV = "# command=delay\n# omega=3.33\ntau,density\n0.0,0.0\n0.5,0.25\n1.0,0.125\n"


def test_cli_csv():
    assert checks.cli_csv("c", 0, CSV, 3).ok
    assert checks.cli_csv("c", 0, CSV, {3, 4}).ok
    assert not checks.cli_csv("c", 1, CSV, 3).ok
    assert not checks.cli_csv("c", 0, None, 3).ok
    assert not checks.cli_csv("c", 0, CSV.replace("# command=delay\n", ""), 3).ok
    assert not checks.cli_csv("c", 0, CSV.replace("# omega=3.33", "# omega"), 3).ok
    assert not checks.cli_csv("c", 0, CSV.replace("0.25", "nan"), 3).ok
    assert not checks.cli_csv("c", 0, CSV.replace("0.25", "x"), 3).ok
    assert not checks.cli_csv("c", 0, CSV, 4).ok


JSON = '{"config": {"command": "sweep"}, "gamma": [1.0, 2.0], "fit_exponent": -0.2}'


def test_cli_json():
    want = {"gamma": 2, "fit_exponent": None}
    assert checks.cli_json("j", 0, JSON, want).ok
    assert not checks.cli_json("j", 2, JSON, want).ok
    assert not checks.cli_json("j", 0, JSON[:-1], want).ok
    assert not checks.cli_json("j", 0, JSON.replace("-0.2", "NaN"), want).ok
    assert not checks.cli_json("j", 0, JSON.replace('"sweep"', '"x"').replace("command", "c"), want).ok
    assert not checks.cli_json("j", 0, JSON, {"gamma": 3}).ok
    assert not checks.cli_json("j", 0, JSON, {"mean_delay": None}).ok


def test_self_times():
    spans = [
        ["cli", "main", 0.0, 10.0, -1],
        ["core", "mean_waiting_time", 1.0, 4.0, 0],
        ["io", "write_series_csv", 5.0, 8.0, 0],
        ["io", "write_csv", 6.0, 7.5, 2],
        ["pde", "solve", 12.0, 13.0, -1],
    ]
    s = tracing.summarize(spans)
    assert s["busy"]["cli"] == pytest.approx(4.0)
    assert s["busy"]["io"] == pytest.approx(3.0)
    assert s["quad_s"] == pytest.approx(3.0)
    assert s["calls"]["io"] == 2
    assert s["covered_s"] == pytest.approx(11.0)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |         scipy.version
import time:       200 |        300 |       scipy
import time:       400 |        700 |     scipy.integrate
import time:        50 |        750 |   qjump.core
import time:       300 |        300 |     scipy.special
import time:        20 |        320 |   qjump.stats
import time:        30 |       1100 | qjump
"""


def test_parse_importtime():
    assert run.parse_importtime(IMPORTTIME) == pytest.approx((1100e-6, 1000e-6))


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
