"""The runtime depends on numpy alone; scipy is a test dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_import_loads_no_scipy():
    code = (
        "import sys, qjump, qjump.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    assert names == {"numpy"}


def test_public_surface_is_pinned():
    # a new public name is a decision: add it here with the code
    import qjump

    assert sorted(qjump.__all__) == [
        "DelayDistribution", "EmissionTimes", "Emissions", "JumpSemantics", "KsReport",
        "ModelParams", "ProbabilityField", "ThetaGrid", "baseline", "core",
        "delay_function", "drift_angle", "emission_intensity", "integrate", "ks_test",
        "mc", "mean_delay", "no_pump_excited_population",
        "pde", "reduce_angle", "scaling_regression", "solve", "stats", "steady_state",
        "waiting_time_cdf", "waiting_time_density", "weak_field_delay_scale",
    ]
