"""The runtime depends on numpy alone; scipy is a test dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _loaded_packages(imports, *packages):
    """Sorted modules of `packages` that a fresh `import <imports>` loads."""
    code = (
        f"import sys, {imports}; "
        f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {packages!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_packages("qjump, qjump.cli", "scipy") == "[]"
    # the import cost: the package and its five modules, no more and no fewer
    assert _loaded_packages("qjump", "qjump") == str(
        ["qjump", "qjump.baseline", "qjump.core", "qjump.mc", "qjump.pde", "qjump.stats"]
    )


def _numpy_modules_after(code, subpackage):
    """Sorted numpy.<subpackage> modules loaded once a fresh process ran `code`."""
    code += (
        "\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', {subpackage!r}]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_closed_forms_and_baseline_load_no_numpy_polynomial():
    # importing numpy.polynomial costs about 5 ms on a first evaluation
    code = (
        "import numpy as np\n"
        "from qjump import baseline, core\n"
        "p = core.ModelParams(3.33, 1.0)\n"
        "core.waiting_time_density(np.linspace(0.0, 10.0, 101), p)\n"
        "core.mean_waiting_time(p)\n"
        "baseline.delay_function(p, np.linspace(0.0, 10.0, 101))"
    )
    assert _numpy_modules_after(code, "polynomial") == "[]"


def test_l1_distance_loads_no_numpy_ma():
    # np.union1d and np.unique import numpy.ma, 11-15 ms on a first call
    code = (
        "import numpy as np\n"
        "from qjump import stats\n"
        "a = stats.DelayDistribution(np.linspace(0.0, 10.0, 101), np.full(101, 0.1))\n"
        "b = stats.DelayDistribution(np.linspace(0.0, 8.0, 33), np.full(33, 0.125))\n"
        "stats.l1_distance(a, b)"
    )
    assert _numpy_modules_after(code, "ma") == "[]"


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    assert names == {"numpy"}
    # stats calls np.trapezoid, which numpy added in 2.0
    floor = re.fullmatch(r"numpy>=(\d+)(?:\.(\d+))?", deps[0].replace(" ", ""))
    assert floor and (int(floor[1]), int(floor[2] or 0)) >= (2, 0), deps[0]


def test_public_surface_is_pinned():
    # a new public name is a decision: add it here with the code
    import qjump

    # each public name is qjump.<module>.<name>, its one name
    assert qjump.__all__ == ["baseline", "core", "mc", "pde", "stats"]
