import argparse
import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from qjump import baseline, cli, io, pde
from qjump.core import ModelParams

README = Path(__file__).resolve().parents[1] / "README.md"


def read_lines(path):
    return path.read_text().splitlines()


def data_rows(path):
    lines = [l for l in read_lines(path) if not l.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    return header, rows


class TestDelayCommand:
    def test_writes_curve(self, tmp_path):
        out = tmp_path / "delay.csv"
        rc = cli.main(
            ["delay", "--omega", "3.33", "--gamma", "1.0", "--out", str(out)]
        )
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["tau", "density"]
        assert rows[0, 1] == 0.0
        assert np.all(rows[:, 1] >= 0)

    def test_header_carries_config(self, tmp_path):
        out = tmp_path / "delay.csv"
        cli.main(["delay", "--omega", "2.5", "--out", str(out)])
        text = out.read_text()
        assert "# omega=2.5" in text
        assert "# command=delay" in text


class TestPdeCommand:
    def test_series_csv(self, tmp_path):
        out = tmp_path / "pde.csv"
        rc = cli.main(
            ["pde", "--omega", "3.33", "--theta0", "0.3", "--horizon", "5",
             "--out", str(out)]
        )
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["t", "rho0", "rho1"]
        assert np.allclose(rows[:, 1] + rows[:, 2], 1.0, atol=1e-8)

    def test_unstable_dt_rejected(self, tmp_path):
        rc = cli.main(
            ["pde", "--omega", "50", "--dt", "1.0",
             "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 2


class TestMcCommand:
    def test_json_summary_no_pump(self, tmp_path):
        out = tmp_path / "mc.json"
        rc = cli.main(
            ["mc", "--omega", "0", "--theta0", "0.7854", "--n", "3000",
             "--horizon", "30", "--seed", "5", "--format", "json",
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 5
        assert doc["ever_emitted_fraction"] == pytest.approx(0.5, abs=0.03)

    def test_emissions_csv(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc = cli.main(
            ["mc", "--omega", "3.33", "--n", "20", "--horizon", "20",
             "--semantics", "emission", "--out", str(out)]
        )
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["trajectory_id", "emission_time"]
        assert rows.shape[0] > 0

    @pytest.mark.parametrize(
        "flag, value", [("--horizon", "nan"), ("--horizon", "inf"), ("--seed", "-1")]
    )
    def test_bad_input_names_parameter(self, tmp_path, capsys, flag, value):
        rc = cli.main(["mc", flag, value, "--n", "10", "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert flag[2:] in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_reproducible_without_timestamp(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc", "--omega", "2", "--n", "50", "--horizon", "10",
                "--seed", "9", "--no-timestamp"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBaselineCommand:
    def test_delay_function_csv(self, tmp_path):
        out = tmp_path / "lq.csv"
        rc = cli.main(
            ["baseline", "--omega", "3.33", "--horizon", "20", "--n", "400",
             "--out", str(out)]
        )
        assert rc == 0
        header, rows = data_rows(out)
        assert header == ["tau", "ell_q"]
        assert rows[0, 1] == 0.0

    @pytest.mark.parametrize("omega", [0.001, 0.05])
    def test_default_span_holds_the_mass(self, tmp_path, omega):
        # the default span follows the model's slowest decay; fig1's fixed
        # span of 600/gamma once held 0.06 % of the mass at omega = 0.001
        out = tmp_path / "lq.csv"
        assert cli.main(["baseline", "--omega", str(omega), "--out", str(out)]) == 0
        _, rows = data_rows(out)
        tau, ell = rows[:, 0], rows[:, 1]
        assert tau[-1] == baseline.delay_tail_cutoff(ModelParams(omega, 1.0))
        assert np.sum(0.5 * (ell[1:] + ell[:-1]) * np.diff(tau)) > 0.99

    def test_file_unchanged(self, tmp_path):
        # sha256 of the README run's --no-timestamp file, recorded when one
        # 4x4 generator replaced the 2x2 amplitude propagator, and again when
        # uniform grids went from step-by-step propagation to propagator
        # powers: ell_q moved by at most 1.9e-15 of its maximum
        out = tmp_path / "lq.csv"
        argv = ["baseline", "--omega", "3.33", "--horizon", "20", "--no-timestamp"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "bbe2154efe1dd2cbe061985d89f11b263f4a5e89c389e27d745de0343e1ce0e8"
        )

    def test_fig1_files_unchanged(self, tmp_path):
        # sha256 of both panel files of the README's fig1 run, --no-timestamp,
        # recorded before integrate and delay_function shared one stepping
        # loop; panel b is the overdamped case.  Panel a was re-recorded when
        # the moments' panel sums left the BLAS dot: its mean_kolmogorov moved
        # by 1.6e-16 relative.  Both were re-recorded when uniform grids went
        # to propagator powers: ell_baseline moved by at most 2.7e-15 (a) and
        # 8.8e-16 (b) of its maximum, mean_baseline by 8.3e-15 and 1.5e-15
        # relative, l1_distance by 3.5e-15 and 4.6e-16
        argv = ["fig1", "--panel", "both", "--no-timestamp"]
        assert cli.main([*argv, "--out", str(tmp_path / "fig1.csv")]) == 0
        digests = {
            panel: hashlib.sha256((tmp_path / f"fig1_{panel}.csv").read_bytes()).hexdigest()
            for panel in "ab"
        }
        assert digests == {
            "a": "7e117711712d9aad842bf9dd8829becb4cbf7f073591d21dd3318ae1168b2803",
            "b": "4e3aaf8cb1a252783394f2cf165efaf9129236ff4f2d68d56d7dd7b98f058a8d",
        }


class TestSweepCommand:
    def test_json_exponent(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = cli.main(
            ["sweep", "--omega", "1.0", "--sweep-points", "5",
             "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["fit_exponent"] == pytest.approx(-0.2, abs=0.05)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_omega_runs_without_warnings(self, tmp_path):
        # np.geomspace hands the delay scales numpy gammas, which warn on 0 division
        out = tmp_path / "sweep.json"
        rc = cli.main(["sweep", "--omega", "1e-300", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert all(0.0 < x < math.inf for x in doc["tau_q"] + doc["tau_k"])

    def test_weak_field_exponent(self, tmp_path):
        # Omega/gamma from 1e-13 to 1e-20: the mean follows (Omega^4 gamma)^(-1/5)
        out = tmp_path / "sweep.json"
        rc = cli.main(
            ["sweep", "--omega", "1", "--gamma-min", "1e13", "--gamma-max", "1e20",
             "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["fit_exponent"] == pytest.approx(-0.2, abs=1e-6)


class TestFig1Command:
    def test_panel_a(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        rc = cli.main(["fig1", "--panel", "a", "--n", "600", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# omega_over_gamma=3.33" in text
        header, rows = data_rows(out)
        assert header == ["tau", "ell_kolmogorov", "ell_baseline"]

    def test_panel_b(self, tmp_path):
        out = tmp_path / "fig1b.csv"
        rc = cli.main(["fig1", "--panel", "b", "--n", "600", "--out", str(out)])
        assert rc == 0
        assert "# omega_over_gamma=0.1666" in out.read_text()
        header, _ = data_rows(out)
        assert header == ["tau", "ell_kolmogorov", "ell_baseline"]

    def test_both_panels(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = cli.main(["fig1", "--n", "400", "--out", str(out)])
        assert rc == 0
        for panel in "ab":
            text = (tmp_path / f"fig1_{panel}.csv").read_text()
            assert "# panel=both\n" in text and f"# this_panel={panel}\n" in text

    def test_summary_scalars(self, tmp_path):
        out = tmp_path / "fig1a.json"
        rc = cli.main(["fig1", "--panel", "a", "--n", "600", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mean_kolmogorov"] > 0 and doc["mean_baseline"] > 0
        assert doc["l1_distance"] == pytest.approx(0.345, abs=0.01)

    @pytest.mark.parametrize("n", [3, 10, 30])
    @pytest.mark.parametrize("panel", ["a", "b"])
    def test_under_resolved_grid_names_n(self, tmp_path, capsys, panel, n):
        # ell_K's trapezoid mass is far from 1 on these grids: it is refused,
        # not turned into a mean_baseline and an l1_distance
        out = tmp_path / "f.csv"
        rc = cli.main(["fig1", "--panel", panel, "--n", str(n), "--out", str(out)])
        assert rc == 2
        assert f"--n={n} under-resolves panel {panel}" in capsys.readouterr().err
        assert not out.exists()


class TestDualityCommand:
    def test_defaults(self):
        cfg = cli.parse_config(["duality"])
        assert (cfg.omega, cfg.gamma, cfg.seed, cfg.grid_n, cfg.horizon) == (
            3.33, 1.0, 99, 128, 5.0
        )
        assert cfg.sizes == [1_000, 10_000, 100_000]

    def test_json_columns_and_slope(self, tmp_path):
        out = tmp_path / "duality.json"
        rc = cli.main(
            ["duality", "--grid-n", "32", "--sizes", "40", "80", "--format",
             "json", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["ensemble_size"] == [40.0, 80.0]
        assert len(doc["l1_distance"]) == 2
        assert np.isfinite(doc["slope"])

    def test_zero_omega_rejected(self, tmp_path, capsys):
        rc = cli.main(
            ["duality", "--omega", "0", "--sizes", "10", "20",
             "--out", str(tmp_path / "d.csv")]
        )
        assert rc == 2
        assert "omega" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["nan", "inf", "0"])
    def test_bad_horizon_rejected(self, tmp_path, capsys, horizon):
        rc = cli.main(
            ["duality", "--horizon", horizon, "--sizes", "10", "20",
             "--out", str(tmp_path / "d.csv")]
        )
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["5e-324", "1e-300"])
    def test_tiny_omega_refusal_names_omega(self, tmp_path, capsys, omega):
        # nothing leaves theta = 0, so every L1 distance is 0 at any horizon;
        # at 5e-324 the Courant-1 step once divided by 0.5 * omega = 0
        rc = cli.main(["duality", "--omega", omega, "--sizes", "10", "100",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert "--omega" in capsys.readouterr().err

    def test_long_horizon_refused_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("pde.solve ran before the horizon was checked")

        monkeypatch.setattr(pde, "solve", solve)
        rc = cli.main(["duality", "--horizon", "2000", "--out", str(tmp_path / "d.csv")])
        assert rc == 2
        assert re.search(r"\bhorizon\b", capsys.readouterr().err)

    def test_whole_steps_horizon_takes_them_at_courant_one(self, tmp_path, monkeypatch):
        # 103 dt in floats is 103.00000000000001 dt: the step rule counts 103
        # steps at c = 1, an exact shift, where a bare ceil takes 104
        dt = (math.pi / 128) / (3.33 / 2)
        solves, solve = [], pde.solve

        def spy(params, grid, t_end, dt, **kwargs):
            result = solve(params, grid, t_end, dt, **kwargs)
            solves.append((params, grid, result))
            return result

        monkeypatch.setattr(pde, "solve", spy)
        rc = cli.main(["duality", "--horizon", repr(103 * dt), "--sizes", "40", "80",
                       "--out", str(tmp_path / "d.csv")])
        assert rc == 0
        [(params, grid, result)] = solves
        n_steps = result.times.size - 1
        assert n_steps == 103
        assert pde.StepOperator(params, grid, result.times[-1] / n_steps).courant == 1.0

    def test_weak_drive_of_fig1_panel_b(self, tmp_path):
        # at omega/gamma = 1/6 the Courant-1 step would break gamma*dt <= 0.1
        out = tmp_path / "d.json"
        omega = repr(cli.FIG1_RATIOS["b"])
        rc = cli.main(["duality", "--omega", omega, "--format", "json", "--out", str(out)])
        assert rc == 0
        l1 = json.loads(out.read_text())["l1_distance"]
        assert len(l1) == 3 and all(math.isfinite(x) for x in l1)
        assert l1[0] > l1[1] > l1[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--omega", "2"],
        ["delay", "--theta0", "0.3"],
        ["baseline", "--theta0", "0.3"],
        ["sweep", "--theta0", "0.3"],
        ["sweep", "--gamma", "2"],
        ["fig1", "--theta0", "0.3"],
        ["duality", "--theta0", "0.3"],
    ],
)
def test_unused_model_flags_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, name",
    [
        (["pde", "--horizon", "nan"], "horizon"),
        (["pde", "--horizon", "inf"], "horizon"),
        (["pde", "--dt", "nan"], "dt"),
        (["delay", "--horizon", "nan"], "horizon"),
        (["baseline", "--horizon", "inf"], "horizon"),
        (["delay", "--omega", "0"], "omega"),
        (["sweep", "--omega", "0"], "omega"),
        (["sweep", "--gamma-min", "4", "--gamma-max", "4"], "gamma-min"),
        (["sweep", "--omega", "1", "--gamma-max", "4"], "gamma-max"),
        (["sweep", "--gamma-min", "0"], "gamma-min"),
        (["sweep", "--gamma-min", "-1", "--gamma-max", "4"], "gamma-min"),
        (["sweep", "--gamma-max", "nan"], "gamma-max"),
        (["sweep", "--gamma-max", "inf"], "gamma-max"),
        (["sweep", "--sweep-points", "2"], "sweep-points"),
        (["sweep", "--omega", "inf"], "omega"),
        (["delay", "--horizon", "-3"], "horizon"),
        (["baseline", "--horizon", "0"], "horizon"),
        (["pde", "--horizon", "0"], "horizon"),
        (["delay", "--n", "0"], "--n"),
        (["delay", "--n", "-1"], "--n"),
        (["baseline", "--n", "0"], "--n"),
        (["fig1", "--n", "0"], "--n"),
        (["duality", "--sizes", "0", "80"], "sizes"),
        (["mc", "--horizon", "1e300"], "horizon"),
        (["duality", "--horizon", "1e-9"], "horizon"),
        (["duality", "--horizon", "2000"], "horizon"),
        (["baseline", "--omega", "0"], "omega"),
        (["baseline", "--omega", "1e-6"], "--n"),
        (["baseline", "--horizon", "1e9", "--n", "10"], "--horizon"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_flag_named(tmp_path, capsys, argv, name):
    rc = cli.main(argv + ["--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


SMALL_RUNS = {
    "delay": ["--omega", "3.33", "--n", "50"],
    "pde": ["--omega", "3.33", "--theta0", "0.3", "--horizon", "0.5", "--grid-n", "32"],
    "mc": ["--omega", "3.33", "--n", "20", "--horizon", "10", "--seed", "1"],
    "baseline": ["--omega", "3.33", "--horizon", "5", "--n", "50"],
    "sweep": ["--sweep-points", "3"],
    "fig1": ["--panel", "both", "--n", "400"],
    "duality": ["--grid-n", "32", "--sizes", "40", "80"],
}


def run_into(directory, argv, fmt):
    directory.mkdir()
    argv = [*argv, "--format", fmt, "--no-timestamp",
            "--out", str(directory / f"out.{fmt}")]
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_every_subcommand_writes_its_format(tmp_path, command, fmt):
    argv = [command, *SMALL_RUNS[command]]
    first = run_into(tmp_path / "first", argv, fmt)
    assert first
    for name in first:
        path = tmp_path / "first" / name
        if fmt == "json":
            assert json.loads(path.read_text())["config"]["command"] == command
        else:
            names, rows = data_rows(path)
            assert all(not n[:1].isdigit() for n in names)
            assert rows.shape[0] > 0 and rows.shape[1] == len(names)
    assert run_into(tmp_path / "second", argv, fmt) == first


# exactly the subcommand's flags, less --out and --no-timestamp, plus command
HEADER_KEYS = {
    "delay": {"command", "format", "gamma", "horizon", "n", "omega"},
    "pde": {"command", "dt", "format", "gamma", "grid_n", "horizon", "omega", "theta0"},
    "mc": {"command", "format", "gamma", "horizon", "n", "omega", "seed",
           "semantics", "theta0"},
    "baseline": {"command", "format", "gamma", "horizon", "n", "omega"},
    "sweep": {"command", "format", "gamma_max", "gamma_min", "omega", "sweep_points"},
    "fig1": {"command", "format", "gamma", "n", "panel"},
    "duality": {"command", "format", "gamma", "grid_n", "horizon", "omega", "seed",
                "sizes"},
}
# scalars a CSV writes into its header beside the flags
CSV_SCALARS = {
    "sweep": {"fit_exponent", "fit_r_squared"},
    "fig1": {"this_panel", "omega_over_gamma", "axis_note", "mean_kolmogorov",
             "mean_baseline", "l1_distance"},
    "duality": {"slope"},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_header_holds_exactly_the_flags(tmp_path, command, fmt):
    files = run_into(tmp_path / "out", [command, *SMALL_RUNS[command]], fmt)
    for text in files.values():
        if fmt == "json":
            assert set(json.loads(text)["config"]) == HEADER_KEYS[command]
        else:
            keys = {
                line[2:].split("=", 1)[0]
                for line in text.decode().splitlines() if line.startswith("# ")
            }
            assert keys == HEADER_KEYS[command] | CSV_SCALARS.get(command, set())


@pytest.mark.parametrize("writer", [io.write_csv, io.write_json])
def test_writers_refuse_a_scalar_named_like_a_config_key(tmp_path, writer):
    out = tmp_path / "x.out"
    with pytest.raises(ValueError, match="panel"):
        writer(out, {"tau": [0.0, 1.0]}, {"panel": "a"}, {"panel": "both"})
    assert not out.exists()


def test_csv_cells_are_repr_of_float(tmp_path):
    # every cell is repr(float(v)), row by row: the shortest string that
    # reads back to the same double; the rows span three of the writer's
    # slices
    values = [-0.0, 5e-324, 0.1, 1e-5, 1e16, 3.0, -7.0, 2.0**53, 0.0]
    x = np.concatenate([values, np.random.default_rng(0).normal(size=2 * io._CSV_ROWS)])
    columns = {"x": x, "n": np.arange(x.size), "f": np.float32(x)}
    out = tmp_path / "x.csv"
    io.write_csv(out, columns, {"s": 1}, {"command": "t"}, timestamp=False)
    rows = zip(*columns.values())
    expected = "# command=t\n# s=1\nx,n,f\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows
    )
    assert out.read_bytes() == expected.encode()
    assert out.read_text().splitlines()[3] == "-0.0,0.0,-0.0"


def argv_from_csv_header(path):
    """Flags that rerun a CSV output, read from its '# key=value' header."""
    header = dict(line[2:].split("=", 1) for line in read_lines(path)
                  if line.startswith("# "))
    argv = [header["command"]]
    for key in sorted(HEADER_KEYS[header["command"]] - {"command"}):
        if header[key] != "None":  # None: chosen automatically
            argv += [f"--{key.replace('_', '-')}", *header[key].strip("[]").split(", ")]
    return argv


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_csv_header_regenerates_output(tmp_path, command):
    # fig1 --panel both writes two files; each header must rerun both
    first = run_into(tmp_path / "first", [command, *SMALL_RUNS[command]], "csv")
    for i, name in enumerate(first):
        argv = argv_from_csv_header(tmp_path / "first" / name)
        assert run_into(tmp_path / f"again{i}", argv, "csv") == first


def argv_from_config(config):
    """Flags that rerun a JSON output's config; None (auto) is left out."""
    argv = [config["command"]]
    for key, value in config.items():
        if key != "command" and value is not None:
            values = value if isinstance(value, list) else [value]
            argv += [f"--{key.replace('_', '-')}", *map(str, values)]
    return argv


@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_json_config_regenerates_output(tmp_path, command):
    first = run_into(tmp_path / "first", [command, *SMALL_RUNS[command]], "json")
    config = json.loads(next(iter(first.values())))["config"]
    assert run_into(tmp_path / "again", argv_from_config(config), "json") == first


def numeric_flags():
    """(command, flag, value): float flags get nan, +-inf, 0 and -1; ints 0, -1."""
    parser = cli._build_parser()
    subcommands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    values = {float: ["nan", "inf", "-inf", "0", "-1"], int: ["0", "-1"]}
    for command, sub in subcommands.choices.items():
        for action in sub._actions:
            for value in values.get(action.type, []):
                yield command, action.option_strings[0], value


def json_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in json_numbers(child)]
    return [node] if isinstance(node, (int, float)) else []


@pytest.mark.parametrize("command, flag, value", list(numeric_flags()))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numeric_flag_sweep(tmp_path, capsys, command, flag, value):
    """Finite output, or exit 2 naming the flag (ThetaGrid calls --grid-n n_cells)."""
    out = tmp_path / "x.json"
    rc = cli.main([command, *SMALL_RUNS[command], f"{flag}={value}",
                   "--format", "json", "--no-timestamp", "--out", str(out)])
    if rc == 0:
        assert all(math.isfinite(x) for x in json_numbers(json.loads(out.read_text())))
    else:
        assert rc == 2
        names = [flag[2:]] + (["n_cells"] if flag == "--grid-n" else [])
        err = capsys.readouterr().err
        assert any(re.search(rf"\b{name}\b", err) for name in names), err
        assert not out.exists()


def readme_commands():
    """The commands of README's "Command line" sh block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
def test_readme_command_runs(tmp_path, argv):
    assert argv[0] == "qjump"
    argv = argv[1:]
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path / argv[out])
    assert cli.main([*argv, "--no-timestamp"]) == 0
