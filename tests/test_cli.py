import json

import numpy as np
import pytest

from qjump import cli


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
        assert (tmp_path / "fig1_a.csv").exists()
        assert (tmp_path / "fig1_b.csv").exists()

    def test_summary_scalars(self, tmp_path):
        out = tmp_path / "fig1a.json"
        rc = cli.main(["fig1", "--panel", "a", "--n", "600", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["mean_kolmogorov"] > 0 and doc["mean_baseline"] > 0
        assert doc["l1_distance"] == pytest.approx(0.345, abs=0.01)

    def test_under_resolved_grid_names_n(self, tmp_path, capsys):
        rc = cli.main(["fig1", "--panel", "a", "--n", "30",
                       "--out", str(tmp_path / "f.csv")])
        assert rc == 2
        assert "n=30" in capsys.readouterr().err


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


def run_into(directory, command, fmt):
    directory.mkdir()
    argv = [command, *SMALL_RUNS[command], "--format", fmt, "--no-timestamp",
            "--out", str(directory / f"out.{fmt}")]
    assert cli.main(argv) == 0
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(SMALL_RUNS))
def test_every_subcommand_writes_its_format(tmp_path, command, fmt):
    first = run_into(tmp_path / "first", command, fmt)
    assert first
    for name in first:
        path = tmp_path / "first" / name
        if fmt == "json":
            assert json.loads(path.read_text())["config"]["command"] == command
        else:
            names, rows = data_rows(path)
            assert all(not n[:1].isdigit() for n in names)
            assert rows.shape[0] > 0 and rows.shape[1] == len(names)
    assert run_into(tmp_path / "second", command, fmt) == first
