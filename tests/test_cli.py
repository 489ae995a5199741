"""Command line interface: every subcommand, file formats, exit codes."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import omsqueeze
from omsqueeze.cli import main, read_table

OPT_FLAGS = ["--gamma-m", "1e-5", "--cooperativity", "400",
             "--theta", "pi/16"]
# fast relaxation keeps trajectory commands cheap
QUICK_FLAGS = ["--gamma-m", "0.2", "--cooperativity", "10",
               "--gain", "0.2", "--theta", "0.3"]


def run(tmp_path, *argv, name="out.csv"):
    path = tmp_path / name
    code = main([*argv, "-o", str(path), "--no-timestamp"])
    return code, path


class TestSweeps:
    def test_sweep_gain(self, tmp_path):
        code, path = run(tmp_path, "sweep-gain", *OPT_FLAGS,
                         "--range", "0", "0.49", "--points", "5",
                         "--workers", "1")
        assert code == 0
        meta, rows = read_table(path)
        assert meta["command"] == "sweep-gain"
        assert meta["swept"] == "G_over_kappa"
        assert len(rows) == 5
        assert float(rows[0]["var_p"]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows[-1]["var_p"]) == pytest.approx(0.25319, abs=1e-4)
        assert all(r["stable"] == "true" for r in rows)

    def test_sweep_gain_marks_unstable_rows(self, tmp_path):
        code, path = run(tmp_path, "sweep-gain", *OPT_FLAGS,
                         "--range", "0.4", "0.8", "--points", "5",
                         "--workers", "1")
        assert code == 0
        _, rows = read_table(path)
        dead = [r for r in rows if r["stable"] == "false"]
        assert dead
        assert all(r["var_p"] == "" and r["var_q"] == "" for r in dead)
        # G = 0.5 sits a hair below the instability onset: stable, but the
        # variance integral cannot resolve the near-marginal peak
        grazing = rows[1]
        assert grazing["stable"] == "true" and grazing["var_p"] == ""
        assert "marginal" in grazing["warnings"]

    def test_sweep_cooperativity(self, tmp_path):
        code, path = run(tmp_path, "sweep-cooperativity", "--gamma-m", "1e-5",
                         "--cooperativity", "400", "--gain", "0.49",
                         "--theta", "pi/16",
                         "--range", "400", "4000", "--points", "3",
                         "--workers", "1")
        assert code == 0
        _, rows = read_table(path)
        # deep in the adiabatic regime the variance barely moves with C
        assert abs(float(rows[0]["var_p"]) - float(rows[-1]["var_p"])) < 0.01

    def test_sweep_temperature(self, tmp_path):
        code, path = run(tmp_path, "sweep-temperature", "--config", "fig6",
                         "--range", "0", "0.02", "--points", "3",
                         "--workers", "1")
        assert code == 0
        _, rows = read_table(path)
        vals = [float(r["var_p"]) for r in rows]
        assert vals == sorted(vals)
        assert vals[1] == pytest.approx(0.3950, abs=2e-3)

    def test_cavity_sweep(self, tmp_path):
        code, path = run(tmp_path, "cavity-sweep", "--theta", "0",
                         "--gamma-m", "1e-5", "--cooperativity", "0",
                         "--range", "0", "0.49", "--points", "5",
                         "--workers", "1")
        assert code == 0
        _, rows = read_table(path)
        assert float(rows[-1]["var_y"]) == pytest.approx(0.252525, abs=1e-5)

    def test_cavity_sweep_past_threshold(self, tmp_path):
        code, path = run(tmp_path, "cavity-sweep", "--theta", "0",
                         "--gamma-m", "1e-5", "--cooperativity", "0",
                         "--range", "0.4", "0.6", "--points", "3",
                         "--workers", "1")
        assert code == 0
        _, rows = read_table(path)
        assert rows[-1]["stable"] == "false" and rows[-1]["var_y"] == ""


class TestGrids:
    def test_stability_map(self, tmp_path):
        code, path = run(tmp_path, "stability-map", "--gamma-m", "1e-5",
                         "--cooperativity", "1",
                         "--gain-range", "0", "1", "--gain-points", "5",
                         "--coop-range", "0", "1000", "--coop-points", "4",
                         "--workers", "1")
        assert code == 0
        meta, rows = read_table(path)
        assert meta["grid"] == "5x4"
        assert len(rows) == 20
        flags = {r["stable"] for r in rows}
        assert flags == {"true", "false"}

    def test_detect_map(self, tmp_path):
        code, path = run(tmp_path, "detect-map", "--config", "fig8",
                         "--points", "5", "--phi-points", "3")
        assert code == 0
        meta, rows = read_table(path)
        assert meta["grid"] == "5x3"
        assert len(rows) == 15
        assert set(rows[0]) == {"omega", "phi", "S_zout"}


class TestSpectra:
    def test_spectrum(self, tmp_path):
        code, path = run(tmp_path, "spectrum", "--config", "fig3",
                         "--omega-range", "-0.1", "0.1", "--points", "11")
        assert code == 0
        _, rows = read_table(path)
        assert len(rows) == 11
        mid = rows[5]
        assert float(mid["omega"]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid["S_P"]) < float(mid["S_Q"])

    def test_detect_reports_band(self, tmp_path):
        code, path = run(tmp_path, "detect", "--config", "fig8",
                         "--points", "9")
        assert code == 0
        meta, rows = read_table(path)
        assert len(rows) == 9
        assert meta["band"] == "present"
        assert float(meta["band_omega_hi"]) == pytest.approx(0.01872,
                                                             abs=1e-4)

    def test_detect_without_band(self, tmp_path):
        code, path = run(tmp_path, "detect", "--gamma-m", "1e-5",
                         "--cooperativity", "0", "--points", "5")
        assert code == 0
        meta, _ = read_table(path)
        assert meta["band"] == "none"


class TestAnalyticOracleValidate:
    def test_analytic(self, tmp_path, capsys):
        code, path = run(tmp_path, "analytic", "--config", "fig3",
                         "--eta", "800")
        assert code == 0
        _, rows = read_table(path)
        row = rows[0]
        assert float(row["G0"]) == pytest.approx(0.98, rel=1e-12)
        assert float(row["var_p_full"]) == pytest.approx(0.253192, abs=1e-5)
        assert float(row["var_p_adiabatic"]) == pytest.approx(0.253763,
                                                              abs=1e-5)
        assert float(row["var_p_feedback"]) == pytest.approx(0.127361,
                                                             abs=1e-5)
        out = capsys.readouterr().out
        assert "closed-form variance" in out

    def test_oracle(self, tmp_path, capsys):
        code, path = run(tmp_path, "oracle", *QUICK_FLAGS,
                         "--trajectories", "8", "--seed", "4")
        assert code == 0
        _, rows = read_table(path)
        row = rows[0]
        z_p = (float(row["var_p_hat"]) - float(row["lyapunov_var_p"])) \
            / float(row["stderr_p"])
        assert z_p == pytest.approx(float(row["z_p"]), rel=1e-9)
        assert abs(z_p) < 4.0
        assert list(row) == ["dt", "duration", "burn_in", "n_traj", "seed",
                             "var_q_hat", "stderr_q", "var_p_hat", "stderr_p",
                             "lyapunov_var_q", "lyapunov_var_p", "z_q", "z_p"]
        assert "8 trajectories" in capsys.readouterr().out

    def test_validate_small(self, tmp_path, capsys):
        code, path = run(tmp_path, "validate", "--seed", "3",
                         "--quad-draws", "6", "--sde-draws", "2",
                         "--workers", "2")
        assert code == 0
        _, rows = read_table(path)
        assert len(rows) == 8
        out = capsys.readouterr().out
        assert "PASSED" in out


class TestOutputContract:
    def test_no_timestamp_reruns_identical(self, tmp_path):
        _, first = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                       "--range", "0", "0.4", "--workers", "1", name="a.csv")
        _, second = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                        "--range", "0", "0.4", "--workers", "1", name="b.csv")
        assert first.read_bytes() == second.read_bytes()
        assert first.with_suffix(".jsonl").read_bytes() == \
            second.with_suffix(".jsonl").read_bytes()

    def test_timestamp_present_by_default(self, tmp_path):
        path = tmp_path / "t.csv"
        code = main(["sweep-gain", *OPT_FLAGS, "--points", "2",
                     "--range", "0", "0.1", "--workers", "1",
                     "-o", str(path)])
        assert code == 0
        meta, _ = read_table(path)
        assert "generated_at" in meta

    def test_jsonl_mirror(self, tmp_path):
        _, path = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                      "--range", "0", "0.4", "--workers", "1")
        lines = path.with_suffix(".jsonl").read_text().splitlines()
        assert len(lines) == 4
        head = json.loads(lines[0])
        assert head["metadata"]["command"] == "sweep-gain"
        body = json.loads(lines[1])
        assert body["G_over_kappa"] == 0.0
        assert body["var_p"] == pytest.approx(0.5, abs=1e-9)

    def test_no_jsonl_flag(self, tmp_path):
        path = tmp_path / "c.csv"
        code = main(["sweep-gain", *OPT_FLAGS, "--points", "2",
                     "--range", "0", "0.1", "--workers", "1",
                     "-o", str(path), "--no-timestamp", "--no-jsonl"])
        assert code == 0
        assert not path.with_suffix(".jsonl").exists()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMSQUEEZE_OUTDIR", str(tmp_path))
        code = main(["sweep-gain", *OPT_FLAGS, "--points", "2",
                     "--range", "0", "0.1", "--workers", "1",
                     "--no-timestamp"])
        assert code == 0
        assert (tmp_path / "sweep-gain.csv").is_file()

    def test_read_table_rejects_headerless_file(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("# command = nothing\n")
        from omsqueeze import ConfigError
        with pytest.raises(ConfigError):
            read_table(bad)


class TestPresets:
    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6",
                                      "fig7", "fig8", "fig9"])
    def test_bundled_presets_resolve(self, tmp_path, name):
        code, path = run(tmp_path, "analytic", "--config", name,
                         name=f"{name}.csv")
        assert code == 0
        meta, _ = read_table(path)
        assert meta["command"] == "analytic"

    def test_flag_overrides_preset(self, tmp_path):
        code, path = run(tmp_path, "analytic", "--config", "fig3",
                         "--gain", "0.4")
        assert code == 0
        meta, _ = read_table(path)
        assert float(meta["G"]) == pytest.approx(0.4)


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamma_m = 1e-5\nnonsense_key = 3\n")
        assert main(["analytic", "--config", str(bad)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_preset(self, capsys):
        assert main(["analytic", "--config", "fig99"]) == 1
        assert "config not found" in capsys.readouterr().err

    def test_reversed_sweep_range(self, tmp_path, capsys):
        code = main(["sweep-gain", *OPT_FLAGS, "--range", "1", "0",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_too_few_points(self, tmp_path):
        assert main(["sweep-gain", *OPT_FLAGS, "--points", "1",
                     "-o", str(tmp_path / "x.csv")]) == 1

    def test_unstable_spectrum_is_numerical_failure(self, tmp_path, capsys):
        code = main(["spectrum", *OPT_FLAGS, "--gain", "0.6",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analytic", "--gamma-m", "nan", "--cooperativity", "400"],
        ["sweep-gain", "--gamma-m", "nan", "--cooperativity", "400",
         "--points", "3", "--workers", "1"],
        ["analytic", "--gamma-m", "1e-5", "--cooperativity", "inf"],
        ["analytic", "--config", "fig3", "--theta", "2**3"],
        ["analytic", "--config", "fig3", "--eta", "nan"],
        ["detect", "--config", "fig8", "--omega-range", "0", "inf"],
    ])
    def test_non_finite_and_power_inputs(self, tmp_path, capsys, argv):
        code = main([*argv, "-o", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_theta_literal(self, tmp_path, capsys):
        code = main(["analytic", "--theta", "two pi",
                     "--gamma-m", "1e-5", "--cooperativity", "400",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--config", "fig3", "--points", "0"], "--points"),
        (["detect", "--config", "fig8", "--points", "0"], "--points"),
        (["detect-map", "--config", "fig8", "--phi-points", "0"], "--phi-points"),
        (["stability-map", *OPT_FLAGS, "--gain-points", "0", "--workers", "1"],
         "--gain-points"),
        (["validate", "--quad-draws", "0", "--workers", "1"], "--quad-draws"),
        (["validate", "--sde-draws", "0", "--workers", "1"], "--sde-draws"),
    ])
    def test_counts_below_one_are_refused(self, tmp_path, capsys, argv, flag):
        code = main([*argv, "-o", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"usage error: {flag} must be at least 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


class TestLoggingFlags:
    @pytest.mark.parametrize("flag, level", [("--quiet", logging.WARNING),
                                             ("--verbose", logging.DEBUG)])
    @pytest.mark.parametrize("before", [True, False])
    def test_accepted_before_and_after_the_subcommand(self, tmp_path, flag,
                                                      level, before):
        argv = ["analytic", "--config", "fig3", "-o", str(tmp_path / "x.csv")]
        argv = [flag, *argv] if before else [*argv, flag]
        assert main(argv) == 0
        assert logging.getLogger("omsqueeze").level == level


def test_import_leaves_scipy_out():
    # scipy is a test dependency only; the runtime needs numpy alone
    src = Path(omsqueeze.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, omsqueeze.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        check=True)
    assert proc.stdout.strip() == "False"
