"""Command line interface: every subcommand, file formats, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import omsqueeze
from omsqueeze import (
    DriftModel,
    ModelError,
    NonFiniteVariance,
    SimConfig,
    SystemParams,
    build_drift,
    cli,
    solve_steady_state,
    steady_covariance,
)
from omsqueeze.cli import _write_table, build_parser, main, read_table

OPT_FLAGS = ["--gamma-m", "1e-5", "--cooperativity", "400",
             "--theta", "pi/16"]
# fast relaxation keeps trajectory commands cheap
QUICK_FLAGS = ["--gamma-m", "0.2", "--cooperativity", "10",
               "--gain", "0.2", "--theta", "0.3"]


SUBCOMMANDS = sorted(next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices)
# every subcommand at small counts
SMALL_RUNS = {
    "sweep-gain": ["--config", "fig3", "--points", "2"],
    "sweep-cooperativity": ["--config", "fig4", "--points", "2"],
    "sweep-temperature": ["--config", "fig6", "--points", "2"],
    "cavity-sweep": ["--config", "fig9", "--points", "2"],
    "spectrum": ["--config", "fig3", "--points", "3"],
    "detect": ["--config", "fig8", "--points", "3"],
    "detect-map": ["--config", "fig7", "--points", "3", "--phi-points", "2"],
    "stability-map": ["--config", "fig3", "--gain-points", "2", "--coop-points", "2"],
    "analytic": ["--config", "fig3"],
    "oracle": [*QUICK_FLAGS, "--trajectories", "2"],
    "validate": ["--quad-draws", "1", "--sde-draws", "1"],
}


def run(tmp_path, *argv, name="out.csv"):
    path = tmp_path / name
    code = main([*argv, "-o", str(path), "--no-timestamp"])
    return code, path


class TestSweeps:
    def test_sweep_gain(self, tmp_path):
        code, path = run(tmp_path, "sweep-gain", *OPT_FLAGS,
                         "--range", "0", "0.49", "--points", "5")
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
                         "--range", "0.4", "0.8", "--points", "5")
        assert code == 0
        _, rows = read_table(path)
        dead = [r for r in rows if r["stable"] == "false"]
        assert dead
        assert all(r["var_p"] == "" and r["var_q"] == "" for r in dead)
        # G = 0.5 sits a hair below the instability onset: var_q is about
        # 1e5, and its integral meets the budget relative to that size
        grazing = rows[1]
        assert grazing["stable"] == "true" and grazing["warnings"] == ""
        p = SystemParams(gamma_m=1e-5, cooperativity=400.0, G=0.5, theta=math.pi / 16)
        cov = steady_covariance(build_drift(solve_steady_state(p), p))
        assert float(grazing["var_q"]) == pytest.approx(cov.var_q, rel=1e-9)
        assert float(grazing["var_p"]) == pytest.approx(cov.var_p, rel=1e-9)

    def test_sweep_gain_flags_a_drive_off_the_sideband(self, tmp_path):
        # the drift has no detuning term: a drive 190 kappa off the red
        # sideband is computed as if on it, so every row carries the flag
        code, path = run(tmp_path, "sweep-gain", "--config", "fig3", "--detuning", "200",
                         "--range", "0.3", "0.49", "--points", "2")
        assert code == 0
        _, rows = read_table(path)
        assert [(r["stable"], r["warnings"]) for r in rows] == \
            [("true", "sideband_resonance")] * 2

    def test_sweep_gain_flags_a_failed_integral(self, tmp_path, monkeypatch):
        # a variance that comes out non-finite at one stable point flags
        # that row and the sweep goes on
        engine = cli.quadrature_variances

        def variances(ss, p):
            if p.G == 0.2:
                raise NonFiniteVariance("the spectral coefficients leave the "
                                        "double-precision range")
            return engine(ss, p)
        monkeypatch.setattr(cli, "quadrature_variances", variances)
        code, path = run(tmp_path, "sweep-gain", *OPT_FLAGS,
                         "--range", "0", "0.4", "--points", "3")
        assert code == 0
        _, rows = read_table(path)
        assert [row["warnings"] for row in rows[::2]] == ["", ""]
        flagged = rows[1]
        assert flagged["warnings"] == ("variance not finite: the spectral "
                                       "coefficients leave the double-precision range")
        assert [flagged[key] for key in ("var_q", "var_p", "squeezing_db", "stable")] \
            == ["", "", "", "true"]

    def test_sweep_cooperativity(self, tmp_path):
        code, path = run(tmp_path, "sweep-cooperativity", "--gamma-m", "1e-5",
                         "--cooperativity", "400", "--gain", "0.49",
                         "--theta", "pi/16",
                         "--range", "400", "4000", "--points", "3")
        assert code == 0
        _, rows = read_table(path)
        # deep in the adiabatic regime the variance barely moves with C
        assert abs(float(rows[0]["var_p"]) - float(rows[-1]["var_p"])) < 0.01

    def test_sweep_cooperativity_at_low_damping(self, tmp_path):
        # gamma_m^2 sets the scale of the third Routh-Hurwitz condition;
        # these points are stable and must carry values
        code, path = run(tmp_path, "sweep-cooperativity", "--gamma-m", "1e-6",
                         "--cooperativity", "1", "--gain", "0.3",
                         "--range", "0", "2", "--points", "5")
        assert code == 0
        _, rows = read_table(path)
        assert [row["stable"] for row in rows] == ["true"] * 5
        assert float(rows[0]["var_p"]) == pytest.approx(0.5, rel=1e-6)
        assert float(rows[1]["var_p"]) == pytest.approx(0.43390274661523626,
                                                        rel=1e-6)

    def test_sweep_next_to_the_margin(self, tmp_path):
        # slowest decay rate 1.5e-11 kappa: stable by Routh-Hurwitz, so
        # the rows carry values
        code, path = run(tmp_path, "sweep-cooperativity", "--gamma-m", "1e-11",
                         "--cooperativity", "1", "--gain", "0",
                         "--range", "0.5", "2", "--points", "3")
        assert code == 0
        _, rows = read_table(path)
        assert [row["stable"] for row in rows] == ["true"] * 3
        assert [float(row["var_p"]) for row in rows] == pytest.approx([0.5] * 3,
                                                                      abs=1e-12)

    @pytest.mark.parametrize("command, field, bounds", [
        ("sweep-gain", "G", (0.0, 0.6)),
        ("sweep-cooperativity", "cooperativity", (0.0, 2.0)),
        ("sweep-temperature", "temperature", (0.0, 0.02)),
    ])
    def test_stable_column_is_routh_hurwitz(self, tmp_path, command, field,
                                            bounds):
        base = dict(gamma_m=1e-11, cooperativity=1.0, G=0.2, theta=0.2)
        code, path = run(tmp_path, command, "--gamma-m", "1e-11",
                         "--cooperativity", "1", "--gain", "0.2", "--theta", "0.2",
                         "--range", *map(repr, bounds), "--points", "7")
        assert code == 0
        _, rows = read_table(path)
        assert len(rows) == 7
        for value, row in zip(np.linspace(*bounds, 7), rows):
            p = omsqueeze.SystemParams(**{**base, field: float(value)})
            stable = omsqueeze.routh_hurwitz(p, omsqueeze.solve_steady_state(p)).stable
            assert row["stable"] == ("true" if stable else "false")

    def test_sweep_temperature(self, tmp_path):
        code, path = run(tmp_path, "sweep-temperature", "--config", "fig6",
                         "--range", "0", "0.02", "--points", "3")
        assert code == 0
        _, rows = read_table(path)
        vals = [float(r["var_p"]) for r in rows]
        assert vals == sorted(vals)
        assert vals[1] == pytest.approx(0.3950, abs=2e-3)

    def test_sweep_temperature_flags_an_overflowing_integral(self, tmp_path, capsys):
        # the mirror's thermal occupation overflows to inf at 5e307 K and
        # 1e308 K: those rows name the failure, and the table still parses;
        # numpy's overflow warnings on the way there would only be noise on
        # stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, path = run(tmp_path, "sweep-temperature", "--gamma-m", "1e-5",
                             "--cooperativity", "400",
                             "--range", "0", "1e308", "--points", "3")
        assert code == 0
        assert "Warning" not in capsys.readouterr().err
        _, rows = read_table(path)
        assert rows[0]["warnings"] == ""
        for row in rows[1:]:
            assert row["warnings"] == \
                "variance not finite: the spectral coefficients leave the double-precision range"
            assert [row[key] for key in ("var_q", "var_p", "squeezing_db", "stable")] \
                == ["", "", "", "true"]

    def test_sweep_temperature_evaluates_huge_finite_variances(self, tmp_path, capsys):
        # at 5e299 K and 1e300 K the spectra overflow, but the variances,
        # about 5e300 and 1e301, do not: the closed form squares their
        # square roots only. The Lyapunov equation is linear in D, so its
        # reference is solved at D * 1e-300, where |D|^2 stays finite; the
        # CSV holds 12 digits
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, path = run(tmp_path, "sweep-temperature", "--gamma-m", "1e-5",
                             "--cooperativity", "400",
                             "--range", "0", "1e300", "--points", "3")
        assert code == 0
        assert "Warning" not in capsys.readouterr().err
        _, rows = read_table(path)
        for row in rows[1:]:
            assert (row["stable"], row["warnings"]) == ("true", "")
            p = SystemParams(gamma_m=1e-5, cooperativity=400.0,
                             temperature=float(row["temperature_K"]))
            dm = build_drift(solve_steady_state(p), p)
            V = steady_covariance(DriftModel(M=dm.M, D=dm.D * 1e-300)).V * 1e300
            assert float(row["var_q"]) == pytest.approx(V[0, 0], rel=1e-11)
            assert float(row["var_p"]) == pytest.approx(V[1, 1], rel=1e-11)

    def test_cavity_sweep(self, tmp_path):
        code, path = run(tmp_path, "cavity-sweep", "--theta", "0",
                         "--gamma-m", "1e-5", "--cooperativity", "0",
                         "--range", "0", "0.49", "--points", "5")
        assert code == 0
        _, rows = read_table(path)
        assert float(rows[-1]["var_y"]) == pytest.approx(0.252525, abs=1e-5)

    def test_cavity_sweep_past_threshold(self, tmp_path):
        code, path = run(tmp_path, "cavity-sweep", "--theta", "0",
                         "--gamma-m", "1e-5", "--cooperativity", "0",
                         "--range", "0.4", "0.6", "--points", "3")
        assert code == 0
        _, rows = read_table(path)
        assert rows[-1]["stable"] == "false" and rows[-1]["var_y"] == ""

    def test_cavity_sweep_flags_a_failed_integral(self, tmp_path, monkeypatch):
        # a variance that comes out non-finite below threshold flags that
        # row and the sweep goes on
        engine = cli.cavity_variances

        def variances(p):
            if p.G == 0.499999475:
                raise NonFiniteVariance("the spectral coefficients leave the "
                                        "double-precision range")
            return engine(p)
        monkeypatch.setattr(cli, "cavity_variances", variances)
        code, path = run(tmp_path, "cavity-sweep", "--config", "fig9",
                         "--range", "0.49", "0.499999475", "--points", "3")
        assert code == 0
        _, rows = read_table(path)
        assert [row["warnings"] for row in rows[:2]] == ["", ""]
        last = rows[-1]
        assert last["warnings"] == ("variance not finite: the spectral "
                                    "coefficients leave the double-precision range")
        assert (last["var_y"], last["squeezing_db"], last["stable"]) == ("", "", "true")


class TestGrids:
    def test_stability_map(self, tmp_path):
        code, path = run(tmp_path, "stability-map", "--gamma-m", "1e-5",
                         "--cooperativity", "1",
                         "--gain-range", "0", "1", "--gain-points", "5",
                         "--coop-range", "0", "1000", "--coop-points", "4")
        assert code == 0
        meta, rows = read_table(path)
        assert meta["grid"] == "5x4"
        assert len(rows) == 20
        flags = {r["stable"] for r in rows}
        assert flags == {"true", "false"}

    def test_grid_is_linspace_bit_for_bit(self):
        # the float grid of every command gives np.linspace's values: random
        # ranges of any sign and scale, one and two points, a step that
        # underflows, and a span that overflows to inf
        rng = np.random.default_rng(28)
        cases = [((0.0, 5e-324), 3), ((0.0, 1e-323), 6), ((-1e-323, 1e-323), 9),
                 ((0.0, 1.0), 1), ((-3.0, -2.0), 1), ((-3.0, -2.0), 2),
                 ((-1e308, 1e308), 1), ((-1e308, 1e308), 5), ((0.1, 0.7), 2)]
        for _ in range(5000):
            lo, hi = np.sort(rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-320, 308, 2))
            if lo < hi:
                cases.append(((float(lo), float(hi)), int(rng.integers(1, 300))))
        for bounds, points in cases:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.linspace(*bounds, points)
            grid = np.array(cli._grid(bounds, points, "--points"))
            assert np.array_equal(grid.view(np.uint64), expected.view(np.uint64)), bounds

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

    def test_spectrum_of_decoupled_mirror_at_threshold(self, tmp_path):
        # kappa - 2G = 2e-10: the Lorentzian's peak 2/gamma_m, not a
        # cancellation's 199.999826568
        code, path = run(tmp_path, "spectrum", "--gamma-m", "0.01",
                         "--cooperativity", "0", "--gain", "0.4999999999",
                         "--theta", "0", "--omega-range", "-0.001", "0.001",
                         "--points", "3")
        assert code == 0
        _, rows = read_table(path)
        assert (rows[1]["omega"], rows[1]["S_Q"], rows[1]["S_P"]) == ("0", "200", "200")

    def test_detect_reports_band(self, tmp_path):
        code, path = run(tmp_path, "detect", "--config", "fig8",
                         "--points", "9")
        assert code == 0
        meta, rows = read_table(path)
        assert len(rows) == 9
        assert meta["band"] == "present"
        assert float(meta["band_omega_hi"]) == pytest.approx(0.01872,
                                                             abs=1e-4)
        assert meta["band_min_at"] == "0.0060656107002"

    def test_detect_band_ends_at_the_first_crossing(self, tmp_path):
        # sub-vacuum at zero, above vacuum past 2.08 kappa and below it
        # again further out: the band ends at the first crossing
        code, path = run(tmp_path, "detect", "--gamma-m", "0.02089727293108898",
                         "--cooperativity", "366.1640806313087",
                         "--gain", "0.2868698090881806",
                         "--theta", "5.015863856875739", "--phi", "pi/2",
                         "--omega-range", "0", "3", "--points", "13")
        assert code == 0
        meta, rows = read_table(path)
        edge = float(meta["band_omega_hi"])
        assert edge == pytest.approx(2.0813, abs=1e-4)
        assert 0.0 <= float(meta["band_min_at"]) <= edge
        for row in rows:
            inside = float(row["omega"]) < edge
            assert (float(row["S_zout"]) < 0.5) == inside

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

    def test_analytic_next_to_the_margin(self, tmp_path, capsys):
        # slowest decay rate about 1e-11 kappa: stable, and evaluated
        code, path = run(tmp_path, "analytic", "--gamma-m", "1e-11",
                         "--cooperativity", "1", "--gain", "0.2")
        assert code == 0
        p = omsqueeze.SystemParams(gamma_m=1e-11, cooperativity=1.0, G=0.2)
        ss = omsqueeze.solve_steady_state(p)
        lyapunov = omsqueeze.steady_covariance(omsqueeze.build_drift(ss, p)).var_p
        _, rows = read_table(path)
        assert float(rows[0]["var_p_full"]) == pytest.approx(lyapunov, rel=1e-11)
        out = capsys.readouterr().out
        assert f"full-model variance       {lyapunov:.6f}" in out

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

    def test_oracle_step_far_above_the_fastest_scale(self, tmp_path, capsys):
        # dt = 40 is 80 fastest time scales; a single block exponential over
        # it gave var_p = 0.921 against the Lyapunov 0.2538 (z = +19.45)
        code, path = run(tmp_path, "oracle", "--gamma-m", "1e-2",
                         "--cooperativity", "400", "--gain", "0.49",
                         "--theta", "pi/16", "--dt", "40", "--trajectories", "4",
                         "--seed", "0")
        assert code == 0
        _, rows = read_table(path)
        assert abs(float(rows[0]["z_p"])) <= 3.0

    @pytest.mark.parametrize("quiet", [False, True])
    def test_oracle_logs_its_plan(self, tmp_path, capsys, quiet):
        def plans_on_stderr():
            return [line.removeprefix("INFO ") for line in
                    capsys.readouterr().err.splitlines()
                    if line.startswith("INFO sampling ")]

        argv = ["oracle", *QUICK_FLAGS, "--trajectories", "2"]
        code, path = run(tmp_path, *argv, *(["--quiet"] if quiet else []))
        assert code == 0
        plans = plans_on_stderr()
        if quiet:
            assert plans == []
            return
        row = read_table(path)[1][0]
        dt = float(row["dt"])
        assert len(plans) == 1
        match = re.fullmatch(r"sampling (\d+) steps \((\d+) burn-in \+ "
                             r"(\d+) measured\) x 2 trajectories at dt=(\S+)",
                             plans[0])
        total, n_burn, n_meas = map(int, match.groups()[:3])
        assert (total, n_burn, n_meas) == (408, 24, 384)
        assert float(match[4]) == pytest.approx(dt, rel=1e-3)
        # burn_in / dt is 24 up to the rounding of the 12-digit fields; the
        # schedule read back from the row plans the same run, and so does a
        # rerun given the row's own --dt, --duration and --burn-in
        recomputed = SimConfig(dt=dt, duration=float(row["duration"]),
                               burn_in=float(row["burn_in"])).steps()
        assert recomputed == (n_burn, n_meas)
        code, _ = run(tmp_path, *argv, "--dt", row["dt"], "--duration",
                      row["duration"], "--burn-in", row["burn_in"], name="rerun.csv")
        assert code == 0
        assert plans_on_stderr() == plans

    def test_oracle_at_a_huge_stationary_state(self, tmp_path):
        # next to threshold the cavity variance is 2.5e11; an exact step
        # never outgrows it, so nothing may be refused as divergent
        code, path = run(tmp_path, "oracle", "--gamma-m", "1e-3",
                         "--cooperativity", "0", "--gain", "0.499999999999")
        assert code == 0
        row = read_table(path)[1][0]
        assert abs(float(row["z_q"])) <= 3.0 and abs(float(row["z_p"])) <= 3.0

    def test_oracle_at_a_stiff_point(self, tmp_path):
        # C = 1e12: the schedule of a quarter of the fastest time scale
        # planned more than 1e8 steps; at the slowest one it is 408
        t0 = time.perf_counter()
        code, path = run(tmp_path, "oracle", "--gamma-m", "1e-2",
                         "--cooperativity", "1e12", "--gain", "0.3",
                         "--trajectories", "16", "--seed", "0")
        assert code == 0 and time.perf_counter() - t0 < 5.0
        row = read_table(path)[1][0]
        assert abs(float(row["z_p"])) <= 3.0

    def test_validate_samples_the_whole_box(self, tmp_path):
        # the stochastic route is checked where the quadrature is, beyond
        # the former SDE box of gamma_m >= 5e-3, C <= 100 and T = 0
        code, path = run(tmp_path, "validate", "--seed", "7")
        assert code == 0
        sde = [row for row in read_table(path)[1] if row["check"] == "sde_vs_lyapunov"]
        assert len(sde) == 20
        outside = [row for row in sde if float(row["gamma_m"]) < 5e-3
                   or float(row["cooperativity"]) > 100.0
                   or float(row["temperature_K"]) > 0.0]
        assert len(outside) >= 10

    def test_validate_small(self, tmp_path, capsys):
        code, path = run(tmp_path, "validate", "--seed", "3",
                         "--quad-draws", "6", "--sde-draws", "2")
        assert code == 0
        _, rows = read_table(path)
        assert len(rows) == 8
        out = capsys.readouterr().out
        assert "PASSED" in out

    def test_validate_table_contract(self, tmp_path):
        # metadata keys in order, each check's rows with its threshold, a
        # verdict per row, and each worst metric the largest of its check
        code, path = run(tmp_path, "validate", "--seed", "3",
                         "--quad-draws", "6", "--sde-draws", "2")
        assert code == 0
        meta, rows = read_table(path)
        keys = ["command", "version", "seed", "quad_draws", "sde_draws",
                "worst_rel_diff", "worst_z", "passed"]
        assert list(meta) == keys
        assert [(row["check"], row["threshold"]) for row in rows] == \
            [("quad_vs_lyapunov", "1e-06")] * 6 + [("sde_vs_lyapunov", "3")] * 2
        for row in rows:
            within = float(row["metric"]) <= float(row["threshold"])
            assert row["passed"] == ("true" if within else "false")
        for check, key in (("quad_vs_lyapunov", "worst_rel_diff"),
                           ("sde_vs_lyapunov", "worst_z")):
            metrics = [row["metric"] for row in rows if row["check"] == check]
            assert meta[key] == max(metrics, key=float)
        # a timestamped run adds the run time before the verdict
        stamped = tmp_path / "stamped.csv"
        assert main(["validate", "--seed", "3", "--quad-draws", "6",
                     "--sde-draws", "2", "-o", str(stamped)]) == 0
        assert list(read_table(stamped)[0]) == \
            [*keys[:-1], "elapsed_s", "passed", "generated_at"]

    def test_validate_exits_2_on_a_failed_check(self, tmp_path, capsys, monkeypatch):
        # a negative threshold no relative difference can meet (the closed
        # form meets zero on some draws): that check and the run fail
        quad, sde = cli._CHECKS
        monkeypatch.setattr(cli, "_CHECKS", (quad[:3] + (-1.0,) + quad[4:], sde))
        code, path = run(tmp_path, "validate", "--seed", "3",
                         "--quad-draws", "2", "--sde-draws", "1")
        assert code == 2
        meta, rows = read_table(path)
        assert meta["passed"] == "false"
        assert [row["passed"] for row in rows] == ["false", "false", "true"]
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(": FAIL") and out[1].endswith(": PASS")
        assert out[2].startswith("validation FAILED in ")


class TestOutputContract:
    def test_no_timestamp_reruns_identical(self, tmp_path):
        _, first = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                       "--range", "0", "0.4", name="a.csv")
        _, second = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                        "--range", "0", "0.4", name="b.csv")
        assert first.read_bytes() == second.read_bytes()
        assert first.with_suffix(".jsonl").read_bytes() == \
            second.with_suffix(".jsonl").read_bytes()

    def test_no_timestamp_validate_reruns_identical(self, tmp_path):
        # the run time goes to stdout only; the table keeps no clock reading
        paths = []
        for name in ("a.csv", "b.csv"):
            code, path = run(tmp_path, "validate", "--quad-draws", "2",
                             "--sde-draws", "1", name=name)
            assert code == 0
            paths.append(path)
        first, second = paths
        assert first.read_bytes() == second.read_bytes()
        assert first.with_suffix(".jsonl").read_bytes() == \
            second.with_suffix(".jsonl").read_bytes()

    def test_timestamp_present_by_default(self, tmp_path):
        path = tmp_path / "t.csv"
        code = main(["sweep-gain", *OPT_FLAGS, "--points", "2",
                     "--range", "0", "0.1", "-o", str(path)])
        assert code == 0
        meta, _ = read_table(path)
        assert "generated_at" in meta

    def test_jsonl_mirror(self, tmp_path):
        _, path = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                      "--range", "0", "0.4")
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
                     "--range", "0", "0.1", "-o", str(path), "--no-timestamp",
                     "--no-jsonl"])
        assert code == 0
        assert not path.with_suffix(".jsonl").exists()

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMSQUEEZE_OUTDIR", str(tmp_path))
        code = main(["sweep-gain", *OPT_FLAGS, "--points", "2",
                     "--range", "0", "0.1", "--no-timestamp"])
        assert code == 0
        assert (tmp_path / "sweep-gain.csv").is_file()

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_default_output_is_named_by_the_command(self, tmp_path, command):
        code = main([command, *SMALL_RUNS[command], "--outdir", str(tmp_path),
                     "--no-timestamp", "--quiet"])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{command}.csv",
                                                              f"{command}.jsonl"]

    def test_output_that_is_its_own_mirror_is_refused(self, tmp_path, capsys):
        # the mirror of x.jsonl would be x.jsonl itself, overwriting the table
        path = tmp_path / "x.jsonl"
        assert main(["analytic", "--config", "fig3", "-o", str(path)]) == 1
        assert f"usage error: output path {path} is its own JSON-lines mirror" \
            in capsys.readouterr().err
        assert not path.exists()
        assert main(["analytic", "--config", "fig3", "-o", str(path), "--no-jsonl"]) == 0
        assert read_table(path)[1][0]["G0"] == "0.98"

    def test_failed_mirror_open_writes_no_table(self, tmp_path, capsys):
        # a directory where the mirror goes: neither file is written, and a
        # table left by an earlier run stays as it was
        (tmp_path / "x.jsonl").mkdir()
        path = tmp_path / "x.csv"
        for before in (None, "earlier table\n"):
            if before is not None:
                path.write_text(before)
            assert main(["analytic", "--config", "fig3", "-o", str(path)]) == 1
            assert f"usage error: cannot write output file {tmp_path / 'x.jsonl'}" \
                in capsys.readouterr().err
            assert (path.read_text() if path.exists() else None) == before

    def test_workers_flag_is_accepted_and_ignored(self, tmp_path):
        # kept so that old command lines still parse; it changes nothing
        _, plain = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                       "--range", "0", "0.4", name="plain.csv")
        _, flagged = run(tmp_path, "sweep-gain", *OPT_FLAGS, "--points", "3",
                         "--range", "0", "0.4", "--workers", "3", name="flagged.csv")
        assert plain.read_bytes() == flagged.read_bytes()
        assert plain.with_suffix(".jsonl").read_bytes() == \
            flagged.with_suffix(".jsonl").read_bytes()
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        for name, sub in subs.choices.items():
            assert "workers" not in sub.format_help(), name

    def test_read_table_rejects_headerless_file(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("# command = nothing\n")
        from omsqueeze import ConfigError
        with pytest.raises(ConfigError):
            read_table(bad)


    @pytest.mark.parametrize("command", ["analytic", "spectrum", "detect",
                                         "detect-map", "oracle"])
    def test_single_point_commands_flag_a_drive_off_the_sideband(self, tmp_path, command):
        # the same flags as a sweep row's warnings, in the metadata; at
        # fig3 the full model's var_p is 0.467 there, the closed form 0.254
        extra = {"spectrum": ["--points", "3"], "detect": ["--points", "3"],
                 "detect-map": ["--points", "3", "--phi-points", "2"],
                 "oracle": ["--trajectories", "2"]}.get(command, [])
        argv = [command, "--config", "fig3", *extra]
        code, path = run(tmp_path, *argv, name="on.csv")
        assert code == 0
        assert read_table(path)[0]["warnings"] == ""
        code, path = run(tmp_path, *argv, "--detuning", "200", name="off.csv")
        assert code == 0
        assert read_table(path)[0]["warnings"] == "sideband_resonance"


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

    def test_repeated_config_key(self, tmp_path, capsys):
        # the last value used to win silently
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamma_m = 1e-5\ncooperativity = 400\ngamma_m = 2e-5\n")
        assert main(["analytic", "--config", str(bad), "-o", str(tmp_path / "x.csv")]) == 1
        assert f"usage error: {bad}:3: repeated key 'gamma_m'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_missing_config_key(self, tmp_path, capsys):
        # named as the key, not as a missing constructor argument
        bad = tmp_path / "bad.cfg"
        bad.write_text("cooperativity = 400\n")
        assert main(["analytic", "--config", str(bad), "-o", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "usage error: missing required parameter 'gamma_m'" in err
        assert "__init__" not in err
        assert main(["analytic", "--config", str(bad), "--gamma-m", "1e-5",
                     "-o", str(tmp_path / "x.csv")]) == 0

    def test_drive_given_twice(self, tmp_path, capsys):
        # the result came from epsilon_l alone, while the metadata listed
        # laser_power as if it had been used
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamma_m = 1e-3\nepsilon_l = 800\nlaser_power = 5\n"
                       "kappa_phys = 1e7\ng0 = 1e-2\n")
        assert main(["analytic", "--config", str(bad), "-o", str(tmp_path / "x.csv")]) == 1
        assert "usage error: give the drive once: epsilon_l or laser_power, not both" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--eta", "2000"], "feedback gain 2000.0 outside [0, 4C] = [0, 1599.9999999999995]"),
        (["--cooperativity", "0"], "cooperativity must be positive"),
    ], ids=["eta", "cooperativity"])
    def test_closed_form_refuses_its_inputs(self, tmp_path, capsys, flags, message):
        # the closed forms refuse an argument with a plain ValueError: exit 1
        assert main(["analytic", "--config", "fig3", *flags,
                     "-o", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

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
         "--points", "3"],
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

    def test_infinite_sweep_range_is_a_grid_error(self, tmp_path, capsys):
        # refused before numpy spreads inf over the grid
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep-gain", *OPT_FLAGS, "--range", "0", "inf",
                         "-o", str(tmp_path / "x.csv")])
        assert code == 1
        assert "usage error: grid range must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        # overflow in Routh-Hurwitz (from analytic and from the map)
        (["analytic", "--gamma-m", "1e300", "--cooperativity", "1"],
         "OverflowError: "),
        (["stability-map", "--gamma-m", "1e-5", "--cooperativity", "400",
          "--gain-range", "0", "1e300", "--gain-points", "3",
          "--coop-points", "2"], "OverflowError: "),
        # the coefficients overflow to nan: the band's polynomials are
        # refused before their roots, the spectra by the writer
        (["detect", "--gamma-m", "1e-5", "--cooperativity", "1e300",
          "--points", "3"], "OverflowError: the band polynomials leave"),
        (["spectrum", "--gamma-m", "1e-5", "--cooperativity", "1e300",
          "--points", "3"], "non-finite result: S_Q = nan"),
        # |g|^2 = 1e303 is finite; the variance forms it feeds underflow
        (["analytic", "--gamma-m", "1e-5", "--cooperativity", "1e308"],
         "the spectral coefficients leave the double-precision range"),
        (["detect-map", "--gamma-m", "1e-5", "--cooperativity", "1e300"],
         "non-finite result: S_zout = nan"),
    ])
    def test_overflow_is_numerical_failure(self, tmp_path, capsys, argv, message):
        # pytest turns any numpy warning into an error
        code = main([*argv, "-o", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"numerical failure: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_huge_but_finite_spectrum_is_written(self, tmp_path, capsys):
        # the occupation reaches 1e270 and the spectrum stays finite
        code = main(["spectrum", "--config", "fig3", "--points", "1",
                     "--omega-m", "5.284745772492439e+270",
                     "--temperature", "5.284745772492439e+270",
                     "-o", str(tmp_path / "x.csv"), "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 0
        assert "Traceback" not in err
        _, rows = read_table(tmp_path / "x.csv")
        values = [float(v) for v in rows[0].values()]
        assert all(math.isfinite(v) for v in values)
        assert float(rows[0]["S_Q"]) == pytest.approx(3.57e270, rel=1e-2)

    def test_unbounded_oracle_schedule_is_refused(self, tmp_path):
        # 1e303 steps; a fresh interpreter with a timeout, so a regression
        # fails instead of hanging the suite
        src = Path(omsqueeze.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "omsqueeze.cli", "oracle", "--gamma-m", "1e-2",
             "--cooperativity", "400", "--dt", "1e-300", "--duration", "1",
             "--burn-in", "1000", "-o", str(tmp_path / "x.csv")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 1
        assert "usage error: schedule needs 1e+303 steps" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["detect", "--config", "fig8", "--omega-range", "1e37", "1e40", "--points", "3"],
        ["spectrum", "--config", "fig3", "--omega-range", "1e50", "1e53", "--points", "3"],
    ])
    def test_overflowing_spectrum_is_refused_without_warnings(self, tmp_path, argv):
        # the spectra overflow to nan there; a fresh interpreter that prints
        # every warning shows only the refusal
        src = Path(omsqueeze.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "omsqueeze.cli", *argv, "-o", str(tmp_path / "x.csv")],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="default"),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("numerical failure: non-finite result")
        assert "RuntimeWarning" not in proc.stderr
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
        (["stability-map", *OPT_FLAGS, "--gain-points", "0"], "--gain-points"),
        (["validate", "--quad-draws", "0"], "--quad-draws"),
        (["validate", "--sde-draws", "0"], "--sde-draws"),
    ])
    def test_counts_below_one_are_refused(self, tmp_path, capsys, argv, flag):
        code = main([*argv, "-o", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"usage error: {flag} must be at least 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


class TestFiniteGate:
    @pytest.mark.parametrize("rows, meta, key", [
        ([(1.0, math.nan)], {}, "b"),
        ([(1.0, 2.0), (-math.inf, None)], {}, "a"),
        ([(1.0, 2.0)], {"band_min_S": math.inf}, "band_min_S"),
    ])
    def test_non_finite_value_refused_before_writing(self, tmp_path, rows,
                                                     meta, key):
        args = argparse.Namespace(command_name="t", no_timestamp=True, no_jsonl=False,
                                  output=None, outdir=str(tmp_path))
        with pytest.raises(ModelError, match=f"non-finite result: {key} = "):
            _write_table(args, ["a", "b"], rows, meta)
        assert not any(tmp_path.iterdir())


class TestLoggingFlags:
    # --quiet drops the progress line; --verbose is accepted and changes
    # nothing. The ids keep the logging levels (WARNING 30, DEBUG 10) these
    # flags once set, so each case keeps its name.
    @pytest.mark.parametrize("flag, stderr", [("--quiet", ""),
                                              ("--verbose", "INFO wrote {}\n")],
                             ids=["--quiet-30", "--verbose-10"])
    @pytest.mark.parametrize("before", [True, False])
    def test_accepted_before_and_after_the_subcommand(self, tmp_path, capsys, flag,
                                                      stderr, before):
        path = tmp_path / "x.csv"
        argv = ["analytic", "--config", "fig3", "-o", str(path)]
        argv = [flag, *argv] if before else [*argv, flag]
        assert main(argv) == 0
        assert capsys.readouterr().err == stderr.format(path)

    def test_each_call_writes_to_its_own_stderr(self, tmp_path):
        # a progress line goes to the stderr of the call that makes it, also
        # when one process runs the CLI twice under two different streams
        sinks = []
        for name in ("a.csv", "b.csv"):
            sinks.append(io.StringIO())
            with contextlib.redirect_stderr(sinks[-1]):
                assert main(["analytic", "--config", "fig3",
                             "-o", str(tmp_path / name)]) == 0
        assert [sink.getvalue() for sink in sinks] == [
            f"INFO wrote {tmp_path / name}\n" for name in ("a.csv", "b.csv")]


@pytest.mark.parametrize("module", ["numpy", "scipy", "concurrent.futures",
                                    "multiprocessing", "logging"])
def test_import_leaves_module_out(module):
    # scipy is a test dependency only, numpy is imported by the functions
    # that build arrays, every command runs in one process and the progress
    # lines are plain prints: the import needs no numpy, no process
    # machinery and no logging
    src = Path(omsqueeze.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, omsqueeze.cli; print({module!r} in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command, preset", [
    ("sweep-gain", "fig3"), ("sweep-gain", "fig5"), ("sweep-cooperativity", "fig4"),
    ("sweep-temperature", "fig6"), ("cavity-sweep", "fig9"), ("stability-map", "fig3"),
    ("analytic", "fig3")])
def test_scalar_command_runs_without_numpy(tmp_path, command, preset):
    # closed forms on a float grid: the command at its preset never loads numpy
    src = Path(omsqueeze.__file__).resolve().parents[1]
    script = ("import sys; from omsqueeze.cli import main; code = main(sys.argv[1:]); "
              "print('numpy' in sys.modules); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", script, command, "--config", preset, "--quiet",
         "-o", str(tmp_path / "x.csv")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert read_table(tmp_path / "x.csv")[1]


# ---------------------------------------------------------------------------
# property: any argument list and config file keep the exit-code and
# finite-output contract

ODD_FLOATS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
              2.2250738585072014e-308, 0.0, -0.0]


def numbers(lo: float, hi: float):
    """Odd floats, any float, and floats in the working range [lo, hi]."""
    return st.one_of(st.sampled_from(ODD_FLOATS), st.floats(),
                     st.floats(min_value=lo, max_value=hi))


def value_flag(flag: str, lo: float, hi: float):
    # the --flag=value form lets a value such as -1e+308 through argparse
    return numbers(lo, hi).map(lambda v: [f"{flag}={v!r}"])


def range_flag(flag: str, lo: float, hi: float):
    return st.tuples(numbers(lo, hi), numbers(lo, hi)).map(
        lambda lh: [flag, repr(lh[0]), repr(lh[1])])


def count_flag(flag: str, least: int, hi: int):
    # as often below the least allowed count as in range
    return st.one_of(st.integers(least, hi), st.integers(-1, least - 1)).map(
        lambda n: [flag, str(n)])


SEED_FLAG = st.integers(-2, 2**70).map(lambda n: [f"--seed={n}"])
# the oracle's schedule: the suggested one; an odd --dt alone, with the
# suggested burn-in and duration; or a whole explicit schedule of at most
# 4,000 steps with a step of 5 to 1e6, from about 50 to 1e7 of the fastest
# time scale. Every schedule drawn is refused by the schedule checks or the
# 1e9-step cap, or runs a few thousand steps at most. 1,000 steps of
# burn-in pass the relaxation floor of the presets from a step of 5 on.
ORACLE_SCHEDULE = st.one_of(
    st.just([]),
    st.sampled_from(ODD_FLOATS).map(lambda v: [f"--dt={v!r}"]),
    st.tuples(st.floats(min_value=5.0, max_value=1e6),
              st.integers(16, 2000), st.integers(1000, 2000)).map(
        lambda s: [f"--dt={s[0]!r}", f"--duration={s[0] * s[1]!r}",
                   f"--burn-in={s[0] * s[2]!r}"]),
)

# each example sets at most three of these and the command's optional flags
# on top of a preset, so that a fair share of examples gets past the input
# checks into the numerics
PARAM_FLAGS = [
    value_flag("--gamma-m", 1e-5, 0.05),
    value_flag("--cooperativity", 0.0, 500.0),
    value_flag("--gain", 0.0, 0.6),
    value_flag("--theta", 0.0, 6.3),
    value_flag("--temperature", 0.0, 0.02),
    value_flag("--omega-m", 1.0, 20.0),
    value_flag("--kappa", 0.5, 2.0),
    value_flag("--detuning", 1.0, 20.0),
]
# grid sizes and draw counts are always given and small; the other flags
# are optional
COMMAND_FLAGS = {
    "analytic": ([], [value_flag("--eta", 0.0, 1000.0)]),
    "spectrum": ([count_flag("--points", 1, 5)], [range_flag("--omega-range", -1.0, 1.0)]),
    "detect": ([count_flag("--points", 1, 5)],
               [value_flag("--phi", 0.0, 3.2), range_flag("--omega-range", -0.1, 0.1)]),
    "sweep-gain": ([count_flag("--points", 2, 4)],
                   [range_flag("--range", 0.0, 0.6)]),
    "cavity-sweep": ([count_flag("--points", 2, 4)],
                     [range_flag("--range", 0.0, 0.6)]),
    "stability-map": ([count_flag("--gain-points", 1, 3), count_flag("--coop-points", 1, 3)],
                      [range_flag("--gain-range", 0.0, 1.0),
                       range_flag("--coop-range", 0.0, 1000.0)]),
    "oracle": ([ORACLE_SCHEDULE], [count_flag("--trajectories", 1, 3), SEED_FLAG]),
    "detect-map": ([count_flag("--points", 1, 5), count_flag("--phi-points", 1, 3)],
                   [range_flag("--omega-range", -0.1, 0.1),
                    range_flag("--phi-range", 0.0, 3.2)]),
    "sweep-cooperativity": ([count_flag("--points", 2, 4)],
                            [range_flag("--range", 0.0, 1000.0)]),
    "sweep-temperature": ([count_flag("--points", 2, 4)],
                          [range_flag("--range", 0.0, 0.05)]),
    "validate": ([count_flag("--quad-draws", 1, 2), count_flag("--sde-draws", 1, 2)],
                 [SEED_FLAG]),
}
PRESETS = ["fig3", "fig7", "fig9"]

# a config file in place of a preset: fig3's lines with a few edits, each
# dropping a key, repeating one, adding an unknown one or setting a value
# (a number, an odd float, an angle expression or junk)
FIG3 = {"gamma_m": "1e-5", "cooperativity": "400", "theta": "pi/16", "G": "0.49",
        "temperature": "0"}
CONFIG_KEYS = [*FIG3, "detuning", "omega_m", "kappa"]
ANGLE_TEXTS = ["pi/16", "-3*pi/4", "(1 + pi)/2", "2*e", "pi/0", "2**3", "pi*(",
               "1e308*10", "nan", "inf", ""]
CONFIG_VALUES = st.one_of(numbers(0.0, 1.0).map(repr), st.sampled_from(ANGLE_TEXTS),
                          st.text(alphabet="0123456789.e+-*/() pi#=", max_size=8))
CONFIG_EDITS = st.tuples(st.sampled_from(["drop", "repeat", "unknown", "set"]),
                         st.sampled_from(CONFIG_KEYS), CONFIG_VALUES)


def config_text(edits) -> str:
    lines = dict(FIG3)
    extra = []
    for action, key, value in edits:
        if action == "drop":
            lines.pop(key, None)
        elif action == "set":
            lines[key] = value
        else:
            extra.append(f"{'nonsense' if action == 'unknown' else key} = {value}")
    return "\n".join([f"{k} = {v}" for k, v in lines.items()] + extra) + "\n"


def test_every_subcommand_is_under_the_property():
    # a new command cannot escape the exit contract
    assert set(COMMAND_FLAGS) == set(SUBCOMMANDS)


def _numbers_in(path: Path) -> list:
    """Every CSV field that reads as a number, and every JSONL float."""
    meta, rows = read_table(path)
    out = []
    for text in [*meta.values(), *(v for row in rows for v in row.values())]:
        try:
            out.append(float(text))
        except ValueError:
            pass
    for line in path.with_suffix(".jsonl").read_text().splitlines():
        obj = json.loads(line)
        out += [v for v in obj.get("metadata", obj).values() if isinstance(v, float)]
    return out


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_any_arguments_keep_the_exit_contract(command, data):
    fixed, optional = COMMAND_FLAGS[command]
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--quiet"]
        params = []
        if command != "validate":      # validate draws its own working points
            source = data.draw(st.sampled_from([*PRESETS, "file"]), label="config")
            if source == "file":
                edits = data.draw(st.lists(CONFIG_EDITS, max_size=2), label="edits")
                source = str(Path(tmp) / "in.cfg")
                Path(source).write_text(config_text(edits))
            argv += ["--config", source]
            params = PARAM_FLAGS
        chosen = data.draw(st.lists(st.sampled_from(params + optional),
                                    max_size=3, unique_by=id), label="overrides")
        argv += [token for strategy in fixed + chosen for token in data.draw(strategy)]
        path = Path(tmp) / "x.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([*argv, "-o", str(path), "--no-timestamp"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert all(math.isfinite(v) for v in _numbers_in(path)), argv
        else:
            assert not path.exists(), argv
