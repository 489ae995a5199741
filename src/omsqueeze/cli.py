"""Command-line front end: sweeps, spectra, detection maps, and the
three-way validation suite, emitted as CSV with a JSON-lines mirror.

Output conventions
------------------
Every table starts with a ``# key = value`` metadata block (resolved
parameters, package version, timestamp unless suppressed), one header
line, then comma-separated rows. Floats are written with 12 significant
digits, so identical inputs produce byte-identical files apart from the
timestamp line. Unstable sweep points stay in the table as flagged rows
with empty value fields. A ``.jsonl`` mirror with the same stem carries
the metadata object followed by one JSON object per row.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure, including arithmetic overflow and a non-finite result, which is
refused before any file is written.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
import time
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .adiabatic import (
    AdiabaticInputs,
    adiabatic_variance_p,
    adiabatic_variance_p_approx,
    feedback_variance_p,
)
from .cavity_pa import cavity_variances
from .errors import (
    AboveThreshold,
    ConfigError,
    ModelError,
    QuadratureFailure,
    UnstableSystem,
)
from .lyapunov import steady_covariance
from .mech_spectra import quadrature_variances, spectrum, squeezing_db
from .output_detection import detection_map, find_band, spectrum_zout
from .params import (
    SteadyState,
    SystemParams,
    load_config,
    params_from_mapping,
    parse_angle,
    rwa_flags,
    solve_steady_state,
)
from .sde_oracle import SimConfig, simulate, suggest_config
from .stability import build_drift, routh_hurwitz

_log = logging.getLogger("omsqueeze")

_OUTDIR_ENV = "OMSQUEEZE_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems via SystemExit(2); the contract
    reserves 2 for numerical failures, so turn them into ConfigError."""

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# parameter resolution

def _resolve_config(name: str) -> dict[str, float]:
    path = Path(name)
    if path.is_file():
        return load_config(str(path))
    base = name if name.endswith(".cfg") else name + ".cfg"
    trav = resources.files("omsqueeze").joinpath("presets", base)
    if trav.is_file():
        with resources.as_file(trav) as real:
            return load_config(str(real))
    raise ConfigError(f"config not found: {name!r} (no such file or bundled preset)")


def _load_params(args) -> SystemParams:
    mapping: dict[str, float] = {}
    if getattr(args, "config", None):
        mapping = _resolve_config(args.config)
    overrides = {
        key: getattr(args, key, None)
        for key in ("kappa", "omega_m", "gamma_m", "G", "theta",
                    "cooperativity", "temperature", "detuning")
    }
    return params_from_mapping(mapping, **overrides)


def _params_metadata(p: SystemParams) -> dict[str, object]:
    meta: dict[str, object] = {}
    for field in dataclasses.fields(p):
        value = getattr(p, field.name)
        if value is not None:
            meta[field.name] = value
    meta["detuning"] = p.delta
    return meta


# ---------------------------------------------------------------------------
# table emission

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _output_path(args) -> Path:
    if args.output:
        return Path(args.output)
    outdir = Path(getattr(args, "outdir", None) or os.environ.get(_OUTDIR_ENV, "."))
    return outdir / args.default_output


def _write_table(args, columns: list[str], rows: list[tuple],
                 metadata: dict[str, object]) -> Path:
    path = _output_path(args)
    meta = {"command": args.command_name, "version": __version__}
    meta.update(metadata)
    if not args.no_timestamp:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    # exit 0 promises finite numbers; empty fields of flagged rows are None
    for key, value in itertools.chain(meta.items(),
                                      *(zip(columns, row) for row in rows)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ModelError(f"non-finite result: {key} = {value}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc
    with fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {_fmt(value)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    if not args.no_jsonl:
        jpath = path.with_suffix(".jsonl")
        try:
            jh = open(jpath, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {jpath}: {exc}") from exc
        with jh:
            jh.write(json.dumps({"metadata": {k: _json_value(v) for k, v in meta.items()}})
                     + "\n")
            for row in rows:
                jh.write(json.dumps(dict(zip(columns, map(_json_value, row)))) + "\n")
    _log.info("wrote %s", path)
    return path


def _json_value(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def read_table(path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Parse a CSV file written by this tool back into (metadata, rows)."""
    meta: dict[str, str] = {}
    rows: list[dict[str, str]] = []
    header: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    if header is None:
        raise ConfigError(f"{path}: no header line found")
    return meta, rows


# ---------------------------------------------------------------------------
# one table row per working point

def _mech_row(p: SystemParams) -> tuple:
    ss = solve_steady_state(p)
    warnings = ";".join(rwa_flags(p, ss.g).failures())
    try:
        pair = quadrature_variances(ss, p)
    except UnstableSystem:
        return (None, None, None, False, warnings)
    except QuadratureFailure:
        # stable but so close to marginal that the variance integral hits
        # its panel cap; keep the sweep alive and flag the point
        note = "variance integral failed (nearly marginal point)"
        warnings = f"{warnings};{note}" if warnings else note
        return (None, None, None, True, warnings)
    return (pair.var_q, pair.var_p, squeezing_db(pair.var_p), True, warnings)


def _cavity_row(p: SystemParams) -> tuple:
    try:
        _, var_y = cavity_variances(p)
    except AboveThreshold:
        return (None, None, False, "")
    except QuadratureFailure:
        # below threshold but so close that the variance integral hits its
        # panel cap; keep the sweep alive and flag the point
        return (None, None, True, "variance integral failed (next to threshold)")
    return (var_y, squeezing_db(var_y), True, "")


def _stability_row(p: SystemParams) -> tuple:
    ss = solve_steady_state(p)
    report = routh_hurwitz(p, ss)
    c1, c2, c3 = report.conditions
    return (p.G / p.kappa, p.cooperativity, c1, c2, c3, report.stable, report.marginal)


def _quad_lyap_case(p: SystemParams) -> tuple:
    ss = solve_steady_state(p)
    dm = build_drift(ss, p)
    cov = steady_covariance(dm)
    pair = quadrature_variances(ss, p)
    rel = max(abs(pair.var_q - cov.var_q) / cov.var_q,
              abs(pair.var_p - cov.var_p) / cov.var_p)
    return (p.gamma_m, p.cooperativity, p.G, p.theta, p.temperature, rel)


def _sde_case(p: SystemParams, seed: int) -> tuple:
    ss = solve_steady_state(p)
    dm = build_drift(ss, p)
    cov = steady_covariance(dm)
    est = simulate(dm, suggest_config(dm, seed=seed, n_traj=16))
    z = abs(est.var_p - cov.var_p) / est.stderr_p
    return (p.gamma_m, p.cooperativity, p.G, p.theta, p.temperature, z)


# ---------------------------------------------------------------------------
# sweep subcommands

def _check_count(flag: str, count: int) -> None:
    if count < 1:
        raise ConfigError(f"{flag} must be at least 1, got {count}")


def _grid(bounds: tuple[float, float], points: int, flag: str) -> np.ndarray:
    # ``points`` values over [lo, hi]; ``flag`` names the option that set points
    lo, hi = bounds
    _check_count(flag, points)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"grid range must be finite with lo < hi, got [{lo}, {hi}]")
    return np.linspace(lo, hi, points)


def _sweep_range(args, default_lo: float, default_hi: float) -> np.ndarray:
    if args.points < 2:
        raise ConfigError("a sweep needs at least 2 points")
    return _grid(args.range or (default_lo, default_hi), args.points, "--points")


def _emit_sweep(args, p0: SystemParams, column: str, values: np.ndarray,
                results: list[tuple], extra_meta: dict | None = None) -> int:
    columns = [column, "var_q", "var_p", "squeezing_db", "stable", "warnings"]
    rows = [(float(v), *res) for v, res in zip(values, results)]
    meta = _params_metadata(p0)
    meta["swept"] = column
    meta["points"] = len(rows)
    if extra_meta:
        meta.update(extra_meta)
    _write_table(args, columns, rows, meta)
    return 0


def cmd_sweep_gain(args) -> int:
    p0 = _load_params(args)
    gains = _sweep_range(args, 0.0, 0.49 * p0.kappa)
    results = [_mech_row(dataclasses.replace(p0, G=float(g))) for g in gains]
    return _emit_sweep(args, p0, "G_over_kappa", gains / p0.kappa, results)


def cmd_sweep_cooperativity(args) -> int:
    p0 = _load_params(args)
    coops = _sweep_range(args, 10.0, 4000.0)
    results = [_mech_row(dataclasses.replace(p0, cooperativity=float(c))) for c in coops]
    return _emit_sweep(args, p0, "cooperativity", coops, results)


def cmd_sweep_temperature(args) -> int:
    p0 = _load_params(args)
    temps = _sweep_range(args, 0.0, 0.02)
    results = [_mech_row(dataclasses.replace(p0, temperature=float(t))) for t in temps]
    return _emit_sweep(args, p0, "temperature_K", temps, results)


def cmd_cavity_sweep(args) -> int:
    p0 = _load_params(args)
    gains = _sweep_range(args, 0.0, 0.49 * p0.kappa)
    results = [_cavity_row(dataclasses.replace(p0, G=float(g))) for g in gains]
    columns = ["G_over_kappa", "theta", "var_y", "squeezing_db", "stable", "warnings"]
    rows = [(float(g) / p0.kappa, p0.theta, *result)
            for g, result in zip(gains, results)]
    meta = _params_metadata(p0)
    meta["swept"] = "G_over_kappa"
    meta["points"] = len(rows)
    _write_table(args, columns, rows, meta)
    return 0


def cmd_stability_map(args) -> int:
    p0 = _load_params(args)
    gains = _grid(args.gain_range, args.gain_points, "--gain-points")
    coops = _grid(args.coop_range, args.coop_points, "--coop-points")
    rows = [_stability_row(dataclasses.replace(p0, G=float(g), cooperativity=float(c)))
            for g in gains for c in coops]
    columns = ["G_over_kappa", "cooperativity", "cond1", "cond2", "cond3",
               "stable", "marginal"]
    meta = _params_metadata(p0)
    meta["grid"] = f"{args.gain_points}x{args.coop_points}"
    _write_table(args, columns, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# spectrum / detection subcommands

def _stationary_grid(args) -> tuple[SystemParams, SteadyState, np.ndarray]:
    # the working point, refused when it has no stationary state, and the
    # checked omega grid of the spectrum commands
    p = _load_params(args)
    ss = solve_steady_state(p)
    if not routh_hurwitz(p, ss).stable:
        raise UnstableSystem("no stationary spectrum: operating point is unstable")
    return p, ss, _grid(args.omega_range, args.points, "--points")


def cmd_spectrum(args) -> int:
    p, ss, omega = _stationary_grid(args)
    sample = spectrum(omega, ss, p)
    rows = list(zip(omega.tolist(), sample.S_Q.tolist(), sample.S_P.tolist()))
    meta = _params_metadata(p)
    _write_table(args, ["omega", "S_Q", "S_P"], rows, meta)
    return 0


def cmd_detect(args) -> int:
    p, ss, omega = _stationary_grid(args)
    values = spectrum_zout(omega, args.phi, ss, p)
    meta = _params_metadata(p)
    meta["phi"] = args.phi
    band = find_band(args.phi, ss, p)
    if band is None:
        meta["band"] = "none"
    else:
        meta["band"] = "present"
        meta["band_omega_lo"] = band.omega_lo
        meta["band_omega_hi"] = band.omega_hi
        meta["band_min_S"] = band.min_S
        meta["band_min_at"] = band.min_at
    rows = list(zip(omega.tolist(), values.tolist()))
    _write_table(args, ["omega", "S_zout"], rows, meta)
    return 0


def cmd_detect_map(args) -> int:
    p, ss, omega = _stationary_grid(args)
    phis = _grid(args.phi_range, args.phi_points, "--phi-points")
    values = detection_map(omega, phis, ss, p)
    rows = [(w, phi, s) for phi, column in zip(phis.tolist(), values.T.tolist())
            for w, s in zip(omega.tolist(), column)]
    meta = _params_metadata(p)
    meta["grid"] = f"{args.points}x{args.phi_points}"
    _write_table(args, ["omega", "phi", "S_zout"], rows, meta)
    return 0


# ---------------------------------------------------------------------------
# analytic / oracle / validate subcommands

def cmd_analytic(args) -> int:
    p = _load_params(args)
    ss = solve_steady_state(p)
    inp = AdiabaticInputs.from_system(ss, p)
    eta = args.eta if args.eta is not None else 2.0 * inp.cooperativity
    inp_fb = dataclasses.replace(inp, eta=eta)

    var_adiabatic = adiabatic_variance_p(inp)
    var_approx = adiabatic_variance_p_approx(inp)
    var_feedback = feedback_variance_p(inp_fb)

    try:
        var_full = quadrature_variances(ss, p).var_p
    except UnstableSystem:
        var_full = None

    columns = ["G0", "cooperativity", "var_p_full", "var_p_adiabatic",
               "var_p_approx", "eta", "var_p_feedback"]
    rows = [(inp.G0, inp.cooperativity, var_full, var_adiabatic,
             var_approx, eta, var_feedback)]
    meta = _params_metadata(p)
    _write_table(args, columns, rows, meta)

    print(f"closed-form variance      {var_adiabatic:.6f} "
          f"({squeezing_db(var_adiabatic):+.3f} dB)")
    print(f"threshold-gain estimate   {var_approx:.6f}")
    if var_full is not None:
        print(f"full-model variance       {var_full:.6f} "
              f"(|closed-form - full| = {abs(var_adiabatic - var_full):.2e})")
    else:
        print("full-model variance       unavailable (operating point unstable)")
    print(f"with feedback eta={eta:g}   {var_feedback:.6f} "
          f"({squeezing_db(var_feedback):+.3f} dB)")
    return 0


def cmd_oracle(args) -> int:
    p = _load_params(args)
    ss = solve_steady_state(p)
    dm = build_drift(ss, p)
    cov = steady_covariance(dm)
    given = {key: getattr(args, key) for key in ("dt", "duration", "burn_in")
             if getattr(args, key) is not None}
    if len(given) == 3:
        cfg = SimConfig(**given, n_traj=args.trajectories, seed=args.seed)
    else:   # the suggested schedule fills in what was not given
        cfg = dataclasses.replace(
            suggest_config(dm, seed=args.seed, n_traj=args.trajectories), **given)
    n_burn, n_meas = cfg.steps()
    _log.info("sampling %d steps (%d burn-in + %d measured) x %d trajectories "
              "at dt=%.3e", n_burn + n_meas, n_burn, n_meas, cfg.n_traj, cfg.dt)
    t0 = time.perf_counter()
    est = simulate(dm, cfg)
    elapsed = time.perf_counter() - t0
    z_q = (est.var_q - cov.var_q) / est.stderr_q
    z_p = (est.var_p - cov.var_p) / est.stderr_p

    columns = ["dt", "duration", "burn_in", "n_traj", "seed",
               "var_q_hat", "stderr_q", "var_p_hat", "stderr_p",
               "lyapunov_var_q", "lyapunov_var_p", "z_q", "z_p"]
    rows = [(cfg.dt, cfg.duration, cfg.burn_in, cfg.n_traj, cfg.seed,
             est.var_q, est.stderr_q, est.var_p, est.stderr_p,
             cov.var_q, cov.var_p, z_q, z_p)]
    _write_table(args, columns, rows, _params_metadata(p))

    print(f"{cfg.n_traj} trajectories, dt={cfg.dt:.3e}, {elapsed:.1f}s")
    print(f"var_q = {est.var_q:.6f} +- {est.stderr_q:.2e}   "
          f"(Lyapunov {cov.var_q:.6f}, z = {z_q:+.2f})")
    print(f"var_p = {est.var_p:.6f} +- {est.stderr_p:.2e}   "
          f"(Lyapunov {cov.var_p:.6f}, z = {z_p:+.2f})")
    return 0


def _stable_state(p: SystemParams) -> SteadyState | None:
    """The steady state of p if it is stable with every Routh-Hurwitz
    condition above 1e-8, else None."""
    ss = solve_steady_state(p)
    report = routh_hurwitz(p, ss)
    return ss if report.stable and min(report.conditions) > 1e-8 else None


def _draw_mech_params(rng: np.random.Generator) -> SystemParams:
    """Rejection-sample a comfortably stable working point over the
    supported ranges: every validate draw and the test suite's."""
    while True:
        p = SystemParams(
            gamma_m=float(10.0 ** rng.uniform(-5.0, math.log10(0.05))),
            cooperativity=float(rng.uniform(0.0, 500.0)),
            G=float(rng.uniform(0.0, 0.49)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
            temperature=float(rng.choice([0.0, 0.01, 0.02])),
        )
        if _stable_state(p) is not None:
            return p


def cmd_validate(args) -> int:
    _check_count("--quad-draws", args.quad_draws)
    _check_count("--sde-draws", args.sde_draws)
    rng = np.random.default_rng(args.seed)
    t_start = time.perf_counter()

    quad_results = [_quad_lyap_case(_draw_mech_params(rng)) for _ in range(args.quad_draws)]
    worst_rel = max(r[-1] for r in quad_results)
    quad_pass = worst_rel <= 1e-6
    print(f"[quadrature vs Lyapunov] {args.quad_draws} draws, "
          f"worst relative diff {worst_rel:.3e} "
          f"(tol 1e-06): {'PASS' if quad_pass else 'FAIL'}")

    sde_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=args.sde_draws)]
    sde_results = [_sde_case(_draw_mech_params(rng), seed) for seed in sde_seeds]
    worst_z = max(r[-1] for r in sde_results)
    sde_pass = worst_z <= 3.0
    print(f"[SDE vs Lyapunov]        {args.sde_draws} draws, "
          f"worst momentum |z| {worst_z:.2f} "
          f"(tol 3 sigma): {'PASS' if sde_pass else 'FAIL'}")

    elapsed = time.perf_counter() - t_start
    columns = ["check", "gamma_m", "cooperativity", "G", "theta",
               "temperature_K", "metric", "threshold", "passed"]
    rows = [("quad_vs_lyapunov", *r[:-1], r[-1], 1e-6, r[-1] <= 1e-6)
            for r in quad_results]
    rows += [("sde_vs_lyapunov", *r[:-1], r[-1], 3.0, r[-1] <= 3.0)
             for r in sde_results]
    meta = {
        "seed": args.seed,
        "quad_draws": args.quad_draws,
        "sde_draws": args.sde_draws,
        "worst_rel_diff": worst_rel,
        "worst_z": worst_z,
    }
    if not args.no_timestamp:   # reruns with --no-timestamp stay byte-identical
        meta["elapsed_s"] = round(elapsed, 3)
    meta["passed"] = quad_pass and sde_pass
    _write_table(args, columns, rows, meta)

    print(f"validation {'PASSED' if quad_pass and sde_pass else 'FAILED'} "
          f"in {elapsed:.1f}s")
    return 0 if quad_pass and sde_pass else 2


# ---------------------------------------------------------------------------
# parser assembly

def _add_param_flags(sub) -> None:
    group = sub.add_argument_group("model parameters")
    group.add_argument("--config", metavar="PATH",
                       help="config file path or bundled preset name (fig3 .. fig9)")
    group.add_argument("--kappa", type=float, help="cavity linewidth (normalization unit)")
    group.add_argument("--omega-m", dest="omega_m", type=float,
                       help="mechanical frequency, units of kappa")
    group.add_argument("--gamma-m", dest="gamma_m", type=float,
                       help="mechanical damping, units of kappa")
    group.add_argument("--gain", dest="G", type=float,
                       help="parametric gain G, units of kappa")
    group.add_argument("--theta", type=parse_angle,
                       help="parametric phase, radians or pi-fraction (pi/16)")
    group.add_argument("--cooperativity", type=float, help="optomechanical cooperativity")
    group.add_argument("--temperature", type=float, help="bath temperature, kelvin")
    group.add_argument("--detuning", type=parse_angle,
                       help="drive detuning, units of kappa (default omega_m)")


def _add_output_flags(sub, default_output: str) -> None:
    group = sub.add_argument_group("output")
    group.add_argument("--output", "-o", metavar="PATH",
                       help=f"output CSV path (default: {default_output})")
    group.add_argument("--outdir", default=os.environ.get(_OUTDIR_ENV, "."),
                       help="output directory (env OMSQUEEZE_OUTDIR)")
    group.add_argument("--no-timestamp", action="store_true",
                       help="omit the generated_at metadata line")
    group.add_argument("--no-jsonl", action="store_true",
                       help="skip the JSON-lines mirror file")
    sub.set_defaults(default_output=default_output)


def _add_workers_flag(sub) -> None:
    # accepted and ignored: every command runs in one process
    sub.add_argument("--workers", type=int, help=argparse.SUPPRESS)


def _add_sweep_flags(sub, points: int) -> None:
    sub.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"),
                     help="sweep interval")
    sub.add_argument("--points", type=int, default=points,
                     help=f"number of sweep points (default {points})")


def build_parser() -> argparse.ArgumentParser:
    # accepted before and after the subcommand; SUPPRESS keeps a subcommand
    # that was not given the flag from resetting the top-level value
    logging_flags = argparse.ArgumentParser(add_help=False)
    logging_flags.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                               help="log warnings and errors only")
    logging_flags.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                               help="log debug detail")
    parser = _Parser(
        prog="omsqueeze",
        description="Quadrature squeezing of a mirror in a driven cavity "
                    "with an intracavity parametric amplifier.",
        parents=[logging_flags],
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command_name", required=True, metavar="COMMAND")

    sub = subs.add_parser("sweep-gain", parents=[logging_flags],
                          help="momentum variance vs parametric gain")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 50)
    _add_workers_flag(sub)
    _add_output_flags(sub, "sweep-gain.csv")
    sub.set_defaults(func=cmd_sweep_gain)

    sub = subs.add_parser("sweep-cooperativity", parents=[logging_flags],
                          help="momentum variance vs cooperativity")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 50)
    _add_workers_flag(sub)
    _add_output_flags(sub, "sweep-cooperativity.csv")
    sub.set_defaults(func=cmd_sweep_cooperativity)

    sub = subs.add_parser("sweep-temperature", parents=[logging_flags],
                          help="momentum variance vs bath temperature")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 21)
    _add_workers_flag(sub)
    _add_output_flags(sub, "sweep-temperature.csv")
    sub.set_defaults(func=cmd_sweep_temperature)

    sub = subs.add_parser("spectrum", parents=[logging_flags],
                          help="mirror quadrature spectra on a frequency grid")
    _add_param_flags(sub)
    sub.add_argument("--omega-range", nargs=2, type=float, default=(-0.5, 0.5),
                     metavar=("LO", "HI"), help="frequency window, units of kappa")
    sub.add_argument("--points", type=int, default=401)
    _add_output_flags(sub, "spectrum.csv")
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("detect", parents=[logging_flags],
                          help="homodyne output spectrum at one phase")
    _add_param_flags(sub)
    sub.add_argument("--phi", type=parse_angle, default=math.pi / 2,
                     help="homodyne phase (default pi/2)")
    sub.add_argument("--omega-range", nargs=2, type=float, default=(-0.05, 0.05),
                     metavar=("LO", "HI"))
    sub.add_argument("--points", type=int, default=401)
    _add_output_flags(sub, "detect.csv")
    sub.set_defaults(func=cmd_detect)

    sub = subs.add_parser("detect-map", parents=[logging_flags],
                          help="homodyne output spectrum over (omega, phi)")
    _add_param_flags(sub)
    sub.add_argument("--omega-range", nargs=2, type=float, default=(-0.05, 0.05),
                     metavar=("LO", "HI"))
    sub.add_argument("--points", type=int, default=101, help="omega grid points")
    sub.add_argument("--phi-range", nargs=2, type=parse_angle, default=(0.0, math.pi),
                     metavar=("LO", "HI"))
    sub.add_argument("--phi-points", type=int, default=61)
    _add_output_flags(sub, "detect-map.csv")
    sub.set_defaults(func=cmd_detect_map)

    sub = subs.add_parser("cavity-sweep", parents=[logging_flags],
                          help="empty-cavity phase quadrature variance vs gain")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 50)
    _add_workers_flag(sub)
    _add_output_flags(sub, "cavity-sweep.csv")
    sub.set_defaults(func=cmd_cavity_sweep)

    sub = subs.add_parser("stability-map", parents=[logging_flags],
                          help="stability conditions on a (gain, cooperativity) grid")
    _add_param_flags(sub)
    sub.add_argument("--gain-range", nargs=2, type=float, default=(0.0, 1.0),
                     metavar=("LO", "HI"))
    sub.add_argument("--gain-points", type=int, default=41)
    sub.add_argument("--coop-range", nargs=2, type=float, default=(0.0, 1000.0),
                     metavar=("LO", "HI"))
    sub.add_argument("--coop-points", type=int, default=41)
    _add_workers_flag(sub)
    _add_output_flags(sub, "stability-map.csv")
    sub.set_defaults(func=cmd_stability_map)

    sub = subs.add_parser("analytic", parents=[logging_flags],
                          help="closed-form variances beside the full model")
    _add_param_flags(sub)
    sub.add_argument("--eta", type=float,
                     help="feedback gain (default 2C)")
    _add_output_flags(sub, "analytic.csv")
    sub.set_defaults(func=cmd_analytic)

    sub = subs.add_parser("oracle", parents=[logging_flags],
                          help="stochastic-trajectory variance estimate")
    _add_param_flags(sub)
    sub.add_argument("--dt", type=float, help="time step, units of 1/kappa")
    sub.add_argument("--duration", type=float, help="measured stretch, units of 1/kappa")
    sub.add_argument("--burn-in", dest="burn_in", type=float,
                     help="discarded transient, units of 1/kappa")
    sub.add_argument("--trajectories", type=int, default=32)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_flags(sub, "oracle.csv")
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("validate", parents=[logging_flags],
                          help="three-way agreement suite (quadrature, Lyapunov, SDE)")
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--quad-draws", type=int, default=100)
    sub.add_argument("--sde-draws", type=int, default=20)
    _add_workers_flag(sub)
    _add_output_flags(sub, "validate.csv")
    sub.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    level = logging.INFO
    if getattr(args, "quiet", False):
        level = logging.WARNING
    if getattr(args, "verbose", False):
        level = logging.DEBUG
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    _log.setLevel(level)

    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ModelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
