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
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
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
from .output_detection import find_band, spectrum_zout
from .params import (
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
# worker-pool plumbing (functions must stay module level for pickling)

def _pool_map(fn, items, workers: int) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


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
        return (None, None, False)
    return (var_y, squeezing_db(var_y), True)


def _stability_row(task: tuple[float, float, SystemParams]) -> tuple:
    gain, coop, base = task
    p = dataclasses.replace(base, G=gain, cooperativity=coop)
    ss = solve_steady_state(p)
    report = routh_hurwitz(p, ss)
    c1, c2, c3 = report.conditions
    return (gain / p.kappa, coop, c1, c2, c3, report.stable, report.marginal)


def _quad_lyap_case(p: SystemParams) -> tuple:
    ss = solve_steady_state(p)
    dm = build_drift(ss, p)
    cov = steady_covariance(dm)
    pair = quadrature_variances(ss, p)
    rel = max(abs(pair.var_q - cov.var_q) / cov.var_q,
              abs(pair.var_p - cov.var_p) / cov.var_p)
    return (p.gamma_m, p.cooperativity, p.G, p.theta, p.temperature, rel)


def _sde_case(task: tuple[SystemParams, SimConfig]) -> tuple:
    p, cfg = task
    ss = solve_steady_state(p)
    dm = build_drift(ss, p)
    cov = steady_covariance(dm)
    est = simulate(dm, cfg)
    z = abs(est.var_p - cov.var_p) / est.stderr_p
    return (p.gamma_m, p.cooperativity, p.G, p.theta, p.temperature, z)


# ---------------------------------------------------------------------------
# sweep subcommands

def _sweep_range(args, default_lo: float, default_hi: float) -> np.ndarray:
    lo, hi = args.range if args.range else (default_lo, default_hi)
    if args.points < 2:
        raise ConfigError("a sweep needs at least 2 points")
    if not lo < hi:
        raise ConfigError(f"sweep range must satisfy lo < hi, got [{lo}, {hi}]")
    return np.linspace(lo, hi, args.points)


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
    models = [dataclasses.replace(p0, G=float(g)) for g in gains]
    results = _pool_map(_mech_row, models, args.workers)
    return _emit_sweep(args, p0, "G_over_kappa", gains / p0.kappa, results)


def cmd_sweep_cooperativity(args) -> int:
    p0 = _load_params(args)
    coops = _sweep_range(args, 10.0, 4000.0)
    models = [dataclasses.replace(p0, cooperativity=float(c)) for c in coops]
    results = _pool_map(_mech_row, models, args.workers)
    return _emit_sweep(args, p0, "cooperativity", coops, results)


def cmd_sweep_temperature(args) -> int:
    p0 = _load_params(args)
    temps = _sweep_range(args, 0.0, 0.02)
    models = [dataclasses.replace(p0, temperature=float(t)) for t in temps]
    results = _pool_map(_mech_row, models, args.workers)
    return _emit_sweep(args, p0, "temperature_K", temps, results)


def cmd_cavity_sweep(args) -> int:
    p0 = _load_params(args)
    gains = _sweep_range(args, 0.0, 0.49 * p0.kappa)
    models = [dataclasses.replace(p0, G=float(g)) for g in gains]
    results = _pool_map(_cavity_row, models, args.workers)
    columns = ["G_over_kappa", "theta", "var_y", "squeezing_db", "stable"]
    rows = [(float(g) / p0.kappa, p0.theta, var_y, db, ok)
            for g, (var_y, db, ok) in zip(gains, results)]
    meta = _params_metadata(p0)
    meta["swept"] = "G_over_kappa"
    meta["points"] = len(rows)
    _write_table(args, columns, rows, meta)
    return 0


def cmd_stability_map(args) -> int:
    p0 = _load_params(args)
    g_lo, g_hi = args.gain_range
    c_lo, c_hi = args.coop_range
    if not (g_lo < g_hi and c_lo < c_hi):
        raise ConfigError("grid ranges must satisfy lo < hi")
    gains = np.linspace(g_lo, g_hi, args.gain_points)
    coops = np.linspace(c_lo, c_hi, args.coop_points)
    tasks = [(float(g), float(c), p0) for g in gains for c in coops]
    results = _pool_map(_stability_row, tasks, args.workers)
    columns = ["G_over_kappa", "cooperativity", "cond1", "cond2", "cond3",
               "stable", "marginal"]
    meta = _params_metadata(p0)
    meta["grid"] = f"{args.gain_points}x{args.coop_points}"
    _write_table(args, columns, list(results), meta)
    return 0


# ---------------------------------------------------------------------------
# spectrum / detection subcommands

def cmd_spectrum(args) -> int:
    p = _load_params(args)
    ss = solve_steady_state(p)
    report = routh_hurwitz(p, ss)
    if not report.stable:
        raise UnstableSystem("no stationary spectrum: operating point is unstable")
    lo, hi = args.omega_range
    if not lo < hi:
        raise ConfigError("omega range must satisfy lo < hi")
    omega = np.linspace(lo, hi, args.points)
    sample = spectrum(omega, ss, p)
    rows = list(zip(omega.tolist(), sample.S_Q.tolist(), sample.S_P.tolist()))
    meta = _params_metadata(p)
    _write_table(args, ["omega", "S_Q", "S_P"], rows, meta)
    return 0


def cmd_detect(args) -> int:
    p = _load_params(args)
    ss = solve_steady_state(p)
    report = routh_hurwitz(p, ss)
    if not report.stable:
        raise UnstableSystem("no stationary spectrum: operating point is unstable")
    lo, hi = args.omega_range
    if not lo < hi:
        raise ConfigError("omega range must satisfy lo < hi")
    omega = np.linspace(lo, hi, args.points)
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
    p = _load_params(args)
    ss = solve_steady_state(p)
    report = routh_hurwitz(p, ss)
    if not report.stable:
        raise UnstableSystem("no stationary spectrum: operating point is unstable")
    o_lo, o_hi = args.omega_range
    p_lo, p_hi = args.phi_range
    if not (o_lo < o_hi and p_lo < p_hi):
        raise ConfigError("grid ranges must satisfy lo < hi")
    omega = np.linspace(o_lo, o_hi, args.points)
    phis = np.linspace(p_lo, p_hi, args.phi_points)
    rows = []
    for phi in phis:
        values = spectrum_zout(omega, float(phi), ss, p)
        rows.extend((float(w), float(phi), float(s))
                    for w, s in zip(omega, values))
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
    var_approx = adiabatic_variance_p_approx(ss.n_th_c, ss.n_th_m)
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
    if None in (args.dt, args.duration, args.burn_in):
        cfg = suggest_config(dm, seed=args.seed, n_traj=args.trajectories)
        cfg = SimConfig(
            dt=args.dt if args.dt is not None else cfg.dt,
            duration=args.duration if args.duration is not None else cfg.duration,
            burn_in=args.burn_in if args.burn_in is not None else cfg.burn_in,
            n_traj=args.trajectories,
            seed=args.seed,
        )
    else:
        cfg = SimConfig(dt=args.dt, duration=args.duration, burn_in=args.burn_in,
                        n_traj=args.trajectories, seed=args.seed)
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


def _draw_mech_params(rng: np.random.Generator) -> SystemParams:
    # rejection-sample a comfortably stable working point
    while True:
        p = SystemParams(
            gamma_m=float(10.0 ** rng.uniform(-5.0, math.log10(0.05))),
            cooperativity=float(rng.uniform(0.0, 500.0)),
            G=float(rng.uniform(0.0, 0.49)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
            temperature=float(rng.choice([0.0, 0.01, 0.02])),
        )
        ss = solve_steady_state(p)
        report = routh_hurwitz(p, ss)
        if report.stable and min(report.conditions) > 1e-8:
            return p


def _draw_sde_case(rng: np.random.Generator, seed: int) -> tuple[SystemParams, SimConfig]:
    # additionally require a slowest decay rate that keeps trajectory
    # integration desk-scale
    while True:
        p = SystemParams(
            gamma_m=float(10.0 ** rng.uniform(math.log10(5e-3), math.log10(5e-2))),
            cooperativity=float(rng.uniform(5.0, 100.0)),
            G=float(rng.uniform(0.0, 0.45)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        ss = solve_steady_state(p)
        report = routh_hurwitz(p, ss)
        if not (report.stable and min(report.conditions) > 1e-8):
            continue
        dm = build_drift(ss, p)
        slowest = float((-np.linalg.eigvals(dm.M).real).min())
        if slowest < 0.02 * p.kappa:
            continue
        return p, suggest_config(dm, seed=seed, n_traj=16)


def cmd_validate(args) -> int:
    rng = np.random.default_rng(args.seed)
    t_start = time.perf_counter()

    quad_models = [_draw_mech_params(rng) for _ in range(args.quad_draws)]
    quad_results = _pool_map(_quad_lyap_case, quad_models, args.workers)
    worst_rel = max(r[-1] for r in quad_results)
    quad_pass = worst_rel <= 1e-6
    print(f"[quadrature vs Lyapunov] {args.quad_draws} draws, "
          f"worst relative diff {worst_rel:.3e} "
          f"(tol 1e-06): {'PASS' if quad_pass else 'FAIL'}")

    sde_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=args.sde_draws)]
    sde_tasks = [_draw_sde_case(rng, seed) for seed in sde_seeds]
    sde_results = _pool_map(_sde_case, sde_tasks, args.workers)
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
        "elapsed_s": round(elapsed, 3),
        "passed": quad_pass and sde_pass,
    }
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
    sub.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                     help="worker processes (default: available parallelism)")


def _add_sweep_flags(sub, points: int) -> None:
    sub.add_argument("--range", nargs=2, type=float, metavar=("LO", "HI"),
                     help="sweep interval")
    sub.add_argument("--points", type=int, default=points,
                     help=f"number of sweep points (default {points})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omsqueeze",
        description="Quadrature squeezing of a mirror in a driven cavity "
                    "with an intracavity parametric amplifier.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--quiet", action="store_true",
                        help="log warnings and errors only")
    parser.add_argument("--verbose", action="store_true", help="log debug detail")
    subs = parser.add_subparsers(dest="command_name", required=True, metavar="COMMAND")

    sub = subs.add_parser("sweep-gain",
                          help="momentum variance vs parametric gain")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 50)
    _add_workers_flag(sub)
    _add_output_flags(sub, "sweep-gain.csv")
    sub.set_defaults(func=cmd_sweep_gain)

    sub = subs.add_parser("sweep-cooperativity",
                          help="momentum variance vs cooperativity")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 50)
    _add_workers_flag(sub)
    _add_output_flags(sub, "sweep-cooperativity.csv")
    sub.set_defaults(func=cmd_sweep_cooperativity)

    sub = subs.add_parser("sweep-temperature",
                          help="momentum variance vs bath temperature")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 21)
    _add_workers_flag(sub)
    _add_output_flags(sub, "sweep-temperature.csv")
    sub.set_defaults(func=cmd_sweep_temperature)

    sub = subs.add_parser("spectrum",
                          help="mirror quadrature spectra on a frequency grid")
    _add_param_flags(sub)
    sub.add_argument("--omega-range", nargs=2, type=float, default=(-0.5, 0.5),
                     metavar=("LO", "HI"), help="frequency window, units of kappa")
    sub.add_argument("--points", type=int, default=401)
    _add_output_flags(sub, "spectrum.csv")
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("detect",
                          help="homodyne output spectrum at one phase")
    _add_param_flags(sub)
    sub.add_argument("--phi", type=parse_angle, default=math.pi / 2,
                     help="homodyne phase (default pi/2)")
    sub.add_argument("--omega-range", nargs=2, type=float, default=(-0.05, 0.05),
                     metavar=("LO", "HI"))
    sub.add_argument("--points", type=int, default=401)
    _add_output_flags(sub, "detect.csv")
    sub.set_defaults(func=cmd_detect)

    sub = subs.add_parser("detect-map",
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

    sub = subs.add_parser("cavity-sweep",
                          help="empty-cavity phase quadrature variance vs gain")
    _add_param_flags(sub)
    _add_sweep_flags(sub, 50)
    _add_workers_flag(sub)
    _add_output_flags(sub, "cavity-sweep.csv")
    sub.set_defaults(func=cmd_cavity_sweep)

    sub = subs.add_parser("stability-map",
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

    sub = subs.add_parser("analytic",
                          help="closed-form variances beside the full model")
    _add_param_flags(sub)
    sub.add_argument("--eta", type=float,
                     help="feedback gain (default 2C)")
    _add_output_flags(sub, "analytic.csv")
    sub.set_defaults(func=cmd_analytic)

    sub = subs.add_parser("oracle",
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

    sub = subs.add_parser("validate",
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
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
