"""Command-line front end: sweeps, spectra, detection maps, and the
three-way validation suite, emitted as CSV with a JSON-lines mirror.

Output conventions
------------------
Every table starts with a ``# key = value`` metadata block (resolved
parameters, package version, timestamp unless suppressed), one header
line, then comma-separated rows. Floats are written with 12 significant
digits, so identical inputs produce byte-identical files apart from the
timestamp line. Unstable sweep points stay in the table as flagged rows
with empty value fields, and so do stable points whose variance
overflows to inf or nan. A sweep row names the separation-of-scales
conditions its point fails (``rwa_flags``) in its ``warnings`` column; a
command at one working point writes them as ``warnings`` metadata. A
``.jsonl`` mirror with the same stem carries the metadata object
followed by one JSON object per row. Without ``--output`` a command
writes ``<command>.csv`` in ``--outdir``. An output path that is its own
mirror (``-o x.jsonl``) is refused unless ``--no-jsonl`` is given, and a
file that cannot be opened leaves neither file written.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure, including arithmetic overflow and a non-finite result, which is
refused before any file is written.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from . import __version__
from .adiabatic import (
    AdiabaticInputs,
    adiabatic_variance_p,
    adiabatic_variance_p_approx,
    feedback_variance_p,
)
from .cavity_pa import cavity_variances
from .errors import ConfigError, ModelError, NonFiniteVariance, UnstableSystem
from .lyapunov import Covariance, steady_covariance
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
from .stability import DriftModel, build_drift, routh_hurwitz

# the model parameter flags: (flag, params_from_mapping keyword, type, help)
_PARAM_FLAGS = (
    ("--kappa", "kappa", float, "cavity linewidth (normalization unit)"),
    ("--omega-m", "omega_m", float, "mechanical frequency, units of kappa"),
    ("--gamma-m", "gamma_m", float, "mechanical damping, units of kappa"),
    ("--gain", "G", float, "parametric gain G, units of kappa"),
    ("--theta", "theta", parse_angle, "parametric phase, radians or pi-fraction (pi/16)"),
    ("--cooperativity", "cooperativity", float, "optomechanical cooperativity"),
    ("--temperature", "temperature", float, "bath temperature, kelvin"),
    ("--detuning", "detuning", parse_angle, "drive detuning, units of kappa (default omega_m)"),
)


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
    mapping = _resolve_config(args.config) if args.config else {}
    overrides = {key: getattr(args, key) for _, key, _, _ in _PARAM_FLAGS}
    return params_from_mapping(mapping, **overrides)


def _params_metadata(p: SystemParams) -> dict[str, object]:
    meta: dict[str, object] = {}
    for field in dataclasses.fields(p):
        value = getattr(p, field.name)
        if value is not None:
            meta[field.name] = value
    meta["detuning"] = p.delta
    return meta


def _point_metadata(p: SystemParams, ss: SteadyState) -> dict[str, object]:
    # a single working point's metadata: its parameters, and the
    # separation-of-scales conditions it fails, as a sweep row's warnings
    return {**_params_metadata(p), "warnings": ";".join(rwa_flags(p, ss))}


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


def _open_all(paths: list[Path]) -> list:
    """Open every output file or none. Append mode creates a file without
    truncating one that exists, so when an open fails, the files already
    opened are closed, those this run created are removed, and an earlier
    table stays as it was. Regular files are emptied once all are open;
    a device such as /dev/null cannot be truncated."""
    handles, made = [], []
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            if not path.exists():
                made.append(path)
            handles.append(open(path, "a", encoding="utf-8", newline=""))
    except OSError as exc:
        for fh in handles:
            fh.close()
        for created in made:
            created.unlink(missing_ok=True)
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc
    for fh, path in zip(handles, paths):
        if path.is_file():
            fh.truncate(0)
    return handles


def _write_table(args, columns: list[str], rows: list[tuple],
                 metadata: dict[str, object]) -> Path:
    path = Path(args.output or Path(args.outdir) / f"{args.command_name}.csv")
    # the mirror shares the stem; with_suffix would raise for a path without
    # a name, such as ".", which the open then reports as a directory
    targets = [path] if args.no_jsonl else [path, path.parent / f"{path.stem}.jsonl"]
    if len(set(targets)) < len(targets):
        raise ConfigError(f"output path {path} is its own JSON-lines mirror; "
                          "give it another suffix or pass --no-jsonl")
    meta = {"command": args.command_name, "version": __version__}
    meta.update(metadata)
    if not args.no_timestamp:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    # exit 0 promises finite numbers; empty fields of flagged rows are None
    for key, value in itertools.chain(meta.items(),
                                      *(zip(columns, row) for row in rows)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ModelError(f"non-finite result: {key} = {value}")
    handles = _open_all(targets)
    try:
        fh = handles[0]
        for key, value in meta.items():
            fh.write(f"# {key} = {_fmt(value)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
        for jh in handles[1:]:
            jh.write(json.dumps({"metadata": meta}) + "\n")
            for row in rows:
                jh.write(json.dumps(dict(zip(columns, row))) + "\n")
    finally:
        for handle in handles:
            handle.close()
    _info(args, f"wrote {path}")
    return path


def _info(args, message: str) -> None:
    # a progress line on the current stderr, unless --quiet
    if not getattr(args, "quiet", False):
        print(f"INFO {message}", file=sys.stderr)


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

# warnings cell of a row whose variance raised NonFiniteVariance (no comma)
_NON_FINITE = "variance not finite: {}"


def _mech_row(p: SystemParams) -> tuple:
    ss = solve_steady_state(p)
    warnings = ";".join(rwa_flags(p, ss))
    try:
        pair = quadrature_variances(ss, p)
    except UnstableSystem:
        return (None, None, None, False, warnings)
    except NonFiniteVariance as exc:
        # stable, but the variance overflows; keep the sweep alive and
        # flag the point
        note = _NON_FINITE.format(exc)
        warnings = f"{warnings};{note}" if warnings else note
        return (None, None, None, True, warnings)
    return (pair.var_q, pair.var_p, squeezing_db(pair.var_p), True, warnings)


def _cavity_row(p: SystemParams) -> tuple:
    try:
        _, var_y = cavity_variances(p)
    except UnstableSystem:
        return (p.theta, None, None, False, "")
    except NonFiniteVariance as exc:
        # stable, but the variance overflows; keep the sweep alive and
        # flag the point
        return (p.theta, None, None, True, _NON_FINITE.format(exc))
    return (p.theta, var_y, squeezing_db(var_y), True, "")


def _stability_row(p: SystemParams) -> tuple:
    ss = solve_steady_state(p)
    report = routh_hurwitz(p, ss)
    c1, c2, c3 = report.conditions
    return (p.G / p.kappa, p.cooperativity, c1, c2, c3, report.stable, report.marginal)


def _lyapunov(p: SystemParams) -> tuple[SteadyState, DriftModel, Covariance]:
    # the steady state, its drift model and the Lyapunov covariance
    ss = solve_steady_state(p)
    dm = build_drift(ss, p)
    return ss, dm, steady_covariance(dm)


# ---------------------------------------------------------------------------
# sweep subcommands

def _check_count(flag: str, count: int) -> None:
    if count < 1:
        raise ConfigError(f"{flag} must be at least 1, got {count}")


def _grid(bounds: tuple[float, float], points: int, flag: str) -> list[float]:
    # ``points`` values over [lo, hi], np.linspace's in floats: i step + lo,
    # or i / div span + lo where the step underflows, and hi last;
    # ``flag`` names the option that set points
    lo, hi = bounds
    _check_count(flag, points)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"grid range must be finite with lo < hi, got [{lo}, {hi}]")
    span, div = hi - lo, max(points - 1, 1)
    step = span / div
    grid = [(i * step if step else i / div * span) + lo for i in range(points)]
    if points > 1:
        grid[-1] = hi
    return grid


# each swept field: its column, its default range, and whether both are
# in units of kappa (the range given by --range is in the field's own units)
_SWEPT = {
    "G": ("G_over_kappa", (0.0, 0.49), True),
    "cooperativity": ("cooperativity", (10.0, 4000.0), False),
    "temperature": ("temperature_K", (0.0, 0.02), False),
}
_MECH_COLUMNS = ["var_q", "var_p", "squeezing_db", "stable", "warnings"]
_CAVITY_COLUMNS = ["theta", "var_y", "squeezing_db", "stable", "warnings"]


def _sweep(args, field: str, row, columns: list[str]) -> int:
    """One table row per value of ``field``, from ``row`` of the working
    point with that value; ``columns`` name the row's fields."""
    p0 = _load_params(args)
    column, (lo, hi), per_kappa = _SWEPT[field]
    unit = p0.kappa if per_kappa else 1.0
    if args.points < 2:
        raise ConfigError("a sweep needs at least 2 points")
    values = _grid(args.range or (lo * unit, hi * unit), args.points, "--points")
    rows = [(v / unit, *row(dataclasses.replace(p0, **{field: v}))) for v in values]
    meta = _params_metadata(p0)
    meta["swept"] = column
    meta["points"] = len(rows)
    _write_table(args, [column, *columns], rows, meta)
    return 0


def cmd_sweep_gain(args) -> int:
    return _sweep(args, "G", _mech_row, _MECH_COLUMNS)


def cmd_sweep_cooperativity(args) -> int:
    return _sweep(args, "cooperativity", _mech_row, _MECH_COLUMNS)


def cmd_sweep_temperature(args) -> int:
    return _sweep(args, "temperature", _mech_row, _MECH_COLUMNS)


def cmd_cavity_sweep(args) -> int:
    return _sweep(args, "G", _cavity_row, _CAVITY_COLUMNS)


def cmd_stability_map(args) -> int:
    p0 = _load_params(args)
    gains = _grid(args.gain_range, args.gain_points, "--gain-points")
    coops = _grid(args.coop_range, args.coop_points, "--coop-points")
    rows = [_stability_row(dataclasses.replace(p0, G=g, cooperativity=c))
            for g in gains for c in coops]
    columns = ["G_over_kappa", "cooperativity", "cond1", "cond2", "cond3",
               "stable", "marginal"]
    meta = _params_metadata(p0)
    meta["grid"] = f"{args.gain_points}x{args.coop_points}"
    _write_table(args, columns, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# spectrum / detection subcommands

def _stationary_grid(args) -> tuple[SystemParams, SteadyState, list[float]]:
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
    rows = list(zip(omega, sample.S_Q.tolist(), sample.S_P.tolist()))
    _write_table(args, ["omega", "S_Q", "S_P"], rows, _point_metadata(p, ss))
    return 0


def cmd_detect(args) -> int:
    p, ss, omega = _stationary_grid(args)
    values = spectrum_zout(omega, args.phi, ss, p)
    meta = _point_metadata(p, ss)
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
    rows = list(zip(omega, values.tolist()))
    _write_table(args, ["omega", "S_zout"], rows, meta)
    return 0


def cmd_detect_map(args) -> int:
    p, ss, omega = _stationary_grid(args)
    phis = _grid(args.phi_range, args.phi_points, "--phi-points")
    values = detection_map(omega, phis, ss, p)
    rows = [(w, phi, s) for phi, column in zip(phis, values.T.tolist())
            for w, s in zip(omega, column)]
    meta = _point_metadata(p, ss)
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
    _write_table(args, columns, rows, _point_metadata(p, ss))

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
    ss, dm, cov = _lyapunov(p)
    given = {key: getattr(args, key) for key in ("dt", "duration", "burn_in")
             if getattr(args, key) is not None}
    if len(given) == 3:
        cfg = SimConfig(**given, n_traj=args.trajectories, seed=args.seed)
    else:   # the suggested schedule fills in what was not given
        cfg = dataclasses.replace(
            suggest_config(dm, seed=args.seed, n_traj=args.trajectories), **given)
    n_burn, n_meas = cfg.steps()
    _info(args, f"sampling {n_burn + n_meas} steps ({n_burn} burn-in + {n_meas} "
                f"measured) x {cfg.n_traj} trajectories at dt={cfg.dt:.3e}")
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
    _write_table(args, columns, rows, _point_metadata(p, ss))

    print(f"{cfg.n_traj} trajectories, dt={cfg.dt:.3e}, {elapsed:.1f}s")
    print(f"var_q = {est.var_q:.6f} +- {est.stderr_q:.2e}   "
          f"(Lyapunov {cov.var_q:.6f}, z = {z_q:+.2f})")
    print(f"var_p = {est.var_p:.6f} +- {est.stderr_p:.2e}   "
          f"(Lyapunov {cov.var_p:.6f}, z = {z_p:+.2f})")
    return 0


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
        report = routh_hurwitz(p, solve_steady_state(p))
        if report.stable and min(report.conditions) > 1e-8:
            return p


def _quad_lyap_case(rng: np.random.Generator, n: int):
    # n draws, each scored by its worse quadrature-Lyapunov relative difference
    for _ in range(n):
        p = _draw_mech_params(rng)
        ss, _, cov = _lyapunov(p)
        pair = quadrature_variances(ss, p)
        yield p, max(abs(pair.var_q - cov.var_q) / cov.var_q,
                     abs(pair.var_p - cov.var_p) / cov.var_p)


def _sde_case(rng: np.random.Generator, n: int):
    # n draws, each scored by the |z| of 16 trajectories' var_p; seeds first
    for seed in rng.integers(0, 2**63 - 1, size=n).tolist():
        p = _draw_mech_params(rng)
        _, dm, cov = _lyapunov(p)
        est = simulate(dm, suggest_config(dm, seed=seed, n_traj=16))
        yield p, abs(est.var_p - cov.var_p) / est.stderr_p


# validate's checks, in the order they draw from the shared generator:
# (row label, count flag, cases yielding (working point, metric) for n
# draws, threshold, metadata key of the worst metric, summary line)
_CHECKS = (
    ("quad_vs_lyapunov", "quad_draws", _quad_lyap_case, 1e-6, "worst_rel_diff",
     "[quadrature vs Lyapunov] {n} draws, worst relative diff {worst:.3e} (tol 1e-06)"),
    ("sde_vs_lyapunov", "sde_draws", _sde_case, 3.0, "worst_z",
     "[SDE vs Lyapunov]        {n} draws, worst momentum |z| {worst:.2f} (tol 3 sigma)"),
)


def cmd_validate(args) -> int:
    counts = {check[1]: getattr(args, check[1]) for check in _CHECKS}
    for flag, n in counts.items():
        _check_count("--" + flag.replace("_", "-"), n)
    import numpy as np   # validate's generator
    rng = np.random.default_rng(args.seed)
    t_start = time.perf_counter()
    meta, rows, passed = {"seed": args.seed, **counts}, [], True
    for label, flag, cases, tol, key, summary in _CHECKS:
        scored = list(cases(rng, counts[flag]))
        worst = meta[key] = max(metric for _, metric in scored)
        passed &= worst <= tol
        print(f"{summary.format(n=counts[flag], worst=worst)}: "
              f"{'PASS' if worst <= tol else 'FAIL'}")
        rows += [(label, p.gamma_m, p.cooperativity, p.G, p.theta, p.temperature,
                  metric, tol, metric <= tol) for p, metric in scored]

    elapsed = time.perf_counter() - t_start
    columns = ["check", "gamma_m", "cooperativity", "G", "theta",
               "temperature_K", "metric", "threshold", "passed"]
    if not args.no_timestamp:   # reruns with --no-timestamp stay byte-identical
        meta["elapsed_s"] = round(elapsed, 3)
    meta["passed"] = passed
    _write_table(args, columns, rows, meta)

    print(f"validation {'PASSED' if passed else 'FAILED'} in {elapsed:.1f}s")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# parser assembly

# a command's own flags are (flag, add_argument keywords); --workers is
# accepted and ignored, as every command runs in one process
_WORKERS = ("--workers", dict(type=int, help=argparse.SUPPRESS))
_RANGE = dict(nargs=2, metavar=("LO", "HI"))


def build_parser() -> argparse.ArgumentParser:
    # accepted before and after the subcommand; SUPPRESS keeps a subcommand
    # that was not given the flag from resetting the top-level value
    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                              help="print no progress lines on stderr")
    output_flags.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                              help="accepted; no effect (nothing is finer than the "
                                   "progress lines)")
    parser = _Parser(
        prog="omsqueeze",
        description="Quadrature squeezing of a mirror in a driven cavity "
                    "with an intracavity parametric amplifier.",
        parents=[output_flags],
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command_name", required=True, metavar="COMMAND")

    def command(name, func, summary, *flags, params=True, sweep_points=None):
        # the model parameters, then the command's own flags, then output
        sub = subs.add_parser(name, parents=[output_flags], help=summary)
        if params:
            group = sub.add_argument_group("model parameters")
            group.add_argument("--config", metavar="PATH",
                               help="config file path or bundled preset name (fig3 .. fig9)")
            for flag, key, kind, text in _PARAM_FLAGS:
                group.add_argument(flag, dest=key, type=kind, help=text)
        if sweep_points:
            sub.add_argument("--range", type=float, help="sweep interval", **_RANGE)
            sub.add_argument("--points", type=int, default=sweep_points,
                             help=f"number of sweep points (default {sweep_points})")
        for flag, options in flags:
            sub.add_argument(flag, **options)
        group = sub.add_argument_group("output")
        group.add_argument("--output", "-o", metavar="PATH",
                           help=f"output CSV path (default: {name}.csv)")
        group.add_argument("--outdir", default=os.environ.get("OMSQUEEZE_OUTDIR", "."),
                           help="output directory (env OMSQUEEZE_OUTDIR)")
        group.add_argument("--no-timestamp", action="store_true",
                           help="omit the generated_at metadata line")
        group.add_argument("--no-jsonl", action="store_true",
                           help="skip the JSON-lines mirror file")
        sub.set_defaults(func=func)

    command("sweep-gain", cmd_sweep_gain, "momentum variance vs parametric gain",
            _WORKERS, sweep_points=50)
    command("sweep-cooperativity", cmd_sweep_cooperativity,
            "momentum variance vs cooperativity", _WORKERS, sweep_points=50)
    command("sweep-temperature", cmd_sweep_temperature,
            "momentum variance vs bath temperature", _WORKERS, sweep_points=21)
    command("spectrum", cmd_spectrum, "mirror quadrature spectra on a frequency grid",
            ("--omega-range", dict(_RANGE, type=float, default=(-0.5, 0.5),
                                   help="frequency window, units of kappa")),
            ("--points", dict(type=int, default=401)))
    command("detect", cmd_detect, "homodyne output spectrum at one phase",
            ("--phi", dict(type=parse_angle, default=math.pi / 2,
                           help="homodyne phase (default pi/2)")),
            ("--omega-range", dict(_RANGE, type=float, default=(-0.05, 0.05))),
            ("--points", dict(type=int, default=401)))
    command("detect-map", cmd_detect_map, "homodyne output spectrum over (omega, phi)",
            ("--omega-range", dict(_RANGE, type=float, default=(-0.05, 0.05))),
            ("--points", dict(type=int, default=101, help="omega grid points")),
            ("--phi-range", dict(_RANGE, type=parse_angle, default=(0.0, math.pi))),
            ("--phi-points", dict(type=int, default=61)))
    command("cavity-sweep", cmd_cavity_sweep,
            "empty-cavity phase quadrature variance vs gain", _WORKERS, sweep_points=50)
    command("stability-map", cmd_stability_map,
            "stability conditions on a (gain, cooperativity) grid",
            ("--gain-range", dict(_RANGE, type=float, default=(0.0, 1.0))),
            ("--gain-points", dict(type=int, default=41)),
            ("--coop-range", dict(_RANGE, type=float, default=(0.0, 1000.0))),
            ("--coop-points", dict(type=int, default=41)),
            _WORKERS)
    command("analytic", cmd_analytic, "closed-form variances beside the full model",
            ("--eta", dict(type=float, help="feedback gain (default 2C)")))
    command("oracle", cmd_oracle, "stochastic-trajectory variance estimate",
            ("--dt", dict(type=float, help="time step, units of 1/kappa")),
            ("--duration", dict(type=float, help="measured stretch, units of 1/kappa")),
            ("--burn-in", dict(type=float, help="discarded transient, units of 1/kappa")),
            ("--trajectories", dict(type=int, default=SimConfig.n_traj)),
            ("--seed", dict(type=int, default=0)))
    command("validate", cmd_validate,
            "three-way agreement suite (quadrature, Lyapunov, SDE)",
            ("--seed", dict(type=int, default=7)),
            ("--quad-draws", dict(type=int, default=100)),
            ("--sde-draws", dict(type=int, default=20)),
            _WORKERS, params=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ModelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:   # ConfigError and argparse's usage errors among them
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
