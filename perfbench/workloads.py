"""The three benchmark workloads.

Each is a closed loop in one client: the next operation starts when the
previous one has finished, until the time budget is spent, and every
operation is checked. A workload returns an ``Outcome`` with the wall time
of each operation and the checks that failed.

* ``cli-presets``: every non-stochastic subcommand at its bundled preset,
  each in a fresh interpreter. The seed only shuffles the order of each
  pass; the inputs are the presets.
* ``freq-sweep``: the deterministic library chain at seeded random stable
  working points drawn from ``validate``'s quadrature box, in process.
* ``stochastic-oracle``: ``omsqueeze oracle`` in a fresh interpreter at
  seeded working points from ``validate``'s SDE box.

With a ``Tracer`` each operation runs in process twice, untraced and then
traced, so the difference is the tracing overhead; sweeps use
``--workers 1`` so that every span lands in this process.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OP_TIMEOUT_S = 150.0

QUAD_REL_TOL = 1e-6          # validate's quadrature-vs-Lyapunov tolerance
# SDE-vs-Lyapunov bounds on z_p = (var_p_hat - var_p) / stderr_p. validate
# applies |z| <= 3 once to 20 draws; a check run hundreds of times needs
# a smaller false-alarm rate. Over 100 oracle runs in the stiffness band
# below, z_p had mean +0.17 (the Euler bias of +0.1 to +0.4%) and standard
# deviation 1.10, with one |z_p| > 3. Each run is bounded at 6, about 6e-6
# by chance; the run's pooled z, sum(z_p) / sqrt(n), is bounded at 5, about
# 2e-5 by chance at seven runs. The pooled bound catches a systematic bias
# of about 4% of var_p, finer than 3 on a single run (about 7%).
Z_OP_BOUND = 6.0
Z_RUN_BOUND = 5.0
ORACLE_TRAJECTORIES = 16     # as validate runs it
# Stiffness band of the oracle points: fastest over slowest drift rate.
# The Euler step follows the fastest rate and the run length the slowest,
# so this ratio sets an oracle run's step count. Pinning it near the
# low end of the SDE box (runs of about 4 s on a 2-CPU Xeon VM) keeps run time
# comparable across seeds while every model parameter still varies.
ORACLE_STIFFNESS = (3.5, 3.6)

# (subcommand, preset) pairs of the cli-presets workload
INVOCATIONS = (
    ("sweep-gain", "fig3"),
    ("sweep-gain", "fig5"),
    ("sweep-cooperativity", "fig4"),
    ("sweep-temperature", "fig6"),
    ("spectrum", "fig3"),
    ("detect", "fig8"),
    ("detect-map", "fig7"),
    ("cavity-sweep", "fig9"),
    ("stability-map", "fig3"),
    ("analytic", "fig3"),
)
_POOLED = {"sweep-gain", "sweep-cooperativity", "sweep-temperature",
           "cavity-sweep", "stability-map"}
FREQ_BLOCK = 64                              # working points drawn per block
# operations per window of fixed work: a pass, a block, one oracle run
WINDOW_OPS = {"cli-presets": len(INVOCATIONS), "freq-sweep": FREQ_BLOCK,
              "stochastic-oracle": 1}
OMEGA_MECH = np.linspace(-0.5, 0.5, 401)     # spectrum command's default grid
OMEGA_OUT = np.linspace(-0.05, 0.05, 401)    # detect command's default grid
PHI_OUT = math.pi / 2


@dataclass
class Outcome:
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    run_failures: list[str] = field(default_factory=list)   # checks over the whole run
    extra: dict[str, object] = field(default_factory=dict)
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def record(self, dt: float, problems: list[str], label: str) -> None:
        self.attempted += 1
        self.op_s.append(dt)
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("OMSQUEEZE_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    """Run the CLI in a fresh interpreter; (wall s, exit code, stderr)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "omsqueeze.cli", *argv],
                              env=child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, -1, f"timed out after {OP_TIMEOUT_S} s"
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def call_cli(argv: list[str]) -> tuple[float, int, str]:
    """Run the CLI in this process; same result shape as run_cli."""
    from omsqueeze import cli
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(["--quiet", *argv])
    return time.perf_counter() - t0, code, sink.getvalue()


def _paired(argv: list[str], tracer, out: Outcome) -> tuple[float, int, str]:
    # untraced, then the same call traced; the traced one is kept
    dt_plain, code, err = call_cli(argv)
    out.untraced_s += dt_plain
    if code != 0:
        return dt_plain, code, err
    tracer.install()
    try:
        dt, code, err = call_cli(argv)
    finally:
        tracer.uninstall()
    out.traced_s += dt
    return dt, code, err


# ---------------------------------------------------------------------------
# output checks

def _finite_problems(text: str, where: str) -> list[str]:
    try:
        value = float(text)
    except ValueError:
        return []                      # a word, not a number
    return [] if math.isfinite(value) else [f"non-finite {where}: {text!r}"]


def check_tables(outdir: Path) -> list[str]:
    """Every CSV parses with read_table; every number is finite, or an
    empty field in a row flagged unstable or carrying a warning."""
    from omsqueeze.cli import read_table
    problems: list[str] = []
    csvs = sorted(outdir.glob("*.csv"))
    if not csvs:
        return ["no CSV written"]
    for path in csvs:
        try:
            meta, rows = read_table(path)
        except Exception as exc:       # any parse failure is a failed check
            problems.append(f"{path.name} does not parse: {exc!r}")
            continue
        for key, value in meta.items():
            problems += _finite_problems(value, f"{path.name} metadata {key}")
        for n, row in enumerate(rows):
            flagged = row.get("stable") == "false" or bool(row.get("warnings"))
            for key, value in row.items():
                if value == "" and key != "warnings" and not flagged:
                    problems.append(f"{path.name} row {n}: empty {key} in an unflagged row")
                problems += _finite_problems(value, f"{path.name} row {n} {key}")
    for path in sorted(outdir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                values = json.loads(line)
                values = values.get("metadata", values)
                for key, value in values.items():
                    if isinstance(value, float) and not math.isfinite(value):
                        problems.append(f"{path.name}: non-finite {key}")
    return problems[:5]


def output_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# cli-presets

def cli_presets(seconds: float, seed: int, workdir: Path, tracer=None) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    digests: dict[tuple[str, str], str] = {}
    passes: list[float] = []
    t_start = time.perf_counter()
    while True:
        order = list(INVOCATIONS)
        rng.shuffle(order)
        t_pass = time.perf_counter()
        for cmd, preset in order:
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                argv = [cmd, "--config", preset, "--outdir", tmp, "--no-timestamp"]
                if tracer is None:
                    dt, code, err = run_cli(argv)
                else:
                    argv += ["--workers", "1"] if cmd in _POOLED else []
                    dt, code, err = _paired(argv, tracer, out)
                    tracer.op += 1
                if code != 0:
                    problems = [f"exit {code}: {err.strip()[-200:]}"]
                else:
                    problems = check_tables(Path(tmp))
                    digest = output_digest(Path(tmp))
                    if digests.setdefault((cmd, preset), digest) != digest:
                        problems.append("output differs from an earlier pass")
            out.record(dt, problems, f"{cmd} --config {preset}")
        passes.append(time.perf_counter() - t_pass)
        if time.perf_counter() - t_start >= seconds:
            break
    out.extra["passes"] = len(passes)
    out.extra["cli_pass_s"] = float(np.median(passes))
    return out


# ---------------------------------------------------------------------------
# freq-sweep

def draw_mech_point(rng: np.random.Generator):
    """A comfortably stable point from validate's quadrature box."""
    import omsqueeze as om
    while True:
        p = om.SystemParams(
            gamma_m=float(10.0 ** rng.uniform(-5.0, math.log10(0.05))),
            cooperativity=float(rng.uniform(0.0, 500.0)),
            G=float(rng.uniform(0.0, 0.49)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
            temperature=float(rng.choice([0.0, 0.01, 0.02])),
        )
        report = om.routh_hurwitz(p, om.solve_steady_state(p))
        if report.stable and min(report.conditions) > 1e-8:
            return p


def freq_point(p):
    """The deterministic routes at one working point, through the package's
    public names so that a tracer sees every call."""
    import omsqueeze as om
    ss = om.solve_steady_state(p)
    report = om.routh_hurwitz(p, ss)
    cov = om.steady_covariance(om.build_drift(ss, p))
    pair = om.quadrature_variances(ss, p)
    spec = om.spectrum(OMEGA_MECH, ss, p)
    s_out = om.spectrum_zout(OMEGA_OUT, PHI_OUT, ss, p)
    band = om.find_band(PHI_OUT, ss, p)
    cavity = om.cavity_variances(dataclasses.replace(p, theta=0.0))
    return report, cov, pair, spec, s_out, band, cavity


def check_freq_point(result) -> tuple[list[str], float]:
    report, cov, pair, spec, s_out, band, cavity = result
    problems = [] if report.stable else ["drawn point reported unstable"]
    rel = max(abs(pair.var_q - cov.var_q) / cov.var_q,
              abs(pair.var_p - cov.var_p) / cov.var_p)
    if not rel <= QUAD_REL_TOL:
        problems.append(f"quadrature vs Lyapunov relative diff {rel:.3e}")
    values = [spec.S_Q, spec.S_P, s_out, np.asarray(cavity)]
    if band is not None:
        values.append(np.array([band.omega_lo, band.omega_hi, band.min_S]))
    if not all(np.isfinite(v).all() for v in values):
        problems.append("non-finite spectrum, band or cavity variance")
    return problems, rel


def freq_sweep(seconds: float, seed: int, workdir: Path, tracer=None) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(seed)
    worst = 0.0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        # inputs are drawn in blocks outside the timed calls
        for p in [draw_mech_point(rng) for _ in range(FREQ_BLOCK)]:
            if tracer is not None:
                t0 = time.perf_counter()
                try:
                    freq_point(p)
                except Exception:      # reported by the traced call below
                    pass
                out.untraced_s += time.perf_counter() - t0
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = freq_point(p)
                error = None
            except Exception as exc:   # any library error fails the point
                error = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
                tracer.op += 1
                out.traced_s += dt
            if error is not None:
                problems = [f"raised {error!r}"]
            else:
                problems, rel = check_freq_point(result)
                worst = max(worst, rel)
            out.record(dt, problems, f"point {p}")
    out.extra["quad_vs_lyapunov_worst_rel"] = worst
    return out


# ---------------------------------------------------------------------------
# stochastic-oracle

def stiffness(dm) -> tuple[float, float]:
    """(fastest / slowest drift rate, slowest rate) of a drift model."""
    lam = np.linalg.eigvals(dm.M)
    slowest = float((-lam.real).min())
    fastest = max(float(np.abs(lam).max()), -0.5 * float(dm.M[2, 2] + dm.M[3, 3]))
    return fastest / slowest, slowest


def draw_oracle_point(rng: np.random.Generator):
    """A point from validate's SDE box inside the stiffness band, with the
    seed its oracle run uses."""
    import omsqueeze as om
    while True:
        p = om.SystemParams(
            gamma_m=float(10.0 ** rng.uniform(math.log10(5e-3), math.log10(5e-2))),
            cooperativity=float(rng.uniform(5.0, 100.0)),
            G=float(rng.uniform(0.0, 0.45)),
            theta=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        ss = om.solve_steady_state(p)
        report = om.routh_hurwitz(p, ss)
        if not (report.stable and min(report.conditions) > 1e-8):
            continue
        ratio, slowest = stiffness(om.build_drift(ss, p))
        if slowest >= 0.02 * p.kappa and ORACLE_STIFFNESS[0] <= ratio < ORACLE_STIFFNESS[1]:
            return p, int(rng.integers(0, 2**31 - 1))


def check_oracle(outdir: Path, p) -> tuple[list[str], float | None, float | None]:
    """Finite outputs and |z_p| within Z_OP_BOUND against the Lyapunov
    value; returns the problems, the achieved stderr_p / var_p and z_p."""
    import omsqueeze as om
    from omsqueeze.cli import read_table
    problems = check_tables(outdir)
    try:
        _, rows = read_table(outdir / "oracle.csv")
        var_p, stderr_p = float(rows[0]["var_p_hat"]), float(rows[0]["stderr_p"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return problems + [f"oracle.csv unreadable: {exc!r}"], None, None
    cov = om.steady_covariance(om.build_drift(om.solve_steady_state(p), p))
    z_p = (var_p - cov.var_p) / stderr_p
    if not abs(z_p) <= Z_OP_BOUND:
        problems.append(f"|z_p| = {abs(z_p):.2f} > {Z_OP_BOUND}")
    return problems, stderr_p / var_p, z_p


def stochastic_oracle(seconds: float, seed: int, workdir: Path, tracer=None) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(seed)
    rel_stderr: list[float] = []
    z_ps: list[float] = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        p, run_seed = draw_oracle_point(rng)
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            argv = ["oracle", "--gamma-m", repr(p.gamma_m),
                    "--cooperativity", repr(p.cooperativity), "--gain", repr(p.G),
                    "--theta", repr(p.theta),
                    "--trajectories", str(ORACLE_TRAJECTORIES),
                    "--seed", str(run_seed), "--outdir", tmp, "--no-timestamp"]
            if tracer is None:
                dt, code, err = run_cli(argv)
            else:
                dt, code, err = _paired(argv, tracer, out)
                tracer.op += 1
            if code != 0:
                problems = [f"exit {code}: {err.strip()[-200:]}"]
            else:
                problems, rel, z_p = check_oracle(Path(tmp), p)
                if rel is not None:
                    rel_stderr.append(rel)
                    z_ps.append(z_p)
        out.record(dt, problems, f"oracle at {p}")
    pooled = sum(z_ps) / math.sqrt(len(z_ps)) if z_ps else None
    if pooled is not None and not abs(pooled) <= Z_RUN_BOUND:
        out.run_failures.append(f"pooled z_p over {len(z_ps)} runs: "
                                f"|{pooled:.2f}| > {Z_RUN_BOUND}")
    out.extra["oracle_rel_stderr_p"] = float(np.median(rel_stderr)) if rel_stderr else None
    out.extra["oracle_pooled_z_p"] = pooled
    out.extra["oracle_max_abs_z_p"] = max(map(abs, z_ps)) if z_ps else None
    return out


WORKLOADS = {
    "cli-presets": cli_presets,
    "freq-sweep": freq_sweep,
    "stochastic-oracle": stochastic_oracle,
}
