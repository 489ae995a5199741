"""omsqueeze benchmark: end-to-end metrics per workload, or a traced run
with per-layer metrics.

    python3 perfbench/run.py --workload cli-presets --seed 1 --seconds 30 --trace 0

Run it from a source checkout: it imports the package from ``src/`` next
to this directory and exits non-zero without a result when that is
missing. Every line but the last is for people; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``), the same names on every workload. An
operation is a CLI invocation on cli-presets, one working point on
freq-sweep and one ``oracle`` run on stochastic-oracle.

* ``setup_s``: fresh-interpreter ``import omsqueeze.cli``, median of
  several imports after one warm-up.
* ``ops_per_s``: sustained throughput. Operations are grouped into windows
  of fixed work (a pass over the ten invocations, a block of 64 points,
  one oracle run); this is a window's operations over its time at the
  75th percentile of window time. The 2-vCPU Xeon VM the baseline was
  measured on runs at a steady speed with bursts of up to 1.8x that last
  tens of seconds; the median follows the bursts, the 75th percentile
  follows the steady speed.
* ``op_tail_s``: operation wall time at the highest percentile with at
  least ten samples beyond it (the maximum when there are ten or fewer).
* ``peak_rss_mb``: peak resident memory of the largest process the
  workload ran, this one included.

The ``record`` line also carries the median operation time ``op_p50_s``,
the mean rate, the workload-specific figures under their own names
(``cli_pass_s``, ``cli_cmd_p50_s``,
``freq_points_per_s``, ``oracle_s``, ``oracle_rel_stderr_p``, ...), the
tail's percentile and sample count, ``fail_frac`` and the machine facts.
``--record FILE`` writes that record; ``--compare A B`` prints two records
side by side and refuses records whose ``omsqueeze.BACKEND`` differs.

``--trace 1`` runs each operation in process, untraced and then traced,
and reports the per-layer metrics of ``tracing.Tracer`` together with the
interpreter-import split from ``python -X importtime``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import ROOT, SRC, WINDOW_OPS, WORKLOADS, child_env

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919   # keep out of tuning; check claims on it afterwards
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3


def _seed(text: str) -> int:
    return HELD_OUT_SEED if text == "held-out" else int(text)


def load_package():
    """Import omsqueeze from this checkout's src/, or exit."""
    if not (SRC / "omsqueeze" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import omsqueeze
    if Path(omsqueeze.__file__).resolve().parent != (SRC / "omsqueeze").resolve():
        sys.exit(f"perfbench: imported omsqueeze from {omsqueeze.__file__}, not {SRC}")
    import omsqueeze.cli  # noqa: F401  (tracing patches it too)


def machine_facts(seed: int) -> dict[str, object]:
    import numpy
    import scipy
    import omsqueeze
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": omsqueeze.BACKEND,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def measure_setup(runs: int = SETUP_IMPORTS) -> float:
    """Median fresh-interpreter import time of the CLI module."""
    cmd = [sys.executable, "-c", "import omsqueeze.cli"]
    subprocess.run(cmd, env=child_env(), check=True, cwd=ROOT)   # writes bytecode
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_split(runs: int = IMPORTTIME_RUNS) -> dict[str, tuple[float, str]]:
    """The import of ``omsqueeze.cli`` split by ``python -X importtime``.

    ``numpy_s`` and ``scipy_s`` are the cumulative times of each package's
    outermost imports, so they include what those packages pull in first;
    ``omsqueeze_self_s`` is the package's own module code; ``total_s`` is
    the whole ``omsqueeze.cli`` entry. Medians over a few fresh interpreters.
    """
    samples: dict[str, list[float]] = {}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import omsqueeze.cli"],
                              env=child_env(), capture_output=True, text=True,
                              check=True, cwd=ROOT)
        entries = []                        # (depth, package, self us, cumulative us)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            entries.append((depth, name.strip().split(".", 1)[0], int(own), int(cumulative)))
        us = {"numpy": 0, "scipy": 0, "omsqueeze": 0, "total": 0}
        ancestors: list[str] = []
        # importtime prints children before parents; reversed, each entry
        # follows its ancestors
        for depth, package, own, cumulative in reversed(entries):
            del ancestors[depth:]
            if depth == 0 and package == "omsqueeze":
                us["total"] += cumulative
            if package in ("numpy", "scipy") and not {"numpy", "scipy"} & set(ancestors):
                us[package] += cumulative
            if package == "omsqueeze":
                us["omsqueeze"] += own
            ancestors.append(package)
        for key, value in [("import.numpy_s", us["numpy"]),
                           ("import.scipy_s", us["scipy"]),
                           ("import.omsqueeze_self_s", us["omsqueeze"]),
                           ("import.total_s", us["total"])]:
            samples.setdefault(key, []).append(value * 1e-6)
    return {key: (statistics.median(v), "s") for key, v in samples.items()}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, or the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN holds the largest
    # waited-for descendant
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def sustained_rate(ops: list[float], size: int) -> float:
    """Operations per second in a window of ``size`` consecutive operations,
    at the 75th percentile of window time (a quarter of windows are slower)."""
    windows = [sum(ops[i:i + size]) for i in range(0, len(ops) - size + 1, size)]
    slow = statistics.quantiles(windows, n=4)[2] if len(windows) > 1 else windows[0]
    return size / slow


def end_to_end(name: str, outcome, setup_s: float) -> tuple[dict, dict]:
    ops = outcome.op_s
    p50 = statistics.median(ops)
    tail_s, pct, n = tail(ops)
    mean_rate = len(ops) / sum(ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sustained_rate(ops, WINDOW_OPS[name]), "1/s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    named = {"fail_frac": outcome.failed / outcome.attempted,
             "op_p50_s": p50, "mean_ops_per_s": mean_rate,
             "setup_share_of_op_p50": setup_s / p50,
             "tail_percentile": pct, "samples": n}
    if name == "cli-presets":
        named.update(cli_pass_s=outcome.extra["cli_pass_s"], cli_cmd_p50_s=p50,
                     cli_cmd_tail_s=tail_s)
    elif name == "freq-sweep":
        named.update(freq_points_per_s=mean_rate, freq_point_tail_ms=1e3 * tail_s)
    else:
        named.update(oracle_s=p50)
    named.update(outcome.extra)
    return metrics, named


def traced(outcome, tracer) -> tuple[dict, dict]:
    metrics = tracer.metrics()
    metrics.update(import_split())
    metrics["trace.wall_s"] = (outcome.traced_s, "s")
    metrics["trace.untraced_wall_s"] = (outcome.untraced_s, "s")
    metrics["trace.overhead_s"] = (outcome.traced_s - outcome.untraced_s, "s")
    wall = outcome.traced_s or float("inf")     # zero when every call failed
    named = {
        "fail_frac": outcome.failed / outcome.attempted,
        "spans": len(tracer),
        "quadrature_variances_share": metrics["mech_spectra.quadrature_variances.busy_s"][0] / wall,
        "simulate_share": metrics["sde_oracle.simulate.busy_s"][0] / wall,
    }
    return metrics, named


def compare(path_a: str, path_b: str) -> int:
    records = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    a, b = records
    if a["facts"]["backend"] != b["facts"]["backend"]:
        print(f"refusing to compare: backend {a['facts']['backend']!r} vs "
              f"{b['facts']['backend']!r}", file=sys.stderr)
        return 1
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare different workloads or trace modes", file=sys.stderr)
        return 1
    for key, (va, unit) in a["metrics"].items():
        vb = b["metrics"].get(key, [None])[0]
        ratio = f"{vb / va:8.3f}x" if vb is not None and va else "       -"
        print(f"{key:48s} {va:14.6g} {vb if vb is not None else float('nan'):14.6g} "
              f"{ratio} {unit}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; 'held-out' = {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE", help="also write the record as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two records written by --record")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")

    load_package()
    facts = machine_facts(args.seed)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as workdir:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            outcome = WORKLOADS[args.workload](args.seconds, args.seed, Path(workdir), tracer)
            metrics, named = traced(outcome, tracer)
        else:
            setup_s = measure_setup()
            outcome = WORKLOADS[args.workload](args.seconds, args.seed, Path(workdir))
            metrics, named = end_to_end(args.workload, outcome, setup_s)

    for failure in outcome.run_failures + outcome.failures[:20]:
        print(f"FAILED {failure}")
    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:14.6g} {unit}")
    record = {"workload": args.workload, "trace": args.trace, "facts": facts,
              "named": named, "metrics": metrics,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "run_failures": outcome.run_failures}
    print("record " + json.dumps(record))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.run_failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
