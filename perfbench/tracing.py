"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces every module attribute of ``omsqueeze`` that
binds a function with a timing wrapper. All attributes are patched, not
only the defining module's, because ``cli`` and ``mech_spectra`` import
names directly: a call through ``cli.solve_steady_state`` must land in the
same span as one through ``params.solve_steady_state``. Spans (name,
parent, operation, start, end) are kept in memory and reduced to
per-function and per-module totals at the end.

A span is named ``<layer>.<function>``, where the layer is the defining
module; the numpy fallback and the compiled kernel both report as
``kernels``. Counters (work items, derived ratios) are collected by hooks
at the same boundaries.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "omsqueeze"
_LAYER_ALIAS = {"_em_fallback": "kernels", "_em_core": "kernels"}
_N_BATCHES = 32                  # batch-mean count fixed by sde_oracle
# computed flops per trajectory-step of the Euler-Maruyama update: a 4x4
# matrix-vector product (16 mul + 12 add), the scaled noise (4 mul +
# 4 add), and, while accumulating, two squares added to running sums
_FLOPS_STEP = 36
_FLOPS_ACCUMULATE = 4

# functions whose calls, busy and self time are reported, by span name
REPORTED = (
    "params.solve_steady_state",
    "stability.routh_hurwitz",
    "stability.build_drift",
    "stability.eigen_stable",
    "lyapunov.steady_covariance",
    "quadrature.integrate_line",
    "mech_spectra.quadrature_variances",
    "mech_spectra.spectrum",
    "output_detection.spectrum_zout",
    "output_detection.find_band",
    "cavity_pa.cavity_variances",
    "sde_oracle.suggest_config",
    "sde_oracle.simulate",
    "kernels.run_segment",
    "cli._write_table",
)
LAYERS = ("params", "stability", "lyapunov", "quadrature", "mech_spectra",
          "output_detection", "cavity_pa", "adiabatic", "sde_oracle",
          "kernels", "cli")
CLI_COMMANDS = ("cmd_sweep_gain", "cmd_sweep_cooperativity",
                "cmd_sweep_temperature", "cmd_spectrum", "cmd_detect",
                "cmd_detect_map", "cmd_cavity_sweep", "cmd_stability_map",
                "cmd_analytic", "cmd_oracle")
COUNTERS = (
    ("quadrature.integrate_line.points", "count"),
    ("quadrature.integrate_line.batches", "count"),
    ("mech_spectra.spectrum.points", "count"),
    ("output_detection.spectrum_zout.points", "count"),
    ("sde_oracle.simulate.traj_steps", "count"),
    ("sde_oracle.simulate.burn_in_share", "1"),
    ("sde_oracle.simulate.rel_stderr_p", "1"),
    ("kernels.run_segment.steps", "count"),
    ("kernels.run_segment.steps_per_s", "1/s"),
    ("kernels.run_segment.flops_per_step_computed", "flop"),
)


def _layer_of(fn) -> str:
    module = fn.__module__
    short = module.split(".", 1)[1] if "." in module else module
    return _LAYER_ALIAS.get(short, short)


def _binds_function(value) -> bool:
    # plain functions, and the compiled kernel's cyfunction/builtin
    return (callable(value) and not isinstance(value, type)
            and str(getattr(value, "__module__", "")).startswith(PACKAGE)
            and hasattr(value, "__name__"))


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self) -> None:
        # one span per wrapped call, stored column-wise to stay small:
        # name index, parent span index (-1 at the top), operation id,
        # start and end
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.span_name)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if not _binds_function(value):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn):
        name = f"{_layer_of(fn)}.{fn.__name__}"
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        stack = self._stack
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            t0 = time.perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                ends[index] = t1
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    # -- reduction --------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds, plus the
        command-level self time that excludes library children only."""
        n = len(self)
        is_cli = [name.startswith("cli.") for name in self.names]
        child = array("d", bytes(8 * n))
        lib_child = array("d", bytes(8 * n))
        # children always follow their parent, so walking backwards
        # finishes every child before its parent is read
        for i in range(n - 1, -1, -1):
            parent = self.span_parent[i]
            if parent < 0:
                continue
            dur = self.span_end[i] - self.span_start[i]
            child[parent] += dur
            lib_child[parent] += lib_child[i] if is_cli[self.span_name[i]] else dur
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "lib_self_s": 0.0})
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - child[i]
            row["lib_self_s"] += dur - lib_child[i]
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every traced per-layer metric, zero where the layer was not run."""
        tot = self.totals()
        zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "lib_self_s": 0.0}
        out: dict[str, tuple[float, str]] = {}
        for name in REPORTED:
            row = tot.get(name, zero)
            out[f"{name}.calls"] = (row["calls"], "count")
            out[f"{name}.busy_s"] = (row["busy_s"], "s")
            out[f"{name}.self_s"] = (row["self_s"], "s")
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.self_s"] = (tot.get(f"cli.{cmd}", zero)["lib_self_s"], "s")
        layer_self: dict[str, float] = defaultdict(float)
        for name, row in tot.items():
            layer_self[name.split(".", 1)[0]] += row["self_s"]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")

        busy_kernel = tot.get("kernels.run_segment", zero)["busy_s"]
        steps = self.counts["kernels.run_segment.steps"]
        derived = {
            "sde_oracle.simulate.burn_in_share": _median(self.samples["burn_in_share"]),
            "sde_oracle.simulate.rel_stderr_p": _median(self.samples["rel_stderr_p"]),
            "kernels.run_segment.steps_per_s": steps / busy_kernel if busy_kernel else 0.0,
            "kernels.run_segment.flops_per_step_computed":
                self.counts["kernels.run_segment.flops"] / steps if steps else 0.0,
        }
        for name, unit in COUNTERS:
            out[name] = (derived.get(name, self.counts[name]), unit)
        return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- counter hooks, keyed by span name ------------------------------------

def _count_integrand(tracer: Tracer, args, kwargs):
    # integrate_line(f, ...): count the batches and points it asks f for
    f = args[0] if args else kwargs.pop("f")

    def counted(x):
        tracer.counts["quadrature.integrate_line.batches"] += 1
        tracer.counts["quadrature.integrate_line.points"] += np.size(x)
        return f(x)

    return (counted, *args[1:]), kwargs


def _count_points(key: str):
    def hook(tracer: Tracer, args, kwargs, result):
        omega = args[0] if args else kwargs["omega"]
        tracer.counts[key] += np.size(omega)
    return hook


def _count_simulation(tracer: Tracer, args, kwargs, result):
    # the schedule simulate() derives from its SimConfig
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    n_burn = math.ceil(cfg.burn_in / cfg.dt)
    n_meas = math.ceil(cfg.duration / cfg.dt)
    n_meas += (-n_meas) % _N_BATCHES
    tracer.counts["sde_oracle.simulate.traj_steps"] += cfg.n_traj * (n_burn + n_meas)
    tracer.samples["burn_in_share"].append(n_burn / (n_burn + n_meas))
    tracer.samples["rel_stderr_p"].append(result.stderr_p / result.var_p)


def _count_kernel(tracer: Tracer, args, kwargs, result):
    # run_segment(a, b, states, xi, accumulate, sq_sums)
    xi, accumulate = args[3], args[4]
    steps = xi.shape[0] * xi.shape[1]
    tracer.counts["kernels.run_segment.steps"] += steps
    tracer.counts["kernels.run_segment.flops"] += steps * (
        _FLOPS_STEP + (_FLOPS_ACCUMULATE if accumulate else 0))


_BEFORE = {"quadrature.integrate_line": _count_integrand}
_AFTER = {
    "mech_spectra.spectrum": _count_points("mech_spectra.spectrum.points"),
    "output_detection.spectrum_zout": _count_points("output_detection.spectrum_zout.points"),
    "sde_oracle.simulate": _count_simulation,
    "kernels.run_segment": _count_kernel,
}
