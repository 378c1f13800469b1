"""Outside-in tracer for qndsim's public functions, and the summary of its spans.

Run as a child process in place of the `qndsim` console script:

    python3 perfbench/tracer.py SPANS.json INVOCATION_ID <qndsim arguments...>

It imports qndsim, replaces each traced function with a timing wrapper in
every qndsim module that holds a reference to it (`from .fock import
apply_channel` binds the name in node, channel and fock alike, so patching
only the defining module would miss calls), calls `qndsim.cli.main(argv)`,
and writes the recorded spans when the invocation ends. Spans stay in memory
until then. No source file of qndsim is changed.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import threading
import time

# Functions traced per module. Private stages may disappear in later versions;
# a missing one is recorded as zero calls.
TARGETS: dict[str, tuple[str, ...]] = {
    "fock": ("apply_channel", "_check_density", "beam_splitter", "measure_diagonal", "partial_trace"),
    "node": ("reflect", "branch_distinguishability", "rotate", "dephase", "detect_state"),
    "channel": ("fiber_channel", "detection_path"),
    "detectors": ("hbt_split_and_count",),
    "protocol": ("run_cascade", "run_single", "conditioned_photon_state"),
    "estimators": ("sweep_estimates", "cells_from_distribution", "g2_table"),
    "montecarlo": ("estimate", "g2_estimate", "_simulate_arrays", "_atom_probabilities"),
    "sorter": ("run_sorter",),
    "config": ("parse_config", "default_config"),
    "cli": ("run", "build_figure"),
}

# (metric name, unit) of every per-layer metric; derived from spans by
# layer_metrics() except the import and trace entries, which run.py measures.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("import.qndsim_s", "s"),
    ("import.scipy_s", "s"),
    ("import.numpy_s", "s"),
    ("config.parse_config.s", "s"),
    ("config.default_config.s", "s"),
    ("cli.build_figure.s", "s"),
    ("cli.write_s", "s"),
    ("estimators.sweep_estimates.calls", "count"),
    ("estimators.cells_from_distribution.self_s", "s"),
    ("estimators.g2_table.s", "s"),
    ("protocol.run_cascade.calls", "count"),
    ("protocol.run_cascade.self_s", "s"),
    ("protocol.run_single.calls", "count"),
    ("protocol.run_single.self_s", "s"),
    ("protocol.conditioned_photon_state.calls", "count"),
    ("protocol.conditioned_photon_state.self_s", "s"),
    ("node.reflect.s", "s"),
    ("node.branch_distinguishability.s", "s"),
    ("node.rotate.s", "s"),
    ("node.dephase.s", "s"),
    ("node.detect_state.s", "s"),
    ("channel.fiber_channel.s", "s"),
    ("channel.detection_path.s", "s"),
    ("detectors.hbt_split_and_count.calls", "count"),
    ("detectors.hbt_split_and_count.s", "s"),
    ("fock.beam_splitter.calls", "count"),
    ("fock.beam_splitter.self_s", "s"),
    ("fock.measure_diagonal.self_s", "s"),
    ("fock.partial_trace.self_s", "s"),
    ("fock.apply_channel.calls", "count"),
    ("fock.apply_channel.self_s", "s"),
    ("fock.apply_channel.gflop", "Gflop"),
    ("fock._check_density.calls", "count"),
    ("fock._check_density.self_s", "s"),
    ("fock._check_density.eig_dim3", "dim3"),
    ("montecarlo.estimate.calls", "count"),
    ("montecarlo.g2_estimate.calls", "count"),
    ("montecarlo.trials", "count"),
    ("montecarlo._simulate_arrays.self_s", "s"),
    ("montecarlo._atom_probabilities.self_s", "s"),
    ("sorter.run_sorter.calls", "count"),
    ("sorter.run_sorter.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _apply_channel_flops(args: tuple, kwargs: dict) -> float:
    # Two complex tensordots per Kraus operator: 8 * 2 * dt^3 * dr^2 flops.
    state = _arg(args, kwargs, 0, "state")
    kraus = _arg(args, kwargs, 1, "kraus_ops")
    labels = _arg(args, kwargs, 2, "labels")
    dims = state.dims
    dt = math.prod(dims[state.position(lbl)] for lbl in labels)
    dr = math.prod(dims) // dt
    return 16.0 * dt**3 * dr**2 * len(kraus)


def _make_check_density_dim3(fock_module):
    def dim3(args: tuple, kwargs: dict) -> float:
        # Only checks at or below the positivity limit run eigvalsh.
        n = _arg(args, kwargs, 0, "matrix").shape[0]
        limit = getattr(fock_module, "_POSITIVITY_DIM_LIMIT", math.inf)
        return float(n**3) if n <= limit else 0.0

    return dim3


def _trials(args: tuple, kwargs: dict) -> float:
    return float(_arg(args, kwargs, 2, "trials"))


class Recorder:
    """In-memory span store: (name, start, end, parent index, work) per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, func, work=None):
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            amount = work(args, kwargs) if work is not None else 0.0
            with lock:
                index = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, amount])
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every target in every qndsim module bound to it; return the missing ones."""
    import importlib

    # montecarlo is imported here although the CLI imports it lazily, so that
    # its functions can be wrapped; the cost lands in trace.overhead_frac.
    modules = {mod: importlib.import_module(f"qndsim.{mod}") for mod in TARGETS}
    loaded = [m for n, m in sys.modules.items() if n == "qndsim" or n.startswith("qndsim.")]
    work = {
        "fock.apply_channel": _apply_channel_flops,
        "fock._check_density": _make_check_density_dim3(modules["fock"]),
        "montecarlo.estimate": _trials,
        "montecarlo.g2_estimate": _trials,
    }
    missing = []
    for mod, names in TARGETS.items():
        for name in names:
            original = getattr(modules[mod], name, None)
            if original is None:
                missing.append(f"{mod}.{name}")
                continue
            wrapper = recorder.wrap(f"{mod}.{name}", original, work.get(f"{mod}.{name}"))
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    return missing


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds (outermost spans only), self seconds, work."""
    out: dict[str, dict[str, float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, amount) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["work"] += amount
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out


def layer_metrics(summaries: list[dict[str, dict[str, float]]]) -> dict[str, float]:
    """Span-derived per-layer metrics for one pass, summed over its invocations.

    Names that never ran (idle layers, or stages removed from the program)
    come out as explicit zeros.
    """
    total: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
            for key, value in entry.items():
                acc[key] += value
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0}
    get = lambda name: total.get(name, empty)
    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        if metric.startswith(("import.", "trace.")):
            continue
        if metric == "cli.write_s":
            out[metric] = get("cli.run")["s"] - get("cli.build_figure")["s"]
        elif metric == "fock.apply_channel.gflop":
            out[metric] = get("fock.apply_channel")["work"] / 1e9
        elif metric == "fock._check_density.eig_dim3":
            out[metric] = get("fock._check_density")["work"]
        elif metric == "montecarlo.trials":
            out[metric] = get("montecarlo.estimate")["work"] + get("montecarlo.g2_estimate")["work"]
        else:
            name, field = metric.rsplit(".", 1)
            out[metric] = get(name)[field]
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def main(argv: list[str]) -> int:
    spans_path, invocation, qndsim_argv = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    missing = install(recorder)
    from qndsim.cli import main as qndsim_main

    try:
        return qndsim_main(qndsim_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": invocation, "missing": missing, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
