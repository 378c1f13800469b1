"""qndsim benchmark: cold `qndsim <figure>` passes, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qndsim is imported from ./src. A *pass* runs
each of the workload's CLI invocations once, in sequence, each in a fresh
interpreter (import included), with one client and never more than one child
at a time (closed loop). BLAS and QNDSIM_THREADS settings are inherited, not set.

--trace 0 reports the end-to-end metrics: set-up time, median pass wall and
CPU time, peak RSS. --trace 1 alternates untraced passes with passes whose
children run under tracer.py and reports per-layer metrics per pass, plus the
tracing overhead. Every CSV is checked (outcheck.py); the last stdout line is
the JSON result, and a fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable

import configs
import outcheck
import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Seed whose generated configs have stored reference CSVs.
REFERENCE_SEED = 1
SETUPS_PER_PASS = 2
IMPORT_PROBES = 3
MIN_PASSES = 2
MC_TRIALS = 100_000
CHILD_TIMEOUT_S = 150.0

CLI = ["-c", "import sys; from qndsim.cli import main; sys.exit(main())"]
SETUP = ["-c", "import qndsim; from qndsim.config import default_config; default_config()"]
EXACT_FIGURES = ("fig2", "fig3", "fig4", "table1", "figS1", "sorter")
MC_FIGURES = ("fig3", "table1")
RANDOM_FIGURES = ("fig2", "fig3", "table1", "figS1")

WORKLOADS = ("exact_figures", "mc_figures", "random_configs")


@dataclasses.dataclass(frozen=True)
class Invocation:
    figure: str
    args: tuple[str, ...]
    check: Callable[[str], list[str]]
    config_text: str | None = None


def _reference(*parts: str) -> str:
    return os.path.join(REFERENCE_DIR, *parts)


def build_workload(name: str, seed: int) -> list[Invocation]:
    if name == "exact_figures":
        return [
            Invocation(fig, (), lambda p, fig=fig: outcheck.compare_exact(p, _reference("default", f"{fig}.csv")))
            for fig in EXACT_FIGURES
        ]
    if name == "mc_figures":
        args = ("--mode", "mc", "--trials", str(MC_TRIALS), "--seed", str(seed))
        return [
            Invocation(fig, args, lambda p, fig=fig: outcheck.compare_mc(p, _reference("default", f"{fig}.csv")))
            for fig in MC_FIGURES
        ]
    if name == "random_configs":
        texts = configs.generate(seed)
        ref_dir = _reference(f"random_seed{seed}")
        out = []
        for fig, text in zip(RANDOM_FIGURES, texts, strict=True):
            if os.path.isdir(ref_dir):
                check = lambda p, fig=fig: outcheck.compare_exact(p, os.path.join(ref_dir, f"{fig}.csv"))
            else:
                check = lambda p, fig=fig: outcheck.check_invariants(p, fig, configs.SWEEP_POINTS)
            out.append(Invocation(fig, (), check, text))
        return out
    raise ValueError(f"unknown workload {name!r}")


def _spawn(argv: list[str], env: dict[str, str], stderr_path: str) -> tuple[float, int, os.struct_rusage]:
    """Run one child to completion; (wall seconds, exit code, its resource usage)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


class Runner:
    """Runs passes of a list of invocations, keeping every record in memory."""

    def __init__(self, invocations: list[Invocation], work_dir: str):
        self.invocations = invocations
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.config_paths = []
        for i, inv in enumerate(self.invocations):
            path = None
            if inv.config_text is not None:
                path = os.path.join(work_dir, f"config{i}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(inv.config_text)
            self.config_paths.append(path)
        self.passes: list[dict] = []

    def child(self, args: list[str], tag: str) -> tuple[float, int, os.struct_rusage]:
        return _spawn([sys.executable, *args], self.env, os.path.join(self.work_dir, f"{tag}.err"))

    def run_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        records, summaries = [], []
        for i, inv in enumerate(self.invocations):
            tag = f"p{index}-i{i}"
            out = os.path.join(self.work_dir, tag)
            argv = [inv.figure, "--out", out, *inv.args]
            if self.config_paths[i]:
                argv += ["--config", self.config_paths[i]]
            spans_path = os.path.join(self.work_dir, f"{tag}.spans.json")
            prefix = [os.path.join(BENCH_DIR, "tracer.py"), spans_path, tag] if traced else CLI
            wall, code, usage = self.child([*prefix, *argv], tag)
            csv_path = os.path.join(out, f"{inv.figure}.csv")
            if code != 0:
                with open(os.path.join(self.work_dir, f"{tag}.err"), encoding="utf-8", errors="replace") as fh:
                    problems = [f"exit code {code}: {fh.read().strip()[-500:]}"]
            elif not os.path.isfile(csv_path):
                problems = [f"no {inv.figure}.csv written"]
            else:
                problems = inv.check(csv_path)
            if traced and os.path.isfile(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    summaries.append(tracer.summarize(json.load(fh)["spans"]))
            records.append(
                {
                    "figure": inv.figure,
                    "args": argv,
                    "wall_s": wall,
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "max_rss_mb": usage.ru_maxrss / 1024.0,
                    "exit_code": code,
                    "csv": csv_path,
                    "problems": problems,
                }
            )
        record = {
            "traced": traced,
            # The children's time only; the harness's checks are not the user's.
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "invocations": records,
        }
        if traced:
            record["layers"] = tracer.layer_metrics(summaries)
        self.passes.append(record)
        return record

    def check_reruns(self) -> None:
        """Every pass must write byte-identical CSVs for the same invocation."""
        first = self.passes[0]["invocations"]
        for record in self.passes[1:]:
            for base, again in zip(first, record["invocations"]):
                if base["problems"] or again["problems"]:
                    continue
                with open(base["csv"], "rb") as a, open(again["csv"], "rb") as b:
                    if a.read() != b.read():
                        again["problems"].append(f"{again['csv']} differs from the first pass's bytes")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def import_times(runner: Runner) -> dict[str, float]:
    """Cumulative import seconds of qndsim, scipy and numpy in `import qndsim.cli`.

    From `python -X importtime`; a package's time counts its outermost
    modules only, so a nested `scipy.linalg` under `scipy` is not added twice.
    """
    samples: dict[str, list[float]] = {"qndsim": [], "scipy": [], "numpy": []}
    for probe in range(IMPORT_PROBES):
        err_path = os.path.join(runner.work_dir, f"importtime{probe}.err")
        _, code, _ = runner.child(["-X", "importtime", "-c", "import qndsim.cli"], f"importtime{probe}")
        if code != 0:
            raise RuntimeError(f"import probe exited with code {code}")
        with open(err_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        totals = dict.fromkeys(samples, 0)
        stack: list[tuple[int, str]] = []
        for line in reversed(lines):  # parents are printed after their children
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            depth = len(parts[2]) - len(parts[2].lstrip())
            package = parts[2].strip().split(".")[0]
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if package in totals and all(p != package for _, p in stack):
                totals[package] += int(parts[1])
            stack.append((depth, package))
        for package, micros in totals.items():
            samples[package].append(micros / 1e6)
    return {f"import.{p}_s": statistics.median(v) for p, v in samples.items()}


def environment() -> dict:
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "QNDSIM_THREADS": os.environ.get("QNDSIM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _loadavg() -> str:
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return fh.read().strip()


def measure(args: argparse.Namespace, runner: Runner) -> tuple[dict, dict]:
    """Returns (metrics as {name: (value, unit)}, extra record fields)."""
    if not args.trace:
        # Set-ups bracket every pass, so a slow stretch of the host moves
        # setup_s no more than it moves the passes around it.
        setups: list[float] = []

        def set_up() -> float:
            start = time.perf_counter()
            for _ in range(SETUPS_PER_PASS):
                wall, code, _ = runner.child(SETUP, f"setup{len(setups)}")
                if code != 0:
                    raise RuntimeError(f"set-up exited with code {code}")
                setups.append(wall)
            return time.perf_counter() - start

        deadline = time.perf_counter() + args.seconds
        cycles: list[float] = []
        while True:
            cost = set_up()
            if len(cycles) >= MIN_PASSES and deadline - time.perf_counter() < statistics.median(cycles):
                break
            start = time.perf_counter()
            runner.run_pass(traced=False)
            cycles.append(cost + time.perf_counter() - start)
        passes = runner.passes
        walls = [p["wall_s"] for p in passes]
        cpus = [p["cpu_s"] for p in passes]
        rss = max(r["max_rss_mb"] for p in passes for r in p["invocations"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s.p50": (statistics.median(walls), "s"),
            "cpu_s.p50": (statistics.median(cpus), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups, quartiles %.4f-%.4f" % _quartiles(setups),
            "pass_s.p50": f"median of {len(walls)} passes of {len(runner.invocations)} invocations, quartiles %.4f-%.4f" % _quartiles(walls),
            "cpu_s.p50": f"median of {len(cpus)} passes, children's user+sys, quartiles %.4f-%.4f" % _quartiles(cpus),
            "peak_rss_mb": f"max over {sum(len(p['invocations']) for p in passes)} invocations",
        }
        return metrics, {"setup_samples_s": setups, "notes": notes}

    layer = import_times(runner)
    deadline = time.perf_counter() + args.seconds
    pairs: list[float] = []
    while not pairs or deadline - time.perf_counter() >= statistics.median(pairs):
        plain = runner.run_pass(traced=False)["wall_s"]
        traced = runner.run_pass(traced=True)["wall_s"]
        pairs.append(plain + traced)
    plain_walls = [p["wall_s"] for p in runner.passes if not p["traced"]]
    traced_passes = [p for p in runner.passes if p["traced"]]
    traced_walls = [p["wall_s"] for p in traced_passes]
    layer.update(tracer.median_metrics([p["layers"] for p in traced_passes]))
    base = statistics.median(plain_walls)
    layer["trace.overhead_frac"] = (statistics.median(traced_walls) - base) / base
    units = dict(tracer.LAYER_METRICS)
    metrics = {name: (layer[name], units[name]) for name, _ in tracer.LAYER_METRICS}
    notes = {"per_layer": f"per pass, median over {len(traced_passes)} traced passes; imports median of {IMPORT_PROBES} probes"}
    return metrics, {"notes": notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qndsim", "cli.py")):
        print("perfbench: src/qndsim not found; run from the root of a qndsim checkout", file=sys.stderr)
        return 2

    load_before = _loadavg()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir = os.path.join(OUT_DIR, name)
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner = Runner(build_workload(args.workload, args.seed), work_dir)
        metrics, record = measure(args, runner)
        runner.check_reruns()
    finally:
        load_after = _loadavg()
    invocations = [r for p in runner.passes for r in p["invocations"]]
    failed = sum(1 for r in invocations if r["problems"])
    env = {**environment(), "loadavg_before": load_before, "loadavg_after": load_after}

    result_path = os.path.join(OUT_DIR, f"{name}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "configs": [inv.config_text for inv in runner.invocations if inv.config_text],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                **record,
                "passes": runner.passes,
            },
            fh,
            indent=1,
        )
    shutil.rmtree(work_dir, ignore_errors=True)

    for r in invocations:
        for problem in r["problems"]:
            print(f"FAILED {r['figure']}: {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.workload == "random_configs":
        print(f"configs: {len(runner.invocations)} generated from seed {args.seed}, text in {os.path.relpath(result_path)}")
    for key, (value, unit) in metrics.items():
        note = record["notes"].get(key, "")
        print(f"{key} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"failed_frac = {failed / len(invocations):.6g}  ({failed} of {len(invocations)} invocations)")
    if args.trace:
        print(record["notes"]["per_layer"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(invocations),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
