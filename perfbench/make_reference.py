"""Regenerate the reference CSVs the output check compares exact runs against.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known good. Writes
reference/default/ (every exact figure, default config) and
reference/random_seed<REFERENCE_SEED>/ (the random_configs figures of that seed).
"""

from __future__ import annotations

import os
import shutil
import sys

import run


def main() -> int:
    for workload, seed, subdir in (
        ("exact_figures", 0, "default"),
        ("random_configs", run.REFERENCE_SEED, f"random_seed{run.REFERENCE_SEED}"),
    ):
        work_dir = os.path.join(run.OUT_DIR, f"reference-{subdir}")
        target = os.path.join(run.REFERENCE_DIR, subdir)
        os.makedirs(work_dir, exist_ok=True)
        shutil.rmtree(target, ignore_errors=True)
        os.makedirs(target)
        runner = run.Runner(run.build_workload(workload, seed), work_dir)
        for record in runner.run_pass(traced=False)["invocations"]:
            if record["exit_code"] != 0:
                print(f"{record['figure']} exited with code {record['exit_code']}", file=sys.stderr)
                return 1
            shutil.copy(record["csv"], target)
        shutil.rmtree(work_dir)
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
