"""Command-line interface: figure-style sweeps to CSV plus a reproducibility manifest.

Usage:
    qndsim {fig2,fig3,fig4,table1,figS1,sorter} --config FILE --out DIR
           [--mode exact|mc] [--trials N] [--seed S]
    qndsim compare MANIFEST_A MANIFEST_B

Exit codes: 0 success, 2 configuration error, 3 runtime error,
4 comparison mismatch, 1 unexpected failure. Errors print a JSON object
{"category": ..., "message": ...} on stderr. The runtime needs only numpy.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from . import __version__
from .config import default_config, parse_config, serialize_config
from .errors import ConfigError, QndsimError
from .estimators import EstimateTable, g2_table, quiet_detectors, sweep_estimates
from .protocol import ExperimentConfig, run_single
from .sorter import SorterConfig, run_sorter

FIGURES = ("fig2", "fig3", "fig4", "table1", "figS1", "sorter")

_FIGURE_CELLS = {
    "fig2": ("p_up1", "p_up2", "p_up1_given_up2", "p_up2_given_up1"),
    "fig3": ("p_up1_given_click", "p_up2_given_click", "p_or_given_click", "p_and_given_click"),
    "fig4": ("p_up2_given_click", "p_up2_given_up1_and_click"),
}
# Click-conditioned sweeps also report a dark-count-free variant of each cell
# (figS1 always carries its own).
_NODARK_FIGURES = ("fig3", "fig4")
# The Monte Carlo oracle samples the full cascade; the single-node
# characterization and the number sorter are reduced pipelines it does not run.
_EXACT_ONLY_FIGURES = ("figS1", "sorter")
# Failing cells that `compare` names in its report.
_WORST_CELLS = 5


def _format_number(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".15g")


def _table_rows(table: EstimateTable, cells: tuple[str, ...]) -> list[dict[str, float | None]]:
    rows = []
    for row in table.rows:
        out: dict[str, float | None] = {"mu": row.mean_photon}
        for cell in cells:
            out[cell] = row.values[cell]
            out[f"{cell}_stderr"] = row.stderrs[cell]
        rows.append(out)
    return rows


def _merge_nodark(
    rows: list[dict[str, float | None]],
    nodark: EstimateTable,
    cells: tuple[str, ...],
) -> list[dict[str, float | None]]:
    for row, nd in zip(rows, nodark.rows):
        for cell in cells:
            row[f"{cell}_nodark"] = nd.values[cell]
            row[f"{cell}_nodark_stderr"] = nd.stderrs[cell]
    return rows


def _single_node_table(config: ExperimentConfig) -> list[dict[str, float | None]]:
    def cells_for(mu: float) -> dict[str, float | None]:
        out: dict[str, float | None] = {"mu": mu}
        for node in (1, 2):
            dist = run_single(config, node, mu)
            p_click = dist.prob(lambda o: o.da or o.db)
            p_up = dist.prob(lambda o: o.s)
            out[f"p_up{node}"] = p_up
            out[f"p_up{node}_stderr"] = 0.0
            if p_click > 0:
                val = dist.prob(lambda o: o.s and (o.da or o.db)) / p_click
            else:
                val = None
            out[f"p_up{node}_given_click"] = val
            out[f"p_up{node}_given_click_stderr"] = 0.0 if val is not None else None
        return out

    return [cells_for(mu) for mu in config.mean_photon_sweep]


def build_figure(figure: str, config: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of the CSV for one figure selection."""
    if config.mode == "monte_carlo" and figure in _EXACT_ONLY_FIGURES:
        raise ConfigError(f"{figure} is exact-only; run it with --mode exact")
    if figure in ("fig2", "fig3", "fig4"):
        cells = _FIGURE_CELLS[figure]
        table = sweep_estimates(config)
        rows = _table_rows(table, cells)
        if figure in _NODARK_FIGURES:
            nodark = sweep_estimates(quiet_detectors(config))
            rows = _merge_nodark(rows, nodark, cells)
        header = list(rows[0].keys())
        return header, [[_format_number(r[k]) for k in header] for r in rows]
    if figure == "figS1":
        rows = _single_node_table(config)
        quiet_rows = _single_node_table(quiet_detectors(config))
        for row, quiet in zip(rows, quiet_rows):
            for node in (1, 2):
                row[f"p_up{node}_given_click_nodark"] = quiet[f"p_up{node}_given_click"]
        header = list(rows[0].keys())
        return header, [[_format_number(r[k]) for k in header] for r in rows]
    if figure == "table1":
        mu = 0.45 if 0.45 in config.mean_photon_sweep else config.mean_photon_sweep[-1]
        header = ["condition", "g2_zero", "g2_zero_stderr", "g2_tau_ne0", "g2_tau_ne0_stderr", "tau_mode"]
        out_rows = []
        for row in g2_table(config, mu):
            out_rows.append(
                [
                    row.condition,
                    _format_number(row.g2_zero),
                    _format_number(row.g2_zero_stderr),
                    _format_number(row.g2_tau),
                    _format_number(row.g2_tau_stderr),
                    row.tau_mode,
                ]
            )
        return header, out_rows
    if figure == "sorter":
        sorter_cfg = SorterConfig(k=2, input_kind="coherent", mean_photon=0.5, n_max=3)
        header = ["herald", "probability", "fidelity", "mean_photon_out"]
        out_rows = []
        for res in run_sorter(sorter_cfg):
            out_rows.append(
                [
                    str(res.herald),
                    _format_number(res.probability),
                    _format_number(res.fidelity),
                    _format_number(res.state.mean_photon()),
                ]
            )
        return header, out_rows
    raise ConfigError(f"unknown figure {figure!r}; choose from {FIGURES}")


@dataclass(frozen=True)
class RunManifest:
    figure: str
    mode: str
    trials: int
    seed: int
    artifact_version: str
    timestamp: str
    config_text: str
    files: tuple[dict[str, str], ...]

    def to_json(self) -> str:
        payload = {
            "artifact": "qndsim",
            "artifact_version": self.artifact_version,
            "figure": self.figure,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "timestamp": self.timestamp,
            "config": self.config_text,
            "files": list(self.files),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(
    figure: str,
    config: ExperimentConfig,
    out_dir: str,
    mode: str | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> RunManifest:
    """Produce one figure CSV plus manifest.json in out_dir; given run settings override config's."""
    overrides = {"mode": mode, "trials": trials, "seed": seed}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{figure}.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    created: list[str] = []
    try:
        header, rows = build_figure(figure, config)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        created.append(csv_path)
        manifest = RunManifest(
            figure=figure,
            mode=config.mode,
            trials=config.trials,
            seed=config.seed,
            artifact_version=__version__,
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            config_text=serialize_config(config),
            files=({"name": os.path.basename(csv_path), "sha256": _sha256(csv_path)},),
        )
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json() + "\n")
        created.append(manifest_path)
        return manifest
    except BaseException:
        for path in created:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


def _load_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def compare(manifest_a: str, manifest_b: str) -> dict:
    """Cell-wise comparison of two runs; 3-sigma aware when stderr columns exist.

    A value cell fails when only one run has it, or when the two values differ
    by more than 3 sigma (both runs' stderrs added in quadrature) or, without
    stderrs, by more than 1e-12. "worst" names up to five failing cells as
    file, data row (0-based), column, diff and sigma, ordered by diff over its
    bound; a cell that cannot be differenced has diff None and ranks first.
    """
    reports = {}
    with open(manifest_a, encoding="utf-8") as fh:
        ma = json.load(fh)
    with open(manifest_b, encoding="utf-8") as fh:
        mb = json.load(fh)
    files_a = {f["name"] for f in ma["files"]}
    files_b = {f["name"] for f in mb["files"]}
    if files_a != files_b:
        raise ConfigError(f"manifests list different files: {sorted(files_a)} vs {sorted(files_b)}")
    max_dev = 0.0
    cells_checked = 0
    failures: list[tuple[float, dict]] = []  # (diff over its bound, cell)
    for name in sorted(files_a):
        path_a = os.path.join(os.path.dirname(os.path.abspath(manifest_a)), name)
        path_b = os.path.join(os.path.dirname(os.path.abspath(manifest_b)), name)
        header_a, rows_a = _load_csv(path_a)
        header_b, rows_b = _load_csv(path_b)
        if header_a != header_b or len(rows_a) != len(rows_b):
            raise ConfigError(f"schema mismatch in {name}")
        file_max = 0.0
        for row_index, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
                column = header_a[col]
                if column.endswith("_stderr") or column in ("condition", "tau_mode"):
                    continue
                if not cell_a and not cell_b:
                    continue
                cells_checked += 1
                cell = {"file": name, "row": row_index, "column": column, "diff": None, "sigma": None}
                if bool(cell_a) != bool(cell_b):
                    failures.append((math.inf, cell))
                    continue
                try:
                    va, vb = float(cell_a), float(cell_b)
                except ValueError:
                    if cell_a != cell_b:
                        failures.append((math.inf, cell))
                    continue
                diff = abs(va - vb)
                file_max = max(file_max, diff)
                err_col = f"{column}_stderr"
                sigma = 0.0
                if err_col in header_a:
                    idx = header_a.index(err_col)
                    for row in (row_a, row_b):
                        if row[idx]:
                            sigma = math.hypot(sigma, float(row[idx]))
                bound = 3.0 * sigma if sigma > 0.0 else 1e-12
                if diff > bound:
                    failures.append((diff / bound, {**cell, "diff": diff, "sigma": sigma}))
        reports[name] = {"max_abs_diff": file_max}
        max_dev = max(max_dev, file_max)
    failures.sort(key=lambda f: f[0], reverse=True)
    return {
        "files": reports,
        "max_abs_diff": max_dev,
        "cells_checked": cells_checked,
        "sigma_violations": len(failures),
        "worst": [cell for _, cell in failures[:_WORST_CELLS]],
        "pass": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qndsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for fig in FIGURES:
        p = sub.add_parser(fig, help=f"emit the {fig} data set")
        p.add_argument("--config", default=None, help="flat-text config; defaults apply if omitted")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--mode", choices=("exact", "mc", "monte_carlo"), default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    cmp_parser = sub.add_parser("compare", help="diff two run manifests")
    cmp_parser.add_argument("manifest_a")
    cmp_parser.add_argument("manifest_b")

    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            report = compare(args.manifest_a, args.manifest_b)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["pass"] else 4
        config = parse_config(args.config) if args.config else default_config()
        manifest = run(
            args.command,
            config,
            args.out,
            mode=args.mode,
            trials=args.trials,
            seed=args.seed,
        )
        print(manifest.to_json())
        return 0
    except ConfigError as exc:
        print(json.dumps({"category": exc.category, "message": str(exc)}), file=sys.stderr)
        return 2
    except QndsimError as exc:
        print(json.dumps({"category": exc.category, "message": str(exc)}), file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - unexpected
        print(json.dumps({"category": "unexpected", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
