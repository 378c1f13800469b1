"""Command-line interface: figure-style sweeps to CSV plus a reproducibility manifest.

Usage:
    qndsim {fig2,fig3,fig4,table1,figS1,sorter} --config FILE --out DIR
           [--mode exact|mc] [--trials N] [--seed S]
    (sorter runs a fixed configuration and takes no --config)
    qndsim compare MANIFEST_A MANIFEST_B

Exit codes: 0 success, 2 configuration error or unwritable --out, 3 runtime
error, 4 comparison mismatch, 1 unexpected failure. Errors print a JSON object
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
from dataclasses import asdict, replace

# One OpenBLAS thread unless the caller chose otherwise; it must be set before
# numpy loads. No runtime product reaches OpenBLAS's threading size (see
# fock._apply_channel), and the Monte Carlo parallelism is map_sweep's own
# threads, so a second BLAS thread does no work, yet each idle worker spins
# for about 0.1 s of CPU after load. Set here, not in the package, so that a
# library import such as `import qndsim.protocol` leaves the caller's BLAS alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .config import default_config, parse_config, serialize_config
from .errors import ConfigError, QndsimError
from .estimators import EstimateTable, cells_from_table, g2_table, quiet_detectors
from .estimators import sweep_estimates, sweep_with_nodark
from .protocol import ExperimentConfig, mirrored, run_cascade_each

FIGURES = ("fig2", "fig3", "fig4", "table1", "figS1", "sorter")

_FIGURE_CELLS = {
    "fig2": ("p_up1", "p_up2", "p_up1_given_up2", "p_up2_given_up1"),
    "fig3": ("p_up1_given_click", "p_up2_given_click", "p_or_given_click", "p_and_given_click"),
    "fig4": ("p_up2_given_click", "p_up2_given_up1_and_click"),
}
# Click-conditioned sweeps also report a dark-count-free variant of each cell
# (figS1 always carries its own), so the absorbing detectors' dark counts can be
# told apart from the nodes' own. Monte Carlo reads both from the same trials.
_NODARK_FIGURES = ("fig3", "fig4")
# The Monte Carlo oracle does not run these. The number sorter is a reduced
# pipeline; figS1 is the cascade on a mirrored config, which the sampler could
# run once it has streams of its own for the two mirrored runs.
_EXACT_ONLY_FIGURES = ("figS1", "sorter")
# Failing cells that `compare` names in its report.
_WORST_CELLS = 5


def _format(value: str | float | None) -> str:
    """One CSV cell: absent is empty, text as it is, numbers to 15 significant digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".15g")


def _estimate_rows(tables: dict[str, EstimateTable], cells: tuple[str, ...]) -> list[dict[str, float | None]]:
    """Per sweep point: mu, then each table's cells and stderrs, named with its suffix."""
    rows = []
    for point in zip(*(table.rows for table in tables.values())):
        out: dict[str, float | None] = {"mu": point[0].mean_photon}
        for suffix, row in zip(tables, point):
            for cell in cells:
                out[f"{cell}{suffix}"] = row.values[cell]
                out[f"{cell}{suffix}_stderr"] = row.stderrs[cell]
        rows.append(out)
    return rows


def _single_node_table(config: ExperimentConfig) -> list[dict[str, float | None]]:
    """figS1 rows: each node alone, with and without the absorbing detectors' dark counts.

    Node k alone is the cascade on `mirrored(config, k)`, read through its
    p_up{k} cells. The `_nodark` cells weight the same propagation and split
    with `quiet_detectors(config)`'s detectors.
    """
    quiet = quiet_detectors(config)
    detectors = [(config.detector_a, config.detector_b), (quiet.detector_a, quiet.detector_b)]
    mirrors = {node: mirrored(config, node) for node in (1, 2)}
    rows = []
    for mu in config.mean_photon_sweep:
        row: dict[str, float | None] = {"mu": mu}
        nodark = {}
        for node, single in mirrors.items():
            dist, quiet_dist = run_cascade_each(single, mu, detectors)
            up, up_given_click = f"p_up{node}", f"p_up{node}_given_click"
            for cell, value in cells_from_table(dist.table, (up, up_given_click)).items():
                row[cell] = value
                row[f"{cell}_stderr"] = None if value is None else 0.0
            quiet_cells = cells_from_table(quiet_dist.table, (up_given_click,))
            nodark[f"{up_given_click}_nodark"] = quiet_cells[up_given_click]
        rows.append(row | nodark)
    return rows


def build_figure(figure: str, config: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    """(header, rows) of the CSV for one figure selection.

    Each figure is a list of {column: value} rows; the first row's keys are
    the header, and every cell is formatted by `_format`.
    """
    if config.mode == "monte_carlo" and figure in _EXACT_ONLY_FIGURES:
        raise ConfigError(f"{figure} is exact-only; run it with --mode exact")
    rows: list[dict[str, str | float | None]]
    if figure in _FIGURE_CELLS:
        cells = _FIGURE_CELLS[figure]
        if figure in _NODARK_FIGURES:
            tables = dict(zip(("", "_nodark"), sweep_with_nodark(config, cells)))
        else:
            tables = {"": sweep_estimates(config, cells)}
        rows = _estimate_rows(tables, cells)
    elif figure == "figS1":
        rows = _single_node_table(config)
    elif figure == "table1":
        mu = 0.45 if 0.45 in config.mean_photon_sweep else config.mean_photon_sweep[-1]
        rows = [
            {
                "condition": row.condition,
                "g2_zero": row.g2_zero,
                "g2_zero_stderr": row.g2_zero_stderr,
                "g2_tau_ne0": row.g2_tau,
                "g2_tau_ne0_stderr": row.g2_tau_stderr,
                "tau_mode": row.tau_mode,
            }
            for row in g2_table(config, mu)
        ]
    elif figure == "sorter":
        # Only this selection runs the sorter, so only it imports the module.
        from .sorter import SORTER_CONFIG, run_sorter

        rows = [
            {
                "herald": str(res.herald),
                "probability": res.probability,
                "fidelity": res.fidelity,
                "mean_photon_out": sum(n * p for n, p in enumerate(res.numbers)),
            }
            for res in run_sorter(SORTER_CONFIG)
        ]
    else:
        raise ConfigError(f"unknown figure {figure!r}; choose from {FIGURES}")
    header = list(rows[0])
    return header, [[_format(row[column]) for column in header] for row in rows]


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
) -> dict:
    """Write one figure CSV plus manifest.json to out_dir, and return the manifest.

    Run settings that are given override the config's. The manifest's
    "config" is the config's file form; for the sorter, which does not read
    it, it is the fields of `sorter.SORTER_CONFIG`, the SorterConfig that ran.
    """
    overrides = {"mode": mode, "trials": trials, "seed": seed}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})

    csv_path = os.path.join(out_dir, f"{figure}.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    created: list[str] = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        header, rows = build_figure(figure, config)
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            created.append(csv_path)
            fh.write("".join(",".join(row) + "\n" for row in [header, *rows]))
        if figure == "sorter":
            from .sorter import SORTER_CONFIG

            recorded = asdict(SORTER_CONFIG)
        else:
            recorded = serialize_config(config)
        manifest = {
            "artifact": "qndsim",
            "artifact_version": __version__,
            "figure": figure,
            "mode": config.mode,
            "trials": config.trials,
            "seed": config.seed,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": recorded,
            "files": [{"name": os.path.basename(csv_path), "sha256": _sha256(csv_path)}],
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            created.append(manifest_path)
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return manifest
    except BaseException as exc:
        for path in created:
            try:
                os.unlink(path)
            except OSError:
                pass
        if isinstance(exc, OSError):  # an output directory or file that cannot be made
            raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from None
        raise


def _load_csv(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    if not lines:
        raise ConfigError(f"{path} is empty: no header row")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for index, row in enumerate(rows):
        if len(row) != len(header):
            raise ConfigError(f"{path} row {index} has {len(row)} cells, header has {len(header)}")
    return header, rows


def _manifest_files(path: str) -> set[str]:
    """Names of the files a run manifest lists."""
    try:
        with open(path, encoding="utf-8") as fh:
            return {f["name"] for f in json.load(fh)["files"]}
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError):
        raise ConfigError(f"{path} is not a run manifest: no list of named files") from None


def compare(manifest_a: str, manifest_b: str) -> dict:
    """Cell-wise comparison of two runs; 3-sigma aware when stderr columns exist.

    A value cell passes when both runs write the same text or the values
    differ by at most 3 sigma (both runs' stderrs added in quadrature) or,
    without stderrs, 1e-12. "worst" names up to five failing cells as file,
    data row (0-based), column, diff and sigma, ordered by diff over its
    bound; a cell that cannot be differenced (only one run has it, or a value
    or stderr is not a finite number) has diff None and ranks first.
    """
    reports = {}
    files_a, files_b = _manifest_files(manifest_a), _manifest_files(manifest_b)
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
                if cell_a == cell_b:
                    continue
                cell = {"file": name, "row": row_index, "column": column, "diff": None, "sigma": None}
                err_col = f"{column}_stderr"
                stderrs = [row[header_a.index(err_col)] for row in (row_a, row_b) if err_col in header_a]
                try:
                    diff = abs(float(cell_a) - float(cell_b))
                    sigma = math.hypot(*(float(err) for err in stderrs if err))
                except ValueError:
                    diff = sigma = math.nan
                if not math.isfinite(diff + sigma):
                    failures.append((math.inf, cell))
                    continue
                file_max = max(file_max, diff)
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
        if args.command == "sorter" and args.config:
            raise ConfigError("sorter runs a fixed SorterConfig and reads no --config")
        config = parse_config(args.config) if args.config else default_config()
        manifest = run(
            args.command,
            config,
            args.out,
            mode=args.mode,
            trials=args.trials,
            seed=args.seed,
        )
        print(json.dumps(manifest, indent=2, sort_keys=True))
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
