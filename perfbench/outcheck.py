"""Checks of the CSVs a qndsim invocation writes.

Each function returns a list of problems; an empty list means the file
passed. Exact CSVs must match a stored reference to EXACT_TOL per cell (the
bound `qndsim compare` uses for cells without a standard error); Monte Carlo
CSVs must lie within MC_SIGMAS standard errors of the exact reference; CSVs
of generated configs without a stored reference must satisfy invariants.
"""

from __future__ import annotations

import math

EXACT_TOL = 1e-12
# Over the hundreds of cells a benchmark run checks, five standard errors
# keep the chance of a false alarm per run near 1e-4.
MC_SIGMAS = 5.0
_TEXT_COLUMNS = ("condition", "tau_mode")
_G2_CONDITIONS = ["none", "up1", "up2", "up1_and_up2"]


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _load_pair(path: str, ref_path: str):
    """(header, rows, ref_header, ref_rows, problems) of a CSV and its reference."""
    try:
        header, rows = read_csv(path)
        ref_header, ref_rows = read_csv(ref_path)
    except OSError as exc:
        return [], [], [], [], [f"cannot read: {exc}"]
    return header, rows, ref_header, ref_rows, _shape_problems(path, header, rows, ref_header, ref_rows)


def _shape_problems(name: str, header, rows, ref_header, ref_rows) -> list[str]:
    if header != ref_header:
        return [f"{name}: header differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    if any(len(row) != len(header) for row in rows):
        return [f"{name}: a row has the wrong number of cells"]
    return []


def compare_exact(path: str, ref_path: str) -> list[str]:
    """Every cell within EXACT_TOL of the reference; text and empty cells equal."""
    header, rows, ref_header, ref_rows, problems = _load_pair(path, ref_path)
    if problems:
        return problems
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, cell, ref_cell in zip(header, row, ref):
            if cell == ref_cell:
                continue
            try:
                diff = abs(float(cell) - float(ref_cell))
            except ValueError:
                diff = math.inf
            if not diff <= EXACT_TOL:
                problems.append(f"{path}: row {r} {col}: {cell!r} vs reference {ref_cell!r}")
    return problems


def compare_mc(path: str, ref_path: str) -> list[str]:
    """Each sampled value within MC_SIGMAS of its own standard errors of the exact value."""
    header, rows, ref_header, ref_rows, problems = _load_pair(path, ref_path)
    if problems:
        return problems
    index = {col: i for i, col in enumerate(header)}
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, i in index.items():
            if col.endswith("_stderr") or col == "tau_mode":
                continue
            if col in ("mu", "condition"):
                if row[i] != ref[i]:
                    problems.append(f"{path}: row {r} {col}: {row[i]!r} vs {ref[i]!r}")
                continue
            err_col = index.get(f"{col}_stderr")
            try:
                value, exact = float(row[i]), float(ref[i])
                stderr = float(row[err_col]) if err_col is not None else math.nan
            except ValueError:
                problems.append(f"{path}: row {r} {col}: missing or unreadable value or stderr")
                continue
            if not abs(value - exact) <= MC_SIGMAS * stderr:
                problems.append(
                    f"{path}: row {r} {col}: {value} is {abs(value - exact) / max(stderr, 1e-300):.1f} "
                    f"standard errors from the exact {exact}"
                )
    return problems


def check_invariants(path: str, figure: str, sweep_len: int) -> list[str]:
    """Structure and ranges a CSV of any valid config must satisfy."""
    header, rows = read_csv(path)
    if not header:
        return [f"{path}: empty"]
    if any(len(row) != len(header) for row in rows):
        return [f"{path}: a row has the wrong number of cells"]
    problems = []
    expected_rows = 4 if figure == "table1" else sweep_len
    if len(rows) != expected_rows:
        problems.append(f"{path}: {len(rows)} rows, expected {expected_rows}")
    if figure in ("fig3", "fig4", "figS1") and not any(c.endswith("_nodark") for c in header):
        problems.append(f"{path}: no *_nodark columns")
    if figure == "table1" and [row[0] for row in rows] != _G2_CONDITIONS:
        problems.append(f"{path}: conditions {[row[0] for row in rows]}")
    for r, row in enumerate(rows):
        for col, cell in zip(header, row):
            if col in _TEXT_COLUMNS or col == "mu" or not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if col.endswith("_stderr") or col.startswith("g2_"):
                ok = value >= 0.0 and math.isfinite(value)
            else:
                ok = -EXACT_TOL <= value <= 1.0 + EXACT_TOL
            if not ok:
                problems.append(f"{path}: row {r} {col} = {value} out of range")
    return problems
