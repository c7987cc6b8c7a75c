"""Correctness oracles for the benchmark's CLI outputs.

Each oracle takes the artifacts one op wrote (parsed report, CSV text, dump
payload) and returns a list of failure messages; an empty list means the
output is correct.  They run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

from bladegauge.blade import random_smooth_frame
from bladegauge.dynamics import (LatticeBlade, modified_eom_residual,
                                 shape_gauge_ym_residual, sigma_lattice_energy)
from bladegauge.fields import MINKOWSKI4
from bladegauge.linalg import max_abs
from bladegauge.tolerances import DEFAULT as TOLERANCES

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
RESIDUAL_ROWS_RECOMPUTED = 4


def without_timestamp(text):
    """Report text with the one field allowed to differ between runs blanked."""
    return _TIMESTAMP.sub('"timestamp": ""', text)


def residual_failures(report, csv_text, eq, frame_seed, ambient, rank, pick_seed):
    """Check a `residuals` report and its CSV against an FD-only recomputation.

    A seeded subset of rows is recomputed through the frame with analytic
    derivatives stripped (`random_smooth_frame(..., analytic=False)`); each
    recomputed norm must agree with the CSV within `TOLERANCES.fd_nested()`.
    The report summary must match the CSV rows it summarizes.
    """
    failures = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    header, rows = rows[0], rows[1:]
    dim = MINKOWSKI4.dim
    points = math.prod(report["grid"]["cells"])
    expected = points * (1 if eq == "modified" else dim)
    if len(rows) != expected:
        return [f"{eq}: {len(rows)} CSV rows, expected {expected}"]
    if header[:dim] != [f"x{i}" for i in range(dim)]:
        failures.append(f"{eq}: unexpected CSV header {header}")
    norms = [float(r[-1]) for r in rows]
    summary = report["summary"]
    if summary["count"] != expected:
        failures.append(f"{eq}: summary count {summary['count']} != {expected}")
    for key, value in (("max", max(norms)), ("mean", float(np.mean(norms)))):
        if not math.isclose(summary[key], value, rel_tol=1e-9):
            failures.append(f"{eq}: summary {key} {summary[key]!r} != CSV {value!r}")
    v = random_smooth_frame(MINKOWSKI4, ambient, rank, frame_seed, analytic=False)
    budget = TOLERANCES.fd_nested()
    rng = np.random.default_rng(pick_seed)
    picked = rng.choice(len(rows), size=min(RESIDUAL_ROWS_RECOMPUTED, len(rows)), replace=False)
    for i in sorted(picked):
        row = rows[i]
        x = np.array([float(c) for c in row[:dim]])
        if eq == "modified":
            oracle = max_abs(modified_eom_residual(v, x))
        else:
            oracle = max_abs(shape_gauge_ym_residual(v, x, int(row[dim])))
        if not abs(oracle - norms[i]) <= budget:
            failures.append(f"{eq}: row {i} norm {norms[i]:.6e} vs FD-only oracle "
                            f"{oracle:.6e} (budget {budget:.1e})")
    return failures


def sigma_flow_failures(report, dump, steps):
    """Check a `sigma-flow` report and its `--dump-final` lattice.

    The energy trace is non-increasing and ends below where it started, the
    final lattice is reflection-valued to `TOLERANCES.algebraic`, and the
    energy of the dumped lattice equals the last trace entry.
    """
    failures = []
    trace = report["energy_trace"]
    if len(trace) != steps + 1:
        failures.append(f"energy trace has {len(trace)} entries, expected {steps + 1}")
    rises = [i for i in range(len(trace) - 1) if not trace[i + 1] <= trace[i]]
    if rises:
        failures.append(f"energy rises after step(s) {rises[:5]}")
    if not trace[-1] < trace[0]:
        failures.append(f"energy did not drop: {trace[0]!r} -> {trace[-1]!r}")
    if not report.get("monotone_nonincreasing"):
        failures.append("report says the trace is not monotone")
    if not report["final_reflection_defect"] <= TOLERANCES.algebraic:
        failures.append(f"final reflection defect {report['final_reflection_defect']!r} "
                        f"> {TOLERANCES.algebraic}")
    # read here rather than through the CLI's own loader, which is under test
    arr = np.asarray(dump["sites"], dtype=float)
    frozen = dump.get("frozen")
    lat = LatticeBlade(arr[..., 0] + 1j * arr[..., 1], tuple(dump["spacings"]),
                       tuple(bool(p) for p in dump["periodic"]),
                       None if frozen is None else np.asarray(frozen, dtype=bool))
    energy = sigma_lattice_energy(lat)
    if energy != trace[-1]:
        failures.append(f"dumped lattice energy {energy!r} != last trace entry {trace[-1]!r}")
    return failures


def verify_failures(report, exit_code):
    """`verify` must exit 0 with every check passed (expected-fail checks included)."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    checks = report.get("checks", [])
    if not checks:
        failures.append("report has no checks")
    failures += [f"check {c['name']} did not pass" for c in checks if c.get("passed") is not True]
    return failures
