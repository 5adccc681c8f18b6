"""CSV / JSON export and ingest for run artifacts.

Complex sequence values are serialized with 17 significant digits so a
written sequence re-ingests bit-exactly; all writers are deterministic
functions of their inputs (no timestamps), which makes rerun outputs
byte-identical for identical config and seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .manifold import UnitModulusSequence


def _header(names) -> str:
    return ",".join(names) + "\r\n"


def _quoted(field: str) -> str:
    """A text field as csv.writer quotes it: only if it holds a comma, quote or line break."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def write_sequence_csv(path, seq: UnitModulusSequence) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_header(["index", "real", "imag"]))
        for i, z in enumerate(seq.entries.tolist()):
            fh.write("%d,%.17g,%.17g\r\n" % (i, z.real, z.imag))


def read_sequence_csv(path) -> UnitModulusSequence:
    """Read a sequence CSV; the index column must be 0, 1, ..., n-1 in order, as written."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["index", "real", "imag"]:
        raise ValueError(f"{path}: not a sequence CSV (bad header)")
    for line, r in enumerate(rows[1:], start=2):
        if len(r) != 3:
            raise ValueError(f"{path}: line {line} has {len(r)} fields, expected 3")
        if r[0] != str(line - 2):
            raise ValueError(f"{path}: line {line} has index {r[0]!r}, expected {line - 2}")
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    return UnitModulusSequence(values)


def write_staf_csv(path, values_db: np.ndarray) -> None:
    """The (n, n) surface of radar.staf: row r is range bin r, column k Doppler bin k."""
    n = values_db.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_header(["range_bin"] + [str(k) for k in range(n)]))
        line = "%d" + ",%.10g" * n + "\r\n"
        # one row at a time: a list of every value would hold n^2 Python floats
        for r, row in enumerate(values_db):
            fh.write(line % (r, *row.tolist()))


def write_cut_csv(path, doppler_bins, dopplers, values_db) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_header(["doppler_bin", "doppler", "value_db"]))
        for h, v, db in zip(doppler_bins, dopplers, values_db):
            fh.write("%d,%.10g,%.10g\r\n" % (h, v, db))


def write_spectrum_csv(path, eigenvalues) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_header(["index", "eigenvalue"]))
        for i, ev in enumerate(eigenvalues):
            fh.write("%d,%.17g\r\n" % (i, ev))


def write_trace_csv(path, sections) -> None:
    """sections: iterable of (outer, phase, trace) with rtr or rcg traces."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            _header(["outer", "phase", "iteration", "cost", "grad_norm", "rho", "delta",
                     "step_norm", "accepted", "tcg_stop"])
        )
        for outer, phase, trace in sections:
            if trace is None:
                continue
            for i, it in enumerate(trace.iterations):
                if hasattr(it, "rho"):
                    fh.write(
                        "%d,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%s\r\n"
                        % (outer, phase, i, it.cost, it.grad_norm, it.rho, it.delta,
                           it.step_norm, it.accepted, it.tcg_stop.value)
                    )
                else:
                    fh.write(
                        "%d,%s,%d,%.17g,%.17g,,,%.17g,1,\r\n"
                        % (outer, phase, i, it.cost, it.grad_norm, it.step_norm)
                    )


def write_mc_csv(path, rows) -> None:
    """rows: iterable of (design, error_model, ScrStats)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_header(["design", "error_model", "n_trials", "mean_db", "std_db", "min_db", "max_db"]))
        for design, model, stats in rows:
            fh.write(
                "%s,%s,%d,%.17g,%.17g,%.17g,%.17g\r\n"
                % (_quoted(design), model, stats.n_trials, stats.mean_db, stats.std_db,
                   stats.min_db, stats.max_db)
            )


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_manifest(out_dir, files) -> None:
    missing = [f for f in files if not (Path(out_dir) / f).is_file()]
    if missing:
        raise RuntimeError(f"report references missing output files: {missing}")
