"""CSV / JSON export and ingest for run artifacts.

Complex sequence values are serialized with 17 significant digits so a
written sequence re-ingests bit-exactly; all writers are deterministic
functions of their inputs (no timestamps), which makes rerun outputs
byte-identical for identical config and seed. `_write_csv` is the one
place that fixes the CSV dialect: UTF-8, CRLF line ends, a header row.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .manifold import UnitModulusSequence


def _write_csv(path, header, lines) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line + "\r\n" for line in lines)


def _quoted(field: str) -> str:
    """A text field as csv.writer quotes it: only if it holds a comma, quote or line break."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def write_sequence_csv(path, seq: UnitModulusSequence) -> None:
    _write_csv(path, ["index", "real", "imag"],
               ("%d,%.17g,%.17g" % (i, z.real, z.imag) for i, z in enumerate(seq.entries.tolist())))


def read_sequence_csv(path) -> UnitModulusSequence:
    """Read a sequence CSV; the index column must be 0, 1, ..., n-1 in order, as written."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # a field past the csv module's size limit, say
            raise ValueError(str(exc)) from exc
    if not rows or rows[0] != ["index", "real", "imag"]:
        raise ValueError("not a sequence CSV (bad header)")
    for line, r in enumerate(rows[1:], start=2):
        if len(r) != 3:
            raise ValueError(f"line {line} has {len(r)} fields, expected 3")
        if r[0] != str(line - 2):
            raise ValueError(f"line {line} has index {r[0]!r}, expected {line - 2}")
    values = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    return UnitModulusSequence(values)


def write_staf_csv(path, values_db: np.ndarray) -> None:
    """The (n, n) surface of radar.staf: row r is range bin r, column k Doppler bin k."""
    n = values_db.shape[1]
    line = "%d" + ",%.10g" * n
    # one row at a time: a list of every value would hold n^2 Python floats
    _write_csv(path, ["range_bin"] + [str(k) for k in range(n)],
               (line % (r, *row.tolist()) for r, row in enumerate(values_db)))


def write_cut_csv(path, doppler_bins, dopplers, values_db) -> None:
    _write_csv(path, ["doppler_bin", "doppler", "value_db"],
               ("%d,%.10g,%.10g" % row for row in zip(doppler_bins, dopplers, values_db)))


def write_spectrum_csv(path, eigenvalues) -> None:
    _write_csv(path, ["index", "eigenvalue"], ("%d,%.17g" % row for row in enumerate(eigenvalues)))


def _trace_line(outer, phase, i, it) -> str:
    if hasattr(it, "rho"):
        return "%d,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%s" % (outer, phase, i, it.cost, it.grad_norm,
                                                                it.rho, it.delta, it.step_norm, it.accepted,
                                                                it.tcg_stop.value)
    # an RCG row has no trust region
    return "%d,%s,%d,%.17g,%.17g,,,%.17g,1," % (outer, phase, i, it.cost, it.grad_norm, it.step_norm)


def write_trace_csv(path, sections) -> None:
    """sections: iterable of (outer, phase, trace) with rtr or rcg traces."""
    _write_csv(path, ["outer", "phase", "iteration", "cost", "grad_norm", "rho", "delta",
                      "step_norm", "accepted", "tcg_stop"],
               (_trace_line(outer, phase, i, it) for outer, phase, trace in sections if trace is not None
                for i, it in enumerate(trace.iterations)))


def write_mc_csv(path, rows) -> None:
    """rows: iterable of (design, error_model, ScrStats)."""
    _write_csv(path, ["design", "error_model", "n_trials", "mean_db", "std_db", "min_db", "max_db"],
               ("%s,%s,%d,%.17g,%.17g,%.17g,%.17g" % (_quoted(design), model, st.n_trials, st.mean_db,
                                                      st.std_db, st.min_db, st.max_db)
                for design, model, st in rows))


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_manifest(out_dir, files) -> None:
    missing = [f for f in files if not (Path(out_dir) / f).is_file()]
    if missing:
        raise RuntimeError(f"report references missing output files: {missing}")
