"""CSV / JSON export and ingest for run artifacts.

Complex sequence values are serialized with 17 significant digits so a
written sequence re-ingests bit-exactly; all writers are deterministic
functions of their inputs (no timestamps), which makes rerun outputs
byte-identical for identical config and seed. `_write_csv` is the one
place that fixes the CSV dialect: UTF-8, CRLF line ends, a header row.

The STAF surface (n^2 values) is printed by numpy, not by a `'%.10g'`
per value, and the bytes are those `'%.10g'` writes. `'%.10g'` is
correctly rounded: it prints the 10-significant-digit decimal nearest to
v, ties to even, in fixed notation when that decimal's exponent X lies
in -4..9, without trailing zeros or a bare point. With X0 = floor(log10
|v|) clamped to -4..9 and k = 9 - X0, the printer forms y = |v| * 10^k.
10^k is a double, so y is the exact product t rounded once. In
[1e9, 1e10) every half-integer is a double (the spacing is at most
2^-19), and rounding is monotone, so it cannot carry t across one: when
y is not itself a half-integer, t lies between the same two
half-integers as y, and rint(y) is the integer nearest t, the ten digits
`'%.10g'` prints, with X = X0. (y = 1e9 from a t just below it names the
same decimal, 10^X0.) Every other value is printed by `'%.10g'` itself:
y outside [1e9, 1e10 - 1/2) (log10 one off next to a power of ten, X
outside -4..9 or digits that carry into the next decade), y a
half-integer (a tie, or a product rounded onto one), +-0, a subnormal,
inf or NaN.

Each value gets a 32-byte slot: ",", sign, "0.000" (the X < 0 prefix),
then the ten digits from a table of 4-digit ASCII groups, each digit
followed by a nul or the point. One AND and one OR mask, picked by
(sign, X, index of the last nonzero digit), keep the digits and the
prefix that `'%.10g'` prints and place the point; the nul bytes are then
dropped. The printer takes the surface as row blocks of any height, in
order, as radar.staf_blocks yields them, so a command never holds the
surface itself. It prints them in blocks of max(1, 2^12 // n) rows,
about 2^12 values: the block's slots (about 128 KB, with the row index
and the line end in slots of their own) are reused, its value-sized
temporaries (32 KB, a few alive at a time) are freed per block, and the
tables (about 130 KB) are built per surface, so a process that prints
none holds nothing.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .manifold import UnitModulusSequence


def _write_csv(path, header, lines) -> None:
    """Write the header row, then lines: str rows without their line end, or bytes blocks with them."""
    with open(path, "wb") as fh:
        fh.write(_crlf(",".join(header)))
        fh.writelines(line if isinstance(line, bytes) else _crlf(line) for line in lines)


def _crlf(line: str) -> bytes:
    return (line + "\r\n").encode("utf-8")


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


_SLOT = 32  # bytes of one printed value; the first digit is at byte 12
_BLOCK_VALUES = 2**12
_POW10 = 10.0 ** np.arange(14)  # 10^k, k = 9 - X for X = 9..-4: exact doubles


def _layout_masks() -> tuple:
    """The AND and OR masks, (4, 280) uint64, of the slot with sign s, k = 9 - X and last nonzero digit L.

    Column s * 140 + k * 10 + L; row w holds the slot's w-th 8-byte word.
    The OR mask writes "," and the sign, "0." and -X - 1 zeros for X < 0,
    and the point after digit X when a nonzero digit follows it; the AND
    mask keeps digits 0..max(X, L).
    """
    sign, k, last = np.indices((2, 14, 10)).reshape(3, -1)
    x = 9 - k
    keep = np.zeros((len(x), _SLOT), dtype=np.uint8)
    put = np.zeros_like(keep)
    put[:, 0] = ord(",")
    put[sign == 1, 1] = ord("-")
    put[x < 0, 2] = ord("0")
    put[x < 0, 3] = ord(".")
    for z in range(3):
        put[-x - 1 > z, 4 + z] = ord("0")
    digit = np.arange(10)
    keep[:, 12 + 2 * digit] = np.where(digit <= np.maximum(x, last)[:, None], 0xFF, 0)
    point = np.flatnonzero((x >= 0) & (last > x))
    put[point, 13 + 2 * x[point]] = ord(".")
    return np.ascontiguousarray(keep.view(np.uint64).T), np.ascontiguousarray(put.view(np.uint64).T)


def _printer_tables() -> tuple:
    """The printer's tables, built for each surface, so only a surface write holds them.

    (groups, last_hi, last_mid, last_lo, keep, put): entry x of groups is
    the four ASCII digits of x (0000..9999), each followed by a nul byte,
    as one uint64; entry x of last_* is the index among the ten digits of
    the last nonzero digit of group x (-1 for 0000) when x is digits 0-1
    (the group 00hh), 2-5 or 6-9; keep and put are the layout masks.
    """
    x = np.arange(10_000)
    groups = np.zeros((10_000, 8), dtype=np.uint8)
    for j in range(4):
        groups[:, 2 * j] = ord("0") + x // 10 ** (3 - j) % 10
    last = 3 - sum(x % 10**j == 0 for j in range(1, 5))
    last_hi, last_mid, last_lo = (np.where(x > 0, last + offset, -1).astype(np.int8) for offset in (-2, 2, 6))
    return (groups.view(np.uint64).ravel(), last_hi, last_mid, last_lo, *_layout_masks())


def _text_slot(text: bytes) -> np.ndarray:
    return np.frombuffer(text.ljust(_SLOT, b"\0"), dtype=np.uint64)


def _fallback_slot(value: float) -> np.ndarray:
    return _text_slot(b",%.10g" % value)


def _decimal(values: np.ndarray) -> tuple:
    """(digits, k, exact): rint(|v| 10^k), the ten digits of '%.10g' with X = 9 - k where exact is true."""
    a = np.abs(values)
    # 0, inf and NaN pass through log10 and the cast as garbage; none is
    # exact, so '%.10g' prints them
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log10(a)
        np.fmax(np.fmin(np.floor(x, out=x), 9.0, out=x), -4.0, out=x)
        k = np.subtract(9, x.astype(np.intp))
        y = np.multiply(a, _POW10[k], out=a)
        digits = np.rint(y, out=x)
        exact = (y >= 1e9) & (y < 9_999_999_999.5)
        exact &= np.abs(np.subtract(y, digits, out=y), out=y) != 0.5
        return digits.astype(np.int64), k, exact


def _print_g10(values: np.ndarray, slots: np.ndarray, tables) -> None:
    """Fill slots (..., 4) uint64 with ",%.10g" of each value, nul-padded (see the module docstring)."""
    groups, last_hi, last_mid, last_lo, keep, put = tables
    digits, k, exact = _decimal(values)
    hi = digits // 10**8
    digits -= hi * 10**8
    mid = digits // 10**4
    lo = np.subtract(digits, mid * 10**4, out=digits)
    # mode="clip" keeps the garbage indices of values that are not exact in range
    row = 10 * k
    row += np.maximum(np.maximum(np.take(last_hi, hi, mode="clip"), np.take(last_mid, mid, mode="clip")),
                      np.take(last_lo, lo, mode="clip"))
    row += 140 * (values < 0)
    # word by word, so each temporary is one value-sized array
    slots[..., 0] = np.take(put[0], row, mode="clip")
    for w, group in enumerate((hi, mid, lo), start=1):
        word = np.take(groups, group, mode="clip")
        word &= np.take(keep[w], row, mode="clip")
        word |= np.take(put[w], row, mode="clip")
        slots[..., w] = word
    if exact.all():
        return
    for i in zip(*np.nonzero(~exact)):
        slots[i] = _fallback_slot(float(values[i]))


def _staf_lines(n: int, blocks):
    """The rows of row blocks (rows, n), numbered from 0, as CSV bytes in blocks of max(1, 2^12 // n) rows."""
    rows = max(1, _BLOCK_VALUES // n)
    # per row: the index, n values, the line end
    slots = np.zeros((rows, n + 2, _SLOT // 8), dtype=np.uint64)
    slots[:, -1] = _text_slot(b"\r\n")
    tables = _printer_tables()
    first = 0  # the row index of values[0]
    for values in blocks:
        for start in range(0, len(values), rows):
            block = slots[: min(rows, len(values) - start)]
            _print_g10(values[start : start + len(block)], block[:, 1:-1], tables)
            for i in range(len(block)):
                block[i, 0] = _text_slot(b"%d" % (first + start + i))
            yield block.tobytes().translate(None, b"\0")
        first += len(values)


def write_staf_blocks(path, n: int, blocks) -> None:
    """A STAF surface of n Doppler bins from its row blocks, as radar.staf_blocks yields them, in order."""
    _write_csv(path, ["range_bin"] + [str(k) for k in range(n)], _staf_lines(n, blocks))


def write_staf_csv(path, values_db: np.ndarray) -> None:
    """The (n, n) surface of radar.staf: row r is range bin r, column k Doppler bin k."""
    write_staf_blocks(path, values_db.shape[1], [values_db])


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
    """Write report as strict JSON: a NaN or infinity raises ValueError instead of being written."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def check_manifest(out_dir, files) -> None:
    missing = [f for f in files if not (Path(out_dir) / f).is_file()]
    if missing:
        raise RuntimeError(f"report references missing output files: {missing}")
