"""Run every command of two source trees and compare their outputs.

    python tools/compare.py PARENT [CHANGE]

PARENT and CHANGE are git revisions of this repository; CHANGE defaults to
the working tree. A revision is exported with `git archive` into a
temporary directory (no worktree, no network). Each tree's CLI runs from
that tree's `src/`, one command at a time with one BLAS thread, on one
vCPU: like `bench/run.py`, the tool pins itself to its lowest allowed CPU
and every command inherits that:

- for every `configs/*.json`: `wrtr`, the three baselines, `montecarlo` on
  the `wrtr` design (a manifest path relative to the manifest) and the
  `random` design (an absolute path), and `staf` on the `wrtr` design;
- the n = 300 design: `baseline --method random` and `staf`. No shipped
  config has n > 64, so this is the one STAF surface printed in more than
  one block, with a partial last one; the sequence CSV re-ingests
  bit-exactly, so within each tree `staf_initial.csv` of the design and
  `staf_recomputed.csv` of `staf` must be equal byte for byte;
- every benchmark workload's commands at bench seed 1, repetition 0, with
  inputs written by `bench.workloads.prepare` (imported, never edited).

Both trees run in the same scratch directory, one after the other, so the
paths recorded in `report.json` are the same on both sides. Every CSV and
every other file is compared byte for byte, and every `report.json` as JSON
without `elapsed_seconds` and `export_seconds`. One line per file says
`same`, `DIFF` (with the first differing line and the line counts, or the
differing report keys) or `ONLY` (present in one tree). A `DIFF` of two
CSVs with one header and one shape also gives how far the numbers moved:
the largest absolute difference over their numeric fields, and that over
the parent file's largest magnitude, so a change in the last digits
(about 1e-16 relative) reads apart from a real one. Then one `rss`
line per command gives each tree's peak resident memory in MB and its CPU
seconds (user + sys), both read with `os.wait4` (the benchmark reports only
a workload's largest peak and its total time, and these lines show which
command sets the one and where the other goes), and one `peak` line per
benchmark workload gives each tree's largest peak among that workload's
commands, the figure its `peak_rss_mb` reports; they are for reading only.
Each figure is one pinned sample per tree, not a median: on a shared
2-vCPU host the same code read up to 0.15 s apart per command.
A failed command, an n = 300 STAF pair that differs within a tree, or a
`report.json` that holds NaN, Infinity or -Infinity (which strict JSON has
no word for; the `FAIL` line names the file and the key) prints `FAIL`.
The exit status is 0 only when every command succeeded, both STAF pairs
are equal, every report is strict JSON and every file is equal.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ("rtr_nonrobust", "rcg_nonrobust", "random")
REPORT_TIMINGS = ("elapsed_seconds", "export_seconds")
# the n = 300 config: its STAF surface prints in more than one block, with
# a partial last block
N300 = {
    "n": 300,
    "doppler_interval": [-0.001, 0.002],
    "seed": 5,
    "scatterers": [
        {"range_shift": 1, "doppler": 0.12, "power": 10.0},
        {"range_shift": 17, "doppler": 0.31, "power": 3.0},
        {"range_shift": 150, "doppler": 0.77, "power": 1.0},
    ],
}
BENCH_SEED, BENCH_REP = 1, 0


def export(rev: str, dest: Path) -> Path:
    """Extract the tree of git revision rev into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def _commands(tree: Path, run: Path) -> tuple:
    """(the argv of every CLI command run on tree from the directory run, {workload: its commands' labels}).

    Writes the commands' inputs under run; a label is an argv joined by spaces.
    """
    from bench import workloads  # main puts ROOT on sys.path

    commands, groups = [], {}
    configs = run / "configs"
    configs.mkdir(parents=True)
    for src in sorted((tree / "configs").glob("*.json")):
        cfg = configs / src.name
        shutil.copyfile(src, cfg)
        out = run / src.stem
        common = ["--config", str(cfg.relative_to(run))]

        def cli(*argv, dest):
            commands.append([*argv, *common, "--out", str((out / dest).relative_to(run))])

        cli("wrtr", dest="wrtr")
        for method in BASELINES:
            cli("baseline", "--method", method, dest=method)
        out.mkdir()
        manifest = out / "designs.json"
        designs = [
            {"name": "wrtr", "sequence": "wrtr/sequence_final.csv"},
            {"name": "random", "sequence": str(out / "random" / "sequence_final.csv")},
        ]
        manifest.write_text(json.dumps({"designs": designs}), encoding="utf-8")
        cli("montecarlo", "--designs", str(manifest.relative_to(run)), dest="montecarlo")
        cli("staf", str((out / "wrtr" / "sequence_final.csv").relative_to(run)), dest="staf")

    n300 = run / "n300"
    n300.mkdir()
    (n300 / "n300.json").write_text(json.dumps(N300), encoding="utf-8")
    common = ["--config", "n300/n300.json"]
    commands.append(["baseline", "--method", "random", *common, "--out", "n300/random"])
    commands.append(["staf", "n300/random/sequence_final.csv", *common, "--out", "n300/staf"])

    for name in workloads.NAMES:
        plan = workloads.prepare(name, tree, run / "workloads" / name, BENCH_SEED, BENCH_REP)
        commands.extend(list(c.argv) for c in plan.commands)
        groups[name] = [" ".join(c.argv) for c in plan.commands]
    return commands, groups


def run_command(argv: list, cwd: Path, env: dict) -> tuple:
    """Run one CLI command to completion; (exit code, last stderr line, peak RSS in MB, CPU s), read with wait4."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "wrtr", *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        last = (err.read().decode("utf-8", "replace").strip().splitlines() or [""])[-1]
    # ru_maxrss is in KiB on Linux
    return proc.returncode, last, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def run_tree(tree: Path, run: Path) -> tuple:
    """Run every command with tree's CLI under run.

    Returns (failures as lines, {command: (peak RSS MB, CPU s)}, {workload: its commands' labels}).
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failures, usage = [], {}
    commands, groups = _commands(tree, run)
    for argv in commands:
        code, last, peak, cpu = run_command(argv, run, env)
        usage[" ".join(argv)] = peak, cpu
        if code != 0:
            failures.append(f"FAIL  {' '.join(argv)}: exit {code}: {last}")
    return failures + staf_mismatch(run) + nonfinite_reports(run), usage, groups


def staf_mismatch(run: Path) -> list:
    """A FAIL line unless the n = 300 design's STAF surface equals the staf command's, byte for byte."""
    pair = [run / "n300" / "random" / "staf_initial.csv", run / "n300" / "staf" / "staf_recomputed.csv"]
    missing = [str(p.relative_to(run)) for p in pair if not p.is_file()]
    detail = f"missing {', '.join(missing)}" if missing else _file_diff(*pair)
    if detail is None:
        return []
    return [f"FAIL  {pair[0].relative_to(run)} != {pair[1].relative_to(run)}: {detail}"]


class _Constant(str):
    """NaN, Infinity or -Infinity as json reads it from a report; strict JSON has none of them."""


def _constants(value, path: str = "") -> list:
    """(key path, constant) for every _Constant in a JSON value."""
    if isinstance(value, dict):
        return [c for key, v in value.items() for c in _constants(v, f"{path}.{key}" if path else key)]
    if isinstance(value, list):
        return [c for i, v in enumerate(value) for c in _constants(v, f"{path}[{i}]")]
    return [(path or "(top level)", value)] if isinstance(value, _Constant) else []


def nonfinite_reports(run: Path) -> list:
    """A FAIL line for each NaN or +-Infinity in a report.json under run, naming the file and the key."""
    lines = []
    for path in sorted(run.rglob("report.json")):
        report = json.loads(path.read_text(encoding="utf-8"), parse_constant=_Constant)
        lines += [f"FAIL  {path.relative_to(run)}: {key} is {name}" for key, name in _constants(report)]
    return lines


def rss_lines(usage: dict) -> list:
    """One line per command with each tree's peak RSS and CPU time, from {label: {command: (MB, s)}}."""
    commands = list(dict.fromkeys(c for by_command in usage.values() for c in by_command))
    return [f"rss   {command}: " + ", ".join("{} {:.1f} MB {:.2f} s".format(label, *by_command[command])
                                              if command in by_command else f"{label} -"
                                              for label, by_command in usage.items())
            for command in commands]


def peak_lines(usage: dict, groups: dict) -> list:
    """One line per workload with each tree's largest peak RSS among its commands, from rss_lines' usage.

    groups maps a workload to its commands; a tree that ran none of them reads `-`.
    """
    lines = []
    for workload, commands in groups.items():
        peaks = []
        for label, by_command in usage.items():
            ran = [by_command[c][0] for c in commands if c in by_command]
            peaks.append(f"{label} {max(ran):.2f} MB" if ran else f"{label} -")
        lines.append(f"peak  {workload}: " + ", ".join(peaks))
    return lines


def _json_diffs(a, b, path: str = "") -> list:
    """Key paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        diffs = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            diffs += _json_diffs(a[key], b[key], sub) if key in a and key in b else [sub]
        return diffs
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _json_diffs(x, y, f"{path}[{i}]")]
    return [] if a == b else [path or "(top level)"]


def _file_diff(a: Path, b: Path):
    """None if the two files are equal, else what differs."""
    if a.name == "report.json":
        reports = [json.loads(p.read_text(encoding="utf-8")) for p in (a, b)]
        for report in reports:
            for key in REPORT_TIMINGS:
                report.pop(key, None)
        keys = _json_diffs(*reports)
        return f"keys {', '.join(keys)}" if keys else None
    da, db = a.read_bytes(), b.read_bytes()
    if da == db:
        return None
    la, lb = da.splitlines(), db.splitlines()
    first = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    detail = f"line {first + 1}; {len(la)} vs {len(lb)} lines"
    moved = _largest_change(da, db) if a.suffix == ".csv" else None
    if moved is None:
        return detail
    change, scale = moved
    return f"{detail}; max |diff| {change:.3g}, {change / scale if scale else math.inf:.3g} relative"


def _largest_change(da: bytes, db: bytes):
    """(largest |a - b|, largest finite |a|) over the numeric fields of two CSVs, or None.

    None unless both have one header and one shape and every field that is
    not a number on both sides is equal. A difference that is not finite
    (inf against a number, say) reads inf.
    """
    ra, rb = (list(csv.reader(d.decode("utf-8").splitlines(keepends=True))) for d in (da, db))
    if ra[:1] != rb[:1] or [len(r) for r in ra] != [len(r) for r in rb]:
        return None
    change = scale = 0.0
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for x, y in zip(row_a, row_b):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x != y:
                    return None
                continue
            if math.isfinite(fx):
                scale = max(scale, abs(fx))
            if x != y:
                diff = abs(fx - fy)
                change = max(change, diff if math.isfinite(diff) else math.inf)
    return change, scale


def compare_dirs(a: Path, b: Path) -> list:
    """(status, relative path, detail) for every file under a or b; status is same, DIFF or ONLY."""
    names = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    rows = []
    for rel in sorted(names):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            rows.append(("ONLY", rel, f"in {a.name if pa.is_file() else b.name}"))
        else:
            detail = _file_diff(pa, pb)
            rows.append(("same", rel, "") if detail is None else ("DIFF", rel, detail))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent tree")
    parser.add_argument("change", nargs="?", help="git revision of the changed tree (default: the working tree)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # importing bench.workloads writes nothing into bench/
    sys.path.insert(0, str(ROOT))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="wrtr-compare-") as tmp:
        tmp = Path(tmp)
        trees = {
            "parent": export(args.parent, tmp / "tree-parent"),
            "change": ROOT if args.change is None else export(args.change, tmp / "tree-change"),
        }
        failures, usage = [], {}
        for label, tree in trees.items():
            run = tmp / "run"
            # both trees run the workloads of this checkout's bench in the same directory, so with the same argv
            tree_failures, usage[label], groups = run_tree(tree, run)
            failures += [f"{line} [{label}]" for line in tree_failures]
            run.rename(tmp / label)
        rows = compare_dirs(tmp / "parent", tmp / "change")
    for status, rel, detail in rows:
        print(f"{status:4}  {rel}" + (f": {detail}" if detail else ""))
    for line in rss_lines(usage) + peak_lines(usage, groups):
        print(line)
    for line in failures:
        print(line)
    unequal = sum(status != "same" for status, _, _ in rows)
    print(f"{len(rows)} files: {len(rows) - unequal} same, {unequal} unequal; {len(failures)} failed commands or checks")
    return 0 if unequal == 0 and not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
