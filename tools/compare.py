"""Run every command of two source trees and compare their outputs.

    python tools/compare.py PARENT [CHANGE]

PARENT and CHANGE are git revisions of this repository; CHANGE defaults to
the working tree. A revision is exported with `git archive` into a
temporary directory (no worktree, no network). Each tree's CLI runs from
that tree's `src/`, one command at a time with one BLAS thread:

- for every `configs/*.json`: `wrtr`, the three baselines, `montecarlo` on
  the `wrtr` design (a manifest path relative to the manifest) and the
  `random` design (an absolute path), and `staf` on the `wrtr` design;
- the n = 300 design that CI checks: `baseline --method random` and `staf`;
- every benchmark workload's commands at bench seed 1, repetition 0, with
  inputs written by `bench.workloads.prepare` (imported, never edited).

Both trees run in the same scratch directory, one after the other, so the
paths recorded in `report.json` are the same on both sides. Every CSV and
every other file is compared byte for byte, and every `report.json` as JSON
without `elapsed_seconds` and `export_seconds`. One line per file says
`same`, `DIFF` (with the first differing line and the line counts, or the
differing report keys) or `ONLY` (present in one tree). Then one `rss`
line per command gives each tree's peak resident memory in MB, read with
`os.wait4` (the benchmark reports only a workload's largest, and these
lines show which command sets it); they are for reading only. A failed
command prints `FAIL`. The exit status is 0 only when every command
succeeded and every file is equal.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ("rtr_nonrobust", "rcg_nonrobust", "random")
REPORT_TIMINGS = ("elapsed_seconds", "export_seconds")
# the n = 300 config of CI's end-to-end step: its STAF surface prints in
# more than one block, with a partial last block
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


def _commands(tree: Path, run: Path) -> list:
    """The argv of every CLI command run on tree from the directory run; writes their inputs under run."""
    from bench import workloads  # main puts ROOT on sys.path

    commands = []
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
    return commands


def run_command(argv: list, cwd: Path, env: dict) -> tuple:
    """Run one CLI command to completion; (exit code, last stderr line, peak RSS in MB, read with wait4)."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "wrtr", *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        last = (err.read().decode("utf-8", "replace").strip().splitlines() or [""])[-1]
    return proc.returncode, last, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def run_tree(tree: Path, run: Path) -> tuple:
    """Run every command with tree's CLI under run; (failures as lines, {command: peak RSS MB})."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    failures, peaks = [], {}
    for argv in _commands(tree, run):
        code, last, peaks[" ".join(argv)] = run_command(argv, run, env)
        if code != 0:
            failures.append(f"FAIL  {' '.join(argv)}: exit {code}: {last}")
    return failures, peaks


def rss_lines(peaks: dict) -> list:
    """One line per command with each tree's peak RSS, from {label: {command: MB}}."""
    commands = list(dict.fromkeys(c for by_command in peaks.values() for c in by_command))
    return [f"rss   {command}: " + ", ".join(f"{label} {by_command[command]:.1f} MB" if command in by_command
                                              else f"{label} -" for label, by_command in peaks.items())
            for command in commands]


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
    return f"line {first + 1}; {len(la)} vs {len(lb)} lines"


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
    with tempfile.TemporaryDirectory(prefix="wrtr-compare-") as tmp:
        tmp = Path(tmp)
        trees = {
            "parent": export(args.parent, tmp / "tree-parent"),
            "change": ROOT if args.change is None else export(args.change, tmp / "tree-change"),
        }
        failures, peaks = [], {}
        for label, tree in trees.items():
            run = tmp / "run"
            tree_failures, peaks[label] = run_tree(tree, run)
            failures += [f"{line} [{label}]" for line in tree_failures]
            run.rename(tmp / label)
        rows = compare_dirs(tmp / "parent", tmp / "change")
    for status, rel, detail in rows:
        print(f"{status:4}  {rel}" + (f": {detail}" if detail else ""))
    for line in rss_lines(peaks):
        print(line)
    for line in failures:
        print(line)
    unequal = sum(status != "same" for status, _, _ in rows)
    print(f"{len(rows)} files: {len(rows) - unequal} same, {unequal} unequal; {len(failures)} failed commands")
    return 0 if unequal == 0 and not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
