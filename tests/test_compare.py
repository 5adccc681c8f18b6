"""The output comparison of tools/compare.py, on directories written here (no git needed)."""

import importlib.util
import json
import shutil
import time
from pathlib import Path

import pytest

from wrtr.cli import main

ROOT = Path(__file__).resolve().parents[1]
SMALL_CONFIG = ROOT / "configs" / "small.json"
_spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def unequal(a, b):
    return [(status, str(rel), detail) for status, rel, detail in compare.compare_dirs(a, b) if status != "same"]


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """Two runs of `wrtr` on small.json, in directories of the same name under two roots."""
    roots = [tmp_path_factory.mktemp(name) for name in ("parent", "change")]
    for root in roots:
        assert main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(root / "small")]) == 0
    return roots


def test_two_small_runs_compare_equal(small_runs):
    rows = compare.compare_dirs(*small_runs)
    assert {str(rel) for _, rel, _ in rows} >= {"small/report.json", "small/sequence_final.csv", "small/traces.csv"}
    assert unequal(*small_runs) == []


def test_a_flipped_byte_is_reported(small_runs, tmp_path):
    parent, _ = small_runs
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    csv = change / "small" / "sequence_final.csv"
    data = bytearray(csv.read_bytes())
    data[-3] ^= 1
    csv.write_bytes(bytes(data))
    lines = data.count(b"\n")
    assert unequal(parent, change) == [("DIFF", "small/sequence_final.csv", f"line {lines}; {lines} vs {lines} lines")]


def test_a_file_in_one_tree_is_reported(small_runs, tmp_path):
    parent, _ = small_runs
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    (change / "small" / "traces.csv").unlink()
    assert unequal(parent, change) == [("ONLY", "small/traces.csv", f"in {parent.name}")]


def test_a_flipped_byte_in_the_n300_staf_pair_is_reported(tmp_path):
    initial = tmp_path / "n300" / "random" / "staf_initial.csv"
    recomputed = tmp_path / "n300" / "staf" / "staf_recomputed.csv"
    for path in (initial, recomputed):
        path.parent.mkdir(parents=True)
        path.write_bytes(b"0,-12.5\n-3.25,0\n")
    assert compare.staf_mismatch(tmp_path) == []
    recomputed.write_bytes(b"0,-12.5\n-3.24,0\n")
    assert compare.staf_mismatch(tmp_path) == [
        "FAIL  n300/random/staf_initial.csv != n300/staf/staf_recomputed.csv: line 2; 2 vs 2 lines"
    ]
    initial.unlink()
    assert compare.staf_mismatch(tmp_path) == [
        "FAIL  n300/random/staf_initial.csv != n300/staf/staf_recomputed.csv: missing n300/random/staf_initial.csv"
    ]


def test_report_timings_are_ignored_and_other_keys_are_named(small_runs, tmp_path):
    parent, _ = small_runs
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    path = change / "small" / "report.json"
    report = json.loads(path.read_text())
    report["elapsed_seconds"] += 100.0
    report["export_seconds"] += 1.0
    path.write_text(json.dumps(report))
    assert unequal(parent, change) == []
    report["summary"]["outer_history"][0]["seq_hvps"] += 1
    path.write_text(json.dumps(report))
    assert unequal(parent, change) == [("DIFF", "small/report.json", "keys summary.outer_history[0].seq_hvps")]


def test_each_command_reports_its_exit_and_peak_memory(tmp_path):
    # run_command reads the child's peak RSS and CPU time with wait4; the rss lines only inform
    env = dict(compare.os.environ, PYTHONPATH=str(ROOT / "src"))
    ok = ["baseline", "--method", "random", "--config", str(SMALL_CONFIG), "--out", str(tmp_path / "random")]
    code, _, peak, _ = compare.run_command(ok, tmp_path, env)
    assert code == 0 and (tmp_path / "random" / "report.json").is_file()
    # a Python interpreter with numpy imported holds more than 10 MB
    assert 10.0 < peak < 1000.0
    bad = ["staf", "missing.csv", "--config", str(SMALL_CONFIG), "--out", str(tmp_path / "staf")]
    code, last, _, _ = compare.run_command(bad, tmp_path, env)
    assert code == 2 and last.startswith("wrtr: config error: sequence: cannot load missing.csv")
    lines = compare.rss_lines({"parent": {"a b": (45.44, 0.257), "c": (3.0, 1.0)}, "change": {"a b": (42.96, 0.1549)}})
    assert lines == ["rss   a b: parent 45.4 MB 0.26 s, change 43.0 MB 0.15 s", "rss   c: parent 3.0 MB 1.00 s, change -"]


def test_each_workload_reports_its_largest_command_peak():
    # a workload's peak_rss_mb is the largest wait4 peak among its commands
    usage = {"parent": {"a": (41.84, 0.5), "b": (39.0, 2.0), "c": (20.0, 0.1)},
             "change": {"a": (37.8, 0.5), "b": (38.93, 2.0)}}
    lines = compare.peak_lines(usage, {"two": ["a", "b"], "one": ["c"]})
    assert lines == ["peak  two: parent 41.84 MB, change 38.93 MB", "peak  one: parent 20.00 MB, change -"]


def test_cpu_seconds_are_the_childs_own(tmp_path):
    # user + sys of the child alone, single-threaded: more than importing
    # numpy takes, no more than the wall time around the call
    env = dict(compare.os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["baseline", "--method", "random", "--config", str(SMALL_CONFIG), "--out", str(tmp_path / "random")]
    started = time.perf_counter()
    code, _, _, cpu = compare.run_command(argv, tmp_path, env)
    wall = time.perf_counter() - started
    assert code == 0
    assert 0.02 < cpu <= wall


def test_a_non_finite_report_value_fails(small_runs, tmp_path):
    # report.json must be strict JSON: a NaN or an infinity is a FAIL line naming the file and key
    parent, _ = small_runs
    assert compare.nonfinite_reports(parent) == []
    run = tmp_path / "run"
    shutil.copytree(parent, run)
    path = run / "small" / "report.json"
    report = json.loads(path.read_text())
    report["summary"]["scr_db"] = float("inf")
    report["summary"]["outer_history"][1]["scnr_db"] = float("nan")
    path.write_text(json.dumps(report))
    assert compare.nonfinite_reports(run) == [
        "FAIL  small/report.json: summary.outer_history[1].scnr_db is NaN",
        "FAIL  small/report.json: summary.scr_db is Infinity",
    ]
