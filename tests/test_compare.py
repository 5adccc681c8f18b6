"""The output comparison of tools/compare.py, on directories written here (no git needed)."""

import importlib.util
import json
import shutil
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
