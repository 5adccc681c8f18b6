"""Output checks for one CLI command, and the dense nominal-SCR oracle.

The oracle rebuilds every clutter operator as a dense n x n matrix
amp_k * diag(p(v_t)) J^{r_k} diag(p(v_k)) straight from the config file,
so it shares no code with the program's factored ClutterBank.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ERROR_MODELS = ("doppler_interval", "uniform_random_phase")
UNIT_MODULUS_TOL = 1e-10
SCR_TOL_DB = 1e-6


def scene_scatterers(config: dict) -> list:
    """(range_shift, doppler, power) triples of a config, blocks expanded."""
    n = config["n"]
    out = [(s["range_shift"], s["doppler"], s["power"]) for s in config.get("scatterers", [])]

    def bins(spec):
        return list(range(spec["start"], spec["stop"] + 1)) if isinstance(spec, dict) else list(spec)

    for block in config.get("clutter_blocks", []):
        power = 10.0 ** (block["power_db"] / 10.0)
        out += [(r, h / n, power) for r in bins(block["range_bins"]) for h in bins(block["doppler_bins"])]
    return out


def nominal_scr_db(seq: np.ndarray, config: dict) -> float:
    """10 log10(n^2 / sum_k |s^H Psi_k s|^2) with dense Psi_k (target Doppler 0)."""
    n = seq.size
    energy = 0.0
    for r, doppler, power in scene_scatterers(config):
        psi = np.zeros((n, n), dtype=complex)
        rows = np.arange(r, n)
        psi[rows, rows - r] = math.sqrt(power) * np.exp(2j * np.pi * doppler * (rows - r))
        energy += abs(np.vdot(seq, psi @ seq)) ** 2
    return 10.0 * math.log10(n * n / energy)


def epsilon(config: dict) -> float:
    """Uncertainty radius max_v ||p(v) - 1||^2 on the config's Doppler grid."""
    lo, hi = config["doppler_interval"]
    grid = np.linspace(lo, hi, config.get("interval_grid_points", 2001))
    k = np.arange(config["n"])
    return float(np.max(np.sum(np.abs(np.exp(2j * np.pi * np.outer(grid, k)) - 1.0) ** 2, axis=1)))


def read_sequence(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["index", "real", "imag"]:
        raise ValueError(f"{path.name}: bad header")
    return np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])


class Checker:
    """Checks command outputs against one config; caches oracle values per file."""

    def __init__(self, config_path: Path):
        self.config = json.loads(config_path.read_text(encoding="utf-8"))
        self.n = self.config["n"]
        self._scr = {}

    def regime(self) -> dict:
        eps = epsilon(self.config)
        return {"n": self.n, "eps": eps, "two_n": 2 * self.n, "eps_ge_2n": eps >= 2 * self.n}

    def scr_db(self, path: Path) -> float:
        key = str(path)
        if key not in self._scr:
            self._scr[key] = nominal_scr_db(read_sequence(path), self.config)
        return self._scr[key]

    def _sequence_problems(self, path: Path) -> list:
        seq = read_sequence(path)
        if seq.size != self.n:
            return [f"{path.name}: length {seq.size} != n={self.n}"]
        worst = float(np.max(np.abs(np.abs(seq) - 1.0)))
        if worst > UNIT_MODULUS_TOL:
            return [f"{path.name}: not unit-modulus (worst deviation {worst:.3e})"]
        return []

    def _scr_problem(self, label: str, reported, path: Path) -> list:
        oracle = self.scr_db(path)
        if not isinstance(reported, (int, float)) or abs(reported - oracle) > SCR_TOL_DB:
            return [f"{label} {reported!r} != dense oracle {oracle!r}"]
        return []

    def _mc_problems(self, path: Path, designs, trials: int) -> list:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        got = sorted((r["design"], r["error_model"]) for r in rows)
        want = sorted((d, m) for d, _ in designs for m in ERROR_MODELS)
        if got != want:
            return [f"scr_stats.csv rows {got} != expected {want}"]
        bad = [r for r in rows if int(r["n_trials"]) != trials or not math.isfinite(float(r["mean_db"]))]
        return [f"scr_stats.csv: bad rows {bad}"] if bad else []

    def problems(self, command, returncode: int, plan) -> list:
        """Everything wrong with one finished command; empty when it passed."""
        if returncode != 0:
            return [f"{command.name}: exit code {returncode}"]
        out = command.out
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            missing = [f for f in report["files"] if not (out / f).is_file()]
            if missing:
                return [f"{command.name}: files listed in report.json are missing: {missing}"]
            found = []
            for f in report["files"]:
                if f.startswith(("sequence_", "steering_")):
                    found += self._sequence_problems(out / f)
            summary = report["summary"]
            if "nominal_scr_final_db" in summary:
                found += self._scr_problem("nominal_scr_final_db", summary["nominal_scr_final_db"],
                                           out / "sequence_final.csv")
            if command.name == "staf":
                found += self._scr_problem("nominal_scr_db", summary.get("nominal_scr_db"),
                                           Path(command.argv[-1]))
            if command.name == "montecarlo":
                found += self._mc_problems(out / "scr_stats.csv", plan.mc_designs, plan.mc_trials)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{command.name}: unreadable output: {exc!r}"]
        return [f"{command.name}: {p}" for p in found]
