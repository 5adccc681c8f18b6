"""Scenario configuration: JSON schema, validation, block expansion.

A scenario file is a JSON object; clutter can be given as explicit
scatterers (linear power) and/or rectangular blocks of range bins x
Doppler bins with a power in dB (10 log10 of the linear power). Doppler
bin h maps to normalized Doppler h/n. Example:

    {
      "n": 64,
      "clutter_blocks": [
        {"range_bins": {"start": 11, "stop": 30},
         "doppler_bins": [25, 26],
         "power_db": 10.0}
      ],
      "doppler_interval": [-0.1, 0.1],
      "lambda": 100.0,
      "seed": 2024,
      "doppler_cut_range_bins": [25, 26]
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields

from .driver import WrtrConfig
from .radar import ClutterScatterer, ClutterScene
from .rtr import TrustRegionConfig


class ScenarioError(ValueError):
    """Configuration file failed to parse or validate."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioError(message)


def _as_int(value, key: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{key} must be an integer")
    return value


def _as_number(value, key: str) -> float:
    # json accepts NaN and Infinity; no config number may be either
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
        f"{key} must be a finite number",
    )
    return float(value)


def _bin_list(value, key: str) -> list:
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop"}
        _require(not unknown, f"{key}: unknown keys {sorted(unknown)}")
        start = _as_int(value.get("start"), f"{key}.start")
        stop = _as_int(value.get("stop"), f"{key}.stop")
        _require(start <= stop, f"{key}: start {start} > stop {stop}")
        return list(range(start, stop + 1))
    if isinstance(value, list):
        return [_as_int(v, f"{key}[]") for v in value]
    raise ScenarioError(f"{key} must be a list of bins or a start/stop object")


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    scatterers: tuple
    doppler_interval: tuple | None = None
    epsilon: float | None = None
    lam: float = 100.0
    seed: int = 0
    noise_power: float = 1.0
    target_power: float = 1.0
    interval_grid_points: int = 2001
    max_outer: int = 20
    scnr_tol_db: float = 0.01
    worst_solver: TrustRegionConfig = field(default_factory=TrustRegionConfig)
    seq_solver: TrustRegionConfig = field(default_factory=TrustRegionConfig)
    staf_range_bins: tuple | None = None
    doppler_cut_range_bins: tuple = ()
    monte_carlo_trials: int = 100

    def __post_init__(self):
        # WrtrConfig checks the solver-level values, so a bad config fails
        # here, before the CLI creates any output.
        self.to_wrtr_config()

    def to_scene(self) -> ClutterScene:
        return ClutterScene(scatterers=self.scatterers, n=self.n)

    def to_wrtr_config(self) -> WrtrConfig:
        return WrtrConfig(
            lam=self.lam,
            epsilon=self.epsilon,
            doppler_interval=self.doppler_interval,
            interval_grid_points=self.interval_grid_points,
            max_outer=self.max_outer,
            scnr_tol_db=self.scnr_tol_db,
            noise_power=self.noise_power,
            target_power=self.target_power,
            worst_solver=self.worst_solver,
            seq_solver=self.seq_solver,
        )


_KNOWN_KEYS = {
    "n",
    "clutter_blocks",
    "scatterers",
    "doppler_interval",
    "epsilon",
    "lambda",
    "seed",
    "noise_power",
    "target_power",
    "interval_grid_points",
    "max_outer",
    "scnr_tol_db",
    "worst_solver",
    "seq_solver",
    "staf_range_bins",
    "doppler_cut_range_bins",
    "monte_carlo_trials",
}


def _solver_config(raw, key: str) -> TrustRegionConfig:
    if raw is None:
        return TrustRegionConfig()
    _require(isinstance(raw, dict), f"{key} must be an object")
    allowed = {f.name for f in dataclass_fields(TrustRegionConfig)}
    unknown = set(raw) - allowed
    _require(not unknown, f"{key}: unknown solver keys {sorted(unknown)}")
    try:
        return TrustRegionConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


def parse_scenario(raw: dict) -> ScenarioConfig:
    _require(isinstance(raw, dict), "top-level config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    _require(not unknown, f"unknown config keys {sorted(unknown)}")
    _require("n" in raw, "missing required key 'n'")
    n = _as_int(raw["n"], "n")
    _require(n >= 1, "n must be >= 1")

    scatterers = []
    for i, entry in enumerate(raw.get("scatterers", [])):
        _require(isinstance(entry, dict), f"scatterers[{i}] must be an object")
        unknown = set(entry) - {"range_shift", "doppler", "power"}
        _require(not unknown, f"scatterers[{i}]: unknown keys {sorted(unknown)}")
        scatterers.append(
            ClutterScatterer(
                range_shift=_as_int(entry.get("range_shift"), f"scatterers[{i}].range_shift"),
                doppler=_as_number(entry.get("doppler"), f"scatterers[{i}].doppler"),
                power=_as_number(entry.get("power"), f"scatterers[{i}].power"),
            )
        )
    for i, block in enumerate(raw.get("clutter_blocks", [])):
        key = f"clutter_blocks[{i}]"
        _require(isinstance(block, dict), f"{key} must be an object")
        unknown = set(block) - {"range_bins", "doppler_bins", "power_db"}
        _require(not unknown, f"{key}: unknown keys {sorted(unknown)}")
        ranges = _bin_list(block.get("range_bins"), f"{key}.range_bins")
        dopplers = _bin_list(block.get("doppler_bins"), f"{key}.doppler_bins")
        power = 10.0 ** (_as_number(block.get("power_db"), f"{key}.power_db") / 10.0)
        for r in ranges:
            _require(0 <= r <= n - 1, f"{key}: range bin {r} outside 0..{n - 1}")
            for h in dopplers:
                scatterers.append(ClutterScatterer(range_shift=r, doppler=h / n, power=power))
    _require(len(scatterers) >= 1, "scenario defines no clutter scatterers")

    interval = raw.get("doppler_interval")
    if interval is not None:
        _require(
            isinstance(interval, list) and len(interval) == 2,
            "doppler_interval must be [lo, hi]",
        )
        lo = _as_number(interval[0], "doppler_interval[0]")
        hi = _as_number(interval[1], "doppler_interval[1]")
        _require(lo <= hi, "doppler_interval must satisfy lo <= hi")
        interval = (lo, hi)
    epsilon = raw.get("epsilon")
    if epsilon is not None:
        epsilon = _as_number(epsilon, "epsilon")
        _require(0.0 <= epsilon <= 4.0 * n, f"epsilon must lie in [0, {4 * n}]")
    _require(
        interval is not None or epsilon is not None,
        "one of doppler_interval or epsilon is required",
    )

    staf_bins = raw.get("staf_range_bins")
    if staf_bins is not None:
        staf_bins = tuple(_bin_list(staf_bins, "staf_range_bins"))
        for r in staf_bins:
            _require(0 <= r <= n - 1, f"staf_range_bins: bin {r} outside 0..{n - 1}")
    cut_bins = tuple(_bin_list(raw.get("doppler_cut_range_bins", []), "doppler_cut_range_bins"))
    for r in cut_bins:
        _require(0 <= r <= n - 1, f"doppler_cut_range_bins: bin {r} outside 0..{n - 1}")

    trials = _as_int(raw.get("monte_carlo_trials", 100), "monte_carlo_trials")
    _require(trials >= 1, "monte_carlo_trials must be >= 1")
    seed = _as_int(raw.get("seed", 0), "seed")
    _require(seed >= 0, "seed must be >= 0")

    try:
        return ScenarioConfig(
            n=n,
            scatterers=tuple(scatterers),
            doppler_interval=interval,
            epsilon=epsilon,
            lam=_as_number(raw.get("lambda", 100.0), "lambda"),
            seed=seed,
            noise_power=_as_number(raw.get("noise_power", 1.0), "noise_power"),
            target_power=_as_number(raw.get("target_power", 1.0), "target_power"),
            interval_grid_points=_as_int(raw.get("interval_grid_points", 2001), "interval_grid_points"),
            max_outer=_as_int(raw.get("max_outer", 20), "max_outer"),
            scnr_tol_db=_as_number(raw.get("scnr_tol_db", 0.01), "scnr_tol_db"),
            worst_solver=_solver_config(raw.get("worst_solver"), "worst_solver"),
            seq_solver=_solver_config(raw.get("seq_solver"), "seq_solver"),
            staf_range_bins=staf_bins,
            doppler_cut_range_bins=cut_bins,
            monte_carlo_trials=trials,
        )
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}") from exc
    return parse_scenario(raw)
