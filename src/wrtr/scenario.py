"""Scenario configuration: JSON schema, validation, block expansion.

A scenario file is a JSON object; its clutter, at least one scatterer,
can be given as explicit scatterers (linear power) and/or rectangular
blocks of range bins x Doppler bins with a power in dB (10 log10 of the
linear power). Powers are in units of the noise power, and the target's
power is 1 (see radar.Figures). Doppler bin h maps to normalized Doppler
h/n. Bins are a list or a {start, stop} object spanning at most n bins;
range bins lie in 0..n-1. A block's bins must be distinct, Doppler bins
modulo n (h and h + n are one Doppler): a repeated bin would add a
second scatterer in the same cell and double its power. So must the
doppler_cut_range_bins, each of which names one output file. Example:

    {"n": 64, "seed": 2024, "doppler_interval": [-0.1, 0.1],
     "clutter_blocks": [{"range_bins": {"start": 11, "stop": 30},
                         "doppler_bins": [25, 26], "power_db": 10.0}]}

The top-level keys, with their defaults; any other key is an error:

    n                          code length (required)
    scatterers                 [{range_shift, doppler, power}], default []
    clutter_blocks             [{range_bins, doppler_bins, power_db}], default []
    doppler_interval           [lo, hi], the target's Doppler uncertainty, with
                               lo <= 0 <= hi (required)
    max_outer                  cap on the alternation's sequence passes, 20
    worst_solver, seq_solver   solver blocks, {} each
    seed                       default --seed, 0
    doppler_cut_range_bins     bins whose STAF Doppler cuts are written, []
    monte_carlo_trials         trials per design and error model, 100

A solver block takes grad_tol (1e-9), max_iters (100) and tcg_max_inner
(null: n); the radii and thresholds are fixed in rtr. A solve stops at
gradient norm grad_tol * g_ref, g_ref a reference norm, after max_iters
iterations, or after a rejected step that changed the cost by no more
than rounding (see rtr.solve).
The adversary's penalty weight, the alternation's SCNR stop and the
Doppler grid of doppler_interval are constants: objectives.LAM,
driver.SCNR_TOL_DB and driver.INTERVAL_GRID_POINTS.

read_json also reads the montecarlo command's designs manifest,

    {"designs": [{"name": "wrtr", "sequence": "wrtr/sequence_final.csv"}]}

whose only key is designs, and whose entries' only keys are name and
sequence (a sequence CSV, relative to the manifest's directory). In a
config or a manifest each key may appear once in an object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields as dataclass_fields

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
    # json accepts NaN and Infinity, and integers too large for a float;
    # no config number may be any of them
    message = f"{key} must be a finite number"
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), message)
    try:
        value = float(value)
    except OverflowError:
        raise ScenarioError(message) from None
    _require(math.isfinite(value), message)
    return value


def _bin_list(value, key: str, n: int, doppler: bool = False) -> list:
    """Bins of a list or a {start, stop} object; range bins (not doppler) must lie in 0..n-1."""
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop"}
        _require(not unknown, f"{key}: unknown keys {sorted(unknown)}")
        start = _as_int(value.get("start"), f"{key}.start")
        stop = _as_int(value.get("stop"), f"{key}.stop")
        _require(start <= stop, f"{key}: start {start} > stop {stop}")
        # checked before it is expanded; Doppler bins h and h + n are the same Doppler
        _require(stop - start < n, f"{key}: {start}..{stop} spans more than n = {n} bins")
        bins = list(range(start, stop + 1))
    elif isinstance(value, list):
        bins = [_as_int(v, f"{key}[]") for v in value]
    else:
        raise ScenarioError(f"{key} must be a list of bins or a start/stop object")
    for b in () if doppler else bins:
        _require(0 <= b <= n - 1, f"{key}: bin {b} outside 0..{n - 1}")
    return bins


def _distinct_bins(bins: list, key: str, n: int) -> None:
    """Reject a bin equal, modulo n, to an earlier one of the list."""
    first = {}
    for i, b in enumerate(bins):
        j = first.setdefault(b % n, i)
        _require(i == j, f"{key}: bin {b} repeats bin {bins[j]} (bins equal modulo n = {n} are one cell)")


def _as_list(value, key: str) -> list:
    _require(isinstance(value, list), f"{key} must be a list")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    scatterers: tuple
    wrtr: WrtrConfig
    seed: int = 0
    doppler_cut_range_bins: tuple = ()
    monte_carlo_trials: int = 100

    def to_scene(self) -> ClutterScene:
        return ClutterScene(scatterers=self.scatterers, n=self.n)


_INT_SOLVER_KEYS = {"max_iters", "tcg_max_inner"}


def _solver_config(raw, key: str) -> TrustRegionConfig:
    if raw is None:
        return TrustRegionConfig()
    _require(isinstance(raw, dict), f"{key} must be an object")
    allowed = {f.name for f in dataclass_fields(TrustRegionConfig)}
    unknown = set(raw) - allowed
    _require(not unknown, f"{key}: unknown solver keys {sorted(unknown)}")
    values = {}
    for name, value in raw.items():
        parse = _as_int if name in _INT_SOLVER_KEYS else _as_number
        values[name] = None if value is None and name == "tcg_max_inner" else parse(value, f"{key}.{name}")
    try:
        return TrustRegionConfig(**values)
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}") from exc


# JSON key -> (WrtrConfig field, parser); an absent key keeps WrtrConfig's default.
_WRTR_KEYS = {
    "max_outer": ("max_outer", _as_int),
    "worst_solver": ("worst_solver", _solver_config),
    "seq_solver": ("seq_solver", _solver_config),
}
_KNOWN_KEYS = {
    "n",
    "clutter_blocks",
    "scatterers",
    "doppler_interval",
    "seed",
    "doppler_cut_range_bins",
    "monte_carlo_trials",
    *_WRTR_KEYS,
}


def parse_scenario(raw: dict) -> ScenarioConfig:
    _require(isinstance(raw, dict), "top-level config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    _require(not unknown, f"unknown config keys {sorted(unknown)}")
    _require("n" in raw, "missing required key 'n'")
    n = _as_int(raw["n"], "n")
    _require(n >= 1, "n must be >= 1")

    scatterers = []
    for i, entry in enumerate(_as_list(raw.get("scatterers", []), "scatterers")):
        _require(isinstance(entry, dict), f"scatterers[{i}] must be an object")
        unknown = set(entry) - {"range_shift", "doppler", "power"}
        _require(not unknown, f"scatterers[{i}]: unknown keys {sorted(unknown)}")
        shift = _as_int(entry.get("range_shift"), f"scatterers[{i}].range_shift")
        _require(0 <= shift <= n - 1, f"scatterers[{i}].range_shift {shift} outside 0..{n - 1}")
        power = _as_number(entry.get("power"), f"scatterers[{i}].power")
        _require(power >= 0, f"scatterers[{i}].power must be >= 0")
        doppler = _as_number(entry.get("doppler"), f"scatterers[{i}].doppler")
        scatterers.append(ClutterScatterer(range_shift=shift, doppler=doppler, power=power))
    for i, block in enumerate(_as_list(raw.get("clutter_blocks", []), "clutter_blocks")):
        key = f"clutter_blocks[{i}]"
        _require(isinstance(block, dict), f"{key} must be an object")
        unknown = set(block) - {"range_bins", "doppler_bins", "power_db"}
        _require(not unknown, f"{key}: unknown keys {sorted(unknown)}")
        ranges = _bin_list(block.get("range_bins"), f"{key}.range_bins", n)
        dopplers = _bin_list(block.get("doppler_bins"), f"{key}.doppler_bins", n, doppler=True)
        _distinct_bins(ranges, f"{key}.range_bins", n)
        _distinct_bins(dopplers, f"{key}.doppler_bins", n)
        power_db = _as_number(block.get("power_db"), f"{key}.power_db")
        try:
            power = 10.0 ** (power_db / 10.0)
        except OverflowError:
            raise ScenarioError(f"{key}.power_db {power_db:g} gives a power too large for a float") from None
        for r in ranges:
            for h in dopplers:
                scatterers.append(ClutterScatterer(range_shift=r, doppler=h / n, power=power))
    _require(len(scatterers) >= 1, "scenario defines no clutter scatterers")
    # |s^H Psi_k s| <= amp_k n, so n^2 sum(power) bounds the clutter energy
    # of every code; past a float's range the figures of merit are inf or NaN
    total = sum(sc.power for sc in scatterers)
    _require(
        math.isfinite(n**2 * total),
        f"the clutter energy bound n^2 * total power = {n**2} * {total:g} overflows a float",
    )

    fields = {name: parse(raw[key], key) for key, (name, parse) in _WRTR_KEYS.items() if key in raw}
    _require("doppler_interval" in raw, "missing required key 'doppler_interval'")
    interval = raw["doppler_interval"]
    _require(isinstance(interval, list) and len(interval) == 2, "doppler_interval must be [lo, hi]")
    lo = _as_number(interval[0], "doppler_interval[0]")
    hi = _as_number(interval[1], "doppler_interval[1]")
    _require(lo <= hi, "doppler_interval must satisfy lo <= hi")
    # eps and every nominal SCR are taken at the target's Doppler 0
    _require(lo <= 0.0 <= hi, f"doppler_interval [{lo:g}, {hi:g}] must contain the target's Doppler 0")
    fields["doppler_interval"] = (lo, hi)
    # WrtrConfig checks its own values, so a bad config fails here,
    # before the CLI creates any output.
    try:
        wrtr = WrtrConfig(**fields)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    cut_bins = _bin_list(raw.get("doppler_cut_range_bins", []), "doppler_cut_range_bins", n)
    # each cut is one file, doppler_cut_r<bin>.csv, so a repeat would write it again
    _distinct_bins(cut_bins, "doppler_cut_range_bins", n)

    trials = _as_int(raw.get("monte_carlo_trials", 100), "monte_carlo_trials")
    _require(trials >= 1, "monte_carlo_trials must be >= 1")
    seed = _as_int(raw.get("seed", 0), "seed")
    _require(seed >= 0, "seed must be >= 0")

    return ScenarioConfig(
        n=n,
        scatterers=tuple(scatterers),
        wrtr=wrtr,
        seed=seed,
        doppler_cut_range_bins=tuple(cut_bins),
        monte_carlo_trials=trials,
    )


def read_json(path, what: str):
    """The JSON value in the file at path; what ("config") names the file in a ScenarioError."""

    def unique_keys(pairs):
        # json.load keeps the last of repeated keys, which would drop a setting unseen
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ScenarioError(f"repeated key {key!r} in {what} {path}")
            obj[key] = value
        return obj

    # ValueError: not UTF-8, or an integer past CPython's 4,300 digits; RecursionError: deep nesting
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {what} {path}: line {exc.lineno}: {exc.msg}") from exc
    except ScenarioError:
        raise
    except (OSError, RecursionError, ValueError) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(read_json(path, "config"))
