"""Batch CLI: run robust / baseline designs and export plot-ready files.

Subcommands:
    wrtr        alternating worst-case design from a scenario config
    baseline    rtr_nonrobust | rcg_nonrobust | random comparison designs
    montecarlo  realized-SCR statistics for previously exported designs
    staf        recompute the ambiguity surface for an existing sequence

Exit codes: 0 success, 2 config/input error (no partial outputs),
3 solver failure, which includes a design that sees zero clutter energy.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import driver, fileio, radar, rtr
from .manifold import random_point
from .objectives import SequenceObjective, WorstCaseObjective, worst_case_gain
from .radar import DegenerateSceneError
from .rcg import solve_rcg
from .scenario import ScenarioConfig, ScenarioError, load_scenario

BASELINE_METHODS = ("rtr_nonrobust", "rcg_nonrobust", "random")
# rtr.solve and rcg.solve_rcg raise FloatingPointError on an overflow or NaN (a huge clutter power)
_SOLVER_ERRORS = (DegenerateSceneError, FloatingPointError)


def _nominal_scr_db(seq, scene) -> float:
    energy = radar.clutter_energy(seq, scene)
    if energy == 0.0:
        raise DegenerateSceneError("the sequence sees zero clutter energy, so its nominal SCR is infinite")
    return 10.0 * np.log10(seq.n**2 / energy)


def _export_staf_products(out: Path, cfg: ScenarioConfig, named_sequences) -> list:
    """Write STAF grids, and Doppler cuts of the last sequence's; returns the file names.

    A sequence that is the same object as the one before it (the random
    baseline's final is its initial) is not computed again: its file is a
    byte copy of the previous one.
    """
    bins, grid = list(range(cfg.n)), np.arange(cfg.n) / cfg.n
    files = []
    previous = None
    for label, seq in named_sequences:
        name = f"staf_{label}.csv"
        if seq is previous:
            shutil.copyfile(out / files[-1], out / name)
        else:
            full = radar.staf(seq, bins)
            fileio.write_staf_csv(out / name, bins, bins, full)
        files.append(name)
        previous = seq
    for b in cfg.doppler_cut_range_bins:
        name = f"doppler_cut_r{b}.csv"
        fileio.write_cut_csv(out / name, bins, grid, full[b])
        files.append(name)
    return files


def _write_report(out: Path, command: str, config_path, seed: int, elapsed: float, summary: dict,
                  files: list) -> None:
    files = sorted(set(files + ["report.json"]))
    fileio.write_report(
        out / "report.json",
        {
            "command": command,
            "config": str(config_path),
            "seed": seed,
            "elapsed_seconds": elapsed,
            "summary": summary,
            "files": files,
        },
    )
    fileio.check_manifest(out, files)


def _certificate(result: driver.WrtrResult) -> dict:
    """The adversary's coupling |s^H st|^2 against the closed-form worst case (a report only)."""
    n, eps = result.sequence.n, result.epsilon
    closed = worst_case_gain(n, eps)
    achieved = abs(complex(np.vdot(result.sequence.entries, result.worst_steering.entries))) ** 2
    return {
        "c": n - 0.5 * eps,
        "closed_form_gain": closed,
        "achieved_gain": achieved,
        # undefined once eps >= 2n, where the closed-form gain is 0
        "relative_gap": abs(achieved - closed) / closed if closed > 0 else None,
        "eps_ge_2n": eps >= 2 * n,
    }


def _export_design(out: Path, cfg: ScenarioConfig, scene, initial, final, sections) -> tuple:
    """Write what every design command exports; returns the file names and the summary fields.

    These are the initial and final sequences, traces.csv when a solver
    ran, the STAF products and, when the last section is an RTR sequence
    solve, the Hessian spectrum at the final sequence of the cost it
    minimised. The summary holds the nominal SCRs and, with the spectrum,
    the second-order line: the spectrum's ends and the gradient test of
    that last solve.
    """
    fileio.write_sequence_csv(out / "sequence_initial.csv", initial)
    fileio.write_sequence_csv(out / "sequence_final.csv", final)
    files = ["sequence_initial.csv", "sequence_final.csv"]
    if sections:
        fileio.write_trace_csv(out / "traces.csv", sections)
        files.append("traces.csv")
    files += _export_staf_products(out, cfg, [("initial", initial), ("final", final)])
    # after the STAF surfaces: for the random design this builds the scene's clutter
    # bank, and holding it while they are computed raised the peak RSS of the
    # analysis-n1024 benchmark's random baseline from 44.9 to 52.7 MB
    summary = {
        "nominal_scr_initial_db": _nominal_scr_db(initial, scene),
        "nominal_scr_final_db": _nominal_scr_db(final, scene),
    }
    if sections and sections[-1][1] == "seq":
        # wrtr and rtr_nonrobust both minimised SequenceObjective(scene); a fresh
        # one, as the solve's would hold its last point's Hessian factor through
        # the STAF export above
        spectrum = driver.hessian_spectrum(SequenceObjective(scene), final)
        fileio.write_spectrum_csv(out / "hessian_spectrum_seq.csv", spectrum)
        files.append("hessian_spectrum_seq.csv")
        last = sections[-1][2]
        summary.update(seq_hessian_lambda_min=float(spectrum[0]), seq_hessian_lambda_max=float(spectrum[-1]),
                       seq_final_grad_norm=last.final_grad_norm, seq_grad_tol_effective=last.grad_tol_effective)
    return files, summary


def run_wrtr(cfg: ScenarioConfig, out: Path, seed: int) -> tuple:
    scene = cfg.to_scene()
    result = driver.optimize(scene, cfg.wrtr, seed)
    sections = [(0, "worst", result.worst_trace)]
    sections += [(k, "seq", it.seq_trace) for k, it in enumerate(result.history)]
    files, design = _export_design(out, cfg, scene, result.initial_sequence, result.sequence, sections)
    fileio.write_sequence_csv(out / "steering_worst.csv", result.worst_steering)
    files.append("steering_worst.csv")
    if result.epsilon > 0:
        worst_obj = WorstCaseObjective(result.sequence, lam=cfg.wrtr.lam, epsilon=result.epsilon)
        fileio.write_spectrum_csv(
            out / "hessian_spectrum_worst.csv",
            driver.hessian_spectrum(worst_obj, result.worst_steering),
        )
        files.append("hessian_spectrum_worst.csv")

    last, worst = result.history[-1], result.worst_trace
    n, eps = cfg.n, result.epsilon
    if eps >= 2 * n:
        print(f"wrtr: warning: eps = {eps:.6g} >= 2n = {2 * n}: a steering in the ball is orthogonal to "
              "the sequence, so the worst-case SCR is -inf (worst_case_scr_db null)", file=sys.stderr)
    summary = {
        "epsilon": eps,
        "outer_iterations": len(result.history),
        "outer_converged": result.converged,
        "scr_db": last.scr_db,
        "scnr_db": last.scnr_db,
        **design,
        # the worst coupling over the ball is (n - eps/2)^2 for every design
        "worst_case_scr_db": (design["nominal_scr_final_db"] + 20.0 * np.log10(1.0 - eps / (2 * n))
                              if eps < 2 * n else None),
        "certificate": _certificate(result),
        # the one adversary solve; none at eps = 0
        "worst_cost": worst.final_cost if worst is not None else 0.0,
        "worst_hvps": worst.hvps if worst is not None else 0,
        "worst_cost_evals": worst.cost_evals if worst is not None else 0,
        "outer_history": [
            {
                "scr_db": h.scr_db,
                "scnr_db": h.scnr_db,
                "seq_cost": h.seq_trace.final_cost,
                "seq_hvps": h.seq_trace.hvps,
                "seq_cost_evals": h.seq_trace.cost_evals,
            }
            for h in result.history
        ],
    }
    return summary, files


def run_baseline(cfg: ScenarioConfig, out: Path, seed: int, method: str) -> tuple:
    if method not in BASELINE_METHODS:
        raise ScenarioError(f"unknown baseline method {method!r}")
    scene = cfg.to_scene()
    initial = random_point(cfg.n, seed)
    summary = {"method": method}
    if method == "random":
        final, sections = initial, []
    elif method == "rtr_nonrobust":
        final, trace = rtr.solve(SequenceObjective(scene), initial, cfg.wrtr.seq_solver)
        sections = [(0, "seq", trace)]
        summary.update(iterations=len(trace), converged=trace.converged, hvps=trace.hvps,
                       cost_evals=trace.cost_evals)
    else:
        final, trace = solve_rcg(SequenceObjective(scene), initial, cfg.wrtr.seq_solver)
        sections = [(0, "rcg", trace)]
        summary.update(iterations=len(trace), converged=trace.converged, cost_evals=trace.cost_evals,
                       grad_evals=trace.grad_evals)
    files, design = _export_design(out, cfg, scene, initial, final, sections)
    return {**summary, **design}, files


def _load_designs(manifest_path: Path, n: int) -> dict:
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read designs manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in manifest {manifest_path}: {exc.msg}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("designs"), list):
        raise ScenarioError("manifest must be an object with a 'designs' list")
    designs = {}
    for i, entry in enumerate(manifest["designs"]):
        if not isinstance(entry, dict) or "name" not in entry or "sequence" not in entry:
            raise ScenarioError(f"designs[{i}] must have 'name' and 'sequence' keys")
        name = str(entry["name"])
        if name in designs:
            # names key the results, so a repeated one would drop a design's rows
            raise ScenarioError(f"designs[{i}]: name {name!r} is already taken by an earlier design")
        if not isinstance(entry["sequence"], str):
            raise ScenarioError(f"designs[{i}] ({entry['name']}): 'sequence' must be a path string")
        path = Path(entry["sequence"])
        if not path.is_absolute():
            path = manifest_path.parent / path
        if not path.is_file():
            raise ScenarioError(f"designs[{i}] ({entry['name']}): missing sequence file {path}")
        try:
            seq = fileio.read_sequence_csv(path)
        except ValueError as exc:
            raise ScenarioError(f"designs[{i}] ({entry['name']}): {exc}") from exc
        if seq.n != n:
            raise ScenarioError(
                f"designs[{i}] ({entry['name']}): length {seq.n} does not match config n={n}"
            )
        designs[name] = seq
    if not designs:
        raise ScenarioError("manifest lists no designs")
    return designs


def run_monte_carlo(cfg: ScenarioConfig, out: Path, seed: int, designs: dict) -> tuple:
    scene = cfg.to_scene()
    rows = []
    summary = {"n_trials": cfg.monte_carlo_trials, "designs": {}}
    for model in driver.ERROR_MODELS:
        stats = driver.monte_carlo_scr(
            designs,
            scene,
            n_trials=cfg.monte_carlo_trials,
            error_model=model,
            seed=seed,
            doppler_interval=cfg.wrtr.doppler_interval,
        )
        for name, st in stats.items():
            rows.append((name, model, st))
            summary["designs"].setdefault(name, {})[model] = {
                "mean_db": st.mean_db,
                "std_db": st.std_db,
                "min_db": st.min_db,
                "max_db": st.max_db,
            }
    fileio.write_mc_csv(out / "scr_stats.csv", rows)
    return summary, ["scr_stats.csv"]


def _load_sequence(path: Path, n: int):
    try:
        seq = fileio.read_sequence_csv(path)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot load sequence {path}: {exc}") from exc
    if seq.n != n:
        raise ScenarioError(f"sequence length {seq.n} does not match config n={n}")
    return seq


def run_staf(cfg: ScenarioConfig, out: Path, sequence_path: Path, seq) -> tuple:
    files = _export_staf_products(out, cfg, [("recomputed", seq)])
    summary = {"sequence": str(sequence_path), "nominal_scr_db": _nominal_scr_db(seq, cfg.to_scene())}
    return summary, files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wrtr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_wrtr = sub.add_parser("wrtr", help="robust worst-case design")
    common(p_wrtr)
    p_base = sub.add_parser("baseline", help="non-robust / random comparison designs")
    common(p_base)
    p_base.add_argument("--method", required=True, choices=BASELINE_METHODS)
    p_mc = sub.add_parser("montecarlo", help="Monte-Carlo realized SCR")
    common(p_mc)
    p_mc.add_argument("--designs", required=True, help="designs manifest (JSON)")
    p_staf = sub.add_parser("staf", help="recompute STAF for a sequence file")
    common(p_staf)
    p_staf.add_argument("sequence", help="sequence CSV to analyze")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Validate every input before creating any output, so a bad config
    # leaves no partial artifacts behind.
    try:
        cfg = load_scenario(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            raise ScenarioError(f"--seed must be >= 0, got {seed}")
        designs = sequence = None
        if args.command == "staf":
            sequence = _load_sequence(Path(args.sequence), cfg.n)
        elif args.command == "montecarlo":
            if cfg.wrtr.doppler_interval is None:
                raise ScenarioError("montecarlo needs doppler_interval in the config")
            designs = _load_designs(Path(args.designs), cfg.n)
    except ScenarioError as exc:
        print(f"wrtr: config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.command == "wrtr":
            summary, files = run_wrtr(cfg, out, seed)
        elif args.command == "baseline":
            summary, files = run_baseline(cfg, out, seed, args.method)
        elif args.command == "montecarlo":
            summary, files = run_monte_carlo(cfg, out, seed, designs)
        else:
            summary, files = run_staf(cfg, out, Path(args.sequence), sequence)
    except ScenarioError as exc:
        print(f"wrtr: config error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"wrtr: solver failure [{args.command}]: {exc}", file=sys.stderr)
        return 3
    _write_report(out, args.command, args.config, seed, time.perf_counter() - started, summary, files)
    print(f"wrtr: {args.command} finished; outputs in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
