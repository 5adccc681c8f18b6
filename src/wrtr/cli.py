"""Batch CLI: run robust / baseline designs and export plot-ready files.

Subcommands:
    wrtr        alternating worst-case design from a scenario config
    baseline    rtr_nonrobust | rcg_nonrobust | random comparison designs
    montecarlo  realized-SCR statistics for previously exported designs
    staf        recompute the ambiguity surface for an existing sequence

Exit codes: 0 success, 2 config/input error (no partial outputs),
including a config, designs manifest or sequence file that cannot be
read, decoded or parsed and an --out that cannot be made a directory,
3 solver failure, which includes a design that sees zero clutter
energy, exact or underflowed (its command writes no file), or an array
too large to allocate (a huge n).

A design's figures of merit come from its one radar.figures record. A
figure that would be -inf is null (the worst-case SCR from eps >= 2n on,
an SCR or SCNR at zero steering coupling), so report.json is strict
JSON. `python -m wrtr` and the `wrtr` script call main through
wrtr.__main__.main, which first freezes the imports' objects.
"""

from __future__ import annotations

import argparse
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
from .scenario import ScenarioConfig, ScenarioError, load_scenario, read_json

BASELINE_METHODS = ("rtr_nonrobust", "rcg_nonrobust", "random")
# rtr.solve and rcg.solve_rcg raise FloatingPointError on an overflow or NaN (a huge clutter power)
_SOLVER_ERRORS = (DegenerateSceneError, FloatingPointError)


class _Outputs:
    """A command's output directory, the CSV files written into it and the wall time spent writing them."""

    def __init__(self, directory: Path):
        self.dir = directory
        self.files = []
        self.export_seconds = 0.0

    def write(self, name: str, writer, *args) -> None:
        """Run writer(dir / name, *args), which writes that file, timed; name joins the report's files."""
        started = time.perf_counter()
        writer(self.dir / name, *args)
        self.export_seconds += time.perf_counter() - started
        self.files.append(name)


def _export_staf_products(out: _Outputs, cfg: ScenarioConfig, named_sequences) -> None:
    """Write STAF grids, and Doppler cuts of the last sequence's.

    Each surface is printed from radar.staf_blocks as its row blocks come,
    keeping only the rows of the cuts, so no surface is held whole. A
    sequence that is the same object as the one before it (the random
    baseline's final is its initial) is not computed again: its file is a
    byte copy of the previous one.
    """
    bins, grid = range(cfg.n), np.arange(cfg.n) / cfg.n
    previous = None
    for label, seq in named_sequences:
        name = f"staf_{label}.csv"
        if seq is previous:
            source = out.dir / out.files[-1]
            out.write(name, lambda path: shutil.copyfile(source, path))
        else:
            cuts = {}
            blocks = _keep_rows(radar.staf_blocks(seq), cuts, cfg.doppler_cut_range_bins)
            out.write(name, fileio.write_staf_blocks, cfg.n, blocks)
        previous = seq
    for b in cfg.doppler_cut_range_bins:
        out.write(f"doppler_cut_r{b}.csv", fileio.write_cut_csv, bins, grid, cuts[b])


def _keep_rows(blocks, kept: dict, wanted):
    """Pass row blocks through, copying row r into kept[r] for each r in wanted."""
    first = 0
    for block in blocks:
        for r in wanted:
            if first <= r < first + len(block):
                kept[r] = block[r - first].copy()
        first += len(block)
        yield block


def _write_report(out: _Outputs, command: str, config_path, seed: int, elapsed: float, summary: dict) -> None:
    files = sorted(set(out.files + ["report.json"]))
    fileio.write_report(
        out.dir / "report.json",
        {
            "command": command,
            "config": str(config_path),
            "seed": seed,
            "elapsed_seconds": elapsed,
            # the part of elapsed_seconds spent writing the CSV files; a STAF
            # surface is computed row block by row block as it is written, so
            # its file's time includes the transform
            "export_seconds": out.export_seconds,
            "summary": summary,
            "files": files,
        },
    )
    fileio.check_manifest(out.dir, files)


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


def _export_design(out: _Outputs, cfg: ScenarioConfig, scene, initial, final, sections,
                   final_figures: radar.Figures | None = None) -> dict:
    """Write what every design command exports; returns the summary fields.

    These are the initial and final sequences, traces.csv when a solver
    ran, the STAF products and, when the last section is an RTR sequence
    solve, the Hessian spectrum at the final sequence of the cost it
    minimised. The summary holds the nominal SCRs and, with the spectrum,
    the second-order line: the spectrum's ends and the gradient test of
    that last solve. final_figures is the final sequence's record, when
    the caller has one (wrtr's last pass). Every figure is taken before
    the first file is written, so a design that sees zero clutter energy
    writes nothing.
    """
    spectrum = None
    if sections and sections[-1][1] == "seq":
        # wrtr and rtr_nonrobust both minimised SequenceObjective(scene). A fresh one,
        # taken before the STAF export, reuses the solve's freed memory: nonrobust-n128's
        # rtr_nonrobust command peaked 0.66 MB lower than with the spectrum taken last
        # (median of 15 runs on one vCPU, one BLAS thread)
        spectrum = driver.hessian_spectrum(SequenceObjective(scene), final)
    # a record streams its clutter energy, so the random design builds no
    # clutter weights; its final is its initial, and one record serves both
    start = radar.figures(initial, scene)
    end = start if final is initial else final_figures or radar.figures(final, scene)
    out.write("sequence_initial.csv", fileio.write_sequence_csv, initial)
    out.write("sequence_final.csv", fileio.write_sequence_csv, final)
    if sections:
        out.write("traces.csv", fileio.write_trace_csv, sections)
    _export_staf_products(out, cfg, [("initial", initial), ("final", final)])
    summary = {"nominal_scr_initial_db": start.nominal_scr_db, "nominal_scr_final_db": end.nominal_scr_db}
    if spectrum is not None:
        out.write("hessian_spectrum_seq.csv", fileio.write_spectrum_csv, spectrum)
        last = sections[-1][2]
        summary.update(seq_hessian_lambda_min=float(spectrum[0]), seq_hessian_lambda_max=float(spectrum[-1]),
                       seq_final_grad_norm=last.final_grad_norm, seq_grad_tol_effective=last.grad_tol_effective)
    return summary


def run_wrtr(cfg: ScenarioConfig, out: _Outputs, seed: int) -> dict:
    scene = cfg.to_scene()
    result = driver.optimize(scene, cfg.wrtr, seed)
    sections = [(0, "worst", result.worst_trace)]
    sections += [(k, "seq", it.seq_trace) for k, it in enumerate(result.history)]
    last, worst = result.history[-1], result.worst_trace
    design = _export_design(out, cfg, scene, result.initial_sequence, result.sequence, sections, last.figures)
    out.write("steering_worst.csv", fileio.write_sequence_csv, result.worst_steering)
    if result.epsilon > 0:
        worst_obj = WorstCaseObjective(result.sequence, epsilon=result.epsilon)
        out.write("hessian_spectrum_worst.csv", fileio.write_spectrum_csv,
                  driver.hessian_spectrum(worst_obj, result.worst_steering))

    n, eps = cfg.n, result.epsilon
    if eps >= 2 * n:
        print(f"wrtr: warning: eps = {eps:.6g} >= 2n = {2 * n}: a steering in the ball is orthogonal to "
              "the sequence, so the worst-case SCR is -inf (worst_case_scr_db null)", file=sys.stderr)
    summary = {
        "epsilon": eps,
        "outer_iterations": len(result.history),
        "outer_converged": result.converged,
        "scr_db": last.figures.scr_db,
        "scnr_db": last.figures.scnr_db,
        **design,
        "worst_case_scr_db": last.figures.worst_case_scr_db,
        "certificate": _certificate(result),
        # the one adversary solve; none at eps = 0
        "worst_cost": worst.final_cost if worst is not None else 0.0,
        "worst_hvps": worst.hvps if worst is not None else 0,
        "worst_cost_evals": worst.cost_evals if worst is not None else 0,
        "outer_history": [
            {
                "scr_db": h.figures.scr_db,
                "scnr_db": h.figures.scnr_db,
                "seq_cost": h.seq_trace.final_cost,
                "seq_hvps": h.seq_trace.hvps,
                "seq_cost_evals": h.seq_trace.cost_evals,
            }
            for h in result.history
        ],
    }
    return summary


def run_baseline(cfg: ScenarioConfig, out: _Outputs, seed: int, method: str) -> dict:
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
    return {**summary, **_export_design(out, cfg, scene, initial, final, sections)}


def _load_sequence(path: Path, n: int, label: str):
    """The sequence CSV at path, of length n; label names it in errors."""
    try:
        seq = fileio.read_sequence_csv(path)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{label}: cannot load {path}: {exc}") from exc
    if seq.n != n:
        raise ScenarioError(f"{label}: length {seq.n} does not match config n={n}")
    return seq


def _load_designs(manifest_path: Path, n: int) -> dict:
    manifest = read_json(manifest_path, "designs manifest")
    if not isinstance(manifest, dict) or set(manifest) != {"designs"} or not isinstance(manifest["designs"], list):
        raise ScenarioError("manifest must be an object whose one key, 'designs', holds a list")
    designs = {}
    for i, entry in enumerate(manifest["designs"]):
        if not isinstance(entry, dict) or set(entry) != {"name", "sequence"}:
            raise ScenarioError(f"designs[{i}] must have the keys 'name' and 'sequence' and no other")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            # a name labels its design's scr_stats.csv rows
            raise ScenarioError(f"designs[{i}]: 'name' must be a non-empty string")
        if name in designs:
            # names key the results, so a repeated one would drop a design's rows
            raise ScenarioError(f"designs[{i}]: name {name!r} is already taken by an earlier design")
        if not isinstance(entry["sequence"], str):
            raise ScenarioError(f"designs[{i}] ({name}): 'sequence' must be a path string")
        # relative to the manifest's directory; an absolute path stays as it is
        path = manifest_path.parent / entry["sequence"]
        designs[name] = _load_sequence(path, n, f"designs[{i}] ({name})")
    if not designs:
        raise ScenarioError("manifest lists no designs")
    return designs


def run_monte_carlo(cfg: ScenarioConfig, out: _Outputs, seed: int, designs: dict) -> dict:
    scene = cfg.to_scene()
    # one record per design: both error models read its one clutter energy
    records = {name: radar.figures(seq, scene) for name, seq in designs.items()}
    rows = []
    summary = {"n_trials": cfg.monte_carlo_trials, "designs": {}}
    for model in driver.ERROR_MODELS:
        stats = driver.monte_carlo_scr(
            records,
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
    out.write("scr_stats.csv", fileio.write_mc_csv, rows)
    return summary


def run_staf(cfg: ScenarioConfig, out: _Outputs, sequence_path: Path, seq) -> dict:
    # the record first, so a sequence that sees zero clutter energy writes nothing
    nominal = radar.figures(seq, cfg.to_scene()).nominal_scr_db
    _export_staf_products(out, cfg, [("recomputed", seq)])
    return {"sequence": str(sequence_path), "nominal_scr_db": nominal}


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


def _make_out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # an existing file at --out, or under its path
        raise ScenarioError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every input is checked before --out is made, so a bad one leaves no partial outputs
        cfg = load_scenario(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            raise ScenarioError(f"--seed must be >= 0, got {seed}")
        if args.command == "staf":
            sequence = _load_sequence(Path(args.sequence), cfg.n, "sequence")
        elif args.command == "montecarlo":
            designs = _load_designs(Path(args.designs), cfg.n)
        out = _Outputs(_make_out_dir(args.out))
        started = time.perf_counter()
        if 8 * cfg.n**2 > np.iinfo(np.intp).max:
            # the largest arrays of any command are n x n: the sequence solver's
            # curvature S and dense Hessian, and the matrix a Hessian spectrum
            # fills from rhess. numpy reports an array past its size limit as
            # a ValueError, so such an n is refused here
            raise MemoryError(f"an n x n matrix of n = {cfg.n} (the solver's S and dense Hessian) "
                              "exceeds the largest possible array")
        if args.command == "wrtr":
            summary = run_wrtr(cfg, out, seed)
        elif args.command == "baseline":
            summary = run_baseline(cfg, out, seed, args.method)
        elif args.command == "montecarlo":
            summary = run_monte_carlo(cfg, out, seed, designs)
        else:
            summary = run_staf(cfg, out, Path(args.sequence), sequence)
    except ScenarioError as exc:
        print(f"wrtr: config error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"wrtr: solver failure [{args.command}]: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"wrtr: out of memory [{args.command}]: {exc}", file=sys.stderr)
        return 3
    _write_report(out, args.command, args.config, seed, time.perf_counter() - started, summary)
    print(f"wrtr: {args.command} finished; outputs in {out.dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
