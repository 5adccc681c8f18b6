import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wrtr import fileio, radar, rtr
from wrtr.cli import _export_staf_products, _Outputs, main, run_wrtr
from wrtr.driver import WrtrConfig, hessian_spectrum, optimize
from wrtr.fileio import read_sequence_csv, write_sequence_csv
from wrtr.manifold import random_point
from wrtr.objectives import SequenceObjective
from wrtr.rcg import solve_rcg
from wrtr.rtr import TrustRegionConfig
from wrtr.scenario import ScenarioConfig, load_scenario, parse_scenario

from conftest import scenario1_scene, traced_peak

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SMALL_CONFIG = CONFIGS / "small.json"
DROP = object()  # a config value that deletes its key
# JSON files json cannot read: bytes that are not UTF-8, nesting past the
# recursion limit, and an integer past CPython's 4,300-digit parsing limit
UNDECODABLE_JSON = [
    pytest.param(b"\xff{}", id="not_utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested_100000_deep"),
    pytest.param(b'{"designs": [], "seed": ' + b"7" * 5000 + b"}", id="int_5000_digits"),
]
# a sequence row whose field is past the csv module's 131,072-character limit
LONG_FIELD_ROW = "0," + "1" * 140_000 + ",0\n"


def assert_input_error(capsys, code: int, out: Path) -> str:
    """Exit 2, one "wrtr: config error:" line on stderr and no --out; returns that line."""
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("wrtr: config error: "), err
    return err[0]


def read_report(out_dir: Path) -> dict:
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def csv_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


def read_spectrum(out_dir: Path) -> np.ndarray:
    with open(out_dir / "hessian_spectrum_seq.csv", newline="") as fh:
        return np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])


def assert_second_order(summary: dict, out_dir: Path, trace) -> None:
    """The summary's second-order fields: the exported spectrum's ends and the solve's gradient test."""
    spectrum = read_spectrum(out_dir)
    assert summary["seq_hessian_lambda_min"] == spectrum.min()
    assert summary["seq_hessian_lambda_max"] == spectrum.max()
    assert summary["seq_final_grad_norm"] == trace.final_grad_norm
    assert summary["seq_grad_tol_effective"] == trace.grad_tol_effective


def scenario1_config(doppler_interval) -> ScenarioConfig:
    """Scenario 1 (n = 64, 40 scatterers, seed 2024) built in-process with the given Doppler interval."""
    solver = TrustRegionConfig(max_iters=100, grad_tol=1e-9)
    wrtr = WrtrConfig(doppler_interval=doppler_interval, max_outer=20,
                      worst_solver=solver, seq_solver=solver)
    return ScenarioConfig(n=64, scatterers=scenario1_scene().scatterers, wrtr=wrtr, seed=2024)


class TestSequenceRoundTrip:
    def test_bit_exact(self, tmp_path):
        seq = random_point(33, 11)
        path = tmp_path / "seq.csv"
        write_sequence_csv(path, seq)
        back = read_sequence_csv(path)
        assert np.array_equal(back.entries, seq.entries)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_sequence_csv(path)

    @pytest.mark.parametrize(
        "body",
        ["0,1,0\n0,0,1\n", "1,1,0\n0,0,1\n", "0,1,0\n1.0,0,1\n", "0,1,0\nx,0,1\n", "5,1,0\n5,0,1\n"],
        ids=["repeated", "out_of_order", "float", "text", "both_five"],
    )
    def test_index_must_count_from_zero(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("index,real,imag\n" + body)
        with pytest.raises(ValueError, match="index"):
            read_sequence_csv(path)

    @pytest.mark.parametrize("row", ["1,0.5", "", "1,0.5,0.5,0"], ids=["short", "blank", "long"])
    def test_row_without_three_fields_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"index,real,imag\n0,1,0\n{row}\n2,1,0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_sequence_csv(path)


class TestWrtrCommand:
    def test_full_run_writes_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
        report = read_report(out)
        for name in report["files"]:
            assert (out / name).is_file(), name
        assert "sequence_final.csv" in report["files"]
        assert "doppler_cut_r4.csv" in report["files"]
        assert report["summary"]["outer_iterations"] >= 1

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("n", DROP, id="missing_n"),
            pytest.param("doppler_interval", DROP, id="missing_doppler_interval"),
            ("max_outer", 0),
            # removed keys, rejected as unknown (test_api checks the message)
            ("scnr_tol_db", 0),
            ("interval_grid_points", 0),
            ("lambda", 0),
            ("noise_power", -1),
            ("target_power", 0),
            # json reads NaN and Infinity; none of them is a valid number here
            pytest.param("lambda", math.nan, id="lambda-nan"),
            pytest.param("noise_power", math.nan, id="noise_power-nan"),
            pytest.param("doppler_interval", [-0.05, math.nan], id="doppler_interval-nan"),
            pytest.param("doppler_interval", [-math.inf, 0.01], id="doppler_interval-neg_inf"),
            # eps and the nominal SCRs are taken at the target's Doppler 0
            pytest.param("doppler_interval", [0.1, 0.2], id="doppler_interval-without_0"),
            pytest.param(
                "clutter_blocks",
                [{"range_bins": [3], "doppler_bins": [7], "power_db": math.inf}],
                id="block_power_db-inf",
            ),
            # finite, but 10 ** 400 overflows a float
            pytest.param(
                "clutter_blocks",
                [{"range_bins": [3], "doppler_bins": [7], "power_db": 4000}],
                id="block_power_db-overflow",
            ),
            pytest.param(
                "scatterers",
                [{"range_shift": 2, "doppler": 0.1, "power": math.nan}],
                id="scatterer_power-nan",
            ),
            pytest.param(
                "scatterers",
                [{"range_shift": 2, "doppler": math.inf, "power": 1.0}],
                id="scatterer_doppler-inf",
            ),
            pytest.param(
                "scatterers", [{"range_shift": -1, "doppler": 0.1, "power": 1.0}], id="scatterer_shift-neg"
            ),
            # small.json has n = 16
            pytest.param(
                "scatterers", [{"range_shift": 16, "doppler": 0.1, "power": 1.0}], id="scatterer_shift-n"
            ),
            pytest.param(
                "scatterers", [{"range_shift": 2, "doppler": 0.1, "power": -1.0}], id="scatterer_power-neg"
            ),
            ("seed", -3),
            # a 401-digit integer is a valid json number that no float holds
            pytest.param("noise_power", 10**400, id="noise_power-huge_int"),
            pytest.param("doppler_interval", [-(10**400), 0.05], id="doppler_interval-huge_int"),
            # solver values are checked by type before TrustRegionConfig sees them
            pytest.param("seq_solver", {"max_iters": 30, "grad_tol": math.inf}, id="grad_tol-inf"),
            pytest.param("seq_solver", {"max_iters": 30.5}, id="max_iters-float"),
            pytest.param("worst_solver", {"max_iters": 60, "grad_tol": math.nan}, id="grad_tol-nan"),
            pytest.param("seq_solver", {"tcg_max_inner": 0}, id="tcg_max_inner-0"),
            pytest.param("seq_solver", {"tcg_max_inner": -3}, id="tcg_max_inner-neg"),
            # a {start, stop} bin range is checked before it is expanded
            pytest.param(
                "clutter_blocks",
                [{"range_bins": {"start": 3, "stop": 10**18}, "doppler_bins": [7], "power_db": 10.0}],
                id="range_bins-huge_stop",
            ),
            pytest.param(
                "clutter_blocks",
                [{"range_bins": [3], "doppler_bins": {"start": 3, "stop": 10**18}, "power_db": 10.0}],
                id="doppler_bins-huge_stop",
            ),
            pytest.param(
                "doppler_cut_range_bins", {"start": 3, "stop": 10**18}, id="doppler_cut_range_bins-huge_stop"
            ),
            # the clutter lists must be lists
            pytest.param("scatterers", 5, id="scatterers-int"),
            pytest.param("scatterers", None, id="scatterers-null"),
            pytest.param("clutter_blocks", 5, id="clutter_blocks-int"),
            pytest.param("clutter_blocks", None, id="clutter_blocks-null"),
            # a repeated bin in one block is one cell listed twice; at n = 16,
            # Doppler bins 7 and 23 are one Doppler
            pytest.param(
                "clutter_blocks",
                [{"range_bins": [4, 4], "doppler_bins": [7], "power_db": 10.0}],
                id="range_bins-repeated",
            ),
            pytest.param(
                "clutter_blocks",
                [{"range_bins": [4], "doppler_bins": [7, 23], "power_db": 10.0}],
                id="doppler_bins-repeated_mod_n",
            ),
            # each cut bin names one file, which a repeat would write again
            pytest.param("doppler_cut_range_bins", [4, 4, 4], id="doppler_cut_range_bins-repeated"),
            pytest.param("doppler_cut_range_bins", [3, 4, 3], id="doppler_cut_range_bins-repeated_later"),
            # finite, but n^2 * power, the bound on the clutter energy, is not
            pytest.param(
                "scatterers", [{"range_shift": 2, "doppler": 0.1, "power": 1e308}], id="scatterer_power-huge"
            ),
        ],
    )
    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys, key, value):
        raw = json.loads(SMALL_CONFIG.read_text())
        if value is DROP:
            del raw[key]
        else:
            raw[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "nothing"
        for command in (["wrtr"], ["baseline", "--method", "random"]):
            assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2, command
            assert not out.exists()
            assert len(capsys.readouterr().err.splitlines()) == 1, command

    @pytest.mark.parametrize("body", UNDECODABLE_JSON)
    def test_undecodable_config_exits_2_without_outputs(self, tmp_path, capsys, body):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(body)
        out = tmp_path / "nothing"
        assert_input_error(capsys, main(["wrtr", "--config", str(cfg), "--out", str(out)]), out)

    def test_repeated_config_key_exits_2_without_outputs(self, tmp_path, capsys):
        # json.load keeps the last of a repeated key, which would run small.json at n = 8
        text = SMALL_CONFIG.read_text().rstrip()
        cfg = tmp_path / "repeated.json"
        cfg.write_text(text.removesuffix("}") + ', "n": 8}')
        out = tmp_path / "nothing"
        err = assert_input_error(capsys, main(["wrtr", "--config", str(cfg), "--out", str(out)]), out)
        assert f"repeated key 'n' in config {cfg}" in err

    def test_seed_flag_overrides_config(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out_a), "--seed", "1"])
        main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out_b), "--seed", "2"])
        a = read_sequence_csv(out_a / "sequence_initial.csv")
        b = read_sequence_csv(out_b / "sequence_initial.csv")
        assert not np.allclose(a.entries, b.entries)

    @pytest.mark.parametrize("command", [["wrtr"], ["baseline", "--method", "random"]], ids=["wrtr", "baseline"])
    def test_negative_seed_flag_exits_2_without_outputs(self, tmp_path, command):
        out = tmp_path / "nothing"
        assert main(command + ["--config", str(SMALL_CONFIG), "--out", str(out), "--seed", "-1"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [["wrtr"], ["baseline", "--method", "random"]], ids=["wrtr", "baseline"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "file_sub"])
    def test_out_under_a_file_exits_2(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "taken"
        blocker.write_text("kept")
        out = blocker / "sub" if below else blocker
        assert main([*command, "--config", str(SMALL_CONFIG), "--out", str(out)]) == 2
        assert blocker.read_text() == "kept"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("wrtr: config error: cannot create output directory")

    @pytest.mark.parametrize("command", [["wrtr"], ["baseline", "--method", "random"]], ids=["wrtr", "baseline"])
    def test_unallocatable_n_exits_3(self, tmp_path, capsys, command):
        # each n passes validation; none of its arrays is allocated. Past
        # 1.15e18 an n-entry int64 array overflows numpy's byte count, and
        # 2^63 overflows int64 itself
        for n in (10**18, 2 * 10**18, 2**63):
            raw = json.loads(SMALL_CONFIG.read_text())
            raw.update(n=n, clutter_blocks=[], scatterers=[{"range_shift": 2, "doppler": 0.1, "power": 1.0}])
            cfg = tmp_path / "huge.json"
            cfg.write_text(json.dumps(raw))
            assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("wrtr: out of memory")

    def test_report_certifies_the_worst_case(self, tmp_path):
        # report.json compares |s^H st|^2 with the closed form max(n - eps/2, 0)^2;
        # the shipped small config sits in the eps >= 2n regime, a narrower
        # Doppler interval below it
        out = tmp_path / "shipped"
        assert main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
        cert = read_report(out)["summary"]["certificate"]
        assert cert["eps_ge_2n"] is True
        assert cert["closed_form_gain"] == 0.0 and cert["relative_gap"] is None
        cfg = json.loads(SMALL_CONFIG.read_text())
        cfg["doppler_interval"] = [-0.01, 0.01]
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps(cfg))
        out = tmp_path / "narrow"
        assert main(["wrtr", "--config", str(narrow), "--out", str(out)]) == 0
        summary = read_report(out)["summary"]
        cert = summary["certificate"]
        assert cert["eps_ge_2n"] is False
        assert cert["c"] == pytest.approx(cfg["n"] - summary["epsilon"] / 2, rel=1e-15)
        assert cert["closed_form_gain"] == pytest.approx(cert["c"] ** 2, rel=1e-15)
        assert cert["relative_gap"] < 1e-6

    @pytest.mark.parametrize("command", [["wrtr"], ["baseline", "--method", "rtr_nonrobust"]],
                             ids=["wrtr", "rtr_nonrobust"])
    def test_hessian_spectrum_is_of_the_minimised_cost(self, tmp_path, command):
        # hessian_spectrum_seq.csv is the spectrum at the final sequence of
        # clutter / n^2, the cost both the robust passes and the non-robust
        # baseline minimise
        out = tmp_path / "run"
        assert main([*command, "--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
        s = read_sequence_csv(out / "sequence_final.csv")
        expected = hessian_spectrum(SequenceObjective(load_scenario(SMALL_CONFIG).to_scene()), s)
        with open(out / "hessian_spectrum_seq.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "eigenvalue"]
        exported = np.array([float(r[1]) for r in rows[1:]])
        assert exported.shape == expected.shape
        assert np.max(np.abs(exported - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_report_carries_solver_counters(self, tmp_path):
        # per pass: the sequence solve's counters; the one adversary solve's, once in the summary
        out = tmp_path / "run"
        assert main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
        summary = read_report(out)["summary"]
        passes = summary["outer_history"]
        cfg = load_scenario(SMALL_CONFIG)
        result = optimize(cfg.to_scene(), cfg.wrtr, cfg.seed)
        history = result.history
        assert len(passes) == len(history) >= 2
        for row, it in zip(passes, history):
            assert (row["seq_hvps"], row["seq_cost_evals"]) == (it.seq_trace.hvps, it.seq_trace.cost_evals)
            assert row["seq_cost_evals"] >= 1
        worst = (result.worst_trace.hvps, result.worst_trace.cost_evals)
        assert (summary["worst_hvps"], summary["worst_cost_evals"]) == worst
        assert summary["worst_hvps"] > 0

    def test_summary_carries_the_second_order_line(self, tmp_path):
        out = tmp_path / "run"
        assert main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
        cfg = load_scenario(SMALL_CONFIG)
        last = optimize(cfg.to_scene(), cfg.wrtr, cfg.seed).history[-1]
        assert_second_order(read_report(out)["summary"], out, last.seq_trace)

    def test_worst_case_scr_below_two_n_is_the_scr_of_the_worst_steering(self, tmp_path, capsys):
        # scenario 1 on a sub-bin interval: eps = 69.0 < 2n = 128, and the
        # adversary's steering attains the closed-form coupling (n - eps/2)^2
        cfg = scenario1_config((-0.005, 0.005))
        summary = run_wrtr(cfg, _Outputs(tmp_path), cfg.seed)
        assert summary["epsilon"] == pytest.approx(69.0, abs=0.05)
        s = read_sequence_csv(tmp_path / "sequence_final.csv")
        st = read_sequence_csv(tmp_path / "steering_worst.csv")
        assert summary["worst_case_scr_db"] == pytest.approx(radar.figures(s, cfg.to_scene(), steering=st).scr_db,
                                                              abs=1e-9)
        assert capsys.readouterr().err == ""

    def test_shipped_subbin_config_closes_the_certificate(self, tmp_path, capsys):
        # scenario 1 with doppler_interval [-0.005, 0.005]: eps = 69.0 < 2n = 128
        out = tmp_path / "run"
        assert main(["wrtr", "--config", str(CONFIGS / "scenario1_subbin.json"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        summary = read_report(out)["summary"]
        assert summary["certificate"]["eps_ge_2n"] is False
        assert summary["certificate"]["relative_gap"] <= 1e-6
        assert summary["worst_case_scr_db"] == pytest.approx(summary["scr_db"], abs=1e-9)

    def test_worst_case_scr_is_null_from_two_n_on(self, tmp_path, capsys):
        # scenario 1 as shipped: eps = 154.6 >= 2n, a steering in the ball is
        # orthogonal to any sequence
        cfg = scenario1_config((-0.1, 0.1))
        summary = run_wrtr(cfg, _Outputs(tmp_path), cfg.seed)
        assert summary["epsilon"] > 2 * cfg.n
        assert summary["worst_case_scr_db"] is None
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("wrtr: warning: eps = ")
        assert json.loads(json.dumps(summary))["worst_case_scr_db"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out_a)]) == 0
        assert main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out_b)]) == 0
        assert csv_bytes(out_a) == csv_bytes(out_b)

    def test_sequence_does_not_depend_on_the_doppler_interval(self, tmp_path):
        # scenario 1 at eps = 154.6 and at eps = 69.0: the passes minimise
        # clutter / n^2 either way, so the designs are the same
        finals = []
        for name in ("scenario1.json", "scenario1_subbin.json"):
            out = tmp_path / name
            assert main(["wrtr", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
            finals.append((out / "sequence_final.csv").read_bytes())
        assert finals[0] == finals[1]


class TestBaselineCommand:
    @pytest.mark.parametrize("method", ["rtr_nonrobust", "rcg_nonrobust", "random"])
    def test_methods_run(self, tmp_path, method):
        out = tmp_path / method
        code = main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--method", method])
        assert code == 0
        report = read_report(out)
        assert report["summary"]["method"] == method
        for name in report["files"]:
            assert (out / name).is_file()

    def test_random_baseline_computes_its_one_scr_once(self, tmp_path, monkeypatch):
        # the random design's final sequence is its initial one, so both
        # nominal SCRs are the one clutter energy's
        energies = []
        clutter_energy = radar.clutter_energy

        def recorded(seq, scene):
            energies.append(clutter_energy(seq, scene))
            return energies[-1]

        monkeypatch.setattr(radar, "clutter_energy", recorded)
        out = tmp_path / "random"
        assert main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out), "--method", "random"]) == 0
        summary = read_report(out)["summary"]
        assert len(energies) == 1
        assert summary["nominal_scr_final_db"] == summary["nominal_scr_initial_db"] == 10 * np.log10(16**2 / energies[0])

    def test_rtr_summary_carries_solver_counters(self, tmp_path):
        out = tmp_path / "rtr"
        assert main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--method", "rtr_nonrobust"]) == 0
        summary = read_report(out)["summary"]
        cfg = load_scenario(SMALL_CONFIG)
        _, trace = rtr.solve(SequenceObjective(cfg.to_scene()), random_point(cfg.n, cfg.seed), cfg.wrtr.seq_solver)
        assert (summary["hvps"], summary["cost_evals"]) == (trace.hvps, trace.cost_evals)
        assert summary["hvps"] > summary["iterations"] > 0
        assert_second_order(summary, out, trace)

    def test_rcg_summary_carries_solver_counters(self, tmp_path):
        out = tmp_path / "rcg"
        assert main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--method", "rcg_nonrobust"]) == 0
        summary = read_report(out)["summary"]
        cfg = load_scenario(SMALL_CONFIG)
        solver = cfg.wrtr.seq_solver
        _, trace = solve_rcg(SequenceObjective(cfg.to_scene()), random_point(cfg.n, cfg.seed), solver)
        assert (summary["cost_evals"], summary["grad_evals"]) == (trace.cost_evals, trace.grad_evals)
        assert summary["cost_evals"] > summary["iterations"] > 0

    def test_shared_seeding_across_methods(self, tmp_path):
        outs = {}
        for method in ("rtr_nonrobust", "rcg_nonrobust", "random"):
            out = tmp_path / method
            main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out),
                  "--method", method])
            outs[method] = read_sequence_csv(out / "sequence_initial.csv").entries
        assert np.array_equal(outs["rtr_nonrobust"], outs["rcg_nonrobust"])
        assert np.array_equal(outs["rtr_nonrobust"], outs["random"])

    def test_random_baseline_leaves_sequence_unoptimized(self, tmp_path):
        out = tmp_path / "rand"
        main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out),
              "--method", "random"])
        initial = read_sequence_csv(out / "sequence_initial.csv")
        final = read_sequence_csv(out / "sequence_final.csv")
        assert np.array_equal(initial.entries, final.entries)

    def test_random_baseline_copies_its_one_surface(self, tmp_path):
        out = tmp_path / "rand"
        assert main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--method", "random"]) == 0
        assert (out / "staf_final.csv").read_bytes() == (out / "staf_initial.csv").read_bytes()
        assert {"staf_initial.csv", "staf_final.csv"} <= set(read_report(out)["files"])

    def test_optimized_baseline_writes_two_surfaces(self, tmp_path):
        # the copy is keyed on the sequence object, not on the labels
        out = tmp_path / "rtr"
        assert main(["baseline", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--method", "rtr_nonrobust"]) == 0
        assert (out / "staf_final.csv").read_bytes() != (out / "staf_initial.csv").read_bytes()
        assert {"staf_initial.csv", "staf_final.csv"} <= set(read_report(out)["files"])


class TestMonteCarloCommand:
    def _make_designs(self, tmp_path) -> Path:
        d1 = tmp_path / "d1.csv"
        d2 = tmp_path / "d2.csv"
        write_sequence_csv(d1, random_point(16, 1))
        write_sequence_csv(d2, random_point(16, 2))
        manifest = tmp_path / "designs.json"
        manifest.write_text(json.dumps({"designs": [
            {"name": "one", "sequence": "d1.csv"},
            {"name": "two", "sequence": "d2.csv"},
        ]}))
        return manifest

    def test_runs_both_error_models(self, tmp_path):
        manifest = self._make_designs(tmp_path)
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert code == 0
        table = (out / "scr_stats.csv").read_text().splitlines()
        assert len(table) == 1 + 2 * 2  # header + designs x models
        assert any("uniform_random_phase" in line for line in table)
        assert any("doppler_interval" in line for line in table)

    def test_missing_design_file_exits_2(self, tmp_path):
        manifest = tmp_path / "designs.json"
        manifest.write_text(json.dumps({"designs": [
            {"name": "ghost", "sequence": "missing.csv"}
        ]}))
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("body", UNDECODABLE_JSON)
    def test_undecodable_manifest_exits_2_without_outputs(self, tmp_path, capsys, body):
        manifest = tmp_path / "designs.json"
        manifest.write_bytes(body)
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert_input_error(capsys, code, out)

    @pytest.mark.parametrize("failure", ["unreadable", "long_field"])
    def test_unloadable_design_file_exits_2_without_outputs(self, tmp_path, capsys, monkeypatch, failure):
        manifest = self._make_designs(tmp_path)
        if failure == "unreadable":
            # a file that exists but cannot be read (root reads a mode-000 file, so fake it)
            def refuse(path):
                raise PermissionError(13, "Permission denied", str(path))

            monkeypatch.setattr(fileio, "read_sequence_csv", refuse)
        else:
            (tmp_path / "d2.csv").write_text("index,real,imag\n" + LONG_FIELD_ROW)
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert_input_error(capsys, code, out)

    def test_absolute_sequence_path(self, tmp_path):
        # an absolute path is read as it is, a relative one from the manifest's directory
        manifest = self._make_designs(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "d2.csv").write_bytes((tmp_path / "d2.csv").read_bytes())
        moved = elsewhere / "designs.json"
        moved.write_text(json.dumps({"designs": [
            {"name": "one", "sequence": str(tmp_path / "d1.csv")},
            {"name": "two", "sequence": "d2.csv"},
        ]}))
        tables = []
        for m, out in ((manifest, tmp_path / "a"), (moved, tmp_path / "b")):
            assert main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                         "--designs", str(m)]) == 0
            tables.append((out / "scr_stats.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("names", [["a", "a"], [1, "1"]], ids=["same", "same_after_str"])
    def test_repeated_design_name_exits_2(self, tmp_path, names):
        # designs are keyed by name: a repeat would drop the earlier design's rows
        write_sequence_csv(tmp_path / "d1.csv", random_point(16, 1))
        write_sequence_csv(tmp_path / "d2.csv", random_point(16, 2))
        manifest = tmp_path / "designs.json"
        manifest.write_text(json.dumps({"designs": [
            {"name": names[0], "sequence": "d1.csv"},
            {"name": names[1], "sequence": "d2.csv"},
        ]}))
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("name", [None, ["x"], 3, ""], ids=["null", "list", "int", "empty"])
    def test_name_not_a_nonempty_string_exits_2_without_outputs(self, tmp_path, capsys, name):
        # a name labels its scr_stats.csv rows; null would have written a design called None
        write_sequence_csv(tmp_path / "d1.csv", random_point(16, 1))
        manifest = tmp_path / "designs.json"
        manifest.write_text(json.dumps({"designs": [{"name": name, "sequence": "d1.csv"}]}))
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert "designs[0]: 'name' must be a non-empty string" in assert_input_error(capsys, code, out)

    @pytest.mark.parametrize("sequence", [5, None, ["d1.csv"]], ids=["int", "null", "list"])
    def test_sequence_not_a_path_exits_2(self, tmp_path, sequence):
        manifest = tmp_path / "designs.json"
        manifest.write_text(json.dumps({"designs": [{"name": "one", "sequence": sequence}]}))
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert code == 2
        assert not out.exists()

    def test_repeated_sequence_key_exits_2_without_outputs(self, tmp_path, capsys):
        self._make_designs(tmp_path)
        manifest = tmp_path / "repeated.json"
        manifest.write_text('{"designs": [{"name": "one", "sequence": "d1.csv", "sequence": "d2.csv"}]}')
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(manifest)])
        assert "repeated key 'sequence' in designs manifest" in assert_input_error(capsys, code, out)

    @pytest.mark.parametrize(
        "manifest, message",
        [
            pytest.param({"designs": [{"name": "one", "sequence": "d1.csv"}], "trials": 5},
                         "manifest must be an object whose one key, 'designs', holds a list", id="top_level"),
            pytest.param({"designs": [{"name": "one", "sequence": "d1.csv", "weight": 2}]},
                         "designs[0] must have the keys 'name' and 'sequence' and no other", id="entry"),
        ],
    )
    def test_unknown_manifest_key_exits_2_without_outputs(self, tmp_path, capsys, manifest, message):
        self._make_designs(tmp_path)
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "mc"
        code = main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                     "--designs", str(path)])
        assert message in assert_input_error(capsys, code, out)

    def test_rerun_byte_identical(self, tmp_path):
        manifest = self._make_designs(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["montecarlo", "--config", str(SMALL_CONFIG), "--out", str(out),
                         "--designs", str(manifest)]) == 0
        assert (out_a / "scr_stats.csv").read_bytes() == (out_b / "scr_stats.csv").read_bytes()


class TestStafCommand:
    def test_recompute_for_existing_sequence(self, tmp_path):
        seq_path = tmp_path / "seq.csv"
        write_sequence_csv(seq_path, random_point(16, 5))
        out = tmp_path / "staf"
        code = main(["staf", "--config", str(SMALL_CONFIG), "--out", str(out), str(seq_path)])
        assert code == 0
        report = read_report(out)
        assert "staf_recomputed.csv" in report["files"]

    @pytest.mark.parametrize(
        "body",
        # small.json has n = 16: the third case has the right length, row 3 indexed 2
        ["0,1,0\n1,1\n", None, "".join(f"{i - (i == 3)},1,0\n" for i in range(16)),
         LONG_FIELD_ROW],
        ids=["short_row", "missing", "repeated_index", "long_field"],
    )
    def test_bad_sequence_exits_2_without_outputs(self, tmp_path, capsys, body):
        # the sequence is read before --out is created, as the montecarlo manifest is
        seq_path = tmp_path / "seq.csv"
        if body is not None:
            seq_path.write_text("index,real,imag\n" + body)
        out = tmp_path / "staf"
        code = main(["staf", "--config", str(SMALL_CONFIG), "--out", str(out), str(seq_path)])
        assert_input_error(capsys, code, out)

    def test_length_mismatch_exits_2(self, tmp_path):
        seq_path = tmp_path / "seq.csv"
        write_sequence_csv(seq_path, random_point(8, 5))
        out = tmp_path / "staf"
        code = main(["staf", "--config", str(SMALL_CONFIG), "--out", str(out), str(seq_path)])
        assert code == 2
        assert not out.exists()


    def test_export_memory_is_rows_not_the_surface(self, tmp_path):
        # at n = 1024 the dB surface alone is 8 MB; the export holds the
        # transform's two row buffers (384 kB), the printer's block and the
        # two cut rows, and its Doppler cuts equal the whole surface's rows
        n = 1024
        cfg = parse_scenario({"n": n, "doppler_interval": [0.0, 0.0], "doppler_cut_range_bins": [0, 700],
                              "scatterers": [{"range_shift": 1, "doppler": 0.1, "power": 1.0}]})
        seq = random_point(n, 49)
        out = _Outputs(tmp_path)
        _, peak = traced_peak(lambda: _export_staf_products(out, cfg, [("recomputed", seq)]))
        assert peak <= 3 * 2**20
        assert out.files == ["staf_recomputed.csv", "doppler_cut_r0.csv", "doppler_cut_r700.csv"]
        surface = radar.staf(seq)
        for b in (0, 700):
            expected = tmp_path / f"expected_r{b}.csv"
            fileio.write_cut_csv(expected, range(n), np.arange(n) / n, surface[b])
            assert (tmp_path / f"doppler_cut_r{b}.csv").read_bytes() == expected.read_bytes()


class TestOneClutterBankPerCommand:
    @pytest.fixture
    def banks(self, monkeypatch):
        built = []
        init = radar.ClutterBank.__init__

        def recorded(self, scene):
            built.append(self)
            init(self, scene)

        monkeypatch.setattr(radar.ClutterBank, "__init__", recorded)
        return built

    @pytest.fixture
    def energies(self, monkeypatch):
        taken = []
        quadratic_forms = radar.ClutterBank.quadratic_forms

        def recorded(self, s):
            taken.append(s)
            return quadratic_forms(self, s)

        monkeypatch.setattr(radar.ClutterBank, "quadratic_forms", recorded)
        return taken

    # only the solvers build the bank's weights; the figures of merit stream
    # them, one clutter energy per design record: wrtr's two passes and its
    # start, a baseline's start and final (the random design's are one) and
    # each montecarlo design once for both error models
    @pytest.mark.parametrize(
        "command, weight_builds, streamed_energies",
        [
            (["wrtr"], 1, 3),
            (["baseline", "--method", "rtr_nonrobust"], 1, 2),
            (["baseline", "--method", "rcg_nonrobust"], 1, 2),
            (["baseline", "--method", "random"], 0, 1),
            (["montecarlo", "--designs", "{designs}"], 0, 2),
            (["staf", "{sequence}"], 0, 1),
        ],
        ids=["wrtr", "rtr_nonrobust", "rcg_nonrobust", "random", "montecarlo", "staf"],
    )
    def test_each_command_builds_one_bank(self, tmp_path, banks, energies, command, weight_builds,
                                          streamed_energies):
        write_sequence_csv(tmp_path / "seq.csv", random_point(16, 1))
        (tmp_path / "designs.json").write_text(json.dumps({"designs": [
            {"name": "one", "sequence": "seq.csv"},
            {"name": "two", "sequence": "seq.csv"},
        ]}))
        args = [a.format(designs=tmp_path / "designs.json", sequence=tmp_path / "seq.csv") for a in command]
        assert main(args + ["--config", str(SMALL_CONFIG), "--out", str(tmp_path / "out")]) == 0
        assert len(banks) == 1
        # the weights are a cached property: built at most once per bank
        assert sum("_weights" in vars(bank) for bank in banks) == weight_builds
        assert len(energies) == streamed_energies
        if command == ["wrtr"]:
            assert len(read_report(tmp_path / "out")["summary"]["outer_history"]) + 1 == streamed_energies


class TestExports:
    @pytest.mark.parametrize(
        "command",
        [["wrtr"], ["baseline", "--method", "rtr_nonrobust"], ["baseline", "--method", "rcg_nonrobust"],
         ["baseline", "--method", "random"]],
        ids=["wrtr", "rtr_nonrobust", "rcg_nonrobust", "random"],
    )
    def test_every_written_file_is_listed(self, tmp_path, command):
        out = tmp_path / "out"
        assert main(command + ["--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == read_report(out)["files"]

    def test_every_report_times_its_csv_writes(self, tmp_path):
        # a timing goes in report.json only; the CSVs stay byte-deterministic
        design = tmp_path / "random"
        manifest = tmp_path / "designs.json"
        manifest.write_text(json.dumps({"designs": [{"name": "random", "sequence": "random/sequence_final.csv"}]}))
        commands = {
            "wrtr": ["wrtr"],
            "random": ["baseline", "--method", "random"],
            "montecarlo": ["montecarlo", "--designs", str(manifest)],
            "staf": ["staf", str(design / "sequence_final.csv")],
        }
        for name, command in commands.items():
            out = tmp_path / name
            assert main(command + ["--config", str(SMALL_CONFIG), "--out", str(out)]) == 0, name
            report = read_report(out)
            assert 0.0 <= report["export_seconds"] <= report["elapsed_seconds"], name
            assert not any(b"export_seconds" in body for body in csv_bytes(out).values()), name


class TestZeroClutterScene:
    @pytest.mark.parametrize(
        "command",
        [
            ["wrtr"],
            ["baseline", "--method", "rtr_nonrobust"],
            ["baseline", "--method", "rcg_nonrobust"],
            ["baseline", "--method", "random"],
            ["montecarlo", "--designs", "{designs}"],
            ["staf", "{sequence}"],
        ],
        ids=["wrtr", "rtr_nonrobust", "rcg_nonrobust", "random", "montecarlo", "staf"],
    )
    def test_exits_3_with_one_line(self, tmp_path, capsys, command):
        # no design has a finite SCR against a scene whose only scatterer has zero power
        raw = json.loads(SMALL_CONFIG.read_text())
        del raw["clutter_blocks"]
        raw["scatterers"] = [{"range_shift": 3, "doppler": 0.1, "power": 0}]
        config = tmp_path / "zero.json"
        config.write_text(json.dumps(raw))
        write_sequence_csv(tmp_path / "seq.csv", random_point(16, 1))
        (tmp_path / "designs.json").write_text(json.dumps({"designs": [{"name": "one", "sequence": "seq.csv"}]}))
        args = [a.format(designs=tmp_path / "designs.json", sequence=tmp_path / "seq.csv") for a in command]
        assert main(args + ["--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"wrtr: solver failure [{command[0]}]: ")


class TestHugeClutterPower:
    @pytest.mark.parametrize("power", [1e105, 1e200])
    @pytest.mark.parametrize(
        "command",
        [["wrtr"], ["baseline", "--method", "rtr_nonrobust"], ["baseline", "--method", "rcg_nonrobust"]],
        ids=["wrtr", "rtr_nonrobust", "rcg_nonrobust"],
    )
    def test_overflow_exits_3_with_one_line(self, tmp_path, capsys, command, power):
        # a finite power whose curvature terms overflow float64: the solvers
        # raise on the overflow instead of returning NaN or an unmoved start.
        # RCG uses no Hessian and still designs at 1e105
        raw = json.loads(SMALL_CONFIG.read_text())
        del raw["clutter_blocks"]
        raw["scatterers"] = [{"range_shift": 2, "doppler": 0.1, "power": power}]
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(raw))
        code = main(command + ["--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        if command[-1] == "rcg_nonrobust" and power == 1e105:
            assert code == 0 and err == []
        else:
            assert code == 3
            assert len(err) == 1 and err[0].startswith(f"wrtr: solver failure [{command[0]}]: ")


def _strict_json_constant(name):
    raise ValueError(f"report.json holds {name}")


class TestSubnormalClutterPower:
    @pytest.mark.parametrize("power", [5e-324, 1e-310])
    def test_every_command_writes_finite_figures(self, tmp_path, power):
        # one identity scatterer: every design sees the energy power * n^2,
        # subnormal or nearly so, and n^2 over it overflows a double. Every
        # figure is finite (the suite turns an overflow warning into an
        # error), and every report.json is strict JSON
        raw = {"n": 9, "doppler_interval": [-0.01, 0.01], "seed": 3, "max_outer": 3,
               "scatterers": [{"range_shift": 0, "doppler": 0.0, "power": power}]}
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(raw))
        (tmp_path / "designs.json").write_text(json.dumps({"designs": [
            {"name": "random", "sequence": "random/sequence_final.csv"},
            {"name": "rtr", "sequence": "rtr_nonrobust/sequence_final.csv"},
        ]}))
        commands = {
            "wrtr": ["wrtr"],
            "rtr_nonrobust": ["baseline", "--method", "rtr_nonrobust"],
            "rcg_nonrobust": ["baseline", "--method", "rcg_nonrobust"],
            "random": ["baseline", "--method", "random"],
            "montecarlo": ["montecarlo", "--designs", str(tmp_path / "designs.json")],
            "staf": ["staf", str(tmp_path / "random" / "sequence_final.csv")],
        }
        for name, command in commands.items():
            out = tmp_path / name
            assert main([*command, "--config", str(config), "--out", str(out)]) == 0, name
            report = json.loads((out / "report.json").read_text(), parse_constant=_strict_json_constant)
            summary = report["summary"]
            figures = [v for k, v in summary.items() if k.endswith("_db")]
            figures += [st[k] for d in summary.get("designs", {}).values() for st in d.values()
                        for k in ("mean_db", "min_db", "max_db")]
            assert figures and all(math.isfinite(v) for v in figures), name

    @pytest.mark.parametrize("command", [["wrtr"], ["baseline", "--method", "rtr_nonrobust"],
                                         ["baseline", "--method", "rcg_nonrobust"],
                                         ["baseline", "--method", "random"], ["staf"]])
    def test_an_underflowing_energy_exits_3_and_writes_nothing(self, tmp_path, capsys, command):
        # the seed-3 start sees an energy that underflows to exactly 0 (so do
        # 204 of seeds 0-2999); each command takes its records before it writes
        raw = {"n": 9, "doppler_interval": [-0.01, 0.01],
               "scatterers": [{"range_shift": 2, "doppler": 0.1, "power": 5e-324}]}
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(raw))
        if command == ["staf"]:
            write_sequence_csv(tmp_path / "start.csv", random_point(9, 3))
            command = ["staf", str(tmp_path / "start.csv")]
        out = tmp_path / "out"
        assert main([*command, "--config", str(config), "--out", str(out), "--seed", "3"]) == 3
        err = capsys.readouterr().err
        assert "clutter energy underflowed to 0 (the largest scatterer power is 4.94e-324)" in err
        assert list(out.iterdir()) == []

    def test_an_infinite_figure_is_not_written(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_report(tmp_path / "report.json", {"summary": {"scr_db": float("inf")}})


def test_module_entry_point(tmp_path):
    # python -m wrtr in a fresh interpreter, under the warning filters pyproject.toml gives pytest;
    # its entry freezes the imports' objects first, and writes what main writes in-process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONWARNINGS": "error::RuntimeWarning,error::DeprecationWarning,error::PendingDeprecationWarning"}
    args = ["baseline", "--method", "random", "--config", str(SMALL_CONFIG)]
    out = tmp_path / "random"
    done = subprocess.run([sys.executable, "-m", "wrtr", *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # stdout is flushed at exit, frozen objects or not
    assert done.stdout == f"wrtr: baseline finished; outputs in {out}\n"
    assert read_report(out)["command"] == "baseline"
    assert main([*args, "--out", str(tmp_path / "in_process")]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in (tmp_path / "in_process").iterdir())
    assert csv_bytes(out) == csv_bytes(tmp_path / "in_process")
