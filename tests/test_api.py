import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import wrtr
from wrtr import cli, driver, fileio, manifold, objectives, radar, rcg, rtr
from wrtr.cli import main
from wrtr.driver import OuterIteration, WrtrConfig, WrtrResult, monte_carlo_scr
from wrtr.manifold import UnitModulusSequence, random_point, random_tangent
from wrtr.objectives import SequenceObjective, WorstCaseObjective
from wrtr.radar import ClutterBank
from wrtr.rtr import TrustRegionConfig, TrustRegionTrace
from wrtr.scenario import ScenarioConfig

from conftest import random_scene

SMALL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "small.json"

DELETED = ("TangentVector", "zero_tangent", "DegenerateRetractionError", "tangent_basis",
           "NearOrthogonalSteeringError", "steering_vector",
           # every SCR, SCNR and worst case is read from a radar.figures record
           "scr", "scnr", "_coupling_db", "_nominal_scr_db",
           # RCG writes rtr.TrustRegionIteration rows
           "RcgIteration")
# the ambient (Wirtinger) derivative convention; derivatives are phase coordinates only
DELETED_METHODS = (
    (ClutterBank, "apply"),
    (ClutterBank, "apply_adjoint"),
    (WorstCaseObjective, "egrad"),
    (WorstCaseObjective, "ehess_dir"),
    (SequenceObjective, "egrad"),
    # every caller reads UnitModulusSequence.n
    (UnitModulusSequence, "__len__"),
    # a cost is cost, rgrad and rhess; driver.hessian_matrix builds the matrix from rhess
    (WorstCaseObjective, "hessian_matrix"),
    (SequenceObjective, "hessian_matrix"),
)


def test_every_exported_name_resolves():
    # the package re-exports nothing, so each name has one import path: the
    # module that defines it; once every submodule is imported, they are
    # the package's only public attributes, and its docstring maps each one
    submodules = {info.name for info in pkgutil.iter_modules(wrtr.__path__)} - {"__main__"}
    for name in submodules:
        importlib.import_module(f"wrtr.{name}")
    public = {name for name in vars(wrtr) if not name.startswith("_")}
    assert public == submodules
    assert all(isinstance(getattr(wrtr, name), types.ModuleType) for name in public)
    assert not hasattr(wrtr, "__all__") and not hasattr(wrtr, "__version__")
    assert set(re.findall(r"^    (\w+)  ", wrtr.__doc__, re.MULTILINE)) == submodules


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert not any(hasattr(module, name) for module in (manifold, driver, objectives, radar, rcg, cli))


def test_deleted_methods_are_gone():
    present = [f"{cls.__name__}.{name}" for cls, name in DELETED_METHODS if hasattr(cls, name)]
    assert present == []


def test_deleted_parameters_are_gone():
    # each scene has one ClutterBank, so no caller passes precomputed clutter work
    assert "energies" not in inspect.signature(monte_carlo_scr).parameters
    # the report's seed is main's, and recomputing a STAF draws nothing
    assert "seed" not in inspect.signature(cli.run_staf).parameters
    # the sequence passes minimise clutter / n^2, so no relative distortion
    # reaches the sequence cost and the design exports build their own spectrum cost
    assert "distortion" not in inspect.signature(SequenceObjective).parameters
    assert "distortion" not in {f.name for f in dataclasses.fields(WrtrResult)}
    assert not hasattr(objectives, "NEAR_ORTHOGONAL_RTOL")
    assert "objective" not in inspect.signature(cli._export_design).parameters
    # tCG's iterates are reached by capping its inner iterations, not by a hook
    assert "on_iterate" not in inspect.signature(rtr.tcg).parameters


def test_one_adversary_record_and_one_solver_config():
    # the adversary is solved once per design, so a pass carries no adversary
    # record; RCG reads the trust-region solver's config
    fields = {f.name for f in dataclasses.fields(OuterIteration)}
    assert not fields & {"worst_trace", "worst_cost"}
    assert not hasattr(rcg, "RcgConfig")


def test_each_solve_is_recorded_once():
    # RTR and RCG share one trace type, costs are read from the traces, the
    # non-robust baseline calls rtr.solve itself and main writes the report
    for module, name in ((driver, "design_nonrobust"), (rcg, "RcgTrace"), (cli, "RunReport")):
        assert not hasattr(module, name)
    assert "worst_cost" not in {f.name for f in dataclasses.fields(WrtrResult)}
    assert "seq_cost" not in {f.name for f in dataclasses.fields(OuterIteration)}
    scene = random_scene(16, 40, np.random.default_rng(5))
    cfg = TrustRegionConfig(max_iters=5)
    _, trace = rcg.solve_rcg(SequenceObjective(scene), random_point(scene.n, 5), cfg)
    assert type(trace) is TrustRegionTrace
    assert trace.hvps == 0
    assert trace.grad_tol_effective == cfg.grad_tol * trace.initial_grad_norm


def test_solver_config_holds_only_the_stopping_rules():
    # the trust-region radii and thresholds are rtr constants, and STAF
    # files always hold every range bin
    fields = {f.name for f in dataclasses.fields(TrustRegionConfig)}
    assert fields == {"grad_tol", "max_iters", "tcg_max_inner"}
    assert not hasattr(TrustRegionConfig, "resolved_radii")
    assert "staf_range_bins" not in {f.name for f in dataclasses.fields(ScenarioConfig)}


def test_one_valued_settings_are_constants():
    # the penalty weight, the SCNR stop and the Doppler grid are constants,
    # powers are in noise units with a unit target power, and the Doppler
    # interval is the one uncertainty input
    fields = {f.name for f in dataclasses.fields(WrtrConfig)}
    assert fields == {"doppler_interval", "max_outer", "worst_solver", "seq_solver"}
    assert "lam" not in inspect.signature(WorstCaseObjective).parameters
    assert not {"noise_power", "target_power"} & set(inspect.signature(radar.figures).parameters)
    # STAF surfaces always hold every range bin
    assert list(inspect.signature(radar.staf).parameters) == ["s"]
    assert list(inspect.signature(fileio.write_staf_csv).parameters) == ["path", "values_db"]
    for fn, name in ((random_tangent, "scale"), (rtr.tcg, "grad"), (rcg.solve_rcg, "cfg")):
        assert inspect.signature(fn).parameters[name].default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "block, key, value, message",
    [
        *[pytest.param(block, key, value, "unknown solver keys", id=f"{block}.{key}")
          for block in ("worst_solver", "seq_solver")
          for key, value in (("delta_bar", 4.0), ("delta0", 0.5), ("rho_bar", 0.1),
                             ("tcg_kappa", 0.1), ("tcg_theta", 1.0), ("grad_tol_relative", True))],
        pytest.param(None, "staf_range_bins", [0, 1], "unknown config keys", id="staf_range_bins"),
        *[pytest.param(None, key, value, "unknown config keys", id=key)
          for key, value in (("lambda", 100.0), ("noise_power", 1.0), ("target_power", 1.0),
                             ("scnr_tol_db", 0.01), ("interval_grid_points", 2001), ("epsilon", 2.0))],
    ],
)
def test_removed_config_keys_exit_2_without_outputs(tmp_path, capsys, block, key, value, message):
    raw = json.loads(SMALL_CONFIG.read_text())
    if block is None:
        raw[key] = value
    else:
        raw[block][key] = value
    cfg = tmp_path / "removed.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "nothing"
    assert main(["wrtr", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err
