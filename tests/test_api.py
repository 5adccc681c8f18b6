import dataclasses
import inspect

import wrtr
from wrtr import rcg
from wrtr.driver import OuterIteration, design_nonrobust, monte_carlo_scr
from wrtr.objectives import SequenceObjective, WorstCaseObjective
from wrtr.radar import ClutterBank

DELETED = ("TangentVector", "zero_tangent", "DegenerateRetractionError", "tangent_basis")
# the ambient (Wirtinger) derivative convention; derivatives are phase coordinates only
DELETED_METHODS = (
    (ClutterBank, "apply"),
    (ClutterBank, "apply_adjoint"),
    (WorstCaseObjective, "egrad"),
    (WorstCaseObjective, "ehess_dir"),
    (SequenceObjective, "egrad"),
)


def test_every_exported_name_resolves():
    missing = [name for name in wrtr.__all__ if not hasattr(wrtr, name)]
    assert missing == []
    assert len(set(wrtr.__all__)) == len(wrtr.__all__)


def test_deleted_names_are_not_exported():
    from wrtr import driver, manifold

    for name in DELETED:
        assert name not in wrtr.__all__
        assert not hasattr(wrtr, name)
        assert not hasattr(manifold, name) and not hasattr(driver, name)


def test_deleted_methods_are_gone():
    present = [f"{cls.__name__}.{name}" for cls, name in DELETED_METHODS if hasattr(cls, name)]
    assert present == []


def test_deleted_parameters_are_gone():
    # each scene has one ClutterBank, so no caller passes precomputed clutter work
    assert "energies" not in inspect.signature(monte_carlo_scr).parameters
    assert "objective" not in inspect.signature(design_nonrobust).parameters


def test_one_adversary_record_and_one_solver_config():
    # the adversary is solved once per design, so a pass carries no adversary
    # record; RCG reads the trust-region solver's config
    fields = {f.name for f in dataclasses.fields(OuterIteration)}
    assert not fields & {"worst_trace", "worst_cost"}
    assert not hasattr(rcg, "RcgConfig")
    assert "RcgConfig" not in wrtr.__all__
