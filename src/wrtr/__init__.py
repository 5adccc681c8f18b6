"""Robust constant-modulus slow-time sequence design via worst-case
Riemannian trust-region optimization (WRTR)."""

from .driver import (
    ScrStats,
    WrtrConfig,
    WrtrResult,
    hessian_matrix,
    hessian_spectrum,
    monte_carlo_scr,
    optimize,
)
from .manifold import (
    UnitModulusSequence,
    inner,
    norm,
    project_tangent,
    random_point,
    random_tangent,
    retract,
    transport,
)
from .objectives import (
    NearOrthogonalSteeringError,
    SequenceObjective,
    WorstCaseObjective,
    epsilon_from_doppler,
    worst_case_gain,
)
from .radar import (
    ClutterBank,
    ClutterScatterer,
    ClutterScene,
    DegenerateSceneError,
    clutter_energy,
    scnr,
    scr,
    staf,
    steering_vector,
)
from .rcg import solve_rcg
from .rtr import TcgStop, TrustRegionConfig, TrustRegionTrace, solve, tcg
from .scenario import ScenarioConfig, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "ClutterBank",
    "ClutterScatterer",
    "ClutterScene",
    "DegenerateSceneError",
    "NearOrthogonalSteeringError",
    "ScenarioConfig",
    "ScenarioError",
    "ScrStats",
    "SequenceObjective",
    "TcgStop",
    "TrustRegionConfig",
    "TrustRegionTrace",
    "UnitModulusSequence",
    "WorstCaseObjective",
    "WrtrConfig",
    "WrtrResult",
    "clutter_energy",
    "epsilon_from_doppler",
    "hessian_matrix",
    "hessian_spectrum",
    "inner",
    "load_scenario",
    "monte_carlo_scr",
    "norm",
    "optimize",
    "parse_scenario",
    "project_tangent",
    "random_point",
    "random_tangent",
    "retract",
    "scnr",
    "scr",
    "solve",
    "solve_rcg",
    "staf",
    "steering_vector",
    "tcg",
    "transport",
    "worst_case_gain",
]
