"""Worst-case alternation driver and its diagnostics.

Each outer iteration first lets the adversary pick the worst steering
vector inside the eps-ball around the current sequence (trust-region
solve of the penalized steering cost), then re-optimizes the sequence
against that worst case. The ball is centred on the sequence, so the
adversary's answer is the relative distortion w = conj(s) (.) st: both
the ball constraint ||st - s||^2 = ||w - 1||^2 and the coupling
s^H st = sum w depend on w alone. The sequence step minimizes clutter
energy / |sum w|^2 with w frozen (SequenceObjective(scene, distortion=w)),
whose gradient is the min-max (Danskin) gradient; the worst steering
s (.) w moves along with s. The first adversary solve starts from a
seeded tangent nudge of norm sqrt(eps) off the sequence (the sequence
itself is a stationary saddle of the steering cost); later ones restart
from s (.) w. Warm-started solves begin close to stationary, where a
tolerance relative to their own start gradient cannot be met, so after
the first outer iteration both solvers run to the absolute tolerance the
first solves reached (grad_tol_effective of their traces). The loop stops
once the output SCNR moves by less than scnr_tol_db across consecutive
outer iterations, or at max_outer; the overall alternation is
monitored, not proven, so hitting the cap is a warning outcome rather
than an error.

The diagnostics work in tangent coordinates (see manifold): the Hessian
matrix is rhess applied to the identity columns, and its spectrum is
that of the Riemannian Hessian on T_x M.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import radar, rtr
from .manifold import UnitModulusSequence, random_point, random_tangent, retract
from .objectives import SequenceObjective, WorstCaseObjective, epsilon_from_doppler
from .radar import ClutterScene, clutter_energy

ERROR_MODELS = ("doppler_interval", "uniform_random_phase")


@dataclass(frozen=True)
class WrtrConfig:
    lam: float = 100.0
    epsilon: float | None = None
    doppler_interval: tuple[float, float] | None = None
    interval_grid_points: int = 2001
    max_outer: int = 20
    scnr_tol_db: float = 0.01
    noise_power: float = 1.0
    target_power: float = 1.0
    worst_solver: rtr.TrustRegionConfig = field(default_factory=rtr.TrustRegionConfig)
    seq_solver: rtr.TrustRegionConfig = field(default_factory=rtr.TrustRegionConfig)

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.scnr_tol_db <= 0:
            raise ValueError("scnr_tol_db must be > 0")
        if self.interval_grid_points < 1:
            raise ValueError("interval_grid_points must be >= 1")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.noise_power < 0:
            raise ValueError("noise_power must be >= 0")
        if self.target_power <= 0:
            raise ValueError("target_power must be > 0")
        if self.epsilon is None and self.doppler_interval is None:
            raise ValueError("either epsilon or doppler_interval must be given")

    def resolve_epsilon(self, n: int) -> float:
        if self.epsilon is not None:
            eps = float(self.epsilon)
        else:
            lo, hi = self.doppler_interval
            grid = np.linspace(lo, hi, self.interval_grid_points)
            eps = epsilon_from_doppler(grid, 0.0, n)
        if not 0.0 <= eps <= 4.0 * n:
            raise ValueError(f"epsilon {eps} outside [0, 4n]")
        return eps


@dataclass(frozen=True)
class OuterIteration:
    scr_db: float
    scnr_db: float
    worst_cost: float
    seq_cost: float
    worst_trace: rtr.TrustRegionTrace | None
    seq_trace: rtr.TrustRegionTrace


@dataclass(frozen=True)
class WrtrResult:
    """Final design; worst_steering is sequence (.) distortion."""

    sequence: UnitModulusSequence
    worst_steering: UnitModulusSequence
    distortion: np.ndarray
    initial_sequence: UnitModulusSequence
    history: tuple
    epsilon: float
    converged: bool


def _nudge(s: UnitModulusSequence, epsilon: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    return random_tangent(s, rng, scale=float(np.sqrt(epsilon)))


def _absolute_tol(solver: rtr.TrustRegionConfig, trace: rtr.TrustRegionTrace) -> rtr.TrustRegionConfig:
    return replace(solver, grad_tol=trace.grad_tol_effective, grad_tol_relative=False)


def optimize(scene: ClutterScene, cfg: WrtrConfig, seed: int) -> WrtrResult:
    """Alternate worst-case steering and sequence solves from a seeded start.

    The sequence step holds the adversary's relative distortion
    w = conj(s) (.) st fixed, so the returned worst_steering is
    sequence (.) w: the worst case of the returned sequence, with no
    further adversary solve. With eps = 0 the distortion stays w = 1 and
    the alternation reduces to the nominal design (numerator n^2).
    """
    if len(scene.scatterers) < 1:
        raise ValueError("scene must contain at least one scatterer")
    n = scene.n
    eps = cfg.resolve_epsilon(n)
    s0 = random_point(n, seed)
    s = s0
    w = np.ones(n, dtype=np.complex128)
    worst_solver, seq_solver = cfg.worst_solver, cfg.seq_solver
    history = []
    prev_scnr = None
    converged = False
    for outer in range(cfg.max_outer):
        if eps > 0.0:
            worst_obj = WorstCaseObjective(s, lam=cfg.lam, epsilon=eps)
            # Later outers restart from the previous distortion, which the
            # sequence step left a worst case of the new s as well.
            if outer == 0:
                start = retract(s, _nudge(s, eps, seed))
            else:
                start = UnitModulusSequence(s.entries * w)
            st, worst_trace = rtr.solve(worst_obj, start, worst_solver)
            worst_cost = worst_obj.cost(st)
            w = np.conj(s.entries) * st.entries
        else:
            worst_trace = None
            worst_cost = 0.0
        seq_obj = SequenceObjective(scene, distortion=w)
        s, seq_trace = rtr.solve(seq_obj, s, seq_solver)
        if outer == 0:
            seq_solver = _absolute_tol(seq_solver, seq_trace)
            if worst_trace is not None:
                worst_solver = _absolute_tol(worst_solver, worst_trace)
        st = UnitModulusSequence(s.entries * w)
        scr_db = radar.scr(s, st, scene)
        scnr_db = radar.scnr(s, st, scene, cfg.noise_power, cfg.target_power)
        history.append(
            OuterIteration(
                scr_db=scr_db,
                scnr_db=scnr_db,
                worst_cost=worst_cost,
                seq_cost=seq_obj.cost(s),
                worst_trace=worst_trace,
                seq_trace=seq_trace,
            )
        )
        if prev_scnr is not None and abs(scnr_db - prev_scnr) < cfg.scnr_tol_db:
            converged = True
            break
        prev_scnr = scnr_db
    w.setflags(write=False)
    return WrtrResult(
        sequence=s,
        worst_steering=st,
        distortion=w,
        initial_sequence=s0,
        history=tuple(history),
        epsilon=eps,
        converged=converged,
    )


def hessian_matrix(problem, x: UnitModulusSequence) -> np.ndarray:
    """Matrix of the Riemannian Hessian in tangent coordinates: rhess of each identity column."""
    return np.column_stack([problem.rhess(x, e) for e in np.eye(x.n)])


def hessian_spectrum(problem, x: UnitModulusSequence) -> np.ndarray:
    """Eigenvalues of the Riemannian Hessian on T_x M, sorted ascending."""
    h = hessian_matrix(problem, x)
    return np.linalg.eigvalsh(0.5 * (h + h.T))


@dataclass(frozen=True)
class ScrStats:
    mean_db: float
    std_db: float
    min_db: float
    max_db: float
    n_trials: int


def monte_carlo_scr(
    designs,
    scene: ClutterScene,
    n_trials: int,
    error_model: str,
    seed: int,
    doppler_interval: tuple[float, float] | None = None,
) -> dict:
    """Realized-SCR statistics per design under a steering error model.

    designs maps name -> UnitModulusSequence. Per trial the distortion d
    is drawn once and applied to every design: doppler_interval draws
    v ~ U(lo, hi) and distorts by p(v); uniform_random_phase draws an
    i.i.d. phase ramp on [0, 2pi). Each error model reads one stream,
    default_rng([seed, ERROR_MODELS.index(error_model)]), and trial t is
    row t of it: the t-th Doppler, or the t-th row of n phases. Phases
    are drawn in blocks of about 2 MB; a generator fills them in C order,
    so the block size does not change any value. Statistics are over
    per-trial dB values.

    For a unit-modulus design the numerator |s^H (s (.) d)|^2 = |sum d|^2
    does not depend on the design, so it is computed once per trial:
    the Dirichlet kernel sin^2(pi v n) / sin^2(pi v) (n^2 at integer v)
    for a Doppler error, (sum cos phi)^2 + (sum sin phi)^2 for random
    phases. Within a trial the designs then differ only by clutter
    energy, and mean-SCR gaps equal nominal-SCR gaps.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if error_model not in ERROR_MODELS:
        raise ValueError(f"error_model must be one of {ERROR_MODELS}, got {error_model!r}")
    if error_model == "doppler_interval" and doppler_interval is None:
        raise ValueError("doppler_interval error model needs the interval")
    n = scene.n
    energies = {}
    for name, seq in designs.items():
        ce = clutter_energy(seq, scene)
        if ce == 0.0:
            raise radar.DegenerateSceneError(f"design {name!r} sees zero clutter energy")
        energies[name] = ce
    rng = np.random.default_rng([seed, ERROR_MODELS.index(error_model)])
    if error_model == "doppler_interval":
        v = rng.uniform(*doppler_interval, size=n_trials)
        den = np.sin(np.pi * v) ** 2
        num = np.divide(np.sin(np.pi * n * v) ** 2, den, out=np.full(n_trials, n**2.0), where=den != 0.0)
    else:
        num = np.empty(n_trials)
        rows = max(1, 2**18 // n)
        for start in range(0, n_trials, rows):
            phases = rng.uniform(0.0, 2.0 * np.pi, size=(min(rows, n_trials - start), n))
            num[start : start + rows] = np.cos(phases).sum(axis=1) ** 2 + np.sin(phases).sum(axis=1) ** 2
    samples = {name: 10.0 * np.log10(num / energy) for name, energy in energies.items()}
    return {
        name: ScrStats(
            mean_db=float(np.mean(vals)),
            std_db=float(np.std(vals)),
            min_db=float(np.min(vals)),
            max_db=float(np.max(vals)),
            n_trials=n_trials,
        )
        for name, vals in samples.items()
    }


def design_nonrobust(scene: ClutterScene, solver: rtr.TrustRegionConfig, seed: int, objective=None):
    """Non-robust trust-region design: minimize clutter energy / n^2.

    A caller that reuses the SequenceObjective(scene) passes it as objective.
    """
    if objective is None:
        objective = SequenceObjective(scene)
    return rtr.solve(objective, random_point(scene.n, seed), solver)
