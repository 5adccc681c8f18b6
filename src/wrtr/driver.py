"""Worst-case design driver and its diagnostics.

The adversary picks the worst steering vector inside the eps-ball around
a sequence (trust-region solve of the penalized steering cost). The ball
is centred on the sequence, so its answer is the relative distortion
w = conj(s) (.) st: both the ball constraint ||st - s||^2 = ||w - 1||^2
and the coupling s^H st = sum w depend on w alone, and the adversary's
cost at s (.) w is the same for every s. The adversary is therefore
solved once, at the seeded start s0, from a seeded tangent nudge of norm
sqrt(eps) off s0 (s0 itself is a stationary saddle of the steering cost),
and w is fixed from that solve. With w fixed, the worst-case cost
clutter / |sum w|^2 is the nominal cost clutter / n^2 times a constant,
so the sequence passes minimize SequenceObjective(scene), the
inverse nominal SCR, and w only reports: the worst steering s (.) w and
each pass's figures, one radar.figures record from one clutter energy:
the worst-case SCR and SCNR against s (.) w and the eps-ball worst case.
Each pass restarts the sequence solve where the previous one stopped; a
restart begins close to stationary, where a tolerance scaled by its own
start gradient cannot be met, so every pass stops at grad_tol * g_ref
with g_ref the first pass's initial gradient norm (see rtr.solve). The
loop stops once the output SCNR moves by less than SCNR_TOL_DB = 0.01 dB
across consecutive passes, or at max_outer; the alternation is
monitored, not proven, so hitting the cap is a warning outcome rather
than an error. eps comes from the config's doppler_interval, the
target's Doppler uncertainty: the largest ||p(v) - 1||^2 on a grid of
INTERVAL_GRID_POINTS = 2001 Dopplers v spanning it. It is taken in
optimize, not when the config is read, so commands that run no
adversary do not pay for the grid.

The diagnostics work in tangent coordinates (see manifold): the Hessian
matrix is the objective's hessian_matrix, the matrix of rhess, and its
spectrum is that of the Riemannian Hessian on T_x M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import radar, rtr
from .manifold import UnitModulusSequence, random_point, random_tangent, retract
from .objectives import SequenceObjective, WorstCaseObjective, epsilon_from_doppler
from .radar import ClutterScene

ERROR_MODELS = ("doppler_interval", "uniform_random_phase")
SCNR_TOL_DB = 0.01  # outer stop: the SCNR change between passes, in dB
INTERVAL_GRID_POINTS = 2001  # Dopplers on which a doppler_interval's eps is taken
PHASE_GRID = 2**16  # phases per turn on which uniform_random_phase draws


@dataclass(frozen=True)
class WrtrConfig:
    doppler_interval: tuple[float, float]
    max_outer: int = 20
    worst_solver: rtr.TrustRegionConfig = field(default_factory=rtr.TrustRegionConfig)
    seq_solver: rtr.TrustRegionConfig = field(default_factory=rtr.TrustRegionConfig)

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")


@dataclass(frozen=True)
class OuterIteration:
    figures: radar.Figures
    seq_trace: rtr.TrustRegionTrace


@dataclass(frozen=True)
class WrtrResult:
    """Final design; worst_steering is sequence (.) w, w the adversary's relative distortion.

    worst_trace records the one adversary solve (None at eps = 0); history
    holds the sequence passes. Each solve's cost at its returned point is
    its trace's final_cost.
    """

    sequence: UnitModulusSequence
    worst_steering: UnitModulusSequence
    initial_sequence: UnitModulusSequence
    history: tuple
    epsilon: float
    converged: bool
    worst_trace: rtr.TrustRegionTrace | None


def _nudge(s: UnitModulusSequence, epsilon: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    return random_tangent(s, rng, scale=float(np.sqrt(epsilon)))


def optimize(scene: ClutterScene, cfg: WrtrConfig, seed: int) -> WrtrResult:
    """Solve the adversary once at a seeded start, then the sequence passes against it.

    The adversary's relative distortion w = conj(s0) (.) st is held, so
    the returned worst_steering is sequence (.) w: the worst case of the
    returned sequence, with no further adversary solve. The passes
    minimize the nominal cost, so the sequence does not depend on eps,
    and neither does the number of passes: the stopping test reads SCNR
    differences, in which the worst coupling |sum w|^2 cancels; eps
    moves only the reported SCRs. Every pass stops at seq_solver.grad_tol
    times the first pass's initial gradient norm. The result records the
    one adversary solve once, as worst_trace, beside the per-pass
    history. With eps = 0 there is no adversary solve (worst_trace None)
    and w = 1.
    """
    if len(scene.scatterers) < 1:
        raise ValueError("scene must contain at least one scatterer")
    n = scene.n
    lo, hi = cfg.doppler_interval
    eps = epsilon_from_doppler(np.linspace(lo, hi, INTERVAL_GRID_POINTS), 0.0, n)
    s0 = random_point(n, seed)
    if eps > 0.0:
        worst_obj = WorstCaseObjective(s0, epsilon=eps)
        st, worst_trace = rtr.solve(worst_obj, retract(s0, _nudge(s0, eps, seed)), cfg.worst_solver)
        w = np.conj(s0.entries) * st.entries
    else:
        worst_trace = None
        w = np.ones(n, dtype=np.complex128)
    seq_obj = SequenceObjective(scene)
    s = s0
    history = []
    prev_scnr = None
    converged = False
    for _ in range(cfg.max_outer):
        g_ref = history[0].seq_trace.initial_grad_norm if history else None
        s, seq_trace = rtr.solve(seq_obj, s, cfg.seq_solver, g_ref=g_ref)
        st = UnitModulusSequence(s.entries * w)
        figures = radar.figures(s, scene, steering=st, epsilon=eps)
        history.append(OuterIteration(figures=figures, seq_trace=seq_trace))
        # an SCNR is None where the coupling |sum w|^2 is 0, in every pass alike: no stop
        scnr_db = figures.scnr_db
        if None not in (prev_scnr, scnr_db) and abs(scnr_db - prev_scnr) < SCNR_TOL_DB:
            converged = True
            break
        prev_scnr = scnr_db
    return WrtrResult(
        sequence=s,
        worst_steering=st,
        initial_sequence=s0,
        history=tuple(history),
        epsilon=eps,
        converged=converged,
        worst_trace=worst_trace,
    )


def hessian_matrix(problem, x: UnitModulusSequence) -> np.ndarray:
    """Matrix of the Riemannian Hessian in tangent coordinates, problem.hessian_matrix(x).

    For the sequence cost that is the matrix its rhess multiplies by, the
    point's cached, read-only one; the tests check it against a Hessian
    built from dense clutter operators. For the adversary it is built from
    the same parts as its O(n) rhess, and the tests keep rhess of the
    identity columns as its oracle.
    """
    return problem.hessian_matrix(x)


def hessian_spectrum(problem, x: UnitModulusSequence) -> np.ndarray:
    """Eigenvalues of the symmetric part of hessian_matrix(problem, x), sorted ascending.

    These are the Riemannian Hessian's on T_x M; one eigvalsh of an n x n
    matrix.
    """
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

    designs maps name -> UnitModulusSequence, or its radar.figures record
    on this scene, whose clutter energy is read instead of taken again:
    the montecarlo command builds one record per design and passes the
    records to both error models. Per trial the distortion d is drawn
    once and applied to every design:
    doppler_interval draws v ~ U(lo, hi) and distorts by p(v);
    uniform_random_phase draws n i.i.d. phases, uniform on the grid of
    K = PHASE_GRID = 2^16 phases 2 pi k / K per turn. Each error model
    reads one stream, default_rng([seed, ERROR_MODELS.index(error_model)]),
    and trial t is row t of it: the t-th Doppler, or the t-th row of n
    doubles u from random(), whose phases are 2 pi floor(u K) / K (u K is
    exact, K being a power of two). The u are drawn in blocks of 2^16 / n
    rows (512 kB); a generator fills them in C order, and each row is
    summed on its own, so the block size does not change any value. The
    model's arrays are the two 512 kB tables below (the sine table is
    computed into the phase grid), one block of draws and its indices,
    2 MB at any n; the designs' clutter energies are streamed (see
    radar.ClutterBank.quadratic_forms), so no clutter weights are built.
    Statistics are over per-trial dB values, each radar.ratio_db of the
    trial's numerator and the design's energy.

    For a unit-modulus design the numerator |s^H (s (.) d)|^2 = |sum d|^2
    does not depend on the design, so it is computed once per trial:
    the Dirichlet kernel sin^2(pi v n) / sin^2(pi v) (n^2 at integer v)
    for a Doppler error, (sum cos theta)^2 + (sum sin theta)^2 for random
    phases, with cos and sin read from K-entry tables, one lookup each per
    phase. The grid model is the continuous one in every moment the
    statistics can see: E[e^{j m theta}] = 0 for every 0 < |m| < K, so
    each moment E|sum d|^{2p} with p < K equals that of phases uniform on
    [0, 2 pi), and each phase lies within 2 pi / K = 9.6e-5 rad below the
    continuous draw 2 pi u. On the same stream at n = 1024 (20,000 trials,
    the montecarlo command's designs at analysis seed 1) the dB statistics
    moved from the continuous model's by 4.4e-6 (mean), 3.2e-5 (std) and
    2.8e-5 (max); the min, set by the deepest null of |sum d|, by 0.012.
    Within a trial the designs then differ only by clutter energy, and
    mean-SCR gaps equal nominal-SCR gaps.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if error_model not in ERROR_MODELS:
        raise ValueError(f"error_model must be one of {ERROR_MODELS}, got {error_model!r}")
    if error_model == "doppler_interval" and doppler_interval is None:
        raise ValueError("doppler_interval error model needs the interval")
    n = scene.n
    # radar.figures raises DegenerateSceneError for a design that sees zero clutter energy
    energies = {name: (d if isinstance(d, radar.Figures) else radar.figures(d, scene)).energy
                for name, d in designs.items()}
    rng = np.random.default_rng([seed, ERROR_MODELS.index(error_model)])
    if error_model == "doppler_interval":
        v = rng.uniform(*doppler_interval, size=n_trials)
        den = np.sin(np.pi * v) ** 2
        num = np.divide(np.sin(np.pi * n * v) ** 2, den, out=np.full(n_trials, n**2.0), where=den != 0.0)
    else:
        num = np.empty(n_trials)
        rows = max(1, min(n_trials, 2**16 // n))
        angles = np.arange(PHASE_GRID) * (2.0 * np.pi / PHASE_GRID)
        cos = np.cos(angles)
        sin = np.sin(angles, out=angles)  # the angles are not needed again
        u = np.empty((rows, n))
        index = np.empty((rows, n), dtype=np.intp)
        for start in range(0, n_trials, rows):
            block = u[: min(rows, n_trials - start)]
            k = index[: len(block)]
            rng.random(out=block)
            np.multiply(block, PHASE_GRID, out=k, casting="unsafe")  # truncation is floor: u >= 0
            # k < PHASE_GRID always; with out=, the default mode="raise" copies through a buffer
            re = np.take(cos, k, out=block, mode="clip").sum(axis=1)
            im = np.take(sin, k, out=block, mode="clip").sum(axis=1)
            num[start : start + len(block)] = re**2 + im**2
    samples = {name: radar.ratio_db(num, energies[name]) for name in designs}
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
