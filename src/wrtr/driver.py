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
each pass's worst-case SCR and SCNR. Each pass restarts the
sequence solve where the previous one stopped; a restart begins close to
stationary, where a tolerance scaled by its own start gradient cannot be
met, so every pass stops at grad_tol * g_ref with g_ref the first pass's
initial gradient norm (see rtr.solve). The loop stops once the
output SCNR (see radar.scnr) moves by less than SCNR_TOL_DB = 0.01 dB
across consecutive passes, or at max_outer; the alternation is
monitored, not proven, so hitting the cap is a warning outcome rather
than an error. eps comes from the config's doppler_interval, the
target's Doppler uncertainty: the largest ||p(v) - 1||^2 on a grid of
INTERVAL_GRID_POINTS = 2001 Dopplers v spanning it. It is taken in
optimize, not when the config is read, so commands that run no
adversary do not pay for the grid.

The diagnostics work in tangent coordinates (see manifold): the Hessian
matrix is rhess applied to the identity columns, and its spectrum is
that of the Riemannian Hessian on T_x M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import radar, rtr
from .manifold import UnitModulusSequence, random_point, random_tangent, retract
from .objectives import SequenceObjective, WorstCaseObjective, epsilon_from_doppler
from .radar import ClutterScene, clutter_energy

ERROR_MODELS = ("doppler_interval", "uniform_random_phase")
SCNR_TOL_DB = 0.01  # outer stop: the SCNR change between passes, in dB
INTERVAL_GRID_POINTS = 2001  # Dopplers on which a doppler_interval's eps is taken


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
    scr_db: float
    scnr_db: float
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
        scr_db = radar.scr(s, st, scene)
        scnr_db = radar.scnr(s, st, scene)
        history.append(OuterIteration(scr_db=scr_db, scnr_db=scnr_db, seq_trace=seq_trace))
        if prev_scnr is not None and abs(scnr_db - prev_scnr) < SCNR_TOL_DB:
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


class _PhasorRowSums:
    """Row sums of cos(2 pi u) and sin(2 pi u) for u in [0, 1), without libm trig per element.

    e^{j 2 pi u} = T[i] e^{j beta} with K = 2^16 table entries
    T[i] = e^{j 2 pi i / K}, i = floor(u K) and beta = 2 pi (u K - i) / K
    < 9.6e-5 (u K and u K - i are exact, K being a power of two). The
    remainder is cos beta = 1 - beta^2 / 2 and sin beta = beta - beta^3 / 6,
    truncated by at most 3.6e-18 and 7e-23. Against 120-bit cos / sin(2 pi u)
    on 2e4 random u each phasor was within 6.9e-16, as close as libm on the
    rounded phase fl(2 pi u) (6.8e-16); against np.cos / np.sin(2 pi u) on
    1e6 random u, within 8.9e-16.

    The table (1 MB) is built per instance, not at import. The work arrays
    hold one block of up to `rows` rows of n and are reused for every block:
    fresh temporaries page-fault on each block, which cost more than the
    arithmetic. With monte_carlo_scr's 2^16 / n rows each of the five
    work arrays is 512 kB.
    """

    K = 2**16

    def __init__(self, rows: int, n: int):
        angles = np.arange(self.K) * (2.0 * np.pi / self.K)
        self._cos, self._sin = np.cos(angles), np.sin(angles)
        self._index = np.empty((rows, n), dtype=np.intp)
        self._work = np.empty((4, rows, n))

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sum_j cos 2 pi u_ij, sum_j sin 2 pi u_ij) per row i of u; u is overwritten."""
        m = u.shape[0]
        index = self._index[:m]
        cos_t, sin_t, cos_b, sin_b = self._work[:, :m]
        u *= self.K
        np.copyto(index, u, casting="unsafe")  # truncation is floor: u >= 0
        u -= index
        u *= 2.0 * np.pi / self.K  # beta
        np.multiply(u, u, out=cos_b)
        np.multiply(cos_b, -1.0 / 6.0, out=sin_b)
        sin_b += 1.0
        sin_b *= u
        cos_b *= -0.5
        cos_b += 1.0
        # index < K always; with out=, the default mode="raise" copies through a buffer
        np.take(self._cos, index, out=cos_t, mode="clip")
        np.take(self._sin, index, out=sin_t, mode="clip")
        re = np.einsum("ij,ij->i", cos_t, cos_b) - np.einsum("ij,ij->i", sin_t, sin_b)
        im = np.einsum("ij,ij->i", sin_t, cos_b) + np.einsum("ij,ij->i", cos_t, sin_b)
        return re, im


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
    is drawn once and applied to every design:
    doppler_interval draws v ~ U(lo, hi) and distorts by p(v);
    uniform_random_phase draws an i.i.d. phase ramp on [0, 2pi). Each error
    model reads one stream, default_rng([seed, ERROR_MODELS.index(error_model)]),
    and trial t is row t of it: the t-th Doppler, or the t-th row of n
    phases 2 pi u. The u are drawn with random(), whose doubles are the
    ones uniform(0, 2pi) scales, in blocks of 2^16 / n rows (512 kB); a
    generator fills them in C order, and each row is summed on its own, so
    the block size does not change any value.
    Statistics are over per-trial dB values.

    For a unit-modulus design the numerator |s^H (s (.) d)|^2 = |sum d|^2
    does not depend on the design, so it is computed once per trial:
    the Dirichlet kernel sin^2(pi v n) / sin^2(pi v) (n^2 at integer v)
    for a Doppler error, (sum cos 2 pi u)^2 + (sum sin 2 pi u)^2 for random
    phases. The phasors come from a 2^16-entry table and a short Taylor
    remainder (_PhasorRowSums), each within 1e-15 of np.cos / np.sin of the
    phase; against libm trig on the same stream, no trial's dB value moved
    by more than 7.1e-13 dB (20,000 trials at n = 1024, seeds 1 and 2).
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
    energies = {name: clutter_energy(seq, scene) for name, seq in designs.items()}
    for name in designs:
        if energies[name] == 0.0:
            raise radar.DegenerateSceneError(f"design {name!r} sees zero clutter energy")
    rng = np.random.default_rng([seed, ERROR_MODELS.index(error_model)])
    if error_model == "doppler_interval":
        v = rng.uniform(*doppler_interval, size=n_trials)
        den = np.sin(np.pi * v) ** 2
        num = np.divide(np.sin(np.pi * n * v) ** 2, den, out=np.full(n_trials, n**2.0), where=den != 0.0)
    else:
        num = np.empty(n_trials)
        rows = max(1, min(n_trials, 2**16 // n))
        row_sums = _PhasorRowSums(rows, n)
        u = np.empty((rows, n))
        for start in range(0, n_trials, rows):
            block = u[: min(rows, n_trials - start)]
            rng.random(out=block)
            re, im = row_sums(block)
            num[start : start + rows] = re**2 + im**2
    samples = {name: 10.0 * np.log10(num / energies[name]) for name in designs}
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
