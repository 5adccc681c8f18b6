import tracemalloc

import numpy as np
import pytest

from wrtr.manifold import UnitModulusSequence, project_tangent, retract
from wrtr.radar import ClutterScatterer, ClutterScene


def dense_psi(scatterer: ClutterScatterer, n: int) -> np.ndarray:
    """Dense oracle Psi_k = amp_k * J^{r_k} diag(p(v_k)), built from the scatterer's fields."""
    shift = np.eye(n, k=-scatterer.range_shift)
    phase = np.exp(2j * np.pi * scatterer.doppler * np.arange(n))
    return np.sqrt(scatterer.power) * shift @ np.diag(phase)


def random_scene(n: int, n_scatterers: int, rng, power_scale: float = 1.0) -> ClutterScene:
    scatterers = [
        ClutterScatterer(
            range_shift=int(rng.integers(0, n)),
            doppler=float(rng.uniform(0.0, 1.0)),
            power=float(power_scale * rng.uniform(0.2, 2.0)),
        )
        for _ in range(n_scatterers)
    ]
    return ClutterScene(scatterers, n)


def random_sequence(n: int, rng) -> UnitModulusSequence:
    return UnitModulusSequence(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc saw allocated during the call above what was live before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def pullback(objective, x, xi, t: float) -> float:
    return objective.cost(retract(x, float(t) * xi))


def loglog_slope(ts, values) -> float:
    return float(np.polyfit(np.log(np.asarray(ts)), np.log(np.asarray(values)), 1)[0])


def scenario1_scene() -> ClutterScene:
    n = 64
    return ClutterScene(
        [ClutterScatterer(r, h / n, 10.0) for r in range(11, 31) for h in (25, 26)], n
    )


def scenario2_scene() -> ClutterScene:
    n = 64
    blocks = [(16, range(31, 46)), (30, range(21, 36)), (45, range(11, 26))]
    return ClutterScene(
        [ClutterScatterer(r, h / n, 1.0) for r, hs in blocks for h in hs], n
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def make_tangent(x, rng, scale=None):
    """Tangent coordinates at x: a projected complex Gaussian, optionally of norm scale."""
    ambient = rng.standard_normal(x.n) + 1j * rng.standard_normal(x.n)
    a = project_tangent(x, ambient)
    if scale is not None:
        a = a * (scale / np.linalg.norm(a))
    return a
