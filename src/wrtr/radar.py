"""Clutter scene model and slow-time figures of merit.

The clutter seen by the slow-time matched filter is a sum of scatterer
operators Psi_k = amp_k * diag(p(v_t)) J^{r_k} diag(p(v_k)), where p(v)
is the Doppler steering vector, J^r the down-shift by r pulses and
amp_k the scatterer amplitude (sqrt of its mean power). The Doppler axis
is centred on the target, so v_t = 0, p(v_t) is the all-ones vector and
Psi_k = amp_k * J^{r_k} diag(p(v_k)). ClutterBank applies every Psi_k at
once, in O(n) per scatterer; dense matrices exist only in the test
oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import UnitModulusSequence

STAF_DB_FLOOR = 1e-15


class DegenerateSceneError(ValueError):
    """Raised when an SCNR/SCR denominator is exactly zero."""


def steering_vector(doppler: float, n: int) -> np.ndarray:
    """Doppler steering vector [1, e^{j2πv}, ..., e^{j2π(n-1)v}]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.exp(2j * np.pi * doppler * np.arange(n))


@dataclass(frozen=True)
class ClutterScatterer:
    """One interfering scatterer: range lag, normalized Doppler, mean power."""

    range_shift: int
    doppler: float
    power: float

    def __post_init__(self):
        if self.range_shift < 0:
            raise ValueError(f"range_shift must be >= 0, got {self.range_shift}")
        if self.power < 0:
            raise ValueError(f"power must be >= 0, got {self.power}")


@dataclass(frozen=True)
class ClutterScene:
    """Scatterer collection for a code length n.

    Scatterer Dopplers are measured from the target's, which sits at 0.
    """

    scatterers: tuple
    n: int

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for k, sc in enumerate(self.scatterers):
            if sc.range_shift > self.n - 1:
                raise ValueError(
                    f"scatterer {k}: range_shift {sc.range_shift} exceeds n-1 = {self.n - 1}"
                )


class ClutterBank:
    """All scene operators Psi_k = amp_k * J^{r_k} diag(p(v_k)), stacked.

    apply / apply_adjoint map a length-n vector to the (N_t, n) array of
    per-scatterer outputs Psi_k v / Psi_k^H v: a Doppler twiddle and a
    shift by gather, O(N_t n). quadratic_forms gives s^H Psi_k s for
    every k at once. Read-only after construction.
    """

    def __init__(self, scene: ClutterScene):
        n = scene.n
        nt = len(scene.scatterers)
        self.n = n
        self.size = nt
        shifts = np.array([sc.range_shift for sc in scene.scatterers], dtype=np.intp)
        self.amplitude = np.sqrt(np.array([sc.power for sc in scene.scatterers]))
        self.phase = (
            np.array([steering_vector(sc.doppler, n) for sc in scene.scatterers])
            if nt
            else np.zeros((0, n), complex)
        )
        idx = np.arange(n)[None, :]
        self._down_src = np.maximum(idx - shifts[:, None], 0)
        self._down_mask = idx >= shifts[:, None]
        self._up_src = np.minimum(idx + shifts[:, None], n - 1)
        self._up_mask = idx <= (n - 1) - shifts[:, None]

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.size == 0:
            return np.zeros((0, self.n), dtype=np.complex128)
        tmp = self.phase * v[None, :]
        shifted = np.where(self._down_mask, np.take_along_axis(tmp, self._down_src, axis=1), 0.0)
        return self.amplitude[:, None] * shifted

    def apply_adjoint(self, v: np.ndarray) -> np.ndarray:
        if self.size == 0:
            return np.zeros((0, self.n), dtype=np.complex128)
        shifted = np.where(self._up_mask, v[self._up_src], 0.0)
        return self.amplitude[:, None] * np.conj(self.phase) * shifted

    def quadratic_forms(self, s: np.ndarray) -> np.ndarray:
        return self.apply(s) @ np.conj(s)


def clutter_energy(s: UnitModulusSequence, scene: ClutterScene) -> float:
    """Total disturbance power sum_k |s^H Psi_k s|^2."""
    if s.n != scene.n:
        raise ValueError(f"sequence length {s.n} does not match scene n={scene.n}")
    q = ClutterBank(scene).quadratic_forms(s.entries)
    return float(np.sum(np.abs(q) ** 2))


def scnr(
    s: UnitModulusSequence,
    s_tilde: UnitModulusSequence,
    scene: ClutterScene,
    noise_power: float = 1.0,
    target_power: float = 1.0,
) -> float:
    """Output SCNR in dB with a (possibly distorted) target steering s_tilde.

    Numerator target_power * |s^H s_tilde|^2; denominator
    noise_power * n + clutter energy. The noise term is constant on the
    manifold since ||s||^2 = n. Returns -inf for an orthogonal steering;
    raises DegenerateSceneError when the denominator is exactly zero.
    """
    if noise_power < 0:
        raise ValueError("noise_power must be >= 0")
    if target_power <= 0:
        raise ValueError("target_power must be > 0")
    num = target_power * abs(np.vdot(s.entries, s_tilde.entries)) ** 2
    den = noise_power * s.n + clutter_energy(s, scene)
    if den == 0.0:
        raise DegenerateSceneError("zero-power scene with zero noise")
    if num == 0.0:
        return float("-inf")
    return float(10.0 * np.log10(num / den))


def scr(s: UnitModulusSequence, s_tilde: UnitModulusSequence, scene: ClutterScene) -> float:
    """Signal-to-clutter ratio in dB (noise-free SCNR)."""
    return scnr(s, s_tilde, scene, noise_power=0.0, target_power=1.0)


def staf(s: UnitModulusSequence, range_bins, doppler_grid) -> np.ndarray:
    """Slow-time ambiguity surface in dB, peak-normalized to 0 dB.

    Entry (r, v) is 20*log10 |s^H J^r (s (.) p(v))|, rows following
    range_bins and columns doppler_grid. Normalizing to the peak makes
    null depths comparable across sequences.
    """
    n = s.n
    range_bins = [int(r) for r in range_bins]
    for r in range_bins:
        if not 0 <= r <= n - 1:
            raise ValueError(f"range bin {r} out of range for n={n}")
    doppler_grid = np.asarray(doppler_grid, dtype=float)
    phases = np.exp(2j * np.pi * np.outer(doppler_grid, np.arange(n)))
    modulated = s.entries[None, :] * phases
    weight = np.conj(s.entries)
    amp = np.empty((len(range_bins), doppler_grid.size))
    for i, r in enumerate(range_bins):
        amp[i] = np.abs(modulated[:, : n - r] @ weight[r:])
    peak = float(np.max(amp))
    if peak == 0.0:
        raise DegenerateSceneError("all-zero ambiguity surface")
    return 20.0 * np.log10(np.maximum(amp / peak, STAF_DB_FLOOR))
