"""Clutter scene model and slow-time figures of merit.

The clutter seen by the slow-time matched filter is a sum of scatterer
operators Psi_k = amp_k * diag(p(v_t)) J^{r_k} diag(p(v_k)), where p(v)
is the Doppler steering vector, J^r the down-shift by r pulses and
amp_k the scatterer amplitude (sqrt of its mean power). Powers are in
units of the noise power, and the target's power is 1. The Doppler axis
is centred on the target, so v_t = 0, p(v_t) is the all-ones vector and
Psi_k = amp_k * J^{r_k} diag(p(v_k)). Every figure of merit goes
through s^H Psi_k s = amp_k sum_m p_k[m] s[m] conj(s[m + r_k]), a lag
product, so ClutterBank groups the scatterers by range shift: the lag
products of a shift are formed once for all its scatterers, and a
weighted sum of operators is held as a few diagonals per shift. A scene
has one ClutterBank, scene.bank, built on first use and shared by the
sequence objective and every figure of merit. Dense matrices exist only
in the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    `bank` is the scene's one ClutterBank, built on first use; it is not a
    field, so it takes no part in equality or hashing.
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

    @cached_property
    def bank(self) -> ClutterBank:
        return ClutterBank(self)


class ClutterBank:
    """All scene operators Psi_k = amp_k * J^{r_k} diag(p(v_k)), grouped by range shift.

    Scatterers are laid out in blocks of at most `width` scatterers that
    share one shift R_b (a shift with more scatterers spans several
    blocks), so no operation gathers per-scatterer shifted copies:

    - lags(u, v): the (B, n) lag products u[m] conj(v[m + R_b]), zero for
      m >= n - R_b;
    - forms(lags): amp_k sum_m p_k[m] lags[b(k), m] for every scatterer,
      in scene order, so s^H Psi_k s = forms(lags(s, s))[k];
    - diagonals(c): sum_k c_k Psi_k written as sum_b J^{R_b} diag(d_b),
      returned as the (B, n) array of the d_b;
    - down_shift_sum(rows): sum_b J^{R_b} rows_b, so that sum applied
      to v is down_shift_sum(d * v);
    - hessian_factor(lags, p): the two matrices that make the Hessian of
      sum_k |s^H Psi_k s|^2 in phase coordinates a few matrix-vector
      products.

    forms, diagonals and hessian_factor are the only operations that read
    the (N_t, n) scatterer weights; everything else is O(B n). The width
    is the mean number of scatterers per distinct shift, rounded up, so B
    is at most twice the number of distinct shifts. Read-only after
    construction; scene.bank is the one instance a scene uses.
    """

    def __init__(self, scene: ClutterScene):
        n = scene.n
        scs = scene.scatterers
        shifts = np.array([sc.range_shift for sc in scs], dtype=np.intp)
        self.n = n
        self.size = shifts.size
        order = np.argsort(shifts, kind="stable")
        distinct, starts, counts = np.unique(shifts[order], return_index=True, return_counts=True)
        self.width = max(1, -(-self.size // max(distinct.size, 1)))
        per_shift = -(-counts // self.width)
        rank = np.arange(self.size) - np.repeat(starts, counts)
        self._block = np.empty(self.size, dtype=np.intp)
        self._slot = np.empty(self.size, dtype=np.intp)
        self._block[order] = np.repeat(np.cumsum(per_shift) - per_shift, counts) + rank // self.width
        self._slot[order] = rank % self.width
        self.shifts = np.repeat(distinct, per_shift)
        m = np.arange(n)
        dopplers = np.array([sc.doppler for sc in scs], dtype=float)
        amplitude = np.sqrt(np.array([sc.power for sc in scs], dtype=float))
        # Row k is amp_k e^{j 2 pi v_k m}, built in place in one (N_t, n)
        # buffer that is freed before the index arrays below are made.
        # Entries m >= n - r_k are zero: J^{r_k} drops them, so the shifts
        # below may wrap around instead of padding.
        rows = np.empty((self.size, n), dtype=np.complex128)
        np.multiply(2j * np.pi * dopplers[:, None], m, out=rows)
        np.exp(rows, out=rows)
        np.multiply(amplitude[:, None], rows, out=rows)
        rows *= m < n - shifts[:, None]
        weights = np.zeros((self.shifts.size, self.width, n), dtype=np.complex128)
        weights[self._block, self._slot] = rows
        del rows
        self._weights = weights
        self._up = m + self.shifts[:, None]
        # flat index of entry (b, m - R_b) of a (B, n) array, wrapping for m < R_b
        self._down = np.arange(self.shifts.size)[:, None] * n + (m - self.shifts[:, None]) % n

    def shifted(self, v: np.ndarray) -> np.ndarray:
        """(B, n) rows v[m + R_b], zero past the end: J^{R_b T} v per block."""
        padded = np.zeros(2 * self.n, dtype=np.complex128)
        padded[: self.n] = v
        return padded[self._up]

    def lags(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u * np.conj(self.shifted(v))

    def forms(self, lags: np.ndarray) -> np.ndarray:
        return np.matmul(self._weights, lags[:, :, None])[self._block, self._slot, 0]

    def quadratic_forms(self, s: np.ndarray) -> np.ndarray:
        return self.forms(self.lags(s, s))

    def diagonals(self, c: np.ndarray) -> np.ndarray:
        coeffs = np.zeros((self.shifts.size, 1, self.width), dtype=np.complex128)
        coeffs[self._block, 0, self._slot] = c
        return np.matmul(coeffs, self._weights)[:, 0, :]

    def down_shift_sum(self, rows: np.ndarray) -> np.ndarray:
        """sum_b J^{R_b} rows_b for (B, n) rows that are 0 at m >= n - R_b, as lags and d are."""
        return rows.ravel()[self._down].sum(axis=0)

    def hessian_factor(self, lags: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(G, S) of u(a) = sum_k |q_k|^2 at the phases s (.) e^{j a}, a = 0.

        lags = lags(s, s), p = d (.) lags with d = diagonals(conj(q)), q = forms(lags).
        The terms that forms sums to q_k are V_k[m] = amp_k e^{j 2 pi v_k m}
        s[m] conj(s[m + r_k]), and a phase step a moves q_k by
        j (V_k - J^{r_k} V_k) . a to first order. G is the real (2 N_t, n)
        stack of the real and imaginary parts of those rows, so dq = j G a.
        S = T + T^T is symmetric n x n, T[m + r, m] = Re sum_{k: r_k = r}
        conj(q_k) V_k[m]; each block adds Re p_b to the subdiagonal of its
        shift. The Hessian of u is 2 (G^T G + S - diag(rho)), with the
        radial part rho = Re(sum_b J^{R_b} p_b + conj(sum_b p_b)).

        G is written in chunks of 2^12 / n scatterer rows: with complex
        temporaries near 64 kB the build reuses memory instead of paging in
        fresh memory, which cost more than its arithmetic at 2^14 / n.
        """
        n, width = self.n, self.width
        # lags are exactly 0 for m + r >= n, so clipping those indices to row
        # n - 1 adds nothing there
        t = np.bincount(
            (np.minimum(self._up, n - 1) * n + np.arange(n)).ravel(),
            weights=np.real(p).ravel(),
            minlength=n * n,
        ).reshape(n, n)
        rows = max(1, min(2**12 // n, self.size))
        # Row i of `padded` is n zeros, then V_k; the length-n window that
        # starts at 2 n i + n - r_k is J^{r_k} V_k.
        padded = np.empty((rows, 2 * n), dtype=np.complex128)
        padded[:, :n] = 0.0
        windows = np.lib.stride_tricks.sliding_window_view(padded.ravel(), n)
        slots = np.sort(self._block * width + self._slot)  # flat (block, slot), block order
        blocks = slots // width
        starts = 2 * n * (np.arange(self.size) % rows) + n - self.shifts[blocks]
        weights = self._weights.reshape(-1, n)
        g = np.empty((2, self.size, n))
        for start in range(0, self.size, rows):
            stop = min(start + rows, self.size)
            v = padded[: stop - start, n:]
            np.multiply(weights[slots[start:stop]], lags[blocks[start:stop]], out=v)
            diff = windows[starts[start:stop]]
            np.subtract(v, diff, out=diff)
            g[0, start:stop] = diff.real
            g[1, start:stop] = diff.imag
        return g.reshape(2 * self.size, n), t + t.T


def clutter_energy(s: UnitModulusSequence, scene: ClutterScene) -> float:
    """Total disturbance power sum_k |s^H Psi_k s|^2."""
    if s.n != scene.n:
        raise ValueError(f"sequence length {s.n} does not match scene n={scene.n}")
    q = scene.bank.quadratic_forms(s.entries)
    return float(np.sum(np.abs(q) ** 2))


def _coupling_db(s: UnitModulusSequence, s_tilde: UnitModulusSequence, den: float) -> float:
    num = abs(np.vdot(s.entries, s_tilde.entries)) ** 2
    if num == 0.0:
        return float("-inf")
    return float(10.0 * np.log10(num / den))


def scnr(s: UnitModulusSequence, s_tilde: UnitModulusSequence, scene: ClutterScene) -> float:
    """Output SCNR in dB with a (possibly distorted) target steering s_tilde.

    Powers are in units of the noise power and the target's power is 1, so
    the numerator is |s^H s_tilde|^2 and the denominator n + clutter
    energy; the noise term n = ||s||^2 is constant on the manifold. Returns
    -inf for an orthogonal steering.
    """
    return _coupling_db(s, s_tilde, s.n + clutter_energy(s, scene))


def scr(s: UnitModulusSequence, s_tilde: UnitModulusSequence, scene: ClutterScene) -> float:
    """Signal-to-clutter ratio in dB (noise-free SCNR); raises DegenerateSceneError at zero clutter."""
    energy = clutter_energy(s, scene)
    if energy == 0.0:
        raise DegenerateSceneError("the sequence sees zero clutter energy, so its SCR is infinite")
    return _coupling_db(s, s_tilde, energy)


def staf(s: UnitModulusSequence) -> np.ndarray:
    """Slow-time ambiguity surface in dB on the DFT grid, peak-normalized to 0 dB.

    Entry (r, k) is 20*log10 |s^H J^r (s (.) p(k/n))| for r, k = 0..n-1;
    per row that magnitude is the DFT's of the lag products
    s[m + r] conj(s[m]) (zero for m >= n - r). Normalizing to the peak
    makes null depths comparable across sequences.

    The lag products are transformed in blocks of 2^16 / n rows through
    one reused complex buffer (1 MB), and the magnitudes go straight into
    the float result, which is then scaled in place: the peak is the
    result plus that buffer, where a complex (n, n) array would add
    twice the result. An FFT row does not depend on the rows beside it,
    so the block size changes no value.
    """
    n = s.n
    x = s.entries
    amp = np.empty((n, n))
    rows = max(1, min(2**16 // n, n))
    buffer = np.empty((rows, n), dtype=np.complex128)
    for start in range(0, n, rows):
        lags = buffer[: min(rows, n - start)]
        for i, r in enumerate(range(start, start + len(lags))):
            np.multiply(x[r:], np.conj(x[: n - r]), out=lags[i, : n - r])
            lags[i, n - r :] = 0.0
        np.fft.fft(lags, axis=1, out=lags)
        np.abs(lags, out=amp[start : start + len(lags)])
    peak = float(np.max(amp))
    if peak == 0.0:
        raise DegenerateSceneError("all-zero ambiguity surface")
    amp /= peak
    np.maximum(amp, STAF_DB_FLOOR, out=amp)
    np.log10(amp, out=amp)
    amp *= 20.0
    return amp
