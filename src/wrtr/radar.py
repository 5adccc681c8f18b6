"""Clutter scene model and slow-time figures of merit.

The clutter seen by the slow-time matched filter is a sum of scatterer
operators Psi_k = amp_k * diag(p(v_t)) J^{r_k} diag(p(v_k)), where
p(v) = [1, e^{j2πv}, ..., e^{j2π(n-1)v}] is the Doppler steering vector,
J^r the down-shift by r pulses and amp_k the scatterer amplitude (sqrt
of its mean power). Powers are in units of the noise power, and the
target's power is 1. The Doppler axis is centred on the target, so
v_t = 0, p(v_t) is the all-ones vector and Psi_k = amp_k * J^{r_k}
diag(p(v_k)). Every figure of merit goes through the lag product
s^H Psi_k s = amp_k sum_m p_k[m] s[m] conj(s[m + r_k]), so ClutterBank
groups the scatterers by range shift: the lag products of a shift are
formed once for all its scatterers, and a weighted sum of operators is
held as a few diagonals per shift. A scene has one ClutterBank,
scene.bank, built on first use and shared by the sequence objective and
every figure of merit. Building the bank lays out its blocks only; the
(N_t, n) scatterer weights are built on the first call of a solver's
operation (forms, diagonals, hessian_gram) and kept, since a solve
reuses them hundreds of times. A design's figures of merit are one
record, figures(s, scene), read from one clutter energy that streams the
weights a few blocks at a time, so the commands that run no solver never
build them. Dense matrices exist only in the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .manifold import UnitModulusSequence

STAF_DB_FLOOR = 1e-15


class DegenerateSceneError(ValueError):
    """Raised when a design sees zero clutter energy, so that its SCR is infinite."""


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
    - quadratic_forms(s): that same forms(lags(s, s)), bit for bit, with
      the weights and lags streamed a few blocks at a time;
    - diagonals(c): sum_k c_k Psi_k written as sum_b J^{R_b} diag(d_b),
      returned as the (B, n) array of the d_b;
    - down_shift_sum(rows): sum_b J^{R_b} rows_b, so that sum applied
      to v is down_shift_sum(d * v);
    - hessian_gram(lags, p): the two n x n matrices whose sum, scaled, is
      the Hessian of sum_k |s^H Psi_k s|^2 in phase coordinates.

    forms, diagonals and hessian_gram are the only operations that read
    the kept (B, width, n) scatterer weights, zero in a block's empty
    slots; everything else is O(B n). The width is the mean number of
    scatterers per distinct shift, rounded up, so B is at most twice the
    number of distinct shifts. The weights are the bank's one large
    array, and it does not exist until a solver needs it: construction
    keeps only the block layout (shifts, each scatterer's block and slot,
    each slot's Doppler and amplitude), and the first forms, diagonals or
    hessian_gram call fills the weights, about 2^12 at a time, and keeps
    them. quadratic_forms never builds them. shifted gathers its
    rows from a window view of the padded vector, lags works in that one
    (B, n) gather, and the (B, n) index arrays of down_shift_sum and
    hessian_gram, which only the solvers call, are built on their first
    call and kept too. The (2 N_t, n) factor G is scratch: hessian_gram
    builds it, multiplies it out and drops it, so G never leaves the
    bank. Read-only after construction, but for the weights and those
    indices; scene.bank is the one instance a scene uses.
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
        # (B, width) Doppler and amplitude of each slot; an empty slot has
        # amplitude 0, so its weight row is 0
        self._doppler = np.zeros((self.shifts.size, self.width))
        self._amplitude = np.zeros((self.shifts.size, self.width))
        self._doppler[self._block, self._slot] = [sc.doppler for sc in scs]
        self._amplitude[self._block, self._slot] = np.sqrt([sc.power for sc in scs])

    def _filled(self, values: int):
        """Yield (b, the weights of blocks b, b + 1, ...), about `values` weights at a time (at least a block).

        Each chunk is a (blocks, width, n) view of one reused buffer, valid
        until the next is requested. Row k is amp_k e^{j 2 pi v_k m}, built
        in place; entries m >= n - r_k are zero: J^{r_k} drops them, so
        shifts may wrap around instead of padding. Every step is
        elementwise, so a row does not depend on the chunk size.
        """
        n, blocks = self.n, self.shifts.size
        m = np.arange(n)
        buffer = np.empty((max(1, min(values // (self.width * n), blocks)), self.width, n), dtype=np.complex128)
        for start in range(0, blocks, len(buffer)):
            chunk = buffer[: blocks - start]
            stop = start + len(chunk)
            rows = chunk.reshape(-1, n)
            np.multiply(2j * np.pi * self._doppler[start:stop].reshape(-1, 1), m, out=rows)
            np.exp(rows, out=rows)
            np.multiply(self._amplitude[start:stop].reshape(-1, 1), rows, out=rows)
            chunk *= m < n - self.shifts[start:stop, None, None]
            yield start, chunk

    @cached_property
    def _weights(self) -> np.ndarray:
        """The (B, width, n) weights, built on the first forms, diagonals or hessian_gram call.

        Blocks are filled about 2^12 weights at a time, and only their
        occupied slots are copied out: the zeroed result leaves the rows
        of empty slots untouched, so their pages are never written (on
        the nonrobust-n128 scene, 248 of 760 rows).
        """
        weights = np.zeros((self.shifts.size, self.width, self.n), dtype=np.complex128)
        used = np.zeros(weights.shape[:2], dtype=bool)
        used[self._block, self._slot] = True
        for start, chunk in self._filled(2**12):
            occupied = used[start : start + len(chunk)]
            weights[start : start + len(chunk)][occupied] = chunk[occupied]
        return weights

    @cached_property
    def _down(self) -> np.ndarray:
        """Flat index of entry (b, m - R_b) of a (B, n) array, wrapping for m < R_b (the gradient's)."""
        n = self.n
        return np.arange(self.shifts.size)[:, None] * n + (np.arange(n) - self.shifts[:, None]) % n

    @cached_property
    def _below(self) -> np.ndarray:
        """Flat index of entry (m + R_b, m) of an n x n array, m + R_b clipped to n - 1 (the factor's)."""
        n = self.n
        return (np.minimum(np.arange(n) + self.shifts[:, None], n - 1) * n + np.arange(n)).ravel()

    def _windows(self, v: np.ndarray) -> np.ndarray:
        """(n + 1, n) view whose row r is v[m + r], zero past the end."""
        padded = np.zeros(2 * self.n, dtype=np.complex128)
        padded[: self.n] = v
        return np.lib.stride_tricks.sliding_window_view(padded, self.n)

    def shifted(self, v: np.ndarray) -> np.ndarray:
        """(B, n) rows v[m + R_b], zero past the end: J^{R_b T} v per block."""
        return self._windows(v)[self.shifts]

    def lags(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(B, n) products u[m] conj(v[m + R_b]), formed in place in the gather of v."""
        lags = self.shifted(v)
        np.conj(lags, out=lags)
        return np.multiply(u, lags, out=lags)

    def forms(self, lags: np.ndarray) -> np.ndarray:
        return np.matmul(self._weights, lags[:, :, None])[self._block, self._slot, 0]

    def quadratic_forms(self, s: np.ndarray) -> np.ndarray:
        """forms(lags(s, s)) bit for bit, streamed: s^H Psi_k s for every scatterer, in scene order.

        Blocks are taken about 2^14 weights at a time (one block if it is
        larger): their weights are filled into one reused buffer, their lag
        products gathered from the window view of s, and the same
        per-block matmul as forms applied, so each q_k is computed as forms
        computes it. Neither the (B, width, n) weights nor the (B, n) lags
        are formed, and the kept weights are neither built nor read.
        """
        windows = self._windows(s)
        forms = np.empty((self.shifts.size, self.width), dtype=np.complex128)
        for start, chunk in self._filled(2**14):
            stop = start + len(chunk)
            lags = windows[self.shifts[start:stop]]
            np.conj(lags, out=lags)
            np.multiply(s, lags, out=lags)
            forms[start:stop] = np.matmul(chunk, lags[:, :, None])[:, :, 0]
        return forms[self._block, self._slot]

    def diagonals(self, c: np.ndarray) -> np.ndarray:
        coeffs = np.zeros((self.shifts.size, 1, self.width), dtype=np.complex128)
        coeffs[self._block, 0, self._slot] = c
        return np.matmul(coeffs, self._weights)[:, 0, :]

    def down_shift_sum(self, rows: np.ndarray) -> np.ndarray:
        """sum_b J^{R_b} rows_b for (B, n) rows that are 0 at m >= n - R_b, as lags and d are."""
        return rows.ravel()[self._down].sum(axis=0)

    def hessian_gram(self, lags: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(G^T G, S) of u(a) = sum_k |q_k|^2 at the phases s (.) e^{j a}, a = 0.

        lags = lags(s, s), p = d (.) lags with d = diagonals(conj(q)), q = forms(lags).
        The terms that forms sums to q_k are V_k[m] = amp_k e^{j 2 pi v_k m}
        s[m] conj(s[m + r_k]), and a phase step a moves q_k by
        j (V_k - J^{r_k} V_k) . a to first order. G is the real (2 N_t, n)
        stack of the real and imaginary parts of those rows, so dq = j G a.
        S = T + T^T is symmetric n x n, T[m + r, m] = Re sum_{k: r_k = r}
        conj(q_k) V_k[m]; each block adds Re p_b to the subdiagonal of its
        shift. The Hessian of u is 2 (G^T G + S - diag(rho)), with the
        radial part rho = Re(sum_b J^{R_b} p_b + conj(sum_b p_b)). Both
        matrices are fresh float arrays the caller may overwrite.

        G is written in chunks of 2^12 / n scatterer rows: with complex
        temporaries near 64 kB the build reuses memory instead of paging in
        fresh memory, which cost more than its arithmetic at 2^14 / n. G
        itself is allocated per call, not kept in a bank buffer: on the
        nonrobust-n128 scene (60 iterations, tCG cap 10, one vCPU, one BLAS
        thread) a kept buffer raised a solve's minor page faults from about
        540 to 9,200 and its time from 142 to 162 ms. glibc's malloc raises
        its mmap threshold when it frees a large mapped block, so the 1 MB G
        freed at each point keeps the point's other 100-400 kB arrays in the
        reused heap.
        """
        n, width = self.n, self.width
        # lags are exactly 0 for m + r >= n, so clipping those indices to row
        # n - 1 adds nothing there
        t = np.bincount(
            self._below,
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
        g = g.reshape(2 * self.size, n)
        # bincount of no weights counts in int64: S stays float on an empty scene
        return np.matmul(g.T, g, out=np.empty((n, n))), np.add(t, t.T, dtype=float)


def clutter_energy(s: UnitModulusSequence, scene: ClutterScene) -> float:
    """Total disturbance power sum_k |s^H Psi_k s|^2."""
    if s.n != scene.n:
        raise ValueError(f"sequence length {s.n} does not match scene n={scene.n}")
    q = scene.bank.quadratic_forms(s.entries)
    return float(np.sum(np.abs(q) ** 2))


def ratio_db(num, den):
    """10 log10(num / den) for num, den > 0, elementwise over an array num.

    Where the quotient overflows (n^2 / u for a clutter energy u of
    subnormal powers) it is 10 log10 num - 10 log10 den, which is finite.
    """
    with np.errstate(over="ignore"):
        ratio = np.divide(num, den)
    db = 10.0 * np.log10(ratio)
    over = np.isinf(ratio)
    return np.where(over, 10.0 * np.log10(num) - 10.0 * np.log10(den), db) if over.any() else db


@dataclass(frozen=True)
class Figures:
    """A design's figures of merit in dB, all read from its one clutter energy u.

    Powers are in noise units and the target's is 1. nominal_scr_db is
    n^2 / u. A steering st with coupling c = |s^H st|^2 gives scr_db, c / u,
    and scnr_db, c / (n + u) with noise term n = ||s||^2; both are None at
    c = 0. eps gives worst_case_scr_db, the SCR under the worst steering of
    the ball ||st - s||^2 <= eps, whose coupling is (n - eps/2)^2 for every
    design; it is None from eps >= 2n on.
    """

    energy: float
    nominal_scr_db: float
    scr_db: float | None = None
    scnr_db: float | None = None
    worst_case_scr_db: float | None = None


def figures(s: UnitModulusSequence, scene: ClutterScene, steering: UnitModulusSequence | None = None,
            epsilon: float | None = None) -> Figures:
    """The figures of merit of design s on scene; raises DegenerateSceneError at zero clutter energy."""
    energy = clutter_energy(s, scene)
    if energy == 0.0:
        # the energy scales with the powers: it underflowed if the powers over the largest give s some
        largest = max((sc.power for sc in scene.scatterers), default=0.0)
        unit = [replace(sc, power=sc.power / largest) for sc in scene.scatterers] if largest > 0.0 else []
        if unit and clutter_energy(s, ClutterScene(unit, scene.n)) > 0.0:
            raise DegenerateSceneError(f"the sequence's clutter energy underflowed to 0 (the largest scatterer "
                                       f"power is {largest:.3g}), so its SCR cannot be computed")
        raise DegenerateSceneError("the sequence sees zero clutter energy, so its SCR is infinite")
    n = s.n
    nominal = float(ratio_db(n**2, energy))
    scr = scnr = worst = None
    if steering is not None:
        coupling = abs(np.vdot(s.entries, steering.entries)) ** 2
        if coupling != 0.0:
            scr, scnr = float(ratio_db(coupling, energy)), float(ratio_db(coupling, n + energy))
    if epsilon is not None and epsilon < 2 * n:
        worst = float(nominal + 20.0 * np.log10(1.0 - epsilon / (2 * n)))
    return Figures(energy, nominal, scr, scnr, worst)


def staf_blocks(s: UnitModulusSequence):
    """The rows of staf(s), yielded in blocks of 2^14 / n rows (the last may be shorter).

    Each block is a (rows, n) float view of one reused buffer, valid until
    the next block is requested; a consumer that keeps rows copies them.
    Per row the magnitudes are the DFT's of the lag products
    s[m + r] conj(s[m]) (zero for m >= n - r), formed for a whole block by
    one product of a zero-padded window view of s with conj(s) and
    transformed in one reused complex buffer (256 kB). Every block is
    normalized by the first block's peak, which is the surface's: row 0
    holds sum |s_m|^2 = n at Doppler 0, and row r >= 1 is at most n - r,
    far below n even with the FFT's rounding. An FFT row does not depend
    on the rows beside it and every later step is elementwise, so the
    block size changes no value: the surface of the blocks is bit for bit
    that of one transform of all n rows normalized by its np.max. Alive at
    once are the two buffers, 24 bytes per value of a block (384 kB for
    n <= 2^14), where the surface is 8 n^2 bytes.
    """
    n = s.n
    x = s.entries
    rows = max(1, min(2**14 // n, n))
    # row r of the window view is x[m + r], zero past the end, as in ClutterBank.shifted
    padded = np.zeros(2 * n, dtype=np.complex128)
    padded[:n] = x
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n)
    conj_x = np.conj(x)
    buffer = np.empty((rows, n), dtype=np.complex128)
    amp = np.empty((rows, n))
    peak = None
    for start in range(0, n, rows):
        lags = buffer[: min(rows, n - start)]
        np.multiply(shifted[start : start + len(lags)], conj_x, out=lags)
        np.fft.fft(lags, axis=1, out=lags)
        block = amp[: len(lags)]
        np.abs(lags, out=block)
        if peak is None:
            peak = np.max(block)
        block /= peak
        np.maximum(block, STAF_DB_FLOOR, out=block)
        np.log10(block, out=block)
        block *= 20.0
        yield block


def staf(s: UnitModulusSequence) -> np.ndarray:
    """Slow-time ambiguity surface in dB on the DFT grid, peak-normalized to 0 dB.

    Entry (r, k) is 20*log10 |s^H J^r (s (.) p(k/n))| for r, k = 0..n-1.
    Normalizing to the peak makes null depths comparable across
    sequences. The (n, n) result is filled from staf_blocks, so the peak
    memory is the result plus that generator's two buffers; the commands
    print the blocks as they come and never hold the surface.
    """
    amp = np.empty((s.n, s.n))
    start = 0
    for block in staf_blocks(s):
        amp[start : start + len(block)] = block
        start += len(block)
    return amp
