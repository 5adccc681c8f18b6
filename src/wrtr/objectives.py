"""The two smooth costs of the design, with hand-derived derivatives.

Worst-case steering cost (sequence s fixed, LAM = 100 the penalty
weight, eps the squared uncertainty radius; a = s^H st):

    f(st) = Im(a)^2 + LAM * (Re(a) - n + eps/2)^2

Sequence cost (q_i = s^H Psi_i s):

    f(s) = sum_i |q_i|^2 / n^2

the inverse nominal SCR. It is also the worst-case design's cost: the
uncertainty ball is centred on s, so the adversary's answer is a relative
distortion w = conj(s) (.) st with |w_i| = 1, and s^H st = sum_i w_i and
||st - s||^2 = ||w - 1||^2 do not depend on s. With w held, the worst
coupling |sum_i w_i|^2 is a constant in s. Dividing the clutter energy by
it instead of n^2 scales the cost and its min-max (Danskin) gradient by
one positive factor and moves no minimiser; when it is zero, every
design's worst-case SCR is zero.

Both objectives have one derivative convention, phase coordinates: with
x (.) e^{j phi} the point moved by the real phases phi, rgrad(x) and
rhess(x, a) are the gradient of phi -> f(x (.) e^{j phi}) at phi = 0 and
its Hessian applied to a, real n-vectors. t -> x (.) e^{j t a} is a
geodesic of the circle product, so these are the Riemannian gradient and
Hessian in the tangent coordinates of manifold. cost, rgrad and rhess are
each objective's whole interface, for the solvers and for
driver.hessian_matrix alike. Every derivative is
validated against finite differences along retract and dense oracles in
the tests; no automatic differentiation is involved.
"""

from __future__ import annotations

import numpy as np

from .manifold import UnitModulusSequence
from .radar import ClutterScene

LAM = 100.0  # the steering cost's penalty weight


def epsilon_from_doppler(doppler_set, target_doppler: float, n: int) -> float:
    """Uncertainty radius: max over the set of ||p(v) - p(v_t)||^2.

    Uses ||p(v) - p(v_t)||^2 = sum_m 4 sin^2(pi (v - v_t) m), which has no
    cancellation. Zero when the set collapses to the target Doppler, and
    monotone nondecreasing as the set grows; bounded by 4n.

    The (Dopplers, n) angles are evaluated in blocks of 2^12 / n rows in
    one reused buffer (32 kB), not all at once (32 MB for 2001 Dopplers at
    n = 1024). Each row's sum does not depend on the rows beside it, so the
    block size changes no value.
    """
    offsets = np.atleast_1d(np.asarray(doppler_set, dtype=float)) - target_doppler
    if offsets.size == 0:
        raise ValueError("doppler set must be nonempty")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ramp = np.pi * np.arange(n)
    rows = max(1, min(offsets.size, 2**12 // n))
    buffer = np.empty((rows, n))
    worst = 0.0
    for start in range(0, offsets.size, rows):
        block = buffer[: min(rows, offsets.size - start)]
        np.multiply.outer(offsets[start : start + rows], ramp, out=block)
        np.sin(block, out=block)
        np.square(block, out=block)
        worst = np.maximum(worst, np.max(np.sum(block, axis=1)))
    return float(4.0 * worst)


def worst_case_gain(n: int, epsilon: float) -> float:
    """Closed-form worst coupling min |s^H st|^2 over ||st - s||^2 <= eps: max(n - eps/2, 0)^2.

    With st = s (.) w, s^H st = sum w and ||st - s||^2 = 2n - 2 Re sum w,
    so the minimum does not depend on s; it is 0 once eps >= 2n.
    """
    return max(n - 0.5 * epsilon, 0.0) ** 2


class WorstCaseObjective:
    """Penalized worst-case steering cost for a fixed transmit sequence.

    a = sum b with b = conj(s) (.) st: a phase step phi gives da = j b.phi and d^2 a = -b.phi^2.
    """

    def __init__(self, s: UnitModulusSequence, epsilon: float):
        if not 0.0 <= epsilon <= 4.0 * s.n:
            raise ValueError(f"epsilon must lie in [0, 4n] = [0, {4 * s.n}], got {epsilon}")
        self.s = s
        self.epsilon = float(epsilon)
        self._target = s.n - 0.5 * self.epsilon

    def _correlation(self, st: UnitModulusSequence) -> complex:
        return complex(np.vdot(self.s.entries, st.entries))

    def cost(self, st: UnitModulusSequence) -> float:
        a = self._correlation(st)
        return a.imag**2 + LAM * (a.real - self._target) ** 2

    def rgrad(self, st: UnitModulusSequence) -> np.ndarray:
        a, b = self._correlation(st), np.conj(self.s.entries) * st.entries
        return 2.0 * a.imag * b.real - 2.0 * LAM * (a.real - self._target) * b.imag

    def rhess(self, st: UnitModulusSequence, v: np.ndarray) -> np.ndarray:
        """2 (Re b . v) Re b + 2 LAM (Im b . v) Im b - radial (.) v, in O(n): no matrix is built."""
        a, b = self._correlation(st), np.conj(self.s.entries) * st.entries
        re, im = b.real, b.imag
        radial = 2.0 * a.imag * im + 2.0 * LAM * (a.real - self._target) * re
        return 2.0 * float(re @ v) * re + 2.0 * LAM * float(im @ v) * im - radial * v

    def boundary_residuals(self, st: UnitModulusSequence) -> tuple[float, float]:
        """(|‖st-s‖²-eps|, |Re(s^H st)-(n-eps/2)|) for the Theorem-1 boundary check."""
        a = self._correlation(st)
        ball = abs(float(np.sum(np.abs(st.entries - self.s.entries) ** 2)) - self.epsilon)
        return ball, abs(a.real - self._target)


class SequenceObjective:
    """Clutter energy over n^2, the inverse nominal SCR (see the module docstring).

    Per point it keeps the lag products of s, q_k = s^H Psi_k s, the
    products p = d (.) lags with the diagonals d of sum_k conj(q_k) Psi_k,
    the gradient and its radial part and, from the first rhess there, the
    point's one Hessian: the read-only n x n matrix
    (2 / n^2) (G^T G + S) - diag(radial) of ClutterBank.hessian_gram.
    rhess(x, a) is that matrix times a, one matrix-vector product; the
    matrix itself is private to rhess. The
    state holds no factor G (2 N_t x n), which the bank builds and
    multiplies out. The Gram product is the price: on the
    nonrobust-n128 scene (2 N_t = 1,024) it took 0.41 ms against 38 us
    for one product through G and 3 us through the matrix, about 11
    factor products; at n = 512 with 2 N_t = 8,224, 36 ms against 2.5 ms
    and 45 us, about 14 (one vCPU, one BLAS thread, min of 7). A point
    that takes fewer products pays more than G would have cost.
    """

    def __init__(self, scene: ClutterScene):
        self.n = scene.n
        self._bank = scene.bank
        self._cache: tuple | None = None
        self._n2 = float(self.n) ** 2

    # Per-point quantities are reused across the many Hessian-vector
    # products of one trust-region iteration. Each point has its own state
    # dict, filled in on first use and never shared with another point, and
    # the single-slot cache swap is atomic under the GIL, so a concurrent
    # race only recomputes.
    def _state(self, point: UnitModulusSequence) -> dict:
        cached = self._cache
        if cached is not None and cached[0] is point:
            return cached[1]
        lags = self._bank.lags(point.entries, point.entries)
        q = self._bank.forms(lags)
        state = {"lags": lags, "q": q, "u": float(np.sum(np.abs(q) ** 2))}
        self._cache = (point, state)
        return state

    def _derivative_state(self, point: UnitModulusSequence) -> dict:
        """_state plus p = d (.) lags, the gradient and its radial part.

        Differentiating u / n^2 = sum_k |q_k|^2 / n^2 along s (.) e^{j phi}
        gives, with c = (2 / n^2) (sum_b J^{R_b} p_b + conj(sum_b p_b)),
        the gradient Im c and the radial part Re c.
        """
        st = self._state(point)
        if "grad" not in st:
            p = self._bank.diagonals(np.conj(st["q"])) * st["lags"]
            c = (2.0 / self._n2) * (self._bank.down_shift_sum(p) + np.conj(p.sum(axis=0)))
            st.update(p=p, grad=c.imag, radial=c.real)
        return st

    def cost(self, s: UnitModulusSequence) -> float:
        return self._state(s)["u"] / self._n2

    def rgrad(self, s: UnitModulusSequence) -> np.ndarray:
        return self._derivative_state(s)["grad"]

    def rhess(self, x: UnitModulusSequence, a: np.ndarray) -> np.ndarray:
        return self._hessian(x) @ a

    def _hessian(self, x: UnitModulusSequence) -> np.ndarray:
        """The n x n matrix (2 / n^2) (G^T G + S) - diag(radial) that rhess(x, .) multiplies, read-only.

        Built once per point from ClutterBank.hessian_gram: the Gram matrix
        and S are scaled in place, the radial part leaves S's diagonal,
        and S is added to the Gram matrix, which the point's state keeps.
        """
        st = self._derivative_state(x)
        if "hessian" not in st:
            h, curvature = self._bank.hessian_gram(st["lags"], st["p"])
            h *= 2.0 / self._n2
            curvature *= 2.0 / self._n2
            curvature[np.diag_indices(self.n)] -= st["radial"]
            h += curvature
            h.setflags(write=False)
            st["hessian"] = h
        return st["hessian"]
