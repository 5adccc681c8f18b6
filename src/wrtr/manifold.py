"""Geometry of the product-of-unit-circles manifold M in C^n.

A point is a length-n complex vector with every entry on the unit circle
(a constant-modulus sequence). The tangent space at x is

    T_x M = { xi in C^n : Re(xi_i * conj(x_i)) = 0 for all i }
          = { j * a (.) x : a in R^n },

so a tangent vector is held as its real coordinates a, a float64 array
(Manopt's complex-circle manifold in coordinates). The Riemannian metric,
the real part of the complex Euclidean inner product, is then a.b, which
makes M a Riemannian submanifold of C^n ~ R^{2n}. Projection of an
ambient v is Im(conj(x) (.) v). Retraction is element-wise normalization
(x_i + xi_i)/|x_i + xi_i| = x_i (1 + j a_i) / sqrt(1 + a_i^2), defined for
every a; vector transport is orthogonal projection onto the target
tangent space, a (.) Re(conj(y) (.) x) in coordinates.

Points are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_MODULUS_ATOL = 1e-12


@dataclass(frozen=True)
class UnitModulusSequence:
    """A point on M: every entry has unit modulus."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"entries must be a 1-D complex vector, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("entries must have at least one entry")
        moduli = np.abs(arr)
        if not np.all(np.abs(moduli - 1.0) <= UNIT_MODULUS_ATOL):
            worst = float(np.max(np.abs(moduli - 1.0)))
            raise ValueError(f"entries must have unit modulus (worst deviation {worst:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.size


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Riemannian metric of two tangent vectors in coordinates at one point."""
    return float(a @ b)


def norm(a: np.ndarray) -> float:
    return math.sqrt(float(a @ a))


def project_tangent(x: UnitModulusSequence, v) -> np.ndarray:
    """Coordinates Im(conj(x) (.) v) of the orthogonal projection of v onto T_x M.

    The projected vector j a (.) x differs from v by Re(v (.) conj(x)) (.) x,
    which is radial in every entry.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (x.n,):
        raise ValueError(f"ambient vector shape {v.shape} does not match point length {x.n}")
    return np.imag(np.conj(x.entries) * v)


def retract(x: UnitModulusSequence, a: np.ndarray) -> UnitModulusSequence:
    """Element-wise normalization retraction x (.) (1 + j a) / sqrt(1 + a^2)."""
    return UnitModulusSequence(x.entries * ((1.0 + 1j * a) / np.hypot(1.0, a)))


def transport(x: UnitModulusSequence, y: UnitModulusSequence, a: np.ndarray) -> np.ndarray:
    """Project the tangent vector a at x onto T_y M: a (.) Re(conj(y) (.) x)."""
    return a * np.real(np.conj(y.entries) * x.entries)


def random_point(n: int, seed: int) -> UnitModulusSequence:
    """Sequence with i.i.d. uniform phases on [0, 2pi); deterministic in seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return UnitModulusSequence(np.exp(1j * phases))


def random_tangent(x: UnitModulusSequence, rng, scale: float) -> np.ndarray:
    """Random tangent vector at x of norm scale (a projected complex Gaussian, rescaled)."""
    a = project_tangent(x, rng.standard_normal(x.n) + 1j * rng.standard_normal(x.n))
    current = norm(a)
    if current == 0.0:
        raise ValueError("degenerate random tangent draw")
    return a * (scale / current)
