import numpy as np
import pytest

from wrtr.manifold import (
    UnitModulusSequence,
    inner,
    norm,
    project_tangent,
    random_point,
    retract,
    transport,
)

from conftest import loglog_slope, make_tangent


def ambient(x, a):
    """The tangent vector j a (.) x that the coordinates a stand for."""
    return 1j * a * x.entries


class TestUnitModulusSequence:
    def test_valid_construction(self):
        x = UnitModulusSequence(np.exp(1j * np.array([0.1, 2.0, -1.0])))
        assert x.n == 3
        assert np.all(np.abs(np.abs(x.entries) - 1.0) <= 1e-12)
        assert abs(np.sum(np.abs(x.entries) ** 2) - x.n) <= 1e-10 * x.n

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            UnitModulusSequence(np.array([1.0, 0.5]))

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(ValueError):
            UnitModulusSequence(np.zeros((0,), dtype=complex))
        with pytest.raises(ValueError):
            UnitModulusSequence(np.ones((2, 2), dtype=complex))

    def test_immutable(self):
        x = random_point(4, 0)
        with pytest.raises(ValueError):
            x.entries[0] = 1.0


class TestInner:
    def test_zero_vector(self):
        x = random_point(5, 1)
        assert inner(np.zeros(x.n), np.zeros(x.n)) == 0.0

    def test_scalar_case(self):
        # xi = j x, eta = 2j x at x = 1: Re(conj(xi) eta) = 2
        assert inner(np.array([1.0]), np.array([2.0])) == pytest.approx(2.0, abs=1e-15)

    def test_symmetry(self, rng):
        x = random_point(16, 2)
        xi = make_tangent(x, rng)
        eta = make_tangent(x, rng)
        assert inner(xi, eta) == pytest.approx(inner(eta, xi), abs=1e-14)

    def test_matches_ambient_metric(self, rng):
        # a.b is the real part of the complex inner product of j a x and j b x
        x = random_point(8, 3)
        a, b = make_tangent(x, rng), make_tangent(x, rng)
        expected = np.real(np.vdot(ambient(x, a), ambient(x, b)))
        assert inner(a, b) == pytest.approx(expected, abs=1e-13)

    def test_positive_definite(self, rng):
        x = random_point(8, 5)
        xi = make_tangent(x, rng)
        assert inner(xi, xi) > 0.0


class TestProjection:
    def test_point_projects_to_zero(self):
        x = random_point(8, 6)
        assert np.allclose(project_tangent(x, x.entries), 0.0, atol=1e-14)

    def test_fixes_tangent_direction(self):
        x = random_point(8, 7)
        assert np.allclose(project_tangent(x, 1j * x.entries), 1.0, atol=1e-14)

    def test_idempotent(self, rng):
        x = random_point(8, 8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        once = project_tangent(x, v)
        twice = project_tangent(x, ambient(x, once))
        assert np.allclose(once, twice, atol=1e-12)

    def test_orthogonal_residual(self, rng):
        x = random_point(8, 9)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        residual = v - ambient(x, project_tangent(x, v))
        xi = ambient(x, make_tangent(x, rng))
        assert abs(np.real(np.vdot(residual, xi))) < 1e-12

    def test_self_adjoint(self, rng):
        x = random_point(8, 10)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        pu = ambient(x, project_tangent(x, u))
        pv = ambient(x, project_tangent(x, v))
        assert np.real(np.vdot(pu, v)) == pytest.approx(np.real(np.vdot(u, pv)), abs=1e-12)

    def test_dimension_mismatch(self):
        x = random_point(4, 11)
        with pytest.raises(ValueError):
            project_tangent(x, np.ones(5, dtype=complex))


class TestRetraction:
    def test_zero_step_is_identity(self):
        x = random_point(8, 12)
        y = retract(x, np.zeros(x.n))
        assert np.allclose(y.entries, x.entries, atol=1e-15)

    def test_scalar_closed_form(self):
        x = UnitModulusSequence(np.array([1.0 + 0j]))
        t = 0.37
        y = retract(x, np.array([t]))
        expected = (1 + 1j * t) / abs(1 + 1j * t)
        assert y.entries[0] == pytest.approx(expected, abs=1e-15)

    def test_matches_normalized_ambient_step(self, rng):
        # x (.) (1 + j a) / sqrt(1 + a^2) is (x + xi) / |x + xi| for xi = j a x
        x = random_point(64, 30)
        for scale in (1e-3, 1.0, 30.0):
            a = make_tangent(x, rng, scale=scale)
            w = x.entries + ambient(x, a)
            assert np.max(np.abs(retract(x, a).entries - w / np.abs(w))) <= 1e-15

    def test_second_order_agreement(self, rng):
        # ||R(t xi) - (x + t xi)|| = O(t^2)
        x = random_point(16, 13)
        xi = make_tangent(x, rng, scale=1.0)
        ts = [1e-2, 1e-3, 1e-4]
        gaps = [
            np.linalg.norm(retract(x, t * xi).entries - (x.entries + t * ambient(x, xi)))
            for t in ts
        ]
        assert loglog_slope(ts, gaps) == pytest.approx(2.0, abs=0.1)

    def test_first_order_rigidity(self, rng):
        x = random_point(16, 14)
        xi = make_tangent(x, rng, scale=1.0)
        t = 1e-6
        derivative = (retract(x, t * xi).entries - retract(x, -1.0 * t * xi).entries) / (2 * t)
        assert np.allclose(derivative, ambient(x, xi), atol=1e-6)

    def test_membership_for_large_steps(self, rng):
        x = random_point(8, 15)
        for scale in (1.0, 10.0, 1e3):
            y = retract(x, make_tangent(x, rng, scale=scale))
            assert np.all(np.abs(np.abs(y.entries) - 1.0) <= 1e-12)

    def test_never_degenerates(self):
        # |1 + j a| >= 1, so no step sends an entry to zero; huge
        # coordinates turn the entry by a right angle towards sign(a) j x
        x = random_point(4, 16)
        a = np.array([1e300, -1e300, 1e-300, 0.0])
        y = retract(x, a)
        assert np.all(np.abs(np.abs(y.entries) - 1.0) <= 1e-12)
        assert np.allclose(y.entries, x.entries * np.array([1j, -1j, 1.0, 1.0]), atol=1e-15)


class TestTransport:
    def test_fixes_tangent_vectors(self, rng):
        x = random_point(8, 19)
        xi = make_tangent(x, rng)
        assert np.allclose(transport(x, x, xi), xi, atol=1e-12)

    def test_zero_maps_to_zero(self):
        x, y = random_point(8, 20), random_point(8, 21)
        assert np.allclose(transport(x, y, np.zeros(8)), 0.0)

    def test_lands_in_target_tangent_space(self, rng):
        # the coordinates at y are the projection of the ambient j a x there
        x, y = random_point(8, 22), random_point(8, 23)
        xi = make_tangent(x, rng)
        out = transport(x, y, xi)
        assert np.allclose(out, project_tangent(y, ambient(x, xi)), atol=1e-14)


class TestRandomPoint:
    def test_unit_modulus(self):
        x = random_point(4, 42)
        assert np.all(np.abs(np.abs(x.entries) - 1.0) <= 1e-15)

    def test_deterministic(self):
        assert np.array_equal(random_point(32, 9).entries, random_point(32, 9).entries)

    def test_phase_uniformity(self):
        # 1e4 scalar draws: the mean phasor of a uniform circle law is ~0
        draws = np.array([random_point(1, seed).entries[0] for seed in range(10_000)])
        assert abs(np.mean(draws)) < 0.05

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            random_point(0, 1)


class TestTangentInvariants:
    def test_curve_derivative_is_tangent(self, rng):
        # numerical derivative of t -> retract(x, t xi) at 0 has no radial part
        x = random_point(16, 24)
        xi = make_tangent(x, rng, scale=1.0)
        t = 1e-6
        gamma_dot = (retract(x, t * xi).entries - retract(x, -1.0 * t * xi).entries) / (2 * t)
        assert np.max(np.abs(np.real(gamma_dot * np.conj(x.entries)))) < 1e-6

    def test_arithmetic_keeps_anchor(self, rng):
        # real combinations of coordinates stand for tangent vectors at x
        x = random_point(8, 26)
        xi, eta = make_tangent(x, rng), make_tangent(x, rng)
        combo = ambient(x, 2.0 * xi - eta + xi)
        radial = np.real(combo * np.conj(x.entries))
        assert np.max(np.abs(radial)) < 1e-12

    def test_norm_matches_inner(self, rng):
        x = random_point(8, 29)
        xi = make_tangent(x, rng)
        assert norm(xi) == pytest.approx(np.sqrt(inner(xi, xi)), rel=1e-12)
