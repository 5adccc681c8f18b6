import numpy as np
import pytest

from wrtr.driver import hessian_matrix
from wrtr.manifold import UnitModulusSequence, inner, project_tangent, random_point, retract
from wrtr.objectives import (
    LAM,
    SequenceObjective,
    WorstCaseObjective,
    epsilon_from_doppler,
    worst_case_gain,
)
from wrtr.radar import ClutterScatterer, ClutterScene, clutter_energy

from conftest import dense_psi, loglog_slope, make_tangent, pullback, random_scene, scenario2_scene, traced_peak


def central_difference(obj, x, a, t):
    """(f(R_x(t a)) - f(R_x(-t a))) / 2t along the retraction."""
    return (pullback(obj, x, a, t) - pullback(obj, x, a, -t)) / (2 * t)


class TestEpsilonFromDoppler:
    def test_zero_error_gives_zero(self):
        assert epsilon_from_doppler([0.3], 0.3, 64) == pytest.approx(0.0, abs=1e-12)

    def test_half_cycle_closed_form(self):
        # n=2, offset 0.5: ||p(v_t+0.5) - p(v_t)||^2 = |0|^2 + |-2|^2 = 4
        assert epsilon_from_doppler([0.5], 0.0, 2) == pytest.approx(4.0, abs=1e-12)

    def test_monotone_in_set_growth(self):
        n = 64
        grid = np.linspace(0.0, 0.1, 50)
        values = [epsilon_from_doppler(grid[: k + 1], 0.0, n) for k in range(len(grid))]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounded_by_4n(self):
        n = 32
        eps = epsilon_from_doppler(np.linspace(-0.5, 0.5, 400), 0.0, n)
        assert 0.0 <= eps <= 4 * n + 1e-9

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            epsilon_from_doppler([], 0.0, 8)

    def test_matches_steering_vector_differences(self):
        # the direct definition max_v ||p(v) - p(v_t)||^2, one grid point at a time,
        # with p(v) = exp(j 2 pi v m), m = 0..n-1
        n, vt = 64, 0.013
        m = np.arange(n)
        grid = np.linspace(-0.1, 0.1, 201)
        direct = max(
            float(np.sum(np.abs(np.exp(2j * np.pi * v * m) - np.exp(2j * np.pi * vt * m)) ** 2)) for v in grid
        )
        assert epsilon_from_doppler(grid, vt, n) == pytest.approx(direct, rel=1e-12)

    def test_sine_sum_closed_form(self):
        n = 64
        delta = 0.013
        expected = 4.0 * np.sum(np.sin(np.pi * np.arange(n) * delta) ** 2)
        assert epsilon_from_doppler([delta], 0.0, n) == pytest.approx(expected, abs=1e-10)


    @pytest.mark.parametrize("n", [1, 2, 16, 64, 128, 1024, 3000])
    @pytest.mark.parametrize("interval, target", [
        ((-0.1, 0.1), 0.0), ((-0.001, 0.002), 0.0), ((-0.0064, 0.0064), 0.0),
        ((0.1, 0.4), 0.25), ((-0.5, 0.5), 0.013),
    ])
    def test_blocks_match_the_one_shot_formula_bitwise(self, n, interval, target):
        # the whole (Dopplers, n) grid at once, as one outer product; 2001
        # Dopplers end in a partial block at every n in 2..1024
        grid = np.linspace(*interval, 2001 if n <= 1024 else 257)
        angles = np.outer(grid - target, np.pi * np.arange(n))
        one_shot = float(4.0 * np.max(np.sum(np.sin(angles) ** 2, axis=1)))
        assert epsilon_from_doppler(grid, target, n).hex() == one_shot.hex()

    def test_memory_is_one_block(self):
        # the one-shot grid held two (2001, 1024) float arrays, 16 MB each
        grid = np.linspace(-0.1, 0.1, 2001)
        _, peak = traced_peak(lambda: epsilon_from_doppler(grid, 0.0, 1024))
        assert peak <= 0.5 * 2**20


class TestWorstCaseCost:
    def test_at_center_equals_penalty(self):
        s = random_point(8, 0)
        obj = WorstCaseObjective(s, epsilon=3.0)
        assert obj.cost(s) == pytest.approx(100.0 * (3.0 / 2.0) ** 2, rel=1e-12)

    def test_zero_radius_zero_cost(self):
        s = random_point(8, 1)
        obj = WorstCaseObjective(s, epsilon=0.0)
        assert obj.cost(s) == pytest.approx(0.0, abs=1e-20)

    def test_recomputed_from_correlation(self, rng):
        s, st = random_point(8, 2), random_point(8, 3)
        eps = 2.5
        obj = WorstCaseObjective(s, epsilon=eps)
        a = np.vdot(s.entries, st.entries)
        expected = a.imag**2 + LAM * (a.real - 8 + eps / 2) ** 2
        assert obj.cost(st) == pytest.approx(expected, rel=1e-14)

    def test_invalid_parameters(self):
        s = random_point(4, 4)
        with pytest.raises(ValueError):
            WorstCaseObjective(s, epsilon=17.0)


class TestWorstCaseGradient:
    def test_zero_at_center_with_zero_radius(self):
        # at st = s with eps = 0 both residuals vanish: the gradient is 0 and
        # the Hessian is the rank-one coupling term 2 (1.v) 1
        s = random_point(8, 5)
        obj = WorstCaseObjective(s, epsilon=0.0)
        assert np.allclose(obj.rgrad(s), 0.0, atol=1e-14)
        v = np.arange(8.0)
        assert np.allclose(obj.rhess(s, v), 2.0 * v.sum(), atol=1e-10)

    def test_center_gradient_is_radius_penalty(self):
        # Eq.-level value: at st = s the real residual is +eps/2, so the
        # penalty's radial term enters the Hessian as -LAM*eps (.) v
        s = random_point(8, 6)
        eps = 2.0
        obj = WorstCaseObjective(s, epsilon=eps)
        v = np.linspace(-1.0, 1.0, 8) ** 3
        assert np.allclose(obj.rhess(s, v), 2.0 * v.sum() - LAM * eps * v, atol=1e-10)

    def test_central_finite_differences(self, rng):
        s, st = random_point(8, 7), random_point(8, 8)
        obj = WorstCaseObjective(s, epsilon=2.0)
        t = 1e-6
        for _ in range(10):
            v = rng.standard_normal(8)
            assert inner(obj.rgrad(st), v) == pytest.approx(central_difference(obj, st, v, t), rel=1e-6)


class TestWorstCaseHessian:
    def test_zero_direction(self, rng):
        s, st = random_point(8, 9), random_point(8, 10)
        obj = WorstCaseObjective(s, epsilon=2.0)
        assert np.allclose(obj.rhess(st, np.zeros(st.n)), 0.0)

    def test_real_linearity(self, rng):
        s, st = random_point(8, 11), random_point(8, 12)
        obj = WorstCaseObjective(s, epsilon=2.0)
        a = make_tangent(st, rng)
        assert np.allclose(obj.rhess(st, 3.5 * a), 3.5 * obj.rhess(st, a), atol=1e-12)

    def test_forward_difference_of_gradient(self, rng):
        s, st = random_point(8, 13), random_point(8, 14)
        obj = WorstCaseObjective(s, epsilon=2.0)
        a = make_tangent(st, rng, scale=1.0)
        t = 1e-7
        fd = (obj.rgrad(retract(st, t * a)) - obj.rgrad(st)) / t
        analytic = obj.rhess(st, a)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(fd) < 1e-5

    def test_riemannian_self_adjointness(self, rng):
        st = random_point(16, 15)
        obj = WorstCaseObjective(random_point(16, 16), epsilon=2.0)
        worst = 0.0
        for _ in range(50):
            xi = make_tangent(st, rng, scale=1.0)
            eta = make_tangent(st, rng, scale=1.0)
            a = inner(obj.rhess(st, xi), eta)
            b = inner(xi, obj.rhess(st, eta))
            worst = max(worst, abs(a - b))
        assert worst < 1e-10

    def test_second_order_taylor_slope(self, rng):
        st = random_point(16, 17)
        obj = WorstCaseObjective(random_point(16, 18), epsilon=2.0)
        xi = make_tangent(st, rng, scale=1.0)
        f0 = obj.cost(st)
        g = inner(obj.rgrad(st), xi)
        h = inner(obj.rhess(st, xi), xi)
        ts = np.logspace(-4, -2, 7)
        residuals = [abs(pullback(obj, st, xi, t) - (f0 + t * g + 0.5 * t * t * h)) for t in ts]
        assert loglog_slope(ts, residuals) == pytest.approx(3.0, abs=0.2)


def _small_scene(n=8):
    return ClutterScene(
        [ClutterScatterer(2, 0.3, 1.5), ClutterScatterer(0, 0.1, 2.0), ClutterScatterer(5, 0.45, 0.7)],
        n,
    )


class TestSequenceCost:
    def test_zero_power_scene(self):
        n = 8
        scene = ClutterScene([ClutterScatterer(1, 0.2, 0.0)], n)
        obj = SequenceObjective(scene)
        assert obj.cost(random_point(n, 20)) == 0.0

    def test_identity_scatterer_matched_steering(self):
        n = 8
        scene = ClutterScene([ClutterScatterer(0, 0.0, 1.0)], n)
        s = random_point(n, 21)
        obj = SequenceObjective(scene)
        # |s^H I s|^2 / n^2 = n^2 / n^2
        assert obj.cost(s) == pytest.approx(1.0, rel=1e-12)

    def test_matches_dense_brute_force(self, rng):
        n = 8
        scene = _small_scene(n)
        s = random_point(n, 23)
        obj = SequenceObjective(scene)
        num = sum(
            abs(np.vdot(s.entries, dense_psi(sc, n) @ s.entries)) ** 2
            for sc in scene.scatterers
        )
        expected = num / n**2
        assert obj.cost(s) == pytest.approx(expected, rel=1e-10)

    def test_nominal_mode_is_energy_over_n_squared(self, rng):
        n = 8
        scene = _small_scene(n)
        s = random_point(n, 24)
        obj = SequenceObjective(scene)
        assert obj.cost(s) == pytest.approx(clutter_energy(s, scene) / n**2, rel=1e-12)


class TestSequenceGradient:
    def test_zero_power_gradient(self):
        n = 8
        scene = ClutterScene([ClutterScatterer(1, 0.2, 0.0)], n)
        obj = SequenceObjective(scene)
        assert np.allclose(obj.rgrad(random_point(n, 26)), 0.0, atol=1e-14)

    def test_global_phase_equivariance(self, rng):
        # |q_k| is unchanged by a global phase and by a Doppler ramp
        # s (.) e^{j(alpha + beta m)}, which multiplies q_k by e^{-j beta R_k};
        # so are the cost and its phase-coordinate derivatives, and the Hessian
        # maps the two symmetry directions 1 and (0, ..., n - 1) to zero.
        # alpha and beta are multiples of 2^-7, so alpha + beta m is exact and
        # only exp rounds the moved point
        for scene in (_small_scene(8), scenario2_scene()):
            n = scene.n
            obj = SequenceObjective(scene)
            s = random_point(n, 28)
            a = make_tangent(s, rng)
            g = obj.rgrad(s)
            alpha, beta = rng.integers(0, 2**10, size=2) * 2.0**-7
            ramp = np.arange(n, dtype=float)
            for phases in (alpha, alpha + beta * ramp):
                moved = UnitModulusSequence(np.exp(1j * phases) * s.entries)
                assert abs(obj.cost(moved) - obj.cost(s)) <= 1e-14 * obj.cost(s)
                assert np.linalg.norm(obj.rgrad(moved) - g) <= 1e-14 * np.linalg.norm(g)
                assert np.allclose(obj.rhess(moved, a), obj.rhess(s, a), atol=1e-10)
            spectral = np.linalg.norm(hessian_matrix(obj, s), 2)
            for v in (np.ones(n), ramp):
                assert np.linalg.norm(obj.rhess(s, v)) <= 1e-14 * spectral * np.linalg.norm(v)

    def test_central_finite_differences(self, rng):
        n = 8
        obj = SequenceObjective(_small_scene(n))
        s = random_point(n, 30)
        t = 1e-6
        for _ in range(10):
            v = rng.standard_normal(n)
            assert inner(obj.rgrad(s), v) == pytest.approx(central_difference(obj, s, v, t), rel=1e-5)


class TestSequenceHessian:
    def test_zero_direction(self):
        n = 8
        obj = SequenceObjective(_small_scene(n))
        s = random_point(n, 32)
        assert np.allclose(obj.rhess(s, np.zeros(s.n)), 0.0)

    def test_real_linearity(self, rng):
        n = 8
        obj = SequenceObjective(_small_scene(n))
        s = random_point(n, 34)
        xi, eta = make_tangent(s, rng), make_tangent(s, rng)
        lhs = obj.rhess(s, 2.0 * xi - 0.5 * eta)
        rhs = 2.0 * obj.rhess(s, xi) - 0.5 * obj.rhess(s, eta)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.max(np.abs(rhs))))

    def test_forward_difference_of_gradient(self, rng):
        # primary guard against transcription errors in the curvature terms:
        # rgrad at s (.) e^{j t a} is the gradient of phi -> f(s (.) e^{j phi})
        # at phi = t a, and rhess(s, a) is that gradient's derivative along a
        n = 8
        obj = SequenceObjective(_small_scene(n))
        s = random_point(n, 36)
        a = make_tangent(s, rng, scale=1.0)
        t = 1e-6
        moved = UnitModulusSequence(s.entries * np.exp(1j * t * a))
        fd = (obj.rgrad(moved) - obj.rgrad(s)) / t
        analytic = obj.rhess(s, a)
        assert np.linalg.norm(fd - analytic) / np.linalg.norm(fd) < 1e-4

    def test_scene_without_scatterers(self, rng):
        n = 8
        obj = SequenceObjective(ClutterScene([], n))
        s = random_point(n, 43)
        assert np.array_equal(obj.rhess(s, make_tangent(s, rng)), np.zeros(n))

    def test_alternating_points_match_fresh_objectives(self, rng):
        # the factor belongs to its point's state: moving between two points
        # of one objective never mixes their factors
        n = 16
        scene = random_scene(n, 6, rng)
        x1, x2 = random_point(n, 37), random_point(n, 38)
        a = make_tangent(x1, rng, scale=1.0)
        expected = {1: SequenceObjective(scene).rhess(x1, a), 2: SequenceObjective(scene).rhess(x2, a)}
        obj = SequenceObjective(scene)
        for which in (1, 2, 1, 2, 2, 1):
            x = x1 if which == 1 else x2
            assert np.array_equal(obj.rhess(x, a), expected[which])

    def test_rcg_builds_no_factor(self, rng, monkeypatch):
        from wrtr.radar import ClutterBank
        from wrtr.rcg import solve_rcg
        from wrtr.rtr import TrustRegionConfig

        def refuse(*args):
            raise AssertionError("first-order solver built a Hessian")

        monkeypatch.setattr(ClutterBank, "hessian_gram", refuse)
        n = 16
        obj = SequenceObjective(random_scene(n, 6, rng))
        _, trace = solve_rcg(obj, random_point(n, 39), TrustRegionConfig(max_iters=10))
        assert len(trace) > 0

    def test_riemannian_self_adjointness_relative(self, rng):
        n = 16
        obj = SequenceObjective(random_scene(n, 5, rng))
        s = random_point(n, 40)
        worst = 0.0
        scale = 0.0
        for _ in range(50):
            xi = make_tangent(s, rng, scale=1.0)
            eta = make_tangent(s, rng, scale=1.0)
            a = inner(obj.rhess(s, xi), eta)
            b = inner(xi, obj.rhess(s, eta))
            worst = max(worst, abs(a - b))
            scale = max(scale, abs(a), abs(b))
        assert worst / scale < 1e-8

    def test_second_order_taylor_slope(self, rng):
        n = 16
        obj = SequenceObjective(random_scene(n, 5, rng))
        s = random_point(n, 42)
        xi = make_tangent(s, rng, scale=1.0)
        f0 = obj.cost(s)
        g = inner(obj.rgrad(s), xi)
        h = inner(obj.rhess(s, xi), xi)
        ts = np.logspace(-4, -2, 7)
        residuals = [abs(pullback(obj, s, xi, t) - (f0 + t * g + 0.5 * t * t * h)) for t in ts]
        assert loglog_slope(ts, residuals) == pytest.approx(3.0, abs=0.2)


def dense_phase_derivatives(scene, x):
    """Gradient and Hessian at 0 of phi -> f(x (.) e^{j phi}), built from dense Psi_k.

    t -> x (.) e^{j t a} is a geodesic of M, so these are the Riemannian
    gradient and Hessian in tangent coordinates at x (at any point, not
    only a critical one). f = sum_k |q_k|^2 / n^2.
    """
    z = x.entries
    grad_u, hess_u, u = 0.0, 0.0, 0.0
    for sc in scene.scatterers:
        a = np.conj(z)[:, None] * dense_psi(sc, scene.n) * z[None, :]
        q = a.sum()
        dq = 1j * (a.sum(axis=0) - a.sum(axis=1))
        d2q = a + a.T - np.diag(a.sum(axis=0) + a.sum(axis=1))
        u += abs(q) ** 2
        grad_u = grad_u + 2.0 * np.real(np.conj(q) * dq)
        hess_u = hess_u + 2.0 * np.real(np.outer(np.conj(dq), dq) + np.conj(q) * d2q)
    return grad_u / scene.n**2, hess_u / scene.n**2


def assert_derivatives_match_dense(scene, rng):
    x = random_point(scene.n, 50)
    obj = SequenceObjective(scene)
    grad, hess = dense_phase_derivatives(scene, x)
    assert np.max(np.abs(obj.rgrad(x) - grad)) <= 1e-10 * np.max(np.abs(grad))
    assert np.max(np.abs(hessian_matrix(obj, x) - hess)) <= 1e-10 * np.max(np.abs(hess))
    a = make_tangent(x, rng, scale=1.0)
    assert np.max(np.abs(obj.rhess(x, a) - hess @ a)) <= 1e-10 * np.max(np.abs(hess))


class TestDenseHessianOracle:
    @pytest.mark.parametrize("form", ["nominal"])
    def test_coordinate_derivatives_match_dense(self, rng, form):
        # repeated and distinct shifts, shift 0 and n - 1 included
        n = 12
        scene = ClutterScene(
            [ClutterScatterer(r, float(rng.uniform(0, 1)), float(rng.uniform(0.2, 2.0)))
             for r in (0, 3, 3, 3, 7, n - 1, 5, 3)],
            n,
        )
        assert_derivatives_match_dense(scene, rng)

    @pytest.mark.parametrize("form", ["nominal"])
    def test_every_shift_matches_dense(self, rng, form):
        # every shift 0..n-1 twice, the lower half three times: 161 scatterer
        # rows, so the factor is written in two chunks of 2^12 / n = 64 rows
        # and a partial one
        n = 64
        shifts = 2 * list(range(n)) + list(range(n // 2 + 1))
        scene = ClutterScene(
            [ClutterScatterer(r, float(rng.uniform(0, 1)), float(rng.uniform(0.2, 2.0))) for r in shifts],
            n,
        )
        assert_derivatives_match_dense(scene, rng)


class TestRiemannianGradient:
    def test_tangent_euclidean_gradient_unchanged(self, rng):
        # when the Euclidean gradient is already tangent, projection is a no-op
        n = 8
        s = random_point(n, 43)
        a = make_tangent(s, rng)
        assert np.allclose(project_tangent(s, 1j * a * s.entries), a, atol=1e-12)

    def test_zero_at_center_zero_radius(self):
        s = random_point(8, 44)
        obj = WorstCaseObjective(s, epsilon=0.0)
        assert np.allclose(obj.rgrad(s), 0.0, atol=1e-14)

    def test_center_is_stationary_for_any_radius(self):
        # the radius penalty gradient at st = s is radial, so it projects out
        s = random_point(8, 45)
        obj = WorstCaseObjective(s, epsilon=3.0)
        assert np.allclose(obj.rgrad(s), 0.0, atol=1e-10)

    def test_pullback_first_order(self, rng):
        n = 16
        obj = SequenceObjective(random_scene(n, 4, rng))
        s = random_point(n, 47)
        xi = make_tangent(s, rng, scale=1.0)
        t = 1e-6
        fd = (pullback(obj, s, xi, t) - pullback(obj, s, xi, -t)) / (2 * t)
        assert inner(obj.rgrad(s), xi) == pytest.approx(fd, rel=1e-6)


class TestBoundaryProperty:
    def test_worst_case_solutions_sit_on_the_ball_boundary(self, rng):
        # first-order stationary points of the penalized steering cost
        # satisfy ||st - s||^2 = eps up to the lambda-controlled tolerance
        from wrtr import rtr
        from wrtr.manifold import random_tangent

        for seed in range(3):
            n = 64
            s = random_point(n, 100 + seed)
            eps = float(rng.uniform(1.0, 3.5 * n))
            obj = WorstCaseObjective(s, epsilon=eps)
            start = retract(s, random_tangent(s, rng, scale=float(np.sqrt(eps))))
            st, trace = rtr.solve(obj, start, rtr.TrustRegionConfig(max_iters=200))
            ball_residual, corr_residual = obj.boundary_residuals(st)
            assert ball_residual <= 10.0 / np.sqrt(LAM)
            assert corr_residual <= 5.0 / np.sqrt(LAM)


class TestClosedFormWorstCase:
    def test_closed_form_values(self):
        assert worst_case_gain(64, 0.0) == 64.0**2
        assert worst_case_gain(64, 20.0) == 54.0**2
        assert worst_case_gain(64, 128.0) == 0.0
        assert worst_case_gain(64, 154.6) == 0.0

    def test_rtr_adversary_attains_the_closed_form_gain(self):
        # with st = s (.) w, s^H st = sum w and ||st - s||^2 = 2n - 2 Re sum w,
        # so the worst coupling over the ball is |s^H st|^2 = (n - eps/2)^2
        # whatever s is (for eps < 2n)
        from wrtr import rtr
        from wrtr.manifold import random_tangent

        n = 64
        for eps in (5.0, 20.0, 100.0):
            for seed in range(5):
                s = random_point(n, 300 + seed)
                obj = WorstCaseObjective(s, epsilon=eps)
                rng = np.random.default_rng([seed, 0])
                start = retract(s, random_tangent(s, rng, scale=float(np.sqrt(eps))))
                st, _ = rtr.solve(obj, start, rtr.TrustRegionConfig())
                gain = abs(np.vdot(s.entries, st.entries)) ** 2
                assert gain == pytest.approx(worst_case_gain(n, eps), rel=1e-6), (eps, seed)


def identity_column_hessian(obj, x):
    """Oracle of hessian_matrix: rhess applied to each identity column."""
    return np.column_stack([obj.rhess(x, e) for e in np.eye(x.n)])


def scenario2_epsilon():
    from pathlib import Path

    from wrtr.scenario import load_scenario

    lo, hi = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "scenario2.json").wrtr.doppler_interval
    return epsilon_from_doppler(np.linspace(lo, hi, 2001), 0.0, 64)


HESSIAN_CASES = [("generated", 16), ("generated", 64), ("generated", 128), ("scenario2", 64)]


class TestHessianMatrix:
    @pytest.mark.parametrize("scene_kind,n", HESSIAN_CASES)
    def test_sequence_matrix_is_the_dense_hessian(self, rng, scene_kind, n):
        # rhess multiplies by this matrix, so its oracle is the Hessian built
        # from dense Psi_k
        scene = scenario2_scene() if scene_kind == "scenario2" else random_scene(n, 3 * n // 2, rng)
        x = random_point(n, 70 + n)
        _, expected = dense_phase_derivatives(scene, x)
        h = SequenceObjective(scene).hessian_matrix(x)
        assert h.shape == (n, n)
        assert np.max(np.abs(h - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("scene_kind,n", HESSIAN_CASES)
    def test_worst_case_matrix_is_rhess_of_the_identity(self, rng, scene_kind, n):
        eps = scenario2_epsilon() if scene_kind == "scenario2" else float(rng.uniform(0.0, 4.0 * n))
        s = random_point(n, 80 + n)
        obj = WorstCaseObjective(s, epsilon=eps)
        st = retract(s, make_tangent(s, rng, scale=float(np.sqrt(eps))))
        expected = identity_column_hessian(obj, st)
        h = obj.hessian_matrix(st)
        assert np.max(np.abs(h - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(h, h.T)

    def test_criterion_02_points_are_self_adjoint(self):
        # criterion 2 reads the symmetry of hessian_matrix; rhess's own
        # self-adjointness at its n and points is checked here on the oracle
        n = 16
        rng = np.random.default_rng(99)
        worst_obj = WorstCaseObjective(random_point(n, 3), epsilon=2.0)
        seq_obj = SequenceObjective(random_scene(n, 5, rng))
        x = random_point(n, 60)
        for obj in (worst_obj, seq_obj):
            expected = identity_column_hessian(obj, x)
            assert np.max(np.abs(expected - expected.T)) < 1e-8 * np.max(np.abs(expected))
            assert np.max(np.abs(obj.hessian_matrix(x) - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_sequence_matrix_is_kept_read_only_in_the_point_state(self, rng):
        n = 16
        obj = SequenceObjective(random_scene(n, 6, rng))
        x = random_point(n, 90)
        h = obj.hessian_matrix(x)
        assert obj.hessian_matrix(x) is h
        assert not h.flags.writeable
        assert np.array_equal(h, h.T)
        obj.hessian_matrix(random_point(n, 91))
        assert obj.hessian_matrix(x) is not h
        assert np.array_equal(obj.hessian_matrix(x), h)

    def test_building_the_matrix_leaves_rhess_unchanged(self, rng):
        # rhess multiplies by the point's one matrix, whichever call built
        # it, so its bits depend on (x, a) alone
        n = 32
        scene = random_scene(n, 8, rng)
        x = random_point(n, 92)
        a = make_tangent(x, rng, scale=1.0)
        expected = SequenceObjective(scene).rhess(x, a)
        obj = SequenceObjective(scene)
        obj.hessian_matrix(x)
        assert np.array_equal(obj.rhess(x, a), expected)

    @pytest.mark.parametrize("n,n_scatterers", [(64, 256), (128, 512), (256, 1024)])
    def test_the_point_state_keeps_no_factor(self, n, n_scatterers):
        # G (2 N_t x n, 1 MB at n = 128) never leaves the bank, so a point
        # keeps its Hessian (n^2 floats) beside its O(B n) arrays: the lags
        # and p (B x n complex), q (N_t complex), gradient and radial part
        import tracemalloc

        scene = random_scene(n, n_scatterers, np.random.default_rng(94))
        SequenceObjective(scene).hessian_matrix(random_point(n, 95))  # the bank's index arrays
        x = random_point(n, 96)
        tracemalloc.start()
        try:
            obj = SequenceObjective(scene)
            obj.hessian_matrix(x)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bank = scene.bank
        per_point = 2 * 16 * bank.shifts.size * n + 16 * bank.size + 2 * 8 * n
        # 16 kB for the Python objects around the arrays; G alone is 256 kB to 4 MB
        assert retained <= per_point + 8 * n * n + 2**14

    @pytest.mark.parametrize("n_scatterers", [0, 24])
    def test_gram_matrices_are_fresh_float_arrays(self, rng, n_scatterers):
        # the objective scales both in place, so neither may be the bank's
        # scratch or another point's; with no scatterers bincount counts in int64
        n = 16
        bank = random_scene(n, n_scatterers, rng).bank

        def gram_at(seed):
            s = random_point(n, seed).entries
            lags = bank.lags(s, s)
            return bank.hessian_gram(lags, bank.diagonals(np.conj(bank.forms(lags))) * lags)

        gram, s = gram_at(97)
        kept = gram.copy(), s.copy()
        gram_at(98)
        for a, b in zip((gram, s), kept):
            assert a.dtype == np.float64 and a.flags.writeable and a.shape == (n, n)
            assert np.array_equal(a, b) and np.array_equal(a, a.T)
        assert np.any(gram != 0.0) == (n_scatterers > 0)

    def test_driver_matrix_is_the_objectives(self, rng):
        n = 16
        obj = SequenceObjective(random_scene(n, 6, rng))
        x = random_point(n, 93)
        assert hessian_matrix(obj, x) is obj.hessian_matrix(x)
