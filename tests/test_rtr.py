import math

import numpy as np
import pytest

from wrtr import rtr
from wrtr.manifold import inner, norm, random_point, random_tangent, retract
from wrtr.objectives import SequenceObjective, WorstCaseObjective
from wrtr.rcg import MAX_BACKTRACKS, solve_rcg
from wrtr.rtr import TcgStop, TrustRegionConfig, TrustRegionIteration, solve, tcg

from conftest import CountingProblem, random_scene


class QuadraticModelProblem:
    """Fixed quadratic model on the tangent space at one point (test double).

    Its cost never decreases, so every step is rejected; it counts its
    cost evaluations and Hessian-vector products.
    """

    def __init__(self, x, matrix, grad_coords):
        self.x = x
        self.matrix = np.asarray(matrix, dtype=float)
        self.grad_coords = np.asarray(grad_coords, dtype=float)
        self.cost_calls = 0
        self.hvp_calls = 0

    def cost(self, x):
        self.cost_calls += 1
        return 0.0

    def rgrad(self, x):
        return self.grad_coords.copy()

    def rhess(self, x, a):
        self.hvp_calls += 1
        return self.matrix @ a


class RisingCostProblem:
    """Cost 1 + sum of squared phase offsets from x (test double), with a fixed
    model gradient and the identity Hessian.

    Every step from x raises the cost, so every step is rejected; it keeps
    each cost it returns, in call order.
    """

    def __init__(self, x, grad_coords):
        self.x = x
        self.grad_coords = np.asarray(grad_coords, dtype=float)
        self.costs = []

    def cost(self, x):
        offsets = np.angle(x.entries * np.conj(self.x.entries))
        self.costs.append(1.0 + float(offsets @ offsets))
        return self.costs[-1]

    def rgrad(self, x):
        return self.grad_coords.copy()

    def rhess(self, x, a):
        return np.array(a, dtype=float)


class FlatCostProblem:
    """A constant cost of 0 with a fixed nonzero gradient (test double): no step passes Armijo's test."""

    def __init__(self, grad_coords):
        self.grad_coords = np.asarray(grad_coords, dtype=float)

    def cost(self, x):
        return 0.0

    def rgrad(self, x):
        return self.grad_coords

    def rhess(self, x, a):
        return np.zeros_like(a)


def spd_matrix(n, rng):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestTcg:
    def test_zero_gradient_returns_zero_step(self, rng):
        x = random_point(8, 0)
        problem = QuadraticModelProblem(x, np.eye(8), np.zeros(8))
        step, reason = tcg(problem, x, 1.0, TrustRegionConfig(), problem.rgrad(x))
        assert reason is TcgStop.RESIDUAL_SMALL
        assert norm(step) == 0.0

    def test_one_dimensional_newton_step(self):
        x = random_point(1, 1)
        h, g = 4.0, 2.0
        problem = QuadraticModelProblem(x, [[h]], [g])
        step, reason = tcg(problem, x, 100.0, TrustRegionConfig(), problem.rgrad(x))
        assert reason is TcgStop.RESIDUAL_SMALL
        assert step[0] == pytest.approx(-g / h, rel=1e-14)

    def test_matches_dense_newton_solve(self, rng, monkeypatch):
        monkeypatch.setattr(rtr, "TCG_KAPPA", 1e-12)
        n = 8
        x = random_point(n, 2)
        a = spd_matrix(n, rng)
        g = rng.standard_normal(n)
        problem = QuadraticModelProblem(x, a, g)
        cfg = TrustRegionConfig(tcg_max_inner=4 * n)
        step, reason = tcg(problem, x, 1e6, cfg, problem.rgrad(x))
        expected = -np.linalg.solve(a, g)
        assert reason is TcgStop.RESIDUAL_SMALL
        assert np.allclose(step, expected, atol=1e-8)

    def test_step_never_exceeds_radius(self, rng):
        n = 8
        x = random_point(n, 3)
        problem = QuadraticModelProblem(x, spd_matrix(n, rng), 10 * rng.standard_normal(n))
        for delta in (1e-3, 0.1, 1.0):
            step, _ = tcg(problem, x, delta, TrustRegionConfig(), problem.rgrad(x))
            assert norm(step) <= delta + 1e-12

    def test_boundary_exit_lands_on_radius(self, rng):
        n = 8
        x = random_point(n, 4)
        # tiny curvature, big gradient: the unconstrained minimizer is far away
        problem = QuadraticModelProblem(x, 1e-3 * np.eye(n), rng.standard_normal(n))
        delta = 0.5
        step, reason = tcg(problem, x, delta, TrustRegionConfig(), problem.rgrad(x))
        assert reason is TcgStop.BOUNDARY
        assert norm(step) == pytest.approx(delta, abs=1e-12)

    def test_negative_curvature_exit(self, rng):
        n = 4
        x = random_point(n, 5)
        problem = QuadraticModelProblem(x, -np.eye(n), rng.standard_normal(n))
        delta = 2.0
        step, reason = tcg(problem, x, delta, TrustRegionConfig(), problem.rgrad(x))
        assert reason is TcgStop.NEGATIVE_CURVATURE
        assert norm(step) == pytest.approx(delta, abs=1e-12)

    def test_max_inner_exit(self, rng, monkeypatch):
        monkeypatch.setattr(rtr, "TCG_KAPPA", 1e-12)
        n = 8
        x = random_point(n, 6)
        problem = QuadraticModelProblem(x, spd_matrix(n, rng), rng.standard_normal(n))
        cfg = TrustRegionConfig(tcg_max_inner=1)
        _, reason = tcg(problem, x, 1e6, cfg, problem.rgrad(x))
        assert reason is TcgStop.MAX_INNER

    def test_iterate_norms_nondecreasing(self, rng, monkeypatch):
        monkeypatch.setattr(rtr, "TCG_KAPPA", 1e-12)
        n = 16
        x = random_point(n, 7)
        problem = QuadraticModelProblem(x, spd_matrix(n, rng), rng.standard_normal(n))
        # tCG is deterministic, so a run capped at k inner iterations that
        # exits at the cap returns the k-th interior iterate of the uncapped run
        norms = []
        for k in range(1, n + 1):
            step, reason = tcg(problem, x, 10.0, TrustRegionConfig(tcg_max_inner=k), problem.rgrad(x))
            if reason is not TcgStop.MAX_INNER:
                break
            norms.append(norm(step))
        assert len(norms) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_model_decrease_nonnegative(self, rng):
        n = 8
        x = random_point(n, 8)
        for trial in range(10):
            matrix = rng.standard_normal((n, n))
            matrix = 0.5 * (matrix + matrix.T)  # indefinite allowed
            g = rng.standard_normal(n)
            problem = QuadraticModelProblem(x, matrix, g)
            grad = problem.rgrad(x)
            step, _ = tcg(problem, x, 0.7, TrustRegionConfig(), grad)
            decrease = -(inner(grad, step) + 0.5 * inner(problem.rhess(x, step), step))
            assert decrease >= -1e-12


def worst_case_instance(n, seed, eps=2.0):
    s = random_point(n, seed)
    obj = WorstCaseObjective(s, epsilon=eps)
    rng = np.random.default_rng(seed + 1)
    start = retract(s, random_tangent(s, rng, scale=float(np.sqrt(eps))))
    return obj, start


class TestSolve:
    def test_stationary_start_returns_immediately(self):
        s = random_point(8, 10)
        obj = WorstCaseObjective(s, epsilon=0.0)
        x, trace = solve(obj, s, TrustRegionConfig())
        assert len(trace) == 0
        assert trace.converged
        assert np.allclose(x.entries, s.entries)

    def test_accepted_costs_strictly_decrease(self):
        obj, start = worst_case_instance(32, 11)
        _, trace = solve(obj, start, TrustRegionConfig(max_iters=100))
        costs = trace.accepted_costs() + [trace.final_cost]
        assert len(costs) > 2
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_radius_schedule_matches_rule(self):
        obj, start = worst_case_instance(32, 12)
        cfg = TrustRegionConfig(max_iters=100)
        _, trace = solve(obj, start, cfg)
        delta_bar = math.sqrt(32)
        for prev, nxt in zip(trace.iterations, trace.iterations[1:]):
            if prev.rho < 0.25:
                expected = 0.25 * prev.delta
            elif prev.rho > 0.75 and abs(prev.step_norm - prev.delta) <= 1e-12 * max(1.0, prev.delta):
                expected = min(2.0 * prev.delta, delta_bar)
            else:
                expected = prev.delta
            assert nxt.delta == pytest.approx(expected, rel=1e-14)

    def test_converges_on_worst_case_objective(self):
        # 20 random starts at n = 64 reach 1e-6 of the initial gradient
        # norm well inside 500 iterations
        cfg = TrustRegionConfig(grad_tol=1e-6, max_iters=500)
        for seed in range(20):
            obj, start = worst_case_instance(64, 200 + seed, eps=float(2.0 + seed / 7.0))
            _, trace = solve(obj, start, cfg)
            assert trace.converged, f"seed {seed}: {trace.final_grad_norm} vs {trace.grad_tol_effective}"
            assert len(trace) <= 500

    def test_max_iters_respected(self):
        obj, start = worst_case_instance(32, 13)
        _, trace = solve(obj, start, TrustRegionConfig(max_iters=3, grad_tol=0.0))
        assert len(trace) == 3
        assert not trace.converged

    def test_trace_records_are_complete(self):
        obj, start = worst_case_instance(16, 14)
        for cfg, g_ref in (
            (TrustRegionConfig(max_iters=50), None),
            (TrustRegionConfig(max_iters=5, grad_tol=1e-9), 1.0),
        ):
            _, trace = solve(obj, start, cfg, g_ref=g_ref)
            assert trace.initial_grad_norm > 0
            tol = cfg.grad_tol * (trace.initial_grad_norm if g_ref is None else g_ref)
            assert trace.grad_tol_effective == tol
            assert trace.converged == (trace.final_grad_norm <= trace.grad_tol_effective)
            for it in trace.iterations:
                assert it.delta > 0
                assert it.step_norm >= 0
                assert isinstance(it.tcg_stop, TcgStop)

    def test_flat_cost_ends_after_one_rejected_row(self, rng):
        # a flat cost with a nonzero model gradient: the first step changes
        # f by 0, which is within the rounding guard 1e4 * eps * |f| = 0, so
        # rho has nothing to judge and the solve ends on that rejected row
        n = 16
        x = random_point(n, 14)
        problem = QuadraticModelProblem(x, spd_matrix(n, rng), rng.standard_normal(n))
        _, trace = solve(problem, x, TrustRegionConfig(grad_tol=0.0, max_iters=500))
        assert len(trace) == 1
        assert not trace.iterations[0].accepted
        assert trace.cost_evals == problem.cost_calls == 2
        assert not trace.converged

    def test_rejections_end_at_the_rounding_guard(self):
        # the cost rises along every step, so each row is rejected and the
        # radius shrinks 4x per row; the solve ends on the first row whose
        # change |f(x) - f(cand)| is within 1e4 * eps * |f(x)|, and on no
        # earlier one
        n = 16
        x = random_point(n, 15)
        problem = RisingCostProblem(x, np.random.default_rng(15).standard_normal(n))
        _, trace = solve(problem, x, TrustRegionConfig(grad_tol=0.0, max_iters=500))
        rows = trace.iterations
        assert not any(it.accepted for it in rows)
        assert all(b.delta == 0.25 * a.delta for a, b in zip(rows, rows[1:]))
        f0, changes = problem.costs[0], [abs(f - problem.costs[0]) for f in problem.costs[1:]]
        assert len(changes) == len(rows) > 5
        guard = 1e4 * np.finfo(float).eps * abs(f0)
        assert all(change > guard for change in changes[:-1])
        assert changes[-1] <= guard
        assert not trace.converged

    def test_sequence_solve_ends_on_a_rejected_row(self, rng):
        # grad_tol 0 is never met; the solve stops once a rejected step's
        # change is within rounding, well before max_iters, and returns the
        # last accepted iterate
        n = 8
        problem = SequenceObjective(random_scene(n, 3, rng))
        _, trace = solve(problem, random_point(n, 18), TrustRegionConfig(grad_tol=0.0, max_iters=500))
        last = trace.iterations[-1]
        assert len(trace) < 500
        assert not last.accepted
        assert trace.accepted_costs()
        assert trace.final_cost == last.cost < trace.accepted_costs()[-1]
        assert not trace.converged

    @pytest.mark.parametrize("case", ["sequence", "rejected"])
    def test_trace_counts_match_a_counting_wrapper(self, rng, case):
        if case == "sequence":
            n = 16
            problem = SequenceObjective(random_scene(n, 6, rng))
            x = random_point(n, 16)
            cfg = TrustRegionConfig(max_iters=25, grad_tol=0.0, tcg_max_inner=6)
        else:
            # every step rejected until the change is within rounding
            n = 8
            x = random_point(n, 15)
            problem = RisingCostProblem(x, 1e-2 * rng.standard_normal(n))
            cfg = TrustRegionConfig(grad_tol=0.0, max_iters=500)
        problem = CountingProblem(problem)
        _, trace = solve(problem, x, cfg)
        assert trace.hvps == problem.hvp_calls > len(trace)
        assert trace.cost_evals == problem.cost_calls > 1
        assert trace.grad_evals == problem.grad_calls == 1 + len(trace.accepted_costs())

    @pytest.mark.parametrize("max_iters", [0, 1, 25])
    def test_rcg_trace_counts_match_a_counting_wrapper(self, rng, max_iters):
        n = 16
        problem = CountingProblem(SequenceObjective(random_scene(n, 6, rng)))
        _, trace = solve_rcg(problem, random_point(n, 17), TrustRegionConfig(grad_tol=0.0, max_iters=max_iters))
        assert trace.cost_evals == problem.cost_calls
        assert trace.grad_evals == problem.grad_calls == 1 + len(trace)
        assert problem.cost_calls >= 1 + len(trace)
        assert problem.hvp_calls == 0

    def test_rcg_rows_are_trust_region_rows(self, rng):
        # RCG records its solve as RTR does: every row accepted, with no
        # rho, radius or tCG stop, so accepted_costs reads every RCG trace
        n = 16
        problem = SequenceObjective(random_scene(n, 6, rng))
        _, trace = solve_rcg(problem, random_point(n, 19), TrustRegionConfig(max_iters=10))
        assert len(trace) == 10
        assert all(type(it) is TrustRegionIteration for it in trace.iterations)
        assert all(it.rho is it.delta is it.tcg_stop is None and it.accepted for it in trace.iterations)
        assert trace.accepted_costs() == [it.cost for it in trace.iterations]

    def test_rcg_stops_when_the_line_search_fails(self, rng):
        # a constant cost with a nonzero gradient: each of the MAX_BACKTRACKS
        # halvings of the first step fails Armijo's test, and the solve ends
        # where it began
        n = 8
        x0 = random_point(n, 18)
        problem = CountingProblem(FlatCostProblem(rng.standard_normal(n)))
        x, trace = solve_rcg(problem, x0, TrustRegionConfig())
        assert x is x0
        assert len(trace) == 0 and not trace.converged
        assert trace.cost_evals == problem.cost_calls == 1 + MAX_BACKTRACKS == 61


class TestCheckTermination:
    """The stopping rule of solve: converged iff the final gradient norm is
    at most grad_tol_effective (grad_tol times g_ref, the initial gradient
    norm unless given)."""

    def test_zero_gradient(self):
        x = random_point(8, 20)
        problem = QuadraticModelProblem(x, np.eye(8), np.zeros(8))
        _, trace = solve(problem, x, TrustRegionConfig())
        assert len(trace) == 0
        assert trace.final_grad_norm == 0.0
        assert trace.converged

    def test_relative_threshold_boundary(self):
        # grad_tol = 1 puts the relative tolerance exactly at the initial
        # gradient norm; equality counts as converged
        x = random_point(8, 21)
        problem = QuadraticModelProblem(x, np.eye(8), [3.0, 4.0, 0, 0, 0, 0, 0, 0])
        _, trace = solve(problem, x, TrustRegionConfig(grad_tol=1.0))
        assert trace.grad_tol_effective == trace.initial_grad_norm
        assert len(trace) == 0
        assert trace.final_grad_norm == trace.grad_tol_effective
        assert trace.converged

    def test_just_above_threshold(self):
        x = random_point(8, 22)
        problem = QuadraticModelProblem(x, np.eye(8), [3.0, 4.0, 0, 0, 0, 0, 0, 0])
        _, trace = solve(problem, x, TrustRegionConfig(grad_tol=1.0 / 1.001, max_iters=0))
        assert trace.grad_tol_effective == pytest.approx(trace.initial_grad_norm / 1.001, rel=1e-15)
        assert trace.final_grad_norm == trace.initial_grad_norm
        assert trace.final_grad_norm > trace.grad_tol_effective
        assert not trace.converged

    def test_absolute_mode(self):
        obj, start = worst_case_instance(16, 23)
        cfg = TrustRegionConfig(grad_tol=1e-3)
        _, trace = solve(obj, start, cfg, g_ref=1.0)
        assert trace.initial_grad_norm > 1.0
        assert trace.grad_tol_effective == 1e-3
        assert trace.final_grad_norm <= 1e-3
        assert trace.converged


class TestConfigValidation:
    @pytest.mark.parametrize("inner", [0, -3])
    def test_tcg_max_inner_positive(self, inner):
        with pytest.raises(ValueError, match="tcg_max_inner"):
            TrustRegionConfig(tcg_max_inner=inner)

    def test_first_radius_default_scale(self):
        # the first radius is sqrt(n) / 8
        obj, start = worst_case_instance(64, 24)
        _, trace = solve(obj, start, TrustRegionConfig(max_iters=1))
        assert trace.iterations[0].delta == pytest.approx(1.0)


class TestDenseHessianProducts:
    """The solver multiplies only through rhess; the sequence cost's rhess
    reads its point's matrix, built once per point from the bank's G."""

    def test_worst_case_adversary_keeps_rhess(self):
        obj, start = worst_case_instance(32, 101)
        problem = CountingProblem(obj)
        _, trace = solve(problem, start, TrustRegionConfig(max_iters=10))
        assert problem.hvp_calls == trace.hvps > 0

    @pytest.mark.parametrize("n,cap", [(16, None), (64, 4), (128, 10), (128, None)])
    def test_the_bank_builds_g_once_per_iteration(self, rng, monkeypatch, n, cap):
        # each iteration's tCG runs at a point whose state the previous
        # candidate's cost evicted, and the model decrease reuses its matrix
        from wrtr.radar import ClutterBank

        counts = {"gram": 0, "tcg": 0}
        gram, inner = ClutterBank.hessian_gram, rtr.tcg

        def counting_gram(*args):
            counts["gram"] += 1
            return gram(*args)

        def counting_tcg(*args, **kwargs):
            counts["tcg"] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(ClutterBank, "hessian_gram", counting_gram)
        monkeypatch.setattr(rtr, "tcg", counting_tcg)
        problem = CountingProblem(SequenceObjective(random_scene(n, 4 * n, rng)))
        _, trace = solve(problem, random_point(n, 104), TrustRegionConfig(grad_tol=0.0, max_iters=8, tcg_max_inner=cap))
        assert len(trace) == 8
        assert counts == {"gram": 8, "tcg": 8}
        assert problem.hvp_calls == trace.hvps > 2 * len(trace)

    @pytest.mark.parametrize("n,cap", [(16, None), (16, 4), (64, None), (64, 10)])
    def test_the_solver_reads_only_cost_rgrad_and_rhess(self, rng, n, cap):
        # CountingProblem exposes only those three: the bare objective, which
        # also has its private matrix, takes bit for bit the same path
        scene = random_scene(n, 2 * n, rng)
        x0, cfg = random_point(n, 105), TrustRegionConfig(grad_tol=0.0, max_iters=15, tcg_max_inner=cap)
        x, trace = solve(SequenceObjective(scene), x0, cfg)
        wrapped_x, wrapped = solve(CountingProblem(SequenceObjective(scene)), x0, cfg)
        assert np.array_equal(x.entries, wrapped_x.entries)
        assert trace.iterations == wrapped.iterations and trace.hvps == wrapped.hvps
