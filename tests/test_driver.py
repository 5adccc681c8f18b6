from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wrtr import driver, radar, rtr
from wrtr.driver import WrtrConfig, hessian_matrix, hessian_spectrum, monte_carlo_scr
from wrtr.manifold import UnitModulusSequence, random_point, retract
from wrtr.objectives import SequenceObjective, WorstCaseObjective
from wrtr.radar import ClutterScatterer, ClutterScene, DegenerateSceneError, clutter_energy
from wrtr.rcg import solve_rcg
from wrtr.rtr import TrustRegionConfig
from wrtr.scenario import load_scenario

from conftest import make_tangent, random_scene, random_sequence, scenario2_scene, traced_peak


SMALL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "small.json"


def small_cfg(**kw):
    defaults = dict(
        epsilon=2.0,
        max_outer=4,
        worst_solver=TrustRegionConfig(max_iters=60),
        seq_solver=TrustRegionConfig(max_iters=30),
    )
    defaults.update(kw)
    return WrtrConfig(**defaults)


def scenario2_cfg():
    solver = TrustRegionConfig(max_iters=100, grad_tol=1e-9)
    return WrtrConfig(doppler_interval=(-0.1, 0.1), max_outer=20,
                      worst_solver=solver, seq_solver=solver)


def shipped_design(which):
    """(scene, WrtrConfig, seed) of configs/small.json or of scenario 2 as the acceptance fixture runs it."""
    if which == "small":
        config = load_scenario(SMALL_CONFIG)
        return config.to_scene(), config.wrtr, config.seed
    return scenario2_scene(), scenario2_cfg(), 2024


def tiny_scene(n=16):
    return ClutterScene(
        [ClutterScatterer(3, 7 / n, 10.0), ClutterScatterer(4, 7 / n, 10.0),
         ClutterScatterer(5, 7 / n, 10.0)],
        n,
    )


class TestOptimize:
    def test_zero_epsilon_reduces_to_nominal_design(self):
        scene = tiny_scene()
        result = driver.optimize(scene, small_cfg(epsilon=0.0), seed=5)
        # steering collapses onto the final sequence and the clutter drops
        assert np.allclose(result.worst_steering.entries, result.sequence.entries)
        assert clutter_energy(result.sequence, scene) < clutter_energy(
            result.initial_sequence, scene
        )

    def test_history_and_membership(self):
        scene = tiny_scene()
        cfg = small_cfg()
        result = driver.optimize(scene, cfg, seed=6)
        assert 1 <= len(result.history) <= cfg.max_outer
        for point in (result.sequence, result.worst_steering, result.initial_sequence):
            assert np.all(np.abs(np.abs(point.entries) - 1.0) <= 1e-12)
        for h in result.history:
            assert h.seq_trace is not None
            assert np.isfinite(h.scnr_db)

    def test_final_pair_is_self_consistent(self):
        # the returned worst steering solves the worst-case problem of the
        # returned sequence (boundary residuals at lambda-scale tolerance)
        scene = tiny_scene()
        result = driver.optimize(scene, small_cfg(), seed=7)
        obj = WorstCaseObjective(result.sequence, epsilon=result.epsilon)
        ball, corr = obj.boundary_residuals(result.worst_steering)
        assert ball <= 10.0 / np.sqrt(100.0)
        assert corr <= 5.0 / np.sqrt(100.0)

    def test_worst_case_scr_never_falls_across_outer_passes(self):
        # the adversary's relative distortion is held, so the worst-case SCR
        # moves with the clutter energy alone
        for k in range(3):
            scene = random_scene(16, 40, np.random.default_rng(100 + k))
            result = driver.optimize(scene, small_cfg(epsilon=20.0, max_outer=6), seed=40 + k)
            scrs = [h.scr_db for h in result.history]
            assert all(b >= a - 1e-6 for a, b in zip(scrs, scrs[1:])), scrs
            final = radar.scr(result.sequence, result.worst_steering, scene)
            assert final == pytest.approx(scrs[-1], abs=1e-12)

    def test_adversary_runs_once(self, monkeypatch):
        # the adversary's cost depends on w alone, so it is solved once, at the
        # seeded start, and every sequence pass designs against that w
        built = {"worst": 0, "seq": 0}

        def counting(cls, key):
            def build(*args, **kwargs):
                built[key] += 1
                return cls(*args, **kwargs)
            return build

        monkeypatch.setattr(driver, "WorstCaseObjective", counting(WorstCaseObjective, "worst"))
        monkeypatch.setattr(driver, "SequenceObjective", counting(SequenceObjective, "seq"))
        scenes = [(tiny_scene(), small_cfg())]
        scenes += [(random_scene(16, 40, np.random.default_rng(100 + k)),
                    small_cfg(epsilon=20.0, max_outer=6)) for k in range(3)]
        for k, (scene, cfg) in enumerate(scenes):
            built.update(worst=0, seq=0)
            result = driver.optimize(scene, cfg, seed=40 + k)
            assert built == {"worst": 1, "seq": 1}
            assert len(result.history) >= 2
            assert result.worst_trace.converged
            # the worst steering is the final sequence times the adversary's w = conj(s0) (.) st
            s0, eps = result.initial_sequence, result.epsilon
            adversary = WorstCaseObjective(s0, epsilon=eps)
            st, _ = rtr.solve(adversary, retract(s0, driver._nudge(s0, eps, 40 + k)), cfg.worst_solver)
            w = np.conj(s0.entries) * st.entries
            assert np.array_equal(result.worst_steering.entries, result.sequence.entries * w)

    def test_worst_case_cost_depends_on_the_distortion_alone(self, rng):
        # s^H (s (.) w) = sum w and ||s (.) w - s||^2 = ||w - 1||^2 for every
        # unit-modulus s, so the adversary's cost and its derivatives in tangent
        # coordinates are the same at s1 (.) w and s2 (.) w
        n = 16
        for eps in (2.0, 20.0, 40.0):
            w = random_sequence(n, rng).entries
            s1, s2 = random_sequence(n, rng), random_sequence(n, rng)
            obj1 = WorstCaseObjective(s1, epsilon=eps)
            obj2 = WorstCaseObjective(s2, epsilon=eps)
            x1, x2 = UnitModulusSequence(s1.entries * w), UnitModulusSequence(s2.entries * w)
            a = make_tangent(x1, rng)
            assert obj1.cost(x1) == pytest.approx(obj2.cost(x2), rel=1e-12)
            for u, v in ((obj1.rgrad(x1), obj2.rgrad(x2)), (obj1.rhess(x1, a), obj2.rhess(x2, a))):
                assert np.max(np.abs(u - v)) <= 1e-12 * np.max(np.abs(u))

    def test_last_seq_cost_is_clutter_over_n_squared(self):
        scene = random_scene(16, 40, np.random.default_rng(101))
        result = driver.optimize(scene, small_cfg(epsilon=20.0, max_outer=6), seed=41)
        expected = clutter_energy(result.sequence, scene) / scene.n**2
        assert result.history[-1].seq_trace.final_cost == pytest.approx(expected, rel=1e-12)

    def test_every_pass_cost_is_the_inverse_scr(self, monkeypatch):
        # scenario 2 as the acceptance fixture runs it: each pass's final cost
        # is clutter / n^2, the inverse nominal SCR of the sequence it returned
        solve, returned = rtr.solve, {}

        def recording(problem, x0, cfg, **kwargs):
            x, trace = solve(problem, x0, cfg, **kwargs)
            returned[id(trace)] = x
            return x, trace

        monkeypatch.setattr(rtr, "solve", recording)
        scene = scenario2_scene()
        result = driver.optimize(scene, scenario2_cfg(), seed=2024)
        assert len(result.history) >= 2
        for h in result.history:
            s = returned[id(h.seq_trace)]
            nominal_db = 10 * np.log10(scene.n**2 / clutter_energy(s, scene))
            assert h.seq_trace.final_cost * 10 ** (nominal_db / 10) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("which", ["small", "scenario2"])
    def test_every_pass_stops_at_the_first_pass_tolerance(self, which):
        # a restart begins near stationary, so every pass takes g_ref from
        # the first: the same float product grad_tol * ||grad(s0)||
        scene, cfg, seed = shipped_design(which)
        result = driver.optimize(scene, cfg, seed)
        assert len(result.history) >= 2
        tol = cfg.seq_solver.grad_tol * result.history[0].seq_trace.initial_grad_norm
        assert [h.seq_trace.grad_tol_effective for h in result.history] == [tol] * len(result.history)

    @pytest.mark.parametrize("which", ["small", "scenario2"])
    def test_design_does_not_depend_on_eps(self, which):
        # the passes minimise clutter / n^2 from the seeded start whatever the
        # ball, and the stopping test reads SCNR differences, in which the
        # worst coupling |sum w|^2 cancels
        scene, cfg, seed = shipped_design(which)
        n = scene.n
        runs = [driver.optimize(scene, replace(cfg, epsilon=eps), seed) for eps in (0.0, n / 2, 2.0 * n, 3.0 * n)]
        assert runs[0].worst_trace is None and all(r.worst_trace is not None for r in runs[1:])
        for r in runs[1:]:
            assert np.array_equal(r.sequence.entries, runs[0].sequence.entries)
            assert len(r.history) == len(runs[0].history)

    def test_seeded_determinism(self):
        scene = tiny_scene()
        a = driver.optimize(scene, small_cfg(), seed=8)
        b = driver.optimize(scene, small_cfg(), seed=8)
        assert np.array_equal(a.sequence.entries, b.sequence.entries)
        assert np.array_equal(a.worst_steering.entries, b.worst_steering.entries)

    def test_epsilon_from_interval(self):
        scene = tiny_scene()
        cfg = small_cfg(epsilon=None, doppler_interval=(-0.02, 0.02))
        result = driver.optimize(scene, cfg, seed=9)
        assert 0.0 < result.epsilon <= 4 * scene.n

    def test_requires_scatterers(self):
        with pytest.raises(ValueError):
            driver.optimize(ClutterScene((), 8), small_cfg(), seed=1)


class TestHessianSpectrum:
    def test_penalty_minimum_is_psd(self):
        # at st = s with eps = 0 the cost is at its global minimum
        s = random_point(12, 10)
        obj = WorstCaseObjective(s, epsilon=0.0)
        spectrum = hessian_spectrum(obj, s)
        assert spectrum[0] >= -1e-10
        assert np.all(np.diff(spectrum) >= 0)

    def test_matrix_symmetry(self, rng):
        n = 12
        obj = SequenceObjective(random_scene(n, 4, rng))
        x = random_point(n, 12)
        h = hessian_matrix(obj, x)
        assert np.max(np.abs(h - h.T)) / np.max(np.abs(h)) < 1e-8

    def test_matches_quadratic_form(self, rng):
        from conftest import make_tangent
        from wrtr.manifold import inner

        n = 10
        obj = SequenceObjective(random_scene(n, 3, rng))
        x = random_point(n, 14)
        h = hessian_matrix(obj, x)
        xi = make_tangent(x, rng, scale=1.0)
        assert xi @ h @ xi == pytest.approx(inner(obj.rhess(x, xi), xi), rel=1e-8)


def reference_monte_carlo_scr(designs, scene, n_trials, error_model, seed, doppler_interval=None):
    """Per-trial, per-design oracle: |s^H (s (.) d)|^2 / clutter energy for each draw.

    Every trial is drawn in one call from the model's stream; trial t is row t.
    """
    rng = np.random.default_rng([seed, driver.ERROR_MODELS.index(error_model)])
    if error_model == "doppler_interval":
        draws = rng.uniform(*doppler_interval, size=n_trials)
    else:
        draws = rng.uniform(0.0, 2.0 * np.pi, size=(n_trials, scene.n))
    energies = {name: clutter_energy(seq, scene) for name, seq in designs.items()}
    samples = {name: [] for name in designs}
    for draw in draws:
        if error_model == "doppler_interval":
            d = radar.steering_vector(draw, scene.n)
        else:
            d = np.exp(1j * draw)
        for name, seq in designs.items():
            num = abs(np.vdot(seq.entries, seq.entries * d)) ** 2
            samples[name].append(10.0 * np.log10(num / energies[name]))
    return {
        name: (np.mean(v), np.std(v), np.min(v), np.max(v)) for name, v in samples.items()
    }


class TestPhasorRowSums:
    def test_each_phasor_matches_libm(self):
        # one column per row, so the row sums are the phasors themselves;
        # compared with libm on the rounded phase fl(2 pi u)
        K = driver._PhasorRowSums.K
        grid = np.array([1, 2, 3, 255, K // 8, K // 4 - 1, K // 4 + 1, K // 2 + 7, 3 * K // 4 - 1, K - 1]) / K
        edges = [[0.0, 1.0 - 2.0**-53, 0.25, 0.5, 0.75], grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0)]
        u = np.concatenate([np.random.default_rng(12).random(10**5)] + edges)
        c, s = driver._PhasorRowSums(u.size, 1)(u[:, None].copy())
        assert np.max(np.abs(c - np.cos(2.0 * np.pi * u))) <= 1e-15
        assert np.max(np.abs(s - np.sin(2.0 * np.pi * u))) <= 1e-15
        assert np.max(np.abs(c**2 + s**2 - 1.0)) <= 1e-15

    def test_row_sums_of_a_partial_block(self):
        # fewer rows than the work arrays hold, as in the last block of a run
        u = np.random.default_rng(13).random((5, 64))
        re, im = driver._PhasorRowSums(8, 64)(u.copy())
        d = np.exp(2j * np.pi * u).sum(axis=1)
        assert np.allclose(re, d.real, rtol=0, atol=1e-13)
        assert np.allclose(im, d.imag, rtol=0, atol=1e-13)


class TestMonteCarlo:
    @pytest.mark.parametrize("model", driver.ERROR_MODELS)
    def test_matches_per_trial_reference(self, model, rng):
        n = 32
        scene = random_scene(n, 6, rng)
        designs = {"a": random_point(n, 40), "b": random_point(n, 41), "c": random_sequence(n, rng)}
        stats = monte_carlo_scr(designs, scene, 200, model, seed=9, doppler_interval=(-0.02, 0.03))
        expected = reference_monte_carlo_scr(designs, scene, 200, model, 9, (-0.02, 0.03))
        for name, st in stats.items():
            assert st.n_trials == 200
            got = (st.mean_db, st.std_db, st.min_db, st.max_db)
            assert np.allclose(got, expected[name], rtol=0, atol=1e-10)

    def test_matches_per_trial_reference_across_phase_blocks(self, rng):
        # n = 1024 draws phases in blocks of 64 trials: 600 trials are nine
        # full blocks and a partial one
        n = 1024
        scene = random_scene(n, 4, rng)
        designs = {"a": random_point(n, 43), "b": random_sequence(n, rng)}
        stats = monte_carlo_scr(designs, scene, 600, "uniform_random_phase", seed=11)
        expected = reference_monte_carlo_scr(designs, scene, 600, "uniform_random_phase", 11)
        for name, st in stats.items():
            got = (st.mean_db, st.std_db, st.min_db, st.max_db)
            assert np.allclose(got, expected[name], rtol=0, atol=1e-10)

    def test_uniform_phase_memory_is_one_block(self, rng):
        # at n = 1024 the phase table, one 64-row block of draws and its work
        # arrays take 4 MB; with the bank built beforehand nothing else is large
        n = 1024
        scene = random_scene(n, 16, rng)
        clutter_energy(random_point(n, 46), scene)  # builds the bank before the measurement
        designs = {"a": random_point(n, 46), "b": random_point(n, 47)}
        _, peak = traced_peak(lambda: monte_carlo_scr(designs, scene, 2000, "uniform_random_phase", seed=12))
        assert peak <= 5 * 2**20

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_uniform_phase_follows_the_exponential_law(self, seed):
        # |sum d|^2 / n -> Exp(1), and 10 log10 of an Exp(1) variable has
        # mean -10 gamma / ln 10 and standard deviation 10 pi / (sqrt(6) ln 10)
        n = 256
        scene = tiny_scene(n)
        s = random_point(n, 44)
        energy = clutter_energy(s, scene)
        st = monte_carlo_scr({"d": s}, scene, 4000, "uniform_random_phase", seed=seed)["d"]
        assert abs(st.mean_db - (10.0 * np.log10(n / energy) - 10.0 * np.euler_gamma / np.log(10.0))) < 0.5
        assert abs(st.std_db - 10.0 * np.pi / (np.sqrt(6.0) * np.log(10.0))) < 0.5

    @pytest.mark.parametrize("interval", [(-0.3, 0.7), (-0.9, 0.1), (0.0, 0.5)])
    def test_doppler_interval_stays_in_the_main_lobe(self, interval):
        # inside (-1/n, 1/n) the Dirichlet kernel falls from n^2 at v = 0 as
        # |v| grows, so every trial lies between its values at 0 and at the
        # interval end farther from 0 (slack: rounding of the dB values)
        n = 64
        lo, hi = interval[0] / n, interval[1] / n
        scene = tiny_scene(n)
        s = random_point(n, 45)
        energy = clutter_energy(s, scene)
        st = monte_carlo_scr({"d": s}, scene, 500, "doppler_interval", seed=8,
                             doppler_interval=(lo, hi))["d"]
        far = max(abs(lo), abs(hi))
        kernel_far = np.sin(np.pi * n * far) ** 2 / np.sin(np.pi * far) ** 2
        assert st.max_db <= 10.0 * np.log10(n**2 / energy) + 1e-9
        assert st.min_db >= 10.0 * np.log10(kernel_far / energy) - 1e-9

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_doppler_numerator_is_the_steering_sum(self, n):
        # a zero-width interval draws v itself; 10^(SCR/10) * energy is the
        # trial numerator (the Dirichlet kernel), compared with |sum p(v)|^2
        scene = tiny_scene(n)
        s = random_point(n, 42)
        energy = clutter_energy(s, scene)
        for v in (0.0, 1e-9, -1e-9, 2e-4, -2e-4, 0.37):
            stats = monte_carlo_scr({"d": s}, scene, 1, "doppler_interval", seed=3,
                                    doppler_interval=(v, v))
            num = 10.0 ** (stats["d"].mean_db / 10.0) * energy
            expected = abs(np.sum(radar.steering_vector(v, n))) ** 2
            assert num == pytest.approx(expected, rel=1e-12)

    def test_zero_width_interval_has_zero_std(self):
        scene = tiny_scene()
        designs = {"a": random_point(scene.n, 15), "b": random_point(scene.n, 16)}
        stats = monte_carlo_scr(designs, scene, 20, "doppler_interval", seed=1,
                                doppler_interval=(0.03, 0.03))
        for st in stats.values():
            assert st.std_db == pytest.approx(0.0, abs=1e-12)
            assert st.min_db == st.max_db

    def test_single_trial_equals_single_shot(self):
        scene = tiny_scene()
        s = random_point(scene.n, 17)
        v = 0.021
        stats = monte_carlo_scr({"d": s}, scene, 1, "doppler_interval", seed=2,
                                doppler_interval=(v, v))
        st_tilde = radar.steering_vector(v, scene.n) * s.entries
        from wrtr.manifold import UnitModulusSequence

        expected = radar.scr(s, UnitModulusSequence(st_tilde), scene)
        assert stats["d"].mean_db == pytest.approx(expected, rel=1e-12)

    def test_deterministic_given_seed(self):
        scene = tiny_scene()
        designs = {"d": random_point(scene.n, 18)}
        a = monte_carlo_scr(designs, scene, 25, "uniform_random_phase", seed=3)
        b = monte_carlo_scr(designs, scene, 25, "uniform_random_phase", seed=3)
        assert a["d"] == b["d"]

    def test_uniform_phase_hurts_more_than_interval(self):
        # full-circle random phases destroy far more coherence than a
        # bounded Doppler mismatch
        scene = tiny_scene()
        designs = {"d": random_point(scene.n, 19)}
        uniform = monte_carlo_scr(designs, scene, 100, "uniform_random_phase", seed=4)
        interval = monte_carlo_scr(designs, scene, 100, "doppler_interval", seed=4,
                                   doppler_interval=(-0.01, 0.01))
        assert uniform["d"].mean_db < interval["d"].mean_db

    def test_interval_model_requires_interval(self):
        scene = tiny_scene()
        with pytest.raises(ValueError):
            monte_carlo_scr({"d": random_point(scene.n, 20)}, scene, 5, "doppler_interval", seed=5)

    def test_unknown_model_rejected(self):
        scene = tiny_scene()
        with pytest.raises(ValueError):
            monte_carlo_scr({"d": random_point(scene.n, 21)}, scene, 5, "bogus", seed=6)

    def test_zero_clutter_design_rejected(self):
        n = 8
        scene = ClutterScene([ClutterScatterer(1, 0.25, 0.0)], n)
        with pytest.raises(DegenerateSceneError):
            monte_carlo_scr({"d": random_point(n, 22)}, scene, 5, "uniform_random_phase", seed=7)


class TestNonRobustDesigns:
    def test_rtr_design_reduces_clutter(self):
        scene = tiny_scene()
        initial = random_point(scene.n, 23)
        final, trace = rtr.solve(SequenceObjective(scene), initial, TrustRegionConfig(max_iters=40))
        assert clutter_energy(final, scene) < 0.05 * clutter_energy(initial, scene)
        assert len(trace) > 0

    def test_rcg_decreases_cost_with_same_stop_rule(self):
        scene = tiny_scene()
        objective = SequenceObjective(scene)
        x0 = random_point(scene.n, 24)
        final, trace = solve_rcg(objective, x0, TrustRegionConfig(max_iters=60))
        assert trace.final_cost < objective.cost(x0)
        costs = [it.cost for it in trace.iterations]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_rcg_deterministic(self):
        scene = tiny_scene()
        objective = SequenceObjective(scene)
        x0 = random_point(scene.n, 25)
        a, _ = solve_rcg(objective, x0, TrustRegionConfig(max_iters=30))
        b, _ = solve_rcg(objective, x0, TrustRegionConfig(max_iters=30))
        assert np.array_equal(a.entries, b.entries)
