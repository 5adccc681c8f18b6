"""End-to-end acceptance gate.

Each test prints one `[acceptance] criterion NN PASS/FAIL` line and then
asserts, so a plain `pytest -s tests/test_acceptance.py` shows the
scorecard. Heavyweight runs (the paper-style scenarios) are shared
through session fixtures.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from wrtr import driver, radar, rtr
from wrtr.cli import main as cli_main
from wrtr.driver import WrtrConfig, hessian_matrix, hessian_spectrum, monte_carlo_scr
from wrtr.manifold import inner, random_point, random_tangent, retract
from wrtr.objectives import SequenceObjective, WorstCaseObjective, epsilon_from_doppler
from wrtr.radar import clutter_energy
from wrtr.rtr import TrustRegionConfig

from conftest import loglog_slope, make_tangent, pullback, random_scene, scenario1_scene, scenario2_scene

SMALL_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "small.json"
SEED = 2024
LAM = 100.0
DOPPLER_INTERVAL = (-0.1, 0.1)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def paper_solver():
    return TrustRegionConfig(max_iters=100, grad_tol=1e-9)


def nominal_scr_db(seq, scene) -> float:
    return float(10 * np.log10(seq.n**2 / clutter_energy(seq, scene)))


@pytest.fixture(scope="session")
def scenario1():
    scene = scenario1_scene()
    cfg = WrtrConfig(
        lam=LAM,
        doppler_interval=DOPPLER_INTERVAL,
        max_outer=20,
        scnr_tol_db=0.01,
        worst_solver=paper_solver(),
        seq_solver=paper_solver(),
    )
    started = time.perf_counter()
    robust = driver.optimize(scene, cfg, seed=SEED)
    elapsed = time.perf_counter() - started
    nonrobust, nonrobust_trace = rtr.solve(SequenceObjective(scene), random_point(scene.n, SEED), paper_solver())
    return {
        "scene": scene,
        "robust": robust,
        "elapsed": elapsed,
        "nonrobust": nonrobust,
        "nonrobust_trace": nonrobust_trace,
    }


@pytest.fixture(scope="session")
def scenario2():
    scene = scenario2_scene()
    cfg = WrtrConfig(
        lam=LAM,
        doppler_interval=DOPPLER_INTERVAL,
        max_outer=20,
        scnr_tol_db=0.01,
        worst_solver=paper_solver(),
        seq_solver=paper_solver(),
    )
    return {"scene": scene, "robust": driver.optimize(scene, cfg, seed=SEED)}


def test_criterion_01_gradient_oracle():
    started = time.perf_counter()
    worst_rel = 0.0
    t = 1e-5
    for n in (8, 16, 64):
        rng = np.random.default_rng(n)
        worst_obj = WorstCaseObjective(random_point(n, n + 1), lam=LAM, epsilon=2.0)
        seq_obj = SequenceObjective(random_scene(n, 6, rng))
        for obj in (worst_obj, seq_obj):
            for _ in range(100):
                x = random_point(n, int(rng.integers(0, 2**31)))
                g = obj.rgrad(x)
                for _ in range(10):
                    xi = make_tangent(x, rng, scale=1.0)
                    fd = (pullback(obj, x, xi, t) - pullback(obj, x, xi, -t)) / (2 * t)
                    rel = abs(inner(g, xi) - fd) / (abs(fd) + 1e-12)
                    worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - started
    _report(
        1,
        "Riemannian gradients match pullback finite differences",
        worst_rel < 1e-5 and elapsed < 10.0,
        f"max rel err {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_hessian_oracle():
    started = time.perf_counter()
    n = 16
    rng = np.random.default_rng(99)
    worst_obj = WorstCaseObjective(random_point(n, 3), lam=LAM, epsilon=2.0)
    seq_obj = SequenceObjective(random_scene(n, 5, rng))
    slopes = []
    asymmetries = []
    ts = np.logspace(-4, -2, 7)
    for obj in (worst_obj, seq_obj):
        for trial in range(5):
            x = random_point(n, 50 + trial)
            xi = make_tangent(x, rng, scale=1.0)
            f0, g = obj.cost(x), inner(obj.rgrad(x), xi)
            h = inner(obj.rhess(x, xi), xi)
            residuals = [abs(pullback(obj, x, xi, t) - (f0 + t * g + 0.5 * t * t * h)) for t in ts]
            slopes.append(loglog_slope(ts, residuals))
        hmat = hessian_matrix(obj, random_point(n, 60))
        asymmetries.append(np.max(np.abs(hmat - hmat.T)) / np.max(np.abs(hmat)))
    elapsed = time.perf_counter() - started
    slopes_ok = all(abs(s - 3.0) <= 0.2 for s in slopes)
    asym_ok = all(a < 1e-8 for a in asymmetries)
    _report(
        2,
        "second-order Taylor slope 3.0 +/- 0.2 and Hessian self-adjointness",
        slopes_ok and asym_ok and elapsed < 10.0,
        f"slopes {min(slopes):.2f}..{max(slopes):.2f}, max asym {max(asymmetries):.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_boundary_property():
    n = 64
    rng = np.random.default_rng(7)
    worst_ball = 0.0
    worst_corr = 0.0
    for trial in range(20):
        s = random_point(n, 300 + trial)
        eps = float(rng.uniform(0.5, 3.5 * n))
        obj = WorstCaseObjective(s, lam=LAM, epsilon=eps)
        start = retract(s, random_tangent(s, rng, scale=float(np.sqrt(eps))))
        st, _ = rtr.solve(obj, start, paper_solver())
        ball, corr = obj.boundary_residuals(st)
        worst_ball = max(worst_ball, ball)
        worst_corr = max(worst_corr, corr)
    ok = worst_ball <= 10.0 / np.sqrt(LAM) and worst_corr <= 5.0 / np.sqrt(LAM)
    _report(
        3,
        "worst-case solutions satisfy the ball-boundary identity",
        ok,
        f"max |dist^2-eps| {worst_ball:.2e}, max |Re residual| {worst_corr:.2e}",
    )


def _surface_grid_minimum(s_entries: np.ndarray, eps: float, points: int = 200) -> float:
    """Brute-force min of |s^H st|^2 over the constraint surface at n=4.

    200 grid points per free phase; the fourth phase is solved exactly from
    Re(s^H st) = 4 - eps/2 (both cosine branches).
    """
    c = 4.0 - eps / 2.0
    phis = np.arange(points) * (2.0 * np.pi / points)
    phasors = np.exp(1j * phis)
    w = np.conj(s_entries)
    a12 = (w[0] * phasors)[:, None] + (w[1] * phasors)[None, :]
    best = np.inf
    for p3 in w[2] * phasors:
        partial = a12 + p3
        need = c - partial.real
        feasible = np.abs(need) <= 1.0
        if not np.any(feasible):
            continue
        attainable = np.sqrt(np.maximum(1.0 - need * need, 0.0))
        imag_best = np.abs(np.abs(partial.imag) - attainable)
        values = c * c + imag_best * imag_best
        best = min(best, float(np.min(values[feasible])))
    return best


def test_criterion_04_small_instance_oracle():
    started = time.perf_counter()
    n = 4
    eps = epsilon_from_doppler([-0.05, 0.0, 0.05], 0.0, n)
    rng = np.random.default_rng(11)
    worst_rel = 0.0
    for trial in range(10):
        s = random_point(n, 400 + trial)
        obj = WorstCaseObjective(s, lam=LAM, epsilon=eps)
        start = retract(s, random_tangent(s, rng, scale=float(np.sqrt(eps))))
        st, _ = rtr.solve(obj, start, TrustRegionConfig(max_iters=200, grad_tol=1e-9))
        achieved = abs(np.vdot(s.entries, st.entries)) ** 2
        grid_min = _surface_grid_minimum(s.entries, eps)
        worst_rel = max(worst_rel, abs(achieved - grid_min) / grid_min)
    elapsed = time.perf_counter() - started
    _report(
        4,
        "worst-case value matches the exhaustive phase-grid minimum to 1%",
        worst_rel <= 0.01 and elapsed < 60.0,
        f"max rel gap {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_scenario1_reproduction(scenario1):
    robust = scenario1["robust"]
    scene = scenario1["scene"]

    first_worst = robust.worst_trace
    a_ok = first_worst is not None and first_worst.converged and len(first_worst) <= 15

    gain = nominal_scr_db(robust.sequence, scene) - nominal_scr_db(robust.initial_sequence, scene)
    b_ok = gain >= 15.0

    c_ok = True
    for trace in (robust.worst_trace, *(h.seq_trace for h in robust.history)):
        if trace is None:
            continue
        costs = trace.accepted_costs() + [trace.final_cost]
        if any(b >= a for a, b in zip(costs, costs[1:])):
            c_ok = False

    runtime_ok = scenario1["elapsed"] < 300.0
    _report(
        5,
        "scenario-1 reproduction (worst solve <= 15 iters, SCR gain >= 15 dB, monotone descent)",
        a_ok and b_ok and c_ok and runtime_ok,
        f"first worst solve {len(first_worst)} iters, gain {gain:.1f} dB, "
        f"runtime {scenario1['elapsed']:.1f}s",
    )


def test_criterion_06_hessian_spectrum_at_convergence(scenario1):
    robust = scenario1["robust"]
    scene = scenario1["scene"]
    worst_obj = WorstCaseObjective(robust.sequence, lam=LAM, epsilon=robust.epsilon)
    spec_worst = hessian_spectrum(worst_obj, robust.worst_steering)
    seq_obj = SequenceObjective(scene)
    spec_seq = hessian_spectrum(seq_obj, robust.sequence)
    ratios = [spec_worst[0] / abs(spec_worst[-1]), spec_seq[0] / abs(spec_seq[-1])]
    ok = all(r >= -1e-6 for r in ratios)
    _report(
        6,
        "Riemannian Hessian spectra at the final points are nonnegative",
        ok,
        f"min/max ratios worst {ratios[0]:.2e}, seq {ratios[1]:.2e}",
    )


def _clutter_bin_mean(seq, scene) -> float:
    n = scene.n
    surface = radar.staf(seq, range(n))
    values = [surface[sc.range_shift, round(sc.doppler * n)] for sc in scene.scatterers]
    return float(np.mean(values))


def test_criterion_07_staf_shaping(scenario1, scenario2):
    suppressions = {}
    for name, bundle in (("scenario1", scenario1), ("scenario2", scenario2)):
        robust = bundle["robust"]
        scene = bundle["scene"]
        optimized = _clutter_bin_mean(robust.sequence, scene)
        initial = _clutter_bin_mean(robust.initial_sequence, scene)
        suppressions[name] = initial - optimized
    ok = all(v >= 20.0 for v in suppressions.values())
    _report(
        7,
        "mean STAF over clutter bins >= 20 dB below the random initial",
        ok,
        ", ".join(f"{k} {v:.1f} dB" for k, v in suppressions.items()),
    )


def test_criterion_08_monte_carlo_ordering(scenario1):
    scene = scenario1["scene"]
    designs = {
        "robust": scenario1["robust"].sequence,
        "rtr_nonrobust": scenario1["nonrobust"],
        "random": scenario1["robust"].initial_sequence,
    }
    uniform = monte_carlo_scr(designs, scene, 100, "uniform_random_phase", seed=SEED)
    interval = monte_carlo_scr(
        designs, scene, 100, "doppler_interval", seed=SEED, doppler_interval=DOPPLER_INTERVAL
    )
    u = {k: v.mean_db for k, v in uniform.items()}
    i = {k: v.mean_db for k, v in interval.items()}
    # the trial numerator |sum d|^2 is design-independent, so the mean-SCR
    # gaps are the nominal-SCR gaps
    nominal = {k: nominal_scr_db(seq, scene) for k, seq in designs.items()}
    ok = (
        u["robust"] > u["rtr_nonrobust"] > u["random"]
        and i["robust"] > i["rtr_nonrobust"]
    )
    _report(
        8,
        "Monte-Carlo mean-SCR ordering robust > rtr_nonrobust > random",
        ok,
        "uniform " + ", ".join(f"{k} {v:.1f}" for k, v in u.items())
        + "; interval " + ", ".join(f"{k} {v:.1f}" for k, v in i.items())
        + "; nominal " + ", ".join(f"{k} {v:.1f}" for k, v in nominal.items()),
    )


def test_criterion_09_cli_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["wrtr", "--config", str(SMALL_CONFIG), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    ok = len(outs[0]) > 0 and outs[0] == outs[1]
    _report(
        9,
        "reruns with identical config and seed are byte-identical",
        ok,
        f"{len(outs[0])} CSV files compared",
    )


def test_criterion_10_epsilon_formula():
    n = 64
    zero_ok = epsilon_from_doppler([0.25], 0.25, n) == pytest.approx(0.0, abs=1e-12)
    worst_gap = 0.0
    for delta in (0.0031, 0.017, 0.05, 0.1):
        closed_form = 4.0 * float(np.sum(np.sin(np.pi * np.arange(n) * delta) ** 2))
        gap = abs(epsilon_from_doppler([delta], 0.0, n) - closed_form)
        worst_gap = max(worst_gap, gap)
    _report(
        10,
        "epsilon matches the closed form 4*sum sin^2(pi m delta)",
        zero_ok and worst_gap < 1e-10,
        f"max gap {worst_gap:.2e}",
    )
