"""Riemannian trust-region solver with a Steihaug-Toint inner loop.

One engine serves both subproblems: a problem object only has to expose
cost(x), rgrad(x) and rhess(x, a), the gradient and Hessian in phase
coordinates (real n-vectors, see objectives), so the inner loop is
plain float64 vector algebra. How rhess works is the problem's own
affair: the sequence cost multiplies by its point's n x n matrix, the
adversary runs an O(n) formula. Each outer iteration minimizes the
quadratic model

    m(a) = f(x) + grad.a + 1/2 a.(Hess a),   ||a|| <= Delta

by truncated conjugate gradients (Absil, Mahony & Sepulchre 2008, ch. 7),
retracts the step, and accepts or rejects it on the actual-to-predicted
decrease ratio rho. That chapter's parameters are fixed here at common
textbook values: the radius cap is delta_bar = sqrt(n), the square root
of the manifold's dimension, and the first radius delta_bar / 8; a step
is accepted when rho > RHO_BAR; tCG stops once
||r_j|| <= ||r_0|| * min(TCG_KAPPA, ||r_0||), the rule with theta = 1,
which keeps local convergence quadratic. The radius shrinks by 1/4 when
rho < 1/4 and doubles (capped at delta_bar) only when rho > 3/4 with the
step on the boundary. A solve has three stops: the gradient tolerance,
max_iters, and rounding. The last ends the solve after a rejected step
whose actual change |f(x) - f(cand)| is at most the rounding guard
1e4 * eps * |f(x)| that rho also uses: below it rho measures rounding
noise, not the model, so shrinking the radius further cannot make a
step acceptable (Conn, Gould & Toint, Trust-Region Methods, 2000;
Absil, Baker & Gallivan, FoCM 2007).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .manifold import UnitModulusSequence, norm, retract


class TcgStop(enum.Enum):
    NEGATIVE_CURVATURE = "negative_curvature"
    BOUNDARY = "boundary"
    RESIDUAL_SMALL = "residual_small"
    MAX_INNER = "max_inner"


RHO_BAR = 0.1  # accept a step when rho > RHO_BAR, in (0, 1/4)
TCG_KAPPA = 0.1  # linear factor of the tCG residual rule, in (0, 1)


@dataclass(frozen=True)
class TrustRegionConfig:
    """Stopping rules of one solve.

    A solve stops once ||grad|| <= grad_tol * g_ref, g_ref a reference
    gradient norm (see solve). tcg_max_inner caps the tCG iterations per
    outer iteration (None means n). The radii, RHO_BAR and TCG_KAPPA are
    fixed; see the module docstring.
    """

    grad_tol: float = 1e-9
    max_iters: int = 100
    tcg_max_inner: int | None = None

    def __post_init__(self):
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.tcg_max_inner is not None and self.tcg_max_inner < 1:
            raise ValueError("tcg_max_inner must be >= 1")


@dataclass(frozen=True)
class TrustRegionIteration:
    """One iteration of a solve; rcg.solve_rcg's rows have no rho, delta or tcg_stop (None) and are accepted."""

    cost: float
    grad_norm: float
    rho: float | None
    delta: float | None
    accepted: bool
    step_norm: float
    tcg_stop: TcgStop | None


@dataclass
class TrustRegionTrace:
    """Per-iteration history plus the run summary, of an RTR or an RCG solve.

    hvps counts Hessian-vector products (tCG's inner ones and one per model
    decrease), cost_evals and grad_evals the calls of cost and rgrad.
    final_cost is the cost at the returned point. rcg.solve_rcg returns this
    type too, with hvps 0; either solver's rows are TrustRegionIteration.
    """

    iterations: list = field(default_factory=list)
    initial_grad_norm: float = 0.0
    final_grad_norm: float = 0.0
    final_cost: float = 0.0
    grad_tol_effective: float = 0.0
    converged: bool = False
    hvps: int = 0
    cost_evals: int = 0
    grad_evals: int = 0

    def __len__(self) -> int:
        return len(self.iterations)

    def accepted_costs(self) -> list:
        return [it.cost for it in self.iterations if it.accepted]


def _boundary_step(eta: np.ndarray, d: np.ndarray, delta: float) -> np.ndarray:
    """Positive root tau of ||eta + tau d|| = delta along the search direction."""
    a = float(d @ d)
    b = 2.0 * float(eta @ d)
    c = float(eta @ eta) - delta * delta
    tau = (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a)
    return eta + tau * d


def tcg(problem, x: UnitModulusSequence, delta: float, cfg: TrustRegionConfig, grad: np.ndarray,
        trace: TrustRegionTrace | None = None):
    """Steihaug-Toint truncated CG on the model at x, whose gradient is grad.

    Returns (step, TcgStop). The step never exceeds the radius (boundary
    and negative-curvature exits land exactly on it) and the model
    decrease is nonnegative by the Cauchy-point property. trace, if given,
    has its hvps counter raised by each Hessian-vector product rhess(x, d).
    """
    max_inner = cfg.tcg_max_inner if cfg.tcg_max_inner is not None else x.n
    eta = np.zeros(x.n)
    r0 = norm(grad)
    if r0 == 0.0:
        return eta, TcgStop.RESIDUAL_SMALL
    stop_tol = r0 * min(TCG_KAPPA, r0)
    r = grad
    d = -grad
    rr = float(r @ r)
    for _ in range(max_inner):
        hd = problem.rhess(x, d)
        if trace is not None:
            trace.hvps += 1
        d_hd = float(d @ hd)
        if d_hd <= 0.0:
            return _boundary_step(eta, d, delta), TcgStop.NEGATIVE_CURVATURE
        alpha = rr / d_hd
        eta_next = eta + alpha * d
        if norm(eta_next) >= delta:
            return _boundary_step(eta, d, delta), TcgStop.BOUNDARY
        eta = eta_next
        r = r + alpha * hd
        rr_next = float(r @ r)
        if math.sqrt(rr_next) <= stop_tol:
            return eta, TcgStop.RESIDUAL_SMALL
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return eta, TcgStop.MAX_INNER


@np.errstate(over="raise", invalid="raise")
def solve(problem, x0: UnitModulusSequence, cfg: TrustRegionConfig, g_ref: float | None = None):
    """Run the trust-region outer loop from x0.

    Terminates when the gradient norm reaches grad_tol * g_ref (g_ref is
    the gradient norm at x0 unless given: a warm restart passes the first
    solve's), after max_iters, or after a rejected step whose actual
    change |f(x) - f(cand)| is within the rounding guard
    1e4 * eps_machine * |f(x)| (converged stays false: the tolerance was
    not met, but no step rho can judge is left); returns
    (x_final, TrustRegionTrace). Accepted-iterate costs are strictly
    decreasing; a nonpositive model decrease rejects the step with
    rho = -inf and shrinks the radius. An overflow or invalid operation in
    numpy (a huge clutter power can push costs or curvatures past the
    float range) raises FloatingPointError instead of carrying inf or NaN
    into the iterate.
    """
    delta_bar = math.sqrt(x0.n)
    delta = delta_bar / 8.0
    x = x0
    fx = problem.cost(x)
    g = problem.rgrad(x)
    gn = norm(g)
    tol = cfg.grad_tol * (gn if g_ref is None else g_ref)
    trace = TrustRegionTrace(initial_grad_norm=gn, grad_tol_effective=tol, cost_evals=1, grad_evals=1)
    eps = float(np.finfo(float).eps)
    for _ in range(cfg.max_iters):
        if gn <= tol:
            break
        xi, stop = tcg(problem, x, delta, cfg, g, trace=trace)
        step_norm = norm(xi)
        h_xi = problem.rhess(x, xi)
        model_decrease = -(float(g @ xi) + 0.5 * float(h_xi @ xi))
        candidate = retract(x, xi)
        f_cand = problem.cost(candidate)
        trace.hvps += 1
        trace.cost_evals += 1
        guard = 1e4 * eps * abs(fx)
        if model_decrease <= 0.0:
            rho = float("-inf")
        elif model_decrease < guard:
            rho = (fx - f_cand) / (model_decrease + guard)
        else:
            rho = (fx - f_cand) / model_decrease
        accepted = rho > RHO_BAR
        trace.iterations.append(
            TrustRegionIteration(
                cost=fx,
                grad_norm=gn,
                rho=rho,
                delta=delta,
                accepted=accepted,
                step_norm=step_norm,
                tcg_stop=stop,
            )
        )
        if rho < 0.25:
            delta = 0.25 * delta
        elif rho > 0.75 and abs(step_norm - delta) <= 1e-12 * max(1.0, delta):
            delta = min(2.0 * delta, delta_bar)
        if accepted:
            x, fx = candidate, f_cand
            g = problem.rgrad(x)
            gn = norm(g)
            trace.grad_evals += 1
        elif abs(fx - f_cand) <= guard:
            break
    trace.final_grad_norm = gn
    trace.final_cost = fx
    trace.converged = gn <= tol
    return x, trace
