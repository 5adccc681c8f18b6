"""Riemannian conjugate gradient (Fletcher-Reeves) baseline.

Minimal first-order comparison method on tangent coordinates (see
manifold): Fletcher-Reeves coefficient, projection transport of the
previous direction, Armijo backtracking line search (c = 1e-4, step
halving, at most 60 halvings), and the same gradient-norm stopping rule
as the trust-region solver. It takes the trust-region solver's config and
reads its grad_tol, grad_tol_relative and max_iters, and it returns the
trust-region solver's trace type with hvps 0; the trace's iterations are
RcgIteration rows, which have no rho, radius or tCG stop.
"""

from __future__ import annotations

from dataclasses import dataclass

from .manifold import UnitModulusSequence, norm, retract, transport
from .rtr import TrustRegionConfig, TrustRegionTrace

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class RcgIteration:
    cost: float
    grad_norm: float
    step_norm: float


def solve_rcg(problem, x0: UnitModulusSequence, cfg: TrustRegionConfig = TrustRegionConfig()):
    """Minimize problem.cost from x0; returns (x_final, TrustRegionTrace)."""
    x = x0
    fx = problem.cost(x)
    g = problem.rgrad(x)
    gn = norm(g)
    tol = cfg.grad_tol * gn if cfg.grad_tol_relative else cfg.grad_tol
    trace = TrustRegionTrace(initial_grad_norm=gn, grad_tol_effective=tol, cost_evals=1, grad_evals=1)
    d = -g
    t_prev = None
    for _ in range(cfg.max_iters):
        if gn <= tol:
            break
        dg = float(g @ d)
        if dg >= 0.0:  # restart on a non-descent direction
            d = -g
            dg = -gn * gn
        t = 2.0 * t_prev if t_prev is not None else 1.0 / max(1.0, norm(d))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            candidate = retract(x, t * d)
            f_cand = problem.cost(candidate)
            trace.cost_evals += 1
            if f_cand <= fx + ARMIJO_C * t * dg:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            break
        step_norm = t * norm(d)
        trace.iterations.append(RcgIteration(cost=fx, grad_norm=gn, step_norm=step_norm))
        g_next = problem.rgrad(candidate)
        trace.grad_evals += 1
        gn_next = norm(g_next)
        beta = (gn_next * gn_next) / (gn * gn) if gn > 0 else 0.0
        d = -g_next + beta * transport(x, candidate, d)
        x, fx = candidate, f_cand
        g, gn = g_next, gn_next
        t_prev = t
    trace.final_grad_norm = gn
    trace.final_cost = fx
    trace.converged = gn <= tol
    return x, trace
