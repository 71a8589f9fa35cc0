"""Brute-force validators for gradients, Hessians, and estimator bounds.

Everything here is deliberately slow and independent of the estimator and
probe implementations: gradients come from value-only central differences,
Hessians from coordinate-wise central differences of analytic gradients, and
the estimator bounds from plain Monte Carlo.  Production code never imports
this module; tests use it so that agreement is evidence rather than the same
formula evaluated twice.  The Monte Carlo trials of one bound check are one
(trials, d_x) Gaussian draw evaluated through the estimator's row helper,
the same bits as drawing and evaluating them one at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Block, HybridPoint, RngStream, sample_gaussian
from .estimator import _two_point_rows
from .objectives import FiniteSumObjective

__all__ = [
    "BoundCheckReport",
    "fd_gradient",
    "dense_hessian",
    "check_estimator_bounds",
    "check_hybrid_smoothness",
]


def fd_gradient(
    obj: FiniteSumObjective,
    w: HybridPoint,
    i: int | None = None,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of f(.; i), or of the full objective for i=None.

    Uses objective values only, so it validates analytic gradients without
    sharing any code with them.  O(h^2) accurate.
    """
    values = obj.check_point(w)
    if i is not None:
        i = obj.check_sample(i)
    if not np.isfinite(h) or h <= 0:
        raise ValueError(f"h must be positive and finite, got {h}")
    value = obj.full_value_at if i is None else (lambda vals: obj.value_at(vals, i))
    grad = np.empty(obj.layout.d)
    for j in range(obj.layout.d):
        plus = values.copy()
        minus = values.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (value(plus) - value(minus)) / (2.0 * h)
    return grad


def dense_hessian(
    obj: FiniteSumObjective,
    w: HybridPoint,
    h: float = 1e-5,
    *,
    symmetrize: bool = True,
) -> np.ndarray:
    """Finite-difference Hessian of the full objective.

    Column j is the central difference of the analytic full gradient along
    coordinate j; the result is symmetrized as (H + H^T)/2 unless asked not
    to (the raw asymmetry is itself a consistency diagnostic).
    """
    values = obj.check_point(w)
    if not np.isfinite(h) or h <= 0:
        raise ValueError(f"h must be positive and finite, got {h}")
    d = obj.layout.d
    columns = np.empty((d, d))
    for j in range(d):
        plus = values.copy()
        minus = values.copy()
        plus[j] += h
        minus[j] -= h
        columns[:, j] = (obj.full_grad_at(plus) - obj.full_grad_at(minus)) / (2.0 * h)
    if symmetrize:
        return 0.5 * (columns + columns.T)
    return columns


@dataclass(frozen=True)
class BoundCheckReport:
    """One empirical-versus-theoretical comparison.

    For Monte Carlo checks, passed means the empirical mean does not exceed
    the bound by more than three standard errors (one-sided; a bound that
    holds with equality still passes).  Deterministic checks set stderr to 0.
    """

    bound_name: str
    empirical_lhs: float
    empirical_stderr: float
    theoretical_rhs: float
    trials: int
    passed: bool


def _mc_report(name: str, samples: np.ndarray, rhs: float) -> BoundCheckReport:
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1)) / math.sqrt(len(samples))
    return BoundCheckReport(
        bound_name=name,
        empirical_lhs=mean,
        empirical_stderr=stderr,
        theoretical_rhs=float(rhs),
        trials=len(samples),
        passed=bool(mean <= rhs + 3.0 * stderr),
    )


def check_estimator_bounds(
    obj: FiniteSumObjective,
    w: HybridPoint,
    i: int,
    mu: float,
    trials: int,
    rng: RngStream,
    lipschitz: float | None = None,
) -> tuple[BoundCheckReport, BoundCheckReport]:
    """Monte Carlo check of the two-point estimator's error bounds at (w, i).

    With g the sample's x-block gradient, d the x dimension, and L an upper
    bound on the sample's x curvature, the estimator ghat satisfies

        E <g, ghat - g>    <=  (mu/2) L (d + 3)^(3/2) ||g||
        E ||ghat - g||^2   <=  32 d ||g||^2 + 108 mu^2 L^2 d^4

    Both sides are estimated from the same `trials` directions.  L defaults
    to the objective's analytic curvature bound and must be supplied (for
    instance from a probe) when the objective has none.
    """
    values = obj.check_point(w)
    i = obj.check_sample(i)
    if not np.isfinite(mu) or mu <= 0:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool) or trials < 2:
        raise ValueError(f"trials must be an integer >= 2, got {trials!r}")
    if lipschitz is None:
        bounds = obj.block_lipschitz_bound()
        if bounds is None:
            raise ValueError("objective has unbounded curvature; pass lipschitz explicitly")
        lipschitz = bounds[0]
    if not np.isfinite(lipschitz) or lipschitz < 0:
        raise ValueError(f"lipschitz must be >= 0 and finite, got {lipschitz}")

    d_x = obj.layout.d_x
    g = obj.grad_at(values, i)[:d_x]
    g_norm = float(np.linalg.norm(g))
    base = obj.value_at(values, i)  # shared by every trial, as in the estimator

    directions = sample_gaussian(rng, trials * d_x).reshape(trials, d_x)
    err = _two_point_rows(obj, values, i, float(mu), directions, Block.X, base)
    err -= g
    bias = np.vecdot(err, g)
    sq_err = np.vecdot(err, err)

    rhs_bias = 0.5 * mu * lipschitz * (d_x + 3.0) ** 1.5 * g_norm
    rhs_sq = 32.0 * d_x * g_norm**2 + 108.0 * mu**2 * lipschitz**2 * d_x**4
    return (
        _mc_report("zo_bias_inner_product", bias, rhs_bias),
        _mc_report("zo_squared_error", sq_err, rhs_sq),
    )


def check_hybrid_smoothness(
    obj: FiniteSumObjective,
    points,
    ell_x,
    ell_y,
    h: float = 1e-5,
    tol: float = 1e-6,
) -> BoundCheckReport:
    """Check block curvature envelopes lambda_max(H_bb) <= ell_b(||grad f||).

    Evaluates the dense Hessian at every point, takes each diagonal block's
    largest eigenvalue, and reports the worst margin over points and blocks;
    passes when that margin is at most tol.
    """
    pts = [p for p in points]
    if not pts:
        raise ValueError("points must contain at least one point")
    d_x = obj.layout.d_x
    worst = -math.inf
    for w in pts:
        values = obj.check_point(w)
        hess = dense_hessian(obj, w, h)
        grad_norm = float(np.linalg.norm(obj.full_grad_at(values)))
        lam_x = float(np.linalg.eigvalsh(hess[:d_x, :d_x])[-1])
        lam_y = float(np.linalg.eigvalsh(hess[d_x:, d_x:])[-1])
        worst = max(worst, lam_x - float(ell_x(grad_norm)), lam_y - float(ell_y(grad_norm)))
    return BoundCheckReport(
        bound_name="hybrid_smoothness_envelope",
        empirical_lhs=worst,
        empirical_stderr=0.0,
        theoretical_rhs=float(tol),
        trials=len(pts),
        passed=bool(worst <= tol),
    )
