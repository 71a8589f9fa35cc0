"""Brute-force validators for gradients, Hessians, and estimator bounds,
and the check suite behind ``hybridsgd check``.

The validators are deliberately slow: gradients come from value-only central
differences, Hessians from coordinate-wise central differences of analytic
gradients (both with the fixed step 1e-5), and the estimator bounds from plain
Monte Carlo.  One table holds a point's central differences, of the full
objective and of every sample, from one batched call per row block on the 2d
points w +- h e_j: the same bits as one coordinate and target at a time.  The
optimizer, estimator, probe and planner never import this module; tests and the
CLI's ``check`` command use it, so that agreement is evidence rather than the
same formula evaluated twice.  The check suite also compares the curvature
probes with exact block curvatures and with this module's dense Hessian.  The
Monte Carlo draws of one bound check are a single (draws, d_x) Gaussian block
evaluated through the estimator's row helper, the same bits as drawing and
evaluating them one at a time.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import probe
from .core import (
    Block,
    BlockLayout,
    HybridPoint,
    RngStream,
    _check_int,
    _check_real,
    _check_type,
    _gaussian_point,
    _mean_stderr,
    _norm,
    sample_gaussian,
)
from .estimator import _two_point_rows
from .objectives import (
    ALL,
    BlockQuadratic,
    CoshObjective,
    DenseQuadratic,
    FiniteSumObjective,
    LinearObjective,
    LogisticObjective,
    _row_blocks,
)

__all__ = [
    "BoundCheckReport",
    "fd_gradient",
    "dense_hessian",
    "check_estimator_bounds",
    "check_hybrid_smoothness",
]

_H = 1e-5  # central-difference step of fd_gradient and dense_hessian
_ENVELOPE_TOL = 1e-6  # margin by which check_hybrid_smoothness may exceed an envelope


def _central_differences(obj: FiniteSumObjective, pair, values: np.ndarray, samples: bool) -> np.ndarray:
    """Row j: (F(values + h e_j) - F(values - h e_j)) / 2h, h = _H, with F pair's sample mean in column 0
    (the bits of full_value_at/full_grad_at) and, with samples, pair at sample i in column 1 + i.  The 2d
    points go to pair with ALL in ``_row_blocks`` of n d elements a row; a block keeps just those columns."""
    d, n, out = len(values), obj.n, []
    for rows in _row_blocks(2 * d, n * d):
        k = rows.start
        points, p = np.repeat(values[None], rows.stop - k, 0), max(d - k, 0)
        # row q is point k + q of the 2d: values + h e_(k + q) below d, values - h e_(k + q - d) after
        points[:p].reshape(-1)[k::d + 1] += _H
        points[p:].reshape(-1)[max(k - d, 0)::d + 1] -= _H
        f = pair(points[:, None], ALL)
        mean = np.add.reduce(f, 1, keepdims=True) / n
        out.append(np.concatenate([mean, f], 1) if samples else mean)
        del f  # free this block's evaluations before the next block's pair call
    f = np.concatenate(out)
    return (f[:d] - f[d:]) / (2.0 * _H)


def fd_gradient(obj: FiniteSumObjective, w: HybridPoint, i: int | None = None) -> np.ndarray:
    """Central-difference gradient of f(.; i), or of the full objective for i=None.

    Uses objective values only, one column of the point's table, so it validates
    analytic gradients without sharing any code with them.  O(h^2) accurate, h = _H.
    """
    values, column = obj.check_point(w), 0 if i is None else 1 + _check_int("i", i, 0, obj.n - 1)
    return _central_differences(obj, obj.values_at_points, values, i is not None)[:, column]


def dense_hessian(obj: FiniteSumObjective, w: HybridPoint) -> np.ndarray:
    """Finite-difference Hessian of the full objective, symmetrized as (H + H^T)/2.

    Column j of H is the central difference (step _H) of the analytic full
    gradient along coordinate j, the mean column of ``grads_at_points``.
    """
    columns = _central_differences(obj, obj.grads_at_points, obj.check_point(w), False)[:, 0].T
    return 0.5 * (columns + columns.T)


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


def _exact_report(name: str, lhs: float, rhs: float, trials: int) -> BoundCheckReport:
    """A deterministic check: passes when lhs <= rhs; stderr is 0."""
    return BoundCheckReport(name, float(lhs), 0.0, float(rhs), trials, bool(lhs <= rhs))


def _mc_report(name: str, samples: np.ndarray, rhs: float) -> BoundCheckReport:
    mean, stderr = _mean_stderr(samples)
    return BoundCheckReport(name, mean, stderr, float(rhs), len(samples), bool(mean <= rhs + 3.0 * stderr))


def check_estimator_bounds(
    obj: FiniteSumObjective,
    w: HybridPoint,
    i: int,
    mu: float,
    trials: int,
    rng: RngStream,
) -> tuple[BoundCheckReport, BoundCheckReport]:
    """Monte Carlo check of the two-point estimator's error bounds at (w, i).

    With g the sample's x-block gradient, d the x dimension, and L an upper
    bound on the sample's x curvature, the estimator ghat satisfies

        E <g, ghat - g>    <=  (mu/2) L (d + 3)^(3/2) ||g||
        E ||ghat - g||^2   <=  32 d ||g||^2 + 108 mu^2 L^2 d^4

    Both sides are estimated from the same `trials` directions.  L is the
    objective's analytic x-block curvature bound; an objective without one
    (unbounded curvature, as cosh) is an error.
    """
    values = obj.check_point(w)
    i = _check_int("i", i, 0, obj.n - 1)
    _check_real("mu", mu)
    _check_int("trials", trials, 2)
    _check_type("rng", rng, RngStream)
    bounds = obj.block_lipschitz_bound()
    if bounds is None:
        raise ValueError("objective has unbounded curvature: no lipschitz bound on the x block")
    lipschitz = bounds[0]

    d_x = obj.layout.d_x
    g = obj.grad_at(values, i)[:d_x]
    g_norm = float(_norm(g))

    directions = sample_gaussian(rng, trials * d_x).reshape(trials, d_x)
    err = _two_point_rows(obj, values, i, float(mu), directions, slice(0, d_x))
    err -= g
    bias = np.vecdot(err, g)
    sq_err = np.vecdot(err, err)

    rhs_bias = 0.5 * mu * lipschitz * (d_x + 3.0) ** 1.5 * g_norm
    rhs_sq = 32.0 * d_x * g_norm**2 + 108.0 * mu**2 * lipschitz**2 * d_x**4
    return (
        _mc_report("zo_bias_inner_product", bias, rhs_bias),
        _mc_report("zo_squared_error", sq_err, rhs_sq),
    )


def check_hybrid_smoothness(obj: FiniteSumObjective, points, ell_x, ell_y) -> BoundCheckReport:
    """Check block curvature envelopes lambda_max(H_bb) <= ell_b(||grad f||).

    Evaluates the dense Hessian at every point, takes each diagonal block's
    largest eigenvalue, and reports the worst margin over points and blocks;
    passes when that margin is at most _ENVELOPE_TOL.
    """
    pts = obj.check_points(points)
    d_x = obj.layout.d_x
    worst = -np.inf
    for w in pts:
        hess = dense_hessian(obj, w)
        grad_norm = float(_norm(obj.grad_full(w)))
        lam_x = float(np.linalg.eigvalsh(hess[:d_x, :d_x])[-1])
        lam_y = float(np.linalg.eigvalsh(hess[d_x:, d_x:])[-1])
        worst = max(worst, lam_x - float(ell_x(grad_norm)), lam_y - float(ell_y(grad_norm)))
    return _exact_report("hybrid_smoothness_envelope", worst, _ENVELOPE_TOL, len(pts))


def _grad_agreement_report(name: str, obj: FiniteSumObjective, points) -> BoundCheckReport:
    worst = 0.0
    for w in points:  # the full gradient is the kernel's, the one every trace row reports
        approx = _central_differences(obj, obj.values_at_points, obj.check_point(w), True).T
        exact = np.array([obj.grad_full(w), *(obj.grad_at(w.values, i) for i in range(obj.n))])
        worst = max(worst, *(_norm(approx - exact) / np.maximum(_norm(exact), 1e-12)).tolist())
    return _exact_report(name, worst, 1e-6, len(points))


def _check_suite(root: RngStream, trials: int, negative_control: bool) -> list[BoundCheckReport]:
    """Every check of ``hybridsgd check``, each drawing from its own child of root."""
    _check_int("trials", trials, 2)
    reports: list[BoundCheckReport] = []
    rngs = map(root.child, itertools.count(1))

    # estimator error bounds on the analytically tractable families
    for d_x in (2, 8):
        layout = BlockLayout(d_x, 2)
        families = {
            "linear": LinearObjective.random(layout, 3, next(rngs)),
            "block_quadratic": BlockQuadratic.random(
                layout, 3, 4.0, 1.0, next(rngs), center_spread=0.5
            ),
        }
        for fam_name, obj in families.items():
            w = _gaussian_point(layout, next(rngs))
            for mu in (1e-2, 1e-3, 1e-4):
                for rep in check_estimator_bounds(obj, w, 0, mu, trials, next(rngs)):
                    name = f"{rep.bound_name}[{fam_name},d_x={d_x},mu={mu:g}]"
                    reports.append(replace(rep, bound_name=name))

    # curvature envelopes
    layout = BlockLayout(3, 3)
    quad = BlockQuadratic.random(layout, 4, 3.0, 1.0, next(rngs), center_spread=0.5)
    pts = [_gaussian_point(layout, next(rngs)) for _ in range(5)]
    rep = check_hybrid_smoothness(quad, pts, lambda u: 3.0, lambda u: 1.0)
    reports.append(replace(rep, bound_name="hybrid_smoothness_envelope[block_quadratic]"))
    cosh = CoshObjective.random(layout, 4, next(rngs))
    pts = [_gaussian_point(layout, next(rngs)) for _ in range(5)]
    rep = check_hybrid_smoothness(cosh, pts, lambda u: 1.0 + u, lambda u: 1.0 + u)
    reports.append(replace(rep, bound_name="hybrid_smoothness_envelope[cosh]"))
    if negative_control:
        rep = check_hybrid_smoothness(cosh, pts, lambda u: 0.5, lambda u: 0.5)
        name = "hybrid_smoothness_envelope[cosh,negative_control]"
        reports.append(replace(rep, bound_name=name))

    # analytic gradients versus value-only finite differences
    layout = BlockLayout(3, 2)
    families = {
        "block_quadratic": BlockQuadratic.random(layout, 3, 5.0, 0.5, next(rngs), center_spread=1.0),
        "cosh": CoshObjective.random(layout, 3, next(rngs), shift_spread=0.3),
        "logistic": LogisticObjective.random(layout, 4, next(rngs), lam=0.1),
        "linear": LinearObjective.random(layout, 3, next(rngs)),
        "dense_quadratic": DenseQuadratic.random(layout, 2, next(rngs), center_scale=1.0),
    }
    for fam_name, obj in families.items():
        pts = [_gaussian_point(layout, next(rngs)) for _ in range(5)]
        reports.append(_grad_agreement_report(f"grad_fd_agreement[{fam_name}]", obj, pts))

    # probe exactness on isotropic blocks, and against the dense-spectrum oracle
    layout = BlockLayout(4, 3)
    iso = BlockQuadratic(layout, np.zeros((2, layout.d)), 100.0, 1.0)
    origin = HybridPoint(layout, np.zeros(layout.d))
    for block, expected in ((Block.X, 100.0), (Block.Y, 1.0)):
        probe_rep = probe.estimate_block_lipschitz(
            iso, origin, probe.ProbeConfig(probes=25, target=block), next(rngs)
        )
        err = abs(probe_rep.operator_lb - expected)
        reports.append(
            _exact_report(f"probe_operator_exact[a_{block.value}]", err, 1e-9, probe_rep.probes)
        )
    dense = DenseQuadratic.random(BlockLayout(3, 3), 1, next(rngs))
    w = HybridPoint(BlockLayout(3, 3), np.zeros(6))
    probe_rep = probe.estimate_block_lipschitz(dense, w, probe.ProbeConfig(probes=500), next(rngs))
    eigs = np.linalg.eigvalsh(dense_hessian(dense, w))
    frob = float(np.sqrt(np.sum(eigs**2)))
    rel = abs(probe_rep.frobenius_scaled - frob) / frob
    reports.append(_exact_report("probe_frobenius_vs_dense_oracle", rel, 0.10, probe_rep.probes))
    return reports
