"""Step-size and epoch-budget planning from smoothness constants.

The admissible rates for the reshuffled hybrid scheme are minima of named
candidate terms: a per-sample curvature cap 1/(2 L_max n) for each block, a
dimension penalty 1/(384 L_x n d_x) for the zeroth-order block, and, when the
gradient variance sigma is positive, a variance-horizon cap sqrt(2/T)/(sigma
n L_max).  The smoothing radius is capped by a curvature-relative radius
(G/L_x)(6/d_x^(3/2)) and a horizon bias term 1/(3 L_x T n d_x G).

Constants may be supplied analytically or measured with curvature probes;
probe-derived constants are operator-norm lower bounds, so rates planned
from them are best-effort, not certified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Block, RngStream, _check_int, _check_real, _check_type
from .objectives import FiniteSumObjective
from .probe import ProbeConfig, estimate_block_lipschitz

__all__ = [
    "SmoothnessConstants",
    "PlanInputs",
    "RatePlan",
    "plan_rates",
    "epoch_budget",
    "estimate_constants",
]


@dataclass(frozen=True)
class SmoothnessConstants:
    """Curvature, gradient, variance and gap constants of one problem.

    L_x/L_y bound the full objective's block curvature, L_x_max/L_y_max the
    worst single sample's; G bounds the full gradient norm over the region of
    interest, sigma the per-sample gradient standard deviation, and f_gap the
    value gap from the start point to the minimum.  Stored as floats.
    """

    L_x: float
    L_y: float
    L_x_max: float
    L_y_max: float
    G: float
    sigma: float
    f_gap: float

    def __post_init__(self) -> None:
        for name in ("L_x", "L_y", "L_x_max", "L_y_max", "G", "sigma", "f_gap"):
            checked = _check_real(name, getattr(self, name), allow_zero=name in ("sigma", "f_gap"))
            object.__setattr__(self, name, checked)


@dataclass(frozen=True)
class PlanInputs:
    constants: SmoothnessConstants
    n: int
    T: int
    d_x: int

    def __post_init__(self) -> None:
        _check_type("constants", self.constants, SmoothnessConstants)
        _check_int("n", self.n)
        _check_int("T", self.T)
        _check_int("d_x", self.d_x)


@dataclass(frozen=True)
class RatePlan:
    """Planned rates plus every candidate term that entered each minimum."""

    eta_x: float
    eta_y: float
    mu: float
    eta_x_terms: dict
    eta_y_terms: dict
    mu_terms: dict


def plan_rates(inputs: PlanInputs) -> RatePlan:
    """Largest admissible (eta_x, eta_y, mu) for the given constants.

    sigma = 0 drops the variance-horizon terms entirely (the minimum runs
    over the remaining terms); it is not an error.
    """
    c = inputs.constants
    n, horizon, d_x = inputs.n, inputs.T, inputs.d_x
    root = math.sqrt(2.0 / horizon)

    eta_x_terms = {
        "per_sample_curvature": 1.0 / (2.0 * c.L_x_max * n),
        "zo_dimension_penalty": 1.0 / (384.0 * c.L_x * n * d_x),
    }
    eta_y_terms = {
        "per_sample_curvature": 1.0 / (2.0 * c.L_y_max * n),
    }
    if c.sigma > 0.0:
        eta_x_terms["variance_horizon"] = root / (c.sigma * n * c.L_x_max)
        eta_y_terms["variance_horizon"] = root / (c.sigma * n * c.L_y_max)

    mu_terms = {
        "smoothing_radius": (c.G / c.L_x) * (6.0 / d_x**1.5),
        "horizon_bias": 1.0 / (3.0 * c.L_x * horizon * n * d_x * c.G),
    }

    return RatePlan(
        eta_x=min(eta_x_terms.values()),
        eta_y=min(eta_y_terms.values()),
        mu=min(mu_terms.values()),
        eta_x_terms=eta_x_terms,
        eta_y_terms=eta_y_terms,
        mu_terms=mu_terms,
    )


def epoch_budget(epsilon: float, delta: float, G: float, f_gap: float, n: int) -> int:
    """Epochs sufficient for the scheme's average-gradient guarantee.

    ceil of eps^-2 [2/delta + G^2/8] + eps^-4 [(f_gap + 3)/n]; delta is the
    allowed failure probability.
    """
    _check_real("epsilon", epsilon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    _check_real("G", G, allow_zero=True)
    _check_real("f_gap", f_gap, allow_zero=True)
    n = _check_int("n", n)
    total = epsilon**-2 * (2.0 / delta + G * G / 8.0) + epsilon**-4 * ((f_gap + 3.0) / n)
    return int(math.ceil(total))


def estimate_constants(
    obj: FiniteSumObjective,
    cfg: ProbeConfig,
    points,
    rng: RngStream,
    *,
    f_star: float | None = None,
) -> SmoothnessConstants:
    """Measure constants over a set of points with curvature probes.

    L_x/L_y maximize the operator lower bound of full-objective block probes
    over the points; L_x_max/L_y_max additionally maximize over single-sample
    probes.  G is the largest full gradient norm, sigma the largest sample
    standard deviation.  f_gap compares the first point's value with f_star
    (argument, or the objective's analytic minimum when it has one).
    """
    pts = obj.check_points(points)

    L = {Block.X: 0.0, Block.Y: 0.0}  # per block: full-objective curvature
    L_max = dict(L)  # per block: the worst single sample's too
    grad_bound = 0.0
    sigma = 0.0
    for w in pts:
        for block in L:
            bcfg = replace(cfg, target=block)
            full_lb = estimate_block_lipschitz(obj, w, bcfg, rng).operator_lb
            sample_lb = max(
                estimate_block_lipschitz(obj, w, bcfg, rng, sample=i).operator_lb
                for i in range(obj.n)
            )
            L[block] = max(L[block], full_lb)
            L_max[block] = max(L_max[block], full_lb, sample_lb)
        grad_bound = max(grad_bound, float(np.linalg.norm(obj.grad_full(w))))
        sigma = max(sigma, math.sqrt(obj.sample_variance(w)))

    if f_star is None:
        f_star = obj.f_star
    if f_star is None:
        raise ValueError(
            "f_star is required: pass it explicitly or use an objective with an analytic minimum"
        )
    f_gap = max(0.0, obj.eval_full(pts[0]) - float(f_star))
    return SmoothnessConstants(L[Block.X], L[Block.Y], L_max[Block.X], L_max[Block.Y],
                               G=grad_bound, sigma=sigma, f_gap=f_gap)
