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

from .core import Block, NumericError, RngStream, _check_finite, _check_int, _check_real, _check_type, _norm
from .objectives import ALL, FiniteSumObjective
from .probe import ProbeConfig, estimate_block_lipschitz

__all__ = [
    "SmoothnessConstants",
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
class RatePlan:
    """Planned rates plus every candidate term that entered each minimum."""

    eta_x: float
    eta_y: float
    mu: float
    eta_x_terms: dict
    eta_y_terms: dict
    mu_terms: dict


def _in_range(name: str, term) -> float:
    """term(), if its float arithmetic gives a finite positive value; else NumericError naming it."""
    try:
        if 0.0 < (value := term()) < math.inf:
            return value
    except (OverflowError, ZeroDivisionError):  # an int too large for a float, or a 0 denominator
        pass
    raise NumericError(f"{name} is out of the float range")


def plan_rates(constants: SmoothnessConstants, n: int, T: int, d_x: int) -> RatePlan:
    """Largest admissible (eta_x, eta_y, mu) for the given constants, n samples,
    horizon T (epochs) and zeroth-order block dimension d_x.

    sigma = 0 drops the variance-horizon terms entirely (the minimum runs
    over the remaining terms); it is not an error.  A candidate outside the
    float range is a NumericError.
    """
    c = _check_type("constants", constants, SmoothnessConstants)
    n, T, d_x = _check_int("n", n), _check_int("T", T), _check_int("d_x", d_x)

    eta_x_terms = {
        "per_sample_curvature": lambda: 1.0 / (2.0 * c.L_x_max * n),
        "zo_dimension_penalty": lambda: 1.0 / (384.0 * c.L_x * n * d_x),
    }
    eta_y_terms = {
        "per_sample_curvature": lambda: 1.0 / (2.0 * c.L_y_max * n),
    }
    if c.sigma > 0.0:
        eta_x_terms["variance_horizon"] = lambda: math.sqrt(2.0 / T) / (c.sigma * n * c.L_x_max)
        eta_y_terms["variance_horizon"] = lambda: math.sqrt(2.0 / T) / (c.sigma * n * c.L_y_max)

    mu_terms = {
        "smoothing_radius": lambda: (c.G / c.L_x) * (6.0 / d_x**1.5),
        "horizon_bias": lambda: 1.0 / (3.0 * c.L_x * T * n * d_x * c.G),
    }
    eta_x_terms, eta_y_terms, mu_terms = (
        {name: _in_range(f"{label} candidate {name}", term) for name, term in terms.items()}
        for label, terms in (("eta_x", eta_x_terms), ("eta_y", eta_y_terms), ("mu", mu_terms))
    )

    return RatePlan(
        eta_x=min(eta_x_terms.values()),
        eta_y=min(eta_y_terms.values()),
        mu=min(mu_terms.values()),
        eta_x_terms=eta_x_terms,
        eta_y_terms=eta_y_terms,
        mu_terms=mu_terms,
    )


def epoch_budget(epsilon: float, delta: float, G: float, f_gap: float, n: int) -> int:
    """Epochs for the scheme's average-gradient guarantee, ignoring the ZO dimension.

    ceil of eps^-2 [2/delta + G^2/8] + eps^-4 [(f_gap + 3)/n]; delta is the allowed
    failure probability.  A total outside the float range is a NumericError.

    The budget depends on neither d_x nor L_x, so it is not sufficient when
    plan_rates' zo_dimension_penalty binds: on criterion 05's objective with
    exact constants, delta = 0.2 and T = the budget (eta_x = 6.51e-6), seeds
    0-4 end at min_grad_sq 0.912-0.924 for eps = 0.5 (67 epochs) and
    0.703-0.718 for eps = 0.3 (272 epochs), against eps^2 = 0.25 and 0.09.
    """
    _check_real("epsilon", epsilon)
    if not 0.0 < _check_finite("delta", delta) < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    _check_real("G", G, allow_zero=True)
    _check_real("f_gap", f_gap, allow_zero=True)
    n = _check_int("n", n)
    total = _in_range("epoch budget", lambda: epsilon**-2 * (2.0 / delta + G * G / 8.0)
                      + epsilon**-4 * ((f_gap + 3.0) / n))
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
    probes, one pooled ``estimate_block_lipschitz(..., sample=ALL)`` call per
    block and point.  G is the largest full gradient norm, sigma the largest
    sample standard deviation.  f_gap compares the first point's value with
    f_star (argument, or the objective's analytic minimum when it has one),
    which is checked before any probe runs.
    """
    pts = obj.check_points(points)
    _check_type("cfg", cfg, ProbeConfig)
    f_star = obj.f_star if f_star is None else _check_finite("f_star", f_star)
    if f_star is None:
        raise ValueError(
            "f_star is required: pass it explicitly or use an objective with an analytic minimum"
        )

    L = {Block.X: 0.0, Block.Y: 0.0}  # per block: full-objective curvature
    L_max = dict(L)  # per block: the worst single sample's too
    grad_bound = 0.0
    sigma = 0.0
    for w in pts:
        for block in L:
            bcfg = replace(cfg, target=block)
            full_lb = estimate_block_lipschitz(obj, w, bcfg, rng).operator_lb
            sample_lb = estimate_block_lipschitz(obj, w, bcfg, rng, sample=ALL).operator_lb
            L[block] = max(L[block], full_lb)
            L_max[block] = max(L_max[block], full_lb, sample_lb)
        grad_bound = max(grad_bound, _norm(obj.grad_full(w)))
        sigma = max(sigma, math.sqrt(obj.sample_variance(w)))

    for name, value in (("G", grad_bound), ("sigma", sigma), ("f(w0)", f0 := obj.eval_full(pts[0]))):
        if not math.isfinite(value):
            raise NumericError(f"{name} is non-finite")
    return SmoothnessConstants(L[Block.X], L[Block.Y], L_max[Block.X], L_max[Block.Y],
                               G=grad_bound, sigma=sigma, f_gap=max(0.0, f0 - f_star))
