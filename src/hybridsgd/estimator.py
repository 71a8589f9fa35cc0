"""Two-point Gaussian gradient estimation for a single parameter block.

The estimator never sees analytic gradients: it reads two objective values
along a random direction and rescales the forward difference.  Its mean over
directions is the gradient of the Gaussian-smoothed objective
f_mu(x) = E_v f(x + mu v), not of f itself; the bias and second-moment
behaviour are validated in the oracle module.

q directions at one point share the base value f(x; i), so a q-direction
estimate costs q + 1 objective values, as in the two-point scheme of
Nesterov & Spokoiny (Random Gradient-Free Minimization of Convex Functions,
FoCM 2017).  The q directions are drawn as one (q, dim) block and their q
shifted values read with one ``values_at_points`` call; a single-direction
estimate is the one-row case of the same helper.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Block,
    HybridPoint,
    NumericError,
    RngStream,
    _check_int,
    _check_real,
    _shifted_rows,
    sample_gaussian,
)
from .objectives import FiniteSumObjective

__all__ = [
    "ZoConfig",
    "PerturbationUnderflowWarning",
    "two_point_estimate",
    "estimate_x_gradient",
    "estimate_block_gradient",
]

_EPS = float(np.finfo(np.float64).eps)


class PerturbationUnderflowWarning(UserWarning):
    """mu*||v|| is so small next to ||x|| that the difference is mostly rounding."""


@dataclass(frozen=True)
class ZoConfig:
    """Smoothing radius and per-step direction count for the estimator."""

    mu: float
    directions_per_step: int = 1

    def __post_init__(self) -> None:
        _check_real("mu", self.mu)
        _check_int("directions_per_step", self.directions_per_step)


def _two_point_rows(
    obj: FiniteSumObjective,
    values: np.ndarray,
    i: int,
    mu: float,
    directions: np.ndarray,
    block: Block,
    base: float,
) -> np.ndarray:
    """Raw-array estimates, one row per row of directions; inputs assumed validated.

    ``base`` is f(values; i).  The m shifted values come from one
    ``values_at_points`` call, so the rows cost m objective values.
    """
    sl = obj.layout.slice_of(block)
    shifted = obj.values_at_points(_shifted_rows(values, sl, mu * directions), i)
    if not (math.isfinite(base) and np.isfinite(shifted).all()):
        raise NumericError(
            f"objective returned a non-finite value in a two-point probe (sample {i})"
        )
    # sqrt(x . x) is np.linalg.norm(x) bit for bit, and mu * sqrt(.) is
    # monotone, so the shortest direction decides whether any falls under.
    x = values[sl]
    shortest = math.sqrt(np.vecdot(directions, directions).min())
    if mu * shortest < 1e3 * _EPS * math.sqrt(x.dot(x)):
        warnings.warn(
            "two-point perturbation mu*||v|| is below 1e3*eps of the block norm; "
            "the returned estimate is dominated by rounding error",
            PerturbationUnderflowWarning,
            stacklevel=3,
        )
    return ((shifted - base) / mu)[:, None] * directions


def two_point_estimate(
    obj: FiniteSumObjective, w: HybridPoint, i: int, mu: float, v: np.ndarray
) -> np.ndarray:
    """Single-direction estimate [(f(x + mu v, y; i) - f(x, y; i)) / mu] * v.

    Only the x block is perturbed and the estimate lives entirely in the
    x block; the y block never moves.  Exactly two objective evaluations.
    """
    values = obj.check_point(w)
    i = obj.check_sample(i)
    mu = _check_real("mu", mu)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (obj.layout.d_x,):
        raise ValueError(f"v must have shape ({obj.layout.d_x},), got {v.shape}")
    return _two_point_rows(obj, values, i, mu, v[None, :], Block.X, obj.value_at(values, i))[0]


def estimate_block_gradient(
    obj: FiniteSumObjective,
    values: np.ndarray,
    i: int,
    cfg: ZoConfig,
    rng: RngStream,
    block: Block,
) -> np.ndarray:
    """Raw-array mean of cfg.directions_per_step Gaussian-direction estimates.

    The base value f(values; i) is read once and shared by every direction,
    so the estimate costs directions_per_step + 1 objective values.  The q
    directions are one (q, dim) draw, which consumes the stream exactly as q
    draws of dim, and the rows are summed in draw order.
    """
    if block is Block.FULL:
        raise ValueError("estimate one block at a time: target must be X or Y")
    q = cfg.directions_per_step
    dim = obj.layout.dim_of(block)
    base = obj.value_at(values, i)
    directions = sample_gaussian(rng, q * dim).reshape(q, dim)
    acc = np.zeros(dim)
    for row in _two_point_rows(obj, values, i, cfg.mu, directions, block, base):
        acc += row
    return acc / q


def estimate_x_gradient(
    obj: FiniteSumObjective, w: HybridPoint, i: int, cfg: ZoConfig, rng: RngStream
) -> np.ndarray:
    """Average of cfg.directions_per_step independent x-block estimates.

    Costs cfg.directions_per_step + 1 objective values (one shared base).
    """
    values = obj.check_point(w)
    i = obj.check_sample(i)
    return estimate_block_gradient(obj, values, i, cfg, rng, Block.X)
