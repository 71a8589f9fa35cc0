"""Two-point Gaussian gradient estimation for a single parameter block.

The estimator never sees analytic gradients: it reads two objective values
along a random direction and rescales the forward difference.  Its mean over
directions is the gradient of the Gaussian-smoothed objective
f_mu(x) = E_v f(x + mu v), not of f itself; the bias and second-moment
behaviour are validated in the oracle module.

q directions at one point share the base value f(x; i), so a q-direction
estimate costs q + 1 objective values, as in the two-point scheme of
Nesterov & Spokoiny (Random Gradient-Free Minimization of Convex Functions,
FoCM 2017).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Block, HybridPoint, NumericError, RngStream, sample_gaussian
from .objectives import FiniteSumObjective

__all__ = [
    "ZoConfig",
    "MonteCarloGradient",
    "PerturbationUnderflowWarning",
    "two_point_estimate",
    "estimate_x_gradient",
    "estimate_block_gradient",
    "smoothed_gradient_reference",
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
        if not np.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        q = self.directions_per_step
        if not isinstance(q, (int, np.integer)) or isinstance(q, bool) or q < 1:
            raise ValueError(f"directions_per_step must be an integer >= 1, got {q!r}")


def _two_point_values(
    obj: FiniteSumObjective,
    values: np.ndarray,
    i: int,
    mu: float,
    v: np.ndarray,
    block: Block,
    base: float | None = None,
) -> np.ndarray:
    """Raw-array single-direction estimate; inputs assumed validated.

    ``base`` is f(values; i) when the caller has it already; otherwise it is
    evaluated here, for two objective values in all.
    """
    sl = obj.layout.slice_of(block)
    if base is None:
        base = obj.value_at(values, i)
    perturbed = values.copy()
    perturbed[sl] += mu * v
    shifted = obj.value_at(perturbed, i)
    if not (np.isfinite(base) and np.isfinite(shifted)):
        raise NumericError(
            f"objective returned a non-finite value in a two-point probe (sample {i})"
        )
    block_norm = float(np.linalg.norm(values[sl]))
    if mu * float(np.linalg.norm(v)) < 1e3 * _EPS * block_norm:
        warnings.warn(
            "two-point perturbation mu*||v|| is below 1e3*eps of the block norm; "
            "the returned estimate is dominated by rounding error",
            PerturbationUnderflowWarning,
            stacklevel=3,
        )
    return ((shifted - base) / mu) * v


def _check_mu(mu: float) -> float:
    if not np.isfinite(mu) or mu <= 0:
        raise ValueError(f"mu must be positive and finite, got {mu}")
    return float(mu)


def two_point_estimate(
    obj: FiniteSumObjective, w: HybridPoint, i: int, mu: float, v: np.ndarray
) -> np.ndarray:
    """Single-direction estimate [(f(x + mu v, y; i) - f(x, y; i)) / mu] * v.

    Only the x block is perturbed and the estimate lives entirely in the
    x block; the y block never moves.  Exactly two objective evaluations.
    """
    values = obj.check_point(w)
    i = obj.check_sample(i)
    mu = _check_mu(mu)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (obj.layout.d_x,):
        raise ValueError(f"v must have shape ({obj.layout.d_x},), got {v.shape}")
    return _two_point_values(obj, values, i, mu, v, Block.X)


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
    so the estimate costs directions_per_step + 1 objective values.
    """
    if block is Block.FULL:
        raise ValueError("estimate one block at a time: target must be X or Y")
    dim = obj.layout.dim_of(block)
    base = obj.value_at(values, i)
    acc = np.zeros(dim)
    for _ in range(cfg.directions_per_step):
        v = sample_gaussian(rng, dim)
        acc += _two_point_values(obj, values, i, cfg.mu, v, block, base)
    return acc / cfg.directions_per_step


def estimate_x_gradient(
    obj: FiniteSumObjective, w: HybridPoint, i: int, cfg: ZoConfig, rng: RngStream
) -> np.ndarray:
    """Average of cfg.directions_per_step independent x-block estimates.

    Costs cfg.directions_per_step + 1 objective values (one shared base).
    """
    values = obj.check_point(w)
    i = obj.check_sample(i)
    return estimate_block_gradient(obj, values, i, cfg, rng, Block.X)


@dataclass(frozen=True)
class MonteCarloGradient:
    """Monte Carlo mean of single-direction estimates with per-coordinate stderr."""

    mean: np.ndarray
    stderr: np.ndarray
    draws: int


def smoothed_gradient_reference(
    obj: FiniteSumObjective,
    w: HybridPoint,
    i: int,
    mu: float,
    draws: int,
    rng: RngStream,
) -> MonteCarloGradient:
    """Brute-force reference for the smoothed x-gradient E_v [(f(x+mu v)-f(x))/mu] v.

    Test oracle only; nothing in the optimizer path calls this.
    """
    values = obj.check_point(w)
    i = obj.check_sample(i)
    mu = _check_mu(mu)
    if not isinstance(draws, (int, np.integer)) or isinstance(draws, bool) or draws < 2:
        raise ValueError(f"draws must be an integer >= 2, got {draws!r}")
    d_x = obj.layout.d_x
    total = np.zeros(d_x)
    total_sq = np.zeros(d_x)
    for _ in range(draws):
        est = _two_point_values(obj, values, i, mu, sample_gaussian(rng, d_x), Block.X)
        total += est
        total_sq += est * est
    mean = total / draws
    var = np.maximum(total_sq / draws - mean * mean, 0.0) * (draws / (draws - 1))
    return MonteCarloGradient(mean, np.sqrt(var / draws), int(draws))
