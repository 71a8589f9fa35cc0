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
shifted values read with one ``values_at_points`` call.  There are two entry
points: ``estimate_x_gradient`` validates its point and sample index, and
``estimate_block_gradient`` is the raw-array one the optimizer calls.
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
    "estimate_x_gradient",
]

_EPS = float(np.finfo(np.float64).eps)


class PerturbationUnderflowWarning(UserWarning):
    """mu*||v|| is so small next to ||x|| that the difference is mostly rounding."""


@dataclass(frozen=True)
class ZoConfig:
    """Smoothing radius and per-step direction count for the estimator, stored as checked."""

    mu: float
    directions_per_step: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _check_real("mu", self.mu))
        object.__setattr__(self, "directions_per_step", _check_int("directions_per_step", self.directions_per_step))


def _two_point_rows(
    obj: FiniteSumObjective,
    values: np.ndarray,
    i: int,
    mu: float,
    directions: np.ndarray,
    sl: slice,
    base: float,
    stacklevel: int = 3,
) -> np.ndarray:
    """Raw-array estimates [(f(values + mu v~; i) - base) / mu] * v, one row per
    row v of directions; inputs assumed validated.

    v~ is v placed in the perturbed block's slice ``sl`` of values and
    ``base`` is f(values; i).  The m shifted values come from one
    ``values_at_points`` call, so the rows cost m objective values.  An
    underflow warning names the frame ``stacklevel`` levels up.
    """
    shifted = obj.values_at_points(_shifted_rows(values, sl, mu * directions), i)
    if not (math.isfinite(base) and np.isfinite(shifted).all()):
        raise NumericError(
            f"objective returned a non-finite value in a two-point probe (sample {i})"
        )
    # sqrt(x . x) is np.linalg.norm(x) bit for bit, and mu * sqrt(.) is
    # monotone, so the shortest direction decides whether any falls under.
    x = values[sl]
    shortest = math.sqrt(np.minimum.reduce(np.vecdot(directions, directions)))
    if mu * shortest < 1e3 * _EPS * math.sqrt(x.dot(x)):
        warnings.warn(
            "two-point perturbation mu*||v|| is below 1e3*eps of the block norm; "
            "the returned estimate is dominated by rounding error",
            PerturbationUnderflowWarning,
            stacklevel=stacklevel,
        )
    return ((shifted - base) / mu)[:, None] * directions


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
    return _block_estimate(obj, values, i, cfg, rng, block)


def _block_estimate(obj: FiniteSumObjective, values: np.ndarray, i: int, cfg: ZoConfig,
                    rng: RngStream, block: Block) -> np.ndarray:
    # The body of both entry points, called from each at the same depth, so
    # that an underflow warning names the caller of either (stacklevel 4).
    if block is Block.FULL:
        raise ValueError("estimate one block at a time: target must be X or Y")
    q = cfg.directions_per_step
    sl = obj.layout.slice_of(block)
    base = obj.value_at(values, i)
    directions = sample_gaussian(rng, q * (sl.stop - sl.start)).reshape(q, -1)
    rows = _two_point_rows(obj, values, i, cfg.mu, directions, sl, base, 4)
    # The rows are summed in draw order from +0.0.  add.accumulate adds them
    # one after another (a reduce over axis 0 turns pairwise once dim == 1
    # and q >= 8), and + 0.0 turns a -0.0 total into the +0.0 that a sum
    # started at +0.0 gives, leaving every other value unchanged.
    return (np.add.accumulate(rows)[-1] + 0.0) / q


def estimate_x_gradient(
    obj: FiniteSumObjective, w: HybridPoint, i: int, cfg: ZoConfig, rng: RngStream
) -> np.ndarray:
    """Average of cfg.directions_per_step independent x-block estimates.

    Costs cfg.directions_per_step + 1 objective values (one shared base).
    """
    values = obj.check_point(w)
    i = obj.check_sample(i)
    return _block_estimate(obj, values, i, cfg, rng, Block.X)
