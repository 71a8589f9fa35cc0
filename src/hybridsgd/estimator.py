"""Two-point Gaussian gradient estimation for a single parameter block.

The estimator never sees analytic gradients: it reads two objective values
along a random direction and rescales the forward difference.  Its mean over
directions is the gradient of the Gaussian-smoothed objective
f_mu(x) = E_v f(x + mu v), not of f itself; the bias and second-moment
behaviour are validated in the oracle module.

q directions at one point share the base value f(x; i), so a q-direction
estimate costs q + 1 objective values, as in the two-point scheme of
Nesterov & Spokoiny (Random Gradient-Free Minimization of Convex Functions,
FoCM 2017).  The q directions are one ``sample_gaussian(rng, q, dim)`` draw,
and the base value and the q shifted values are read with one
``values_at_points`` call of q + 1 rows.  Given a pair, a trace block's draws for the step (see
``optimizer.run_epoch``), the directions and their mu-scaled shifts come from it.
``estimate_block_gradient`` is the one entry point: like
``optimizer.step``, its caller, it takes raw arrays and validates nothing;
``optimizer.run`` and ``oracle.check_estimator_bounds`` are the validated
boundaries.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import Block, NumericError, RngStream, _check_int, _check_real, _norm, sample_gaussian
from .objectives import FiniteSumObjective

__all__ = [
    "ZoConfig",
    "PerturbationUnderflowWarning",
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


def _underflows(mu: float, directions: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether mu times the shortest of the (..., q, dim) directions is under 1e3 eps of the norm of x (..., dim),
    per leading index: min and the correctly rounded sqrt commute, so these are the bits of sqrt(min v . v)."""
    return mu * _norm(directions).min(-1) < 1e3 * _EPS * _norm(x)


def _two_point_rows(obj: FiniteSumObjective, values: np.ndarray, i: int, mu: float,
                    directions: np.ndarray, sl: slice, shifts: np.ndarray | None = None) -> np.ndarray:
    """Raw-array estimates [(f(values + mu v~; i) - f(values; i)) / mu] * v, one
    row per row v of the (m, dim) directions; inputs assumed validated.

    v~ is v placed in the perturbed block's slice ``sl`` of values.  The base
    value and the m shifted values come from one ``values_at_points`` call of
    m + 1 rows (row 0 the base, a plain copy of values; row k + 1 bit for bit
    ``values.copy()`` after ``[sl] += mu * directions[k]``), so the rows cost
    m + 1 objective values.  It raises on a non-finite value and warns, naming
    its caller's caller, if the directions :func:`_underflows`.  Given shifts,
    a speculative block's mu * directions, it adds those and skips both checks.
    """
    points = np.empty((len(directions) + 1, len(values)))
    points[:] = values
    points[1:, sl] += mu * directions if shifts is None else shifts
    vals = obj.values_at_points(points, i)
    if shifts is None:
        if np.count_nonzero(np.isfinite(vals)) < len(vals):  # less fixed cost per call than all()
            raise NumericError(f"objective returned a non-finite value in a two-point probe (sample {i})")
        if _underflows(mu, directions, values[sl]):
            warnings.warn("two-point perturbation mu*||v|| is below 1e3*eps of the block norm; the returned "
                          "estimate is dominated by rounding error", PerturbationUnderflowWarning, stacklevel=3)
    return ((vals[1:] - vals[0]) / mu)[:, None] * directions


def estimate_block_gradient(obj: FiniteSumObjective, values: np.ndarray, i: int, cfg: ZoConfig,
                            rng: RngStream, block: Block, pair: tuple | None = None) -> np.ndarray:
    """Raw-array mean of cfg.directions_per_step Gaussian-direction estimates of block X or Y.

    The base value f(values; i) is read once and shared by every direction,
    so the estimate costs directions_per_step + 1 objective values.  The q
    directions are one ``sample_gaussian(rng, q, dim)`` draw, and the rows are summed in draw order.
    Given a pair (directions, mu * directions), a trace block's draws, it uses those.
    """
    q = cfg.directions_per_step
    sl = obj.layout.slice_of(block)
    directions, shifts = pair or (sample_gaussian(rng, q, sl.stop - sl.start), None)
    rows = _two_point_rows(obj, values, i, cfg.mu, directions, sl, shifts)
    # The rows are summed in draw order from +0.0.  add.accumulate adds them
    # one after another (a reduce over axis 0 turns pairwise once dim == 1
    # and q >= 8), and + 0.0 turns a -0.0 total into the +0.0 that a sum
    # started at +0.0 gives, leaving every other value unchanged.
    return (np.add.accumulate(rows)[-1] + 0.0) / q
