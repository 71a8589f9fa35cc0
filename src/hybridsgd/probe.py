"""Finite-difference curvature probes along random directions.

A probe applies the Hessian to a unit direction via a forward difference of
analytic gradients and reads off norm statistics.  For a block target the
direction lives in that block (zero elsewhere) and the product is restricted
to the same block, so the statistics describe the diagonal sub-Hessian
(the block's own curvature, not its coupling to the other block).

For unit-sphere directions E[v^T H^2 v] = ||H||_F^2 / dim, so the raw
quadratic-mean statistic sqrt(mean ||Hv||^2) underestimates the Frobenius
norm by sqrt(dim); both the raw and the corrected value are reported.

K probes at one point are batched: one (K, dim) unit-sphere draw, and the base
and K perturbed gradients in ``full_values_and_grads_at_points`` calls over row
blocks for the full objective.  Per-sample probes (``sample=ALL``) go in groups
of samples: one (g K, dim) draw and one ``grads_at_points`` call on g(K + 1)
rows with an int-array sample selector.  A draw consumes the stream exactly as
its sequential draws would, so the statistics are the same bits as probing one
direction, and one sample, at a time.  The validated entry points are
``estimate_block_lipschitz`` and ``trajectory_scan``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .core import (
    Block,
    HybridPoint,
    NumericError,
    RngStream,
    _check_int,
    _check_real,
    _check_type,
    _mean_stderr,
    _norm,
    _shifted_rows,
    _unit_sphere_rows,
    _write_csv,
)
from .objectives import ALL, FiniteSumObjective, _row_blocks

__all__ = [
    "ProbeConfig",
    "ProbeReport",
    "estimate_block_lipschitz",
    "trajectory_scan",
]

@dataclass(frozen=True)
class ProbeConfig:
    """Difference step, probe count, and target block; h and probes stored as checked."""

    h: float = 1e-5
    probes: int = 100
    target: Block = Block.FULL

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", _check_real("h", self.h))
        object.__setattr__(self, "probes", _check_int("probes", self.probes))
        _check_type("target", self.target, Block)


@dataclass(frozen=True)
class ProbeReport:
    """Curvature statistics from the unit-sphere probes of one block: K, or n K
    pooled over the samples.

    operator_lb is a running maximum of ||Hv|| draws, hence a lower bound on
    the block's operator norm; frobenius_scaled = sqrt(dim) * frobenius_raw
    estimates the block's Frobenius norm; stderr is the Monte Carlo standard
    error of frobenius_scaled.
    """

    frobenius_raw: float
    frobenius_scaled: float
    operator_lb: float
    stderr: float
    probes: int
    h: float
    block: Block


def _hvp_rows(
    obj: FiniteSumObjective,
    values: np.ndarray,
    directions: np.ndarray,
    h: float,
    block: Block,
    sample: np.ndarray | None,
) -> np.ndarray:
    """Products (grad(w + h v~) - grad(w)) / h, v~ being a row v of directions
    placed in the block (zero elsewhere), shape (m, d); inputs assumed validated.

    sample=None probes the full objective; an int array of g samples probes each sample
    along its own m / g consecutive rows.  Each base gradient is evaluated once for its rows,
    as row 0 of the same m / g + 1 points: for samples all g(m / g + 1) points are one
    ``grads_at_points`` call with one sample index per row; the full objective's go through
    ``full_values_and_grads_at_points`` in the ``_row_blocks`` of the family's ``_full_row_cost``.
    """
    d, g = len(values), 1 if sample is None else len(sample)
    shifts = h * directions.reshape(g, -1, directions.shape[1])
    points = _shifted_rows(values, obj.layout.slice_of(block), shifts).reshape(-1, d)
    if sample is None:
        grads = np.concatenate([obj.full_values_and_grads_at_points(points[rows])[1]
                                for rows in _row_blocks(len(points), obj._full_row_cost())])
    else:
        grads = obj.grads_at_points(points, np.repeat(sample, len(points) // g))
    grads = grads.reshape(g, -1, d)
    out = (grads[:, 1:] - grads[:, :1]).reshape(-1, d)
    out /= h  # in place: the same quotients, one (m, d) temporary fewer
    if not np.isfinite(out).all():
        raise NumericError("non-finite gradient in a curvature probe")
    return out


def estimate_block_lipschitz(
    obj: FiniteSumObjective,
    w: HybridPoint,
    cfg: ProbeConfig,
    rng: RngStream,
    sample: slice | None = None,
) -> ProbeReport:
    """Probe the target block's curvature with cfg.probes unit directions.

    sample=None probes the full objective.  sample=ALL probes each of the n
    samples with its own cfg.probes directions and pools them in one report:
    n K probes, operator_lb the max over all of them; so does ``slice(None)``.
    Any other value is an error.

    A base gradient is evaluated once and shared by its K probes, so K probes
    cost K + 1 gradients, and n K per-sample probes n(K + 1).  Samples go in the
    groups of ``_row_blocks``, (K + 1) d elements a sample: a group's directions are one
    (g K, dim) draw, which consumes the stream as g sequential (K, dim) draws,
    and its g(K + 1) gradients one batched evaluation (see ``_hvp_rows``).
    """
    _check_type("cfg", cfg, ProbeConfig)
    _check_type("rng", rng, RngStream)
    values = obj.check_point(w)
    groups = [None]
    if isinstance(sample, slice) and sample == ALL:  # never == on an array
        groups = [np.arange(obj.n)[rows] for rows in _row_blocks(obj.n, (cfg.probes + 1) * len(values))]
    elif sample is not None:
        raise ValueError(f"sample must be None or objectives.ALL, got {sample!r}")
    sl = obj.layout.slice_of(cfg.target)
    dim = sl.stop - sl.start
    parts = []
    for group in groups:
        directions = _unit_sphere_rows(rng, np.size(group) * cfg.probes, dim)  # np.size(None) == 1
        hv = _hvp_rows(obj, values, directions, cfg.h, cfg.target, group)[:, sl]
        parts.append(np.vecdot(hv, hv))
    sq = np.concatenate(parts)
    if not isfinite(top := np.maximum.reduce(sq)):  # nan if any is; finite products may square to inf
        raise NumericError("non-finite squared norm in a curvature probe")
    # the largest sqrt is the sqrt of the largest: sqrt is monotone and correctly rounded
    operator_lb = sqrt(top)
    mean_sq, se_mean = _mean_stderr(sq)
    raw = sqrt(mean_sq)
    scaled = sqrt(dim * mean_sq)
    stderr = sqrt(dim) * se_mean / (2.0 * raw) if mean_sq > 0.0 else 0.0
    return ProbeReport(raw, scaled, operator_lb, stderr, len(sq), cfg.h, cfg.target)


def trajectory_scan(
    obj: FiniteSumObjective,
    points,
    cfg: ProbeConfig,
    rng: RngStream,
) -> list[tuple[float, ProbeReport]]:
    """(full gradient norm, probe report) at each point, in trajectory order."""
    out = []
    for w in obj.check_points(points):
        grad_norm = float(_norm(obj.grad_full(w)))
        out.append((grad_norm, estimate_block_lipschitz(obj, w, cfg, rng)))
    return out


PROBE_HEADER = (
    "point_index",
    "grad_norm",
    "block",
    "frob_raw",
    "frob_scaled",
    "op_lb",
    "stderr",
    "K",
    "h",
)


def write_probe_csv(rows, path) -> None:
    """Write (grad_norm, ProbeReport) rows as CSV, indexed in input order."""
    _write_csv(path, PROBE_HEADER, "%d,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%d,%.17g\n", (
        (idx, grad_norm, rep.block.value, rep.frobenius_raw, rep.frobenius_scaled, rep.operator_lb,
         rep.stderr, rep.probes, rep.h) for idx, (grad_norm, rep) in enumerate(rows)))
