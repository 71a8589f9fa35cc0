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
and K perturbed gradients in one ``grads_at_points`` call for a sample, or in
``full_values_and_grads_at_points`` calls over row blocks for the full objective.
The draw consumes the stream exactly as K sequential draws would, so the
statistics are the same bits as probing one direction at a time.  The
validated entry points are ``estimate_block_lipschitz`` and ``trajectory_scan``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .core import (
    Block,
    HybridPoint,
    NumericError,
    RngStream,
    _check_int,
    _check_real,
    _check_type,
    _shifted_rows,
    _unit_sphere_rows,
    _write_csv,
)
from .objectives import FiniteSumObjective

__all__ = [
    "ProbeConfig",
    "ProbeReport",
    "estimate_block_lipschitz",
    "trajectory_scan",
]

# Budget of rows * n * d per kernel call of a full-objective probe: 128 KiB, glibc's mmap threshold.
# It bounds cosh's (rows, n, d) temporaries and logistic's (rows, n), so peak memory stays flat
# as K grows (2^15 raised plan's peak RSS by 0.4 MB); the quadratics and linear hold only (rows, d).
_FULL_BLOCK = 1 << 14


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
    """Curvature statistics from K unit-sphere probes of one block.

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
    sample: int | None,
) -> np.ndarray:
    """Products (grad(w + h v~) - grad(w)) / h, v~ being a row v of directions
    placed in the block (zero elsewhere), shape (m, d); inputs assumed validated.

    sample=None probes the full objective.  The base gradient is evaluated
    once for all rows, as row 0 of the same m + 1 points: for a sample they
    are one ``grads_at_points`` call; the full objective's go through
    ``full_values_and_grads_at_points`` in blocks of max(1, _FULL_BLOCK // (n d)) rows.
    """
    points = _shifted_rows(values, obj.layout.slice_of(block), h * directions)
    if sample is None:
        rows = max(1, _FULL_BLOCK // (obj.n * obj.layout.d))
        grads = np.concatenate([obj.full_values_and_grads_at_points(points[k:k + rows])[1]
                                for k in range(0, len(points), rows)])
    else:
        grads = obj.grads_at_points(points, sample)
    out = (grads[1:] - grads[0]) / h
    if not np.isfinite(out).all():
        raise NumericError("non-finite gradient in a curvature probe")
    return out


def estimate_block_lipschitz(
    obj: FiniteSumObjective,
    w: HybridPoint,
    cfg: ProbeConfig,
    rng: RngStream,
    sample: int | None = None,
) -> ProbeReport:
    """Probe the target block's curvature with cfg.probes unit directions.

    The base gradient is evaluated once and shared by all probes, so K probes
    cost K + 1 gradients.  The K directions are one (K, dim) draw, and the
    K + 1 gradients one batched evaluation (see ``_hvp_rows``).
    """
    values = obj.check_point(w)
    if sample is not None:
        sample = obj.check_sample(sample)
    sl = obj.layout.slice_of(cfg.target)
    dim = sl.stop - sl.start
    directions = _unit_sphere_rows(rng, cfg.probes, dim)
    hv = _hvp_rows(obj, values, directions, cfg.h, cfg.target, sample)[:, sl]
    # np.max(np.sqrt(sq)), np.mean(sq) and np.std(sq, ddof=1) by numpy's own steps,
    # the same bits without their dispatch (sqrt is monotone and correctly rounded)
    sq = np.vecdot(hv, hv)
    operator_lb = sqrt(np.maximum.reduce(sq))
    mean_sq = float(np.add.reduce(sq) / cfg.probes)
    raw = sqrt(mean_sq)
    scaled = sqrt(dim * mean_sq)
    if cfg.probes > 1 and mean_sq > 0.0:
        dev = sq - mean_sq
        dev *= dev
        se_mean = sqrt(np.add.reduce(dev) / (cfg.probes - 1)) / sqrt(cfg.probes)
        stderr = sqrt(dim) * se_mean / (2.0 * raw)
    else:
        stderr = 0.0
    return ProbeReport(raw, scaled, operator_lb, stderr, cfg.probes, cfg.h, cfg.target)


def trajectory_scan(
    obj: FiniteSumObjective,
    points,
    cfg: ProbeConfig,
    rng: RngStream,
) -> list[tuple[float, ProbeReport]]:
    """(full gradient norm, probe report) at each point, in trajectory order."""
    out = []
    for w in obj.check_points(points):
        grad_norm = float(np.linalg.norm(obj.grad_full(w)))
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
