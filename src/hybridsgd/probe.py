"""Finite-difference curvature probes along random directions.

A probe applies the Hessian to a unit direction via a forward difference of
analytic gradients and reads off norm statistics.  For a block target the
direction lives in that block (zero elsewhere) and the product is restricted
to the same block, so the statistics describe the diagonal sub-Hessian
(the block's own curvature, not its coupling to the other block).

For unit-sphere directions E[v^T H^2 v] = ||H||_F^2 / dim, so the raw
quadratic-mean statistic sqrt(mean ||Hv||^2) underestimates the Frobenius
norm by sqrt(dim); both the raw and the corrected value are reported.

K probes at one point are batched: one (K, dim) unit-sphere draw, and for a
single sample one ``grads_at_points`` call for all K perturbed gradients.
The draw consumes the stream exactly as K sequential draws would, so the
statistics are the same bits as probing one direction at a time.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from math import sqrt
from pathlib import Path

import numpy as np

from .core import (
    Block,
    HybridPoint,
    NumericError,
    RngStream,
    _check_int,
    _check_real,
    _shifted_rows,
    _unit_sphere_rows,
    fmt17,
)
from .objectives import FiniteSumObjective

__all__ = [
    "ProbeConfig",
    "ProbeReport",
    "hvp",
    "estimate_block_lipschitz",
    "trajectory_scan",
    "write_probe_csv",
    "PROBE_HEADER",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Difference step, probe count, and target block."""

    h: float = 1e-5
    probes: int = 100
    target: Block = Block.FULL

    def __post_init__(self) -> None:
        _check_real("h", self.h)
        _check_int("probes", self.probes)
        if not isinstance(self.target, Block):
            raise ValueError(f"target must be a Block, got {self.target!r}")


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
    """Products for every row of directions, shape (m, d); inputs assumed validated.

    The base gradient is evaluated once for all rows.  A sample's m perturbed
    gradients come from one ``grads_at_points`` call; the full objective is
    evaluated point by point.
    """
    base_grad = obj.full_grad_at(values) if sample is None else obj.grad_at(values, sample)
    perturbed = _shifted_rows(values, obj.layout.slice_of(block), h * directions)
    if sample is None:
        grads = np.stack([obj.full_grad_at(p) for p in perturbed])
    else:
        grads = obj.grads_at_points(perturbed, sample)
    out = (grads - base_grad) / h
    if not np.isfinite(out).all():
        raise NumericError("non-finite gradient in a curvature probe")
    return out


def hvp(
    obj: FiniteSumObjective,
    w: HybridPoint,
    v: np.ndarray,
    h: float = 1e-5,
    block: Block = Block.FULL,
    sample: int | None = None,
) -> np.ndarray:
    """Forward-difference Hessian-vector product (grad(w + h v~) - grad(w)) / h.

    v matches the selected block's dimension and is zero-padded to the full
    vector v~; the returned product is always full length.  sample=None
    probes the full objective, an index probes that sample's Hessian.
    """
    values = obj.check_point(w)
    if sample is not None:
        sample = obj.check_sample(sample)
    h = _check_real("h", h)
    v = np.asarray(v, dtype=np.float64)
    dim = obj.layout.dim_of(block)
    if v.shape != (dim,):
        raise ValueError(f"v must have shape ({dim},) for block {block.value}, got {v.shape}")
    return _hvp_rows(obj, values, v[None, :], h, block, sample)[0]


def estimate_block_lipschitz(
    obj: FiniteSumObjective,
    w: HybridPoint,
    cfg: ProbeConfig,
    rng: RngStream,
    sample: int | None = None,
) -> ProbeReport:
    """Probe the target block's curvature with cfg.probes unit directions.

    The base gradient is evaluated once and shared by all probes, so K probes
    cost K + 1 gradients.  The K directions are one (K, dim) draw, and a
    sample's K perturbed gradients one batched call.
    """
    values = obj.check_point(w)
    if sample is not None:
        sample = obj.check_sample(sample)
    sl = obj.layout.slice_of(cfg.target)
    dim = obj.layout.dim_of(cfg.target)
    directions = _unit_sphere_rows(rng, cfg.probes, dim)
    hv = _hvp_rows(obj, values, directions, cfg.h, cfg.target, sample)[:, sl]
    sq = np.vecdot(hv, hv)
    operator_lb = float(np.max(np.sqrt(sq)))
    mean_sq = float(np.mean(sq))
    raw = sqrt(mean_sq)
    scaled = sqrt(dim * mean_sq)
    if cfg.probes > 1 and mean_sq > 0.0:
        se_mean = float(np.std(sq, ddof=1)) / sqrt(cfg.probes)
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
    pts = list(points)
    if not pts:
        raise ValueError("trajectory must contain at least one point")
    out = []
    for w in pts:
        values = obj.check_point(w)
        grad_norm = float(np.linalg.norm(obj.full_grad_at(values)))
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
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROBE_HEADER)
        for idx, (grad_norm, rep) in enumerate(rows):
            writer.writerow(
                [
                    idx,
                    fmt17(grad_norm),
                    rep.block.value,
                    fmt17(rep.frobenius_raw),
                    fmt17(rep.frobenius_scaled),
                    fmt17(rep.operator_lb),
                    fmt17(rep.stderr),
                    rep.probes,
                    fmt17(rep.h),
                ]
            )
