"""Reshuffled per-sample SGD with independent per-block update rules.

Each epoch draws a fresh uniform permutation of the sample indices and takes
one step per sample, strictly in permutation order.  A step evaluates both
block directions at the incoming point and then moves both blocks at once,
so neither block sees the other's update within the step.  Block rules:

* ``Mode.ZO``     two-point Gaussian estimate (objective values only),
* ``Mode.FO``     exact analytic per-sample gradient,
* ``Mode.FROZEN`` block copied bit for bit.

The default pairing (x zeroth-order, y first-order) is the hybrid scheme;
(FO, FO), (ZO, ZO) and (FROZEN, FO) express the standard baselines.

:func:`step` belongs to the raw-array layer, next to the objectives'
``value_at`` and the estimator's ``estimate_block_gradient``: it maps a
float64 array to a new one and validates nothing.  :func:`run` and
:func:`run_epoch` are the validated boundary: each checks its start point
once, steps on raw arrays, and builds a :class:`HybridPoint` only for
snapshots, the :class:`DivergenceError` point and the returned point.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    Block,
    HybridPoint,
    NumericError,
    RngStream,
    _check_int,
    _check_real,
    fmt17,
    shuffle_permutation,
)
from .estimator import ZoConfig, estimate_block_gradient
from .objectives import FiniteSumObjective

__all__ = [
    "Mode",
    "LearningRates",
    "BlockMode",
    "OptimizerConfig",
    "TraceRecord",
    "DivergenceError",
    "RunResult",
    "step",
    "run_epoch",
    "run",
    "write_trace_csv",
    "TRACE_HEADER",
]


class Mode(Enum):
    """Per-block update rule."""

    ZO = "zo"
    FO = "fo"
    FROZEN = "frozen"


@dataclass(frozen=True)
class LearningRates:
    """Non-negative per-block step sizes."""

    eta_x: float
    eta_y: float

    def __post_init__(self) -> None:
        _check_real("eta_x", self.eta_x, allow_zero=True)
        _check_real("eta_y", self.eta_y, allow_zero=True)


@dataclass(frozen=True)
class BlockMode:
    """Update rule per block; defaults to the hybrid pairing (x: ZO, y: FO)."""

    x_mode: Mode = Mode.ZO
    y_mode: Mode = Mode.FO

    def __post_init__(self) -> None:
        for name in ("x_mode", "y_mode"):
            if not isinstance(getattr(self, name), Mode):
                raise ValueError(f"{name} must be a Mode, got {getattr(self, name)!r}")

    def uses_zo(self) -> bool:
        return Mode.ZO in (self.x_mode, self.y_mode)


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything a run needs except the objective, start point and stream."""

    rates: LearningRates
    modes: BlockMode = BlockMode()
    zo: ZoConfig | None = None
    epochs: int = 1
    divergence_threshold: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.rates, LearningRates):
            raise ValueError(f"rates must be LearningRates, got {self.rates!r}")
        if not isinstance(self.modes, BlockMode):
            raise ValueError(f"modes must be a BlockMode, got {self.modes!r}")
        _check_int("epochs", self.epochs)
        if self.modes.uses_zo() and not isinstance(self.zo, ZoConfig):
            raise ValueError("zo config is required when a block uses Mode.ZO")
        f = self.divergence_threshold
        if f is not None and not f > 0:
            raise ValueError(f"divergence_threshold must be > 0, got {f}")


@dataclass(frozen=True)
class TraceRecord:
    """Per-step log entry; metrics are exact full-objective quantities at the
    updated point, so grad_norm^2 == grad_norm_x^2 + grad_norm_y^2."""

    epoch: int
    step: int
    f_value: float
    grad_norm: float
    grad_norm_x: float
    grad_norm_y: float


class DivergenceError(RuntimeError):
    """The objective exceeded the divergence guard (or went non-finite).

    Raised by :func:`run_epoch`; :func:`run` returns it as the divergence
    record of its :class:`RunResult`.
    """

    def __init__(self, epoch: int, step: int, f_value: float, point: HybridPoint):
        super().__init__(f"diverged at epoch {epoch}, step {step}: f = {f_value!r}")
        self.epoch = epoch
        self.step = step
        self.f_value = f_value
        self.point = point


def resolve_divergence_threshold(cfg: OptimizerConfig, f0: float) -> float:
    """Explicit guard if configured, else max(1e6 * |f at start|, 1e6)."""
    if cfg.divergence_threshold is not None:
        return float(cfg.divergence_threshold)
    return max(1e6 * abs(f0), 1e6)


def step(
    obj: FiniteSumObjective,
    values: np.ndarray,
    i: int,
    cfg: OptimizerConfig,
    rng: RngStream,
) -> np.ndarray:
    """Raw-array simultaneous update of both blocks from the incoming values.

    Inputs are assumed validated (run and run_epoch check the start point
    once); returns a new array and never writes to values.  Both block
    directions are read at the incoming values, x block first: ZO draws come
    from rng in that order, so a replay with an equal stream reproduces the
    step bit for bit.  The FO gradient is evaluated at most once and shared
    by the two blocks; a frozen block is copied unchanged.
    """
    d_x = obj.layout.d_x
    x_mode, y_mode = cfg.modes.x_mode, cfg.modes.y_mode
    grad = None
    new_values = values.copy()
    if x_mode is Mode.FO:
        grad = obj.grad_at(values, i)
        new_values[:d_x] -= cfg.rates.eta_x * grad[:d_x]
    elif x_mode is Mode.ZO:
        new_values[:d_x] -= cfg.rates.eta_x * estimate_block_gradient(
            obj, values, i, cfg.zo, rng, Block.X
        )
    if y_mode is Mode.FO:
        if grad is None:
            grad = obj.grad_at(values, i)
        new_values[d_x:] -= cfg.rates.eta_y * grad[d_x:]
    elif y_mode is Mode.ZO:
        new_values[d_x:] -= cfg.rates.eta_y * estimate_block_gradient(
            obj, values, i, cfg.zo, rng, Block.Y
        )
    if not np.isfinite(new_values).all():
        raise NumericError(f"non-finite update from sample {i}")
    return new_values


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a 1-d float array is sqrt(v . v); the same bits,
    # without its per-call dispatch on ord and axis
    return math.sqrt(v.dot(v))


def run_epoch(
    obj: FiniteSumObjective,
    w: HybridPoint,
    cfg: OptimizerConfig,
    rng: RngStream,
    trace: list,
    *,
    epoch: int = 0,
    step_offset: int = 0,
    divergence_threshold: float | None = None,
    snapshot_every: int = 0,
    snapshots: list | None = None,
) -> HybridPoint:
    """One reshuffled pass over all n samples.

    Validates w once and steps on raw arrays; HybridPoints are built only for
    snapshots, the DivergenceError point and the returned point.  Appends one
    TraceRecord per step (metrics at the updated point).  Raises
    DivergenceError as soon as f exceeds the guard or goes non-finite;
    records appended so far stay in the trace.
    """
    values = obj.check_point(w)
    if divergence_threshold is None:
        divergence_threshold = resolve_divergence_threshold(cfg, obj.full_value_at(values))
    layout = obj.layout
    d_x = layout.d_x
    for k, idx in enumerate(shuffle_permutation(rng, obj.n).tolist()):
        global_step = step_offset + k
        try:
            values = step(obj, values, idx, cfg, rng)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}, step {global_step}: {exc}") from exc
        f, g = obj.full_value_and_grad_at(values)
        trace.append(
            TraceRecord(epoch, global_step, f, _norm(g), _norm(g[:d_x]), _norm(g[d_x:]))
        )
        if snapshots is not None and snapshot_every > 0:
            if (global_step + 1) % snapshot_every == 0:
                snapshots.append((global_step + 1, HybridPoint(layout, values)))
        if not math.isfinite(f) or f > divergence_threshold:
            raise DivergenceError(epoch, global_step, f, HybridPoint(layout, values))
    return HybridPoint(layout, values)


@dataclass
class RunResult:
    """Outcome of a multi-epoch run.

    min_grad_sq is the minimum of ||grad f||^2 over the epoch-boundary
    iterates (the start point and the end of every completed epoch), the
    quantity the rate planner budgets for.  snapshots holds (steps taken,
    point) pairs when snapshotting was requested, starting with the start
    point at 0 steps.  divergence_threshold is the guard the run resolved.
    """

    point: HybridPoint
    trace: list
    epochs_completed: int
    diverged: bool
    divergence: DivergenceError | None
    min_grad_sq: float
    snapshots: list
    divergence_threshold: float


def run(
    obj: FiniteSumObjective,
    w0: HybridPoint,
    cfg: OptimizerConfig,
    rng: RngStream,
    *,
    snapshot_every: int = 0,
) -> RunResult:
    """cfg.epochs reshuffled epochs from w0; never raises on divergence.

    A divergence aborts the offending epoch and is returned in the result
    (point at the offending step, partial trace, report) so sweeps can record
    it per cell; the CLI maps it to its own exit code.
    """
    values = obj.check_point(w0)
    _check_int("snapshot_every", snapshot_every, 0)
    f0 = obj.full_value_at(values)
    if not math.isfinite(f0):
        raise NumericError("objective is non-finite at the start point")
    guard = resolve_divergence_threshold(cfg, f0)
    g0 = obj.full_grad_at(values)
    min_grad_sq = float(np.dot(g0, g0))
    trace: list[TraceRecord] = []
    snapshots: list[tuple[int, HybridPoint]] = [(0, w0)] if snapshot_every > 0 else []
    w = w0
    for epoch in range(cfg.epochs):
        try:
            w = run_epoch(
                obj,
                w,
                cfg,
                rng,
                trace,
                epoch=epoch,
                step_offset=epoch * obj.n,
                divergence_threshold=guard,
                snapshot_every=snapshot_every,
                snapshots=snapshots,
            )
        except DivergenceError as exc:
            return RunResult(
                point=exc.point,
                trace=trace,
                epochs_completed=epoch,
                diverged=True,
                divergence=exc,
                min_grad_sq=min_grad_sq,
                snapshots=snapshots,
                divergence_threshold=guard,
            )
        min_grad_sq = min(min_grad_sq, trace[-1].grad_norm ** 2)
    return RunResult(w, trace, cfg.epochs, False, None, min_grad_sq, snapshots, guard)


TRACE_HEADER = ("epoch", "step", "f", "grad_norm", "grad_norm_x", "grad_norm_y")


def write_trace_csv(records, path) -> None:
    """Write trace records as CSV with 17-significant-digit floats.

    Output bytes are a pure function of the records, so identical runs give
    identical files.
    """
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.epoch,
                    r.step,
                    fmt17(r.f_value),
                    fmt17(r.grad_norm),
                    fmt17(r.grad_norm_x),
                    fmt17(r.grad_norm_y),
                ]
            )
