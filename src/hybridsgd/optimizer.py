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

:func:`step` and :func:`run_epoch` belong to the raw-array layer, next to
the objectives' ``value_at`` and the estimator's ``estimate_block_gradient``:
each maps a float64 array to a new one and validates nothing.  :func:`run` is
the validated boundary: it checks its start point once, resolves the
divergence guard, steps on raw arrays, and builds a :class:`HybridPoint` only
for snapshots, the :class:`DivergenceError` point and the returned point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import (
    Block,
    HybridPoint,
    NumericError,
    RngStream,
    _check_int,
    _check_real,
    _check_type,
    _write_csv,
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
    "RunResult",
    "run",
]


class Mode(Enum):
    """Per-block update rule."""

    ZO = "zo"
    FO = "fo"
    FROZEN = "frozen"


@dataclass(frozen=True)
class LearningRates:
    """Non-negative per-block step sizes, stored as floats."""

    eta_x: float
    eta_y: float

    def __post_init__(self) -> None:
        for name in ("eta_x", "eta_y"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), allow_zero=True))


@dataclass(frozen=True)
class BlockMode:
    """Update rule per block; defaults to the hybrid pairing (x: ZO, y: FO)."""

    x_mode: Mode = Mode.ZO
    y_mode: Mode = Mode.FO

    def __post_init__(self) -> None:
        for name in ("x_mode", "y_mode"):
            _check_type(name, getattr(self, name), Mode)


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything a run needs except the objective, start point and stream;
    epochs and divergence_threshold are stored as checked (an int, a float)."""

    rates: LearningRates
    modes: BlockMode = BlockMode()
    zo: ZoConfig | None = None
    epochs: int = 1
    divergence_threshold: float | None = None

    def __post_init__(self) -> None:
        _check_type("rates", self.rates, LearningRates)
        _check_type("modes", self.modes, BlockMode)
        if Mode.ZO in (self.modes.x_mode, self.modes.y_mode) and not isinstance(self.zo, ZoConfig):
            raise ValueError("zo (mu, directions_per_step) is required when a block uses Mode.ZO")
        object.__setattr__(self, "epochs", _check_int("epochs", self.epochs))
        f = self.divergence_threshold
        if f is not None:  # +inf switches the guard off
            f = math.inf if f == math.inf else _check_real("divergence_threshold", f)
            object.__setattr__(self, "divergence_threshold", f)


class TraceRecord(NamedTuple):
    """Per-step log entry; metrics are full-objective quantities at the updated
    point, from the objective's full kernel, so grad_norm^2 == grad_norm_x^2 +
    grad_norm_y^2.  A tuple: one is built per step."""

    epoch: int
    step: int
    f_value: float
    grad_norm: float
    grad_norm_x: float
    grad_norm_y: float


class DivergenceError(RuntimeError):
    """The objective exceeded the divergence guard (or went non-finite).

    Raised by the raw :func:`run_epoch`; :func:`run` catches it and returns it
    as the divergence record of its :class:`RunResult`.
    """

    def __init__(self, epoch: int, step: int, f_value: float, point: HybridPoint):
        super().__init__(f"diverged at epoch {epoch}, step {step}: f = {f_value!r}")
        self.epoch = epoch
        self.step = step
        self.f_value = f_value
        self.point = point


def step(
    obj: FiniteSumObjective,
    values: np.ndarray,
    i: int,
    cfg: OptimizerConfig,
    rng: RngStream,
) -> np.ndarray:
    """Raw-array simultaneous update of both blocks from the incoming values.

    Inputs are assumed validated (run checks the start point once); returns
    a new array and never writes to values.  One per-block body runs over
    (x, x_mode, eta_x), then (y, y_mode, eta_y), reading both directions at the
    incoming values: ZO draws come from rng x first, so a replay with an equal
    stream reproduces the step bit for bit.  The FO gradient is evaluated at
    most once and shared by the two blocks; a frozen block is copied unchanged.
    """
    d_x = obj.layout.d_x
    modes, rates = cfg.modes, cfg.rates
    grad = None
    new_values = values.copy()
    for block, sl, mode, eta in ((Block.X, slice(0, d_x), modes.x_mode, rates.eta_x),
                                 (Block.Y, slice(d_x, None), modes.y_mode, rates.eta_y)):
        if mode is Mode.FO:
            if grad is None:
                grad = obj.grad_at(values, i)
            new_values[sl] -= eta * grad[sl]
        elif mode is Mode.ZO:
            new_values[sl] -= eta * estimate_block_gradient(obj, values, i, cfg.zo, rng, block)
    if not np.isfinite(new_values).all():
        raise NumericError(f"non-finite update from sample {i}")
    return new_values


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a 1-d float array is sqrt(v . v); the same bits,
    # without its per-call dispatch on ord and axis
    return math.sqrt(v.dot(v))


def run_epoch(
    obj: FiniteSumObjective,
    values: np.ndarray,
    cfg: OptimizerConfig,
    rng: RngStream,
    epoch: int,
    guard: float,
    trace: list,
    snapshots: list,
    snapshot_every: int,
) -> np.ndarray:
    """One reshuffled pass over all n samples: run's per-epoch body, on raw arrays.

    Validates nothing: values is a checked float64 array and guard the run's
    resolved divergence threshold.  Appends one TraceRecord per step (metrics
    at the updated point) and, when snapshot_every > 0, a (steps taken,
    HybridPoint) pair to snapshots every snapshot_every steps.  Returns the
    values after the epoch.  Raises DivergenceError as soon as f exceeds the
    guard or goes non-finite; records appended so far stay in the trace.
    """
    layout = obj.layout
    d_x = layout.d_x
    for global_step, idx in enumerate(shuffle_permutation(rng, obj.n).tolist(), epoch * obj.n):
        try:
            values = step(obj, values, idx, cfg, rng)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}, step {global_step}: {exc}") from exc
        fs, gs = obj.full_values_and_grads_at_points(values[None])
        f, g = float(fs[0]), gs[0]
        trace.append(
            TraceRecord(epoch, global_step, f, _norm(g), _norm(g[:d_x]), _norm(g[d_x:]))
        )
        if snapshot_every and (global_step + 1) % snapshot_every == 0:
            snapshots.append((global_step + 1, HybridPoint(layout, values)))
        if not math.isfinite(f) or f > guard:
            raise DivergenceError(epoch, global_step, f, HybridPoint(layout, values))
    return values


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

    The divergence guard is cfg.divergence_threshold if set, else
    max(1e6 * |f(w0)|, 1e6).  A divergence aborts the offending epoch and is
    returned in the result (point at the offending step, partial trace,
    report) so sweeps can record it per cell; the CLI maps it to its own exit
    code.
    """
    values = obj.check_point(w0)
    _check_int("snapshot_every", snapshot_every, 0)
    f0 = obj.full_value_at(values)
    if not math.isfinite(f0):
        raise NumericError("objective is non-finite at the start point")
    guard = cfg.divergence_threshold
    guard = max(1e6 * abs(f0), 1e6) if guard is None else guard
    g0 = obj.full_grad_at(values)
    min_grad_sq = float(np.dot(g0, g0))
    trace: list[TraceRecord] = []
    snapshots: list[tuple[int, HybridPoint]] = [(0, w0)] if snapshot_every > 0 else []
    for epoch in range(cfg.epochs):
        try:
            values = run_epoch(obj, values, cfg, rng, epoch, guard, trace, snapshots, snapshot_every)
        except DivergenceError as exc:
            return RunResult(exc.point, trace, epoch, True, exc, min_grad_sq, snapshots, guard)
        min_grad_sq = min(min_grad_sq, trace[-1].grad_norm ** 2)
    point = HybridPoint(obj.layout, values)
    return RunResult(point, trace, cfg.epochs, False, None, min_grad_sq, snapshots, guard)


TRACE_HEADER = ("epoch", "step", "f", "grad_norm", "grad_norm_x", "grad_norm_y")


def write_trace_csv(records, path) -> None:
    """Write trace records as CSV with 17-significant-digit floats.

    Output bytes are a pure function of the records, so identical runs give
    identical files.
    """
    _write_csv(path, TRACE_HEADER, "%d,%d,%.17g,%.17g,%.17g,%.17g\n", records)
