"""Reshuffled per-sample SGD with independent per-block update rules.

Each epoch draws a fresh uniform permutation of the sample indices and takes
one step per sample, strictly in permutation order.  A step evaluates both
block directions at the incoming point and then moves both blocks at once,
so neither block sees the other's update within the step.  One
:class:`OptimizerConfig` holds each block's step size and update rule:

* ``Mode.ZO``     two-point Gaussian estimate (objective values only),
* ``Mode.FO``     exact analytic per-sample gradient,
* ``Mode.FROZEN`` block copied bit for bit.

The default pairing (x zeroth-order, y first-order) is the hybrid scheme;
(FO, FO), (ZO, ZO) and (FROZEN, FO) express the standard baselines.

:func:`step` and :func:`run_epoch` belong to the raw-array layer, next to
the objectives' ``value_at`` and the estimator's ``estimate_block_gradient``:
each maps a float64 array to a new one and validates nothing.  :func:`run` is
the validated boundary: it checks its config, stream and start point once,
resolves the divergence guard, steps on raw arrays, and builds a
:class:`HybridPoint` only for snapshots and the result.

The trace is read in row blocks of steps that cross epochs, one full-kernel call a
block.  A block that would print, raise or trip the guard is replayed step by step,
so a run prints, raises and stops as a step-by-step loop does (see :func:`run_epoch`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .core import (Block, HybridPoint, NumericError, RngStream, _check_int, _check_real, _check_type, _norm,
                   _write_csv, sample_gaussian, shuffle_permutation)
from .estimator import ZoConfig, _underflows, estimate_block_gradient
from .objectives import FiniteSumObjective, _block_rows

__all__ = [
    "Mode",
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
class OptimizerConfig:
    """Everything a run needs except the objective, start point and stream: a step size
    >= 0 and an update rule per block (by default the hybrid pairing, x: ZO, y: FO);
    rates, epochs and divergence_threshold are stored as checked (floats, an int)."""

    eta_x: float
    eta_y: float
    x_mode: Mode = Mode.ZO
    y_mode: Mode = Mode.FO
    zo: ZoConfig | None = None
    epochs: int = 1
    divergence_threshold: float | None = None

    def __post_init__(self) -> None:
        for name in ("eta_x", "eta_y"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), allow_zero=True))
        for name in ("x_mode", "y_mode"):
            _check_type(name, getattr(self, name), Mode)
        if self.zo is not None:
            _check_type("zo", self.zo, ZoConfig)
        elif Mode.ZO in (self.x_mode, self.y_mode):
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


def step(obj: FiniteSumObjective, values: np.ndarray, i: int, cfg: OptimizerConfig,
         rng: RngStream, drawn: Iterator | None = None) -> np.ndarray:
    """Raw-array simultaneous update of both blocks from the incoming values.

    Inputs are assumed validated (run checks the start point once); returns
    a new array and never writes to values.  One per-block body runs over
    (x, x_mode, eta_x), then (y, y_mode, eta_y), reading both directions at the
    incoming values: ZO draws come from rng x first, so a replay with an equal
    stream reproduces the step bit for bit.  The FO gradient is evaluated at
    most once and shared by the two blocks; a frozen block is copied unchanged.
    Given drawn, a trace block's iterator of (directions, mu * directions) pairs,
    each ZO block takes its next pair and the update is left to the block to check.
    """
    d_x = obj.layout.d_x
    grad = None
    new_values = values.copy()
    for block, sl, mode, eta in ((Block.X, slice(0, d_x), cfg.x_mode, cfg.eta_x),
                                 (Block.Y, slice(d_x, None), cfg.y_mode, cfg.eta_y)):
        if mode is Mode.FO:
            if grad is None:
                grad = obj.grad_at(values, i)
            new_values[sl] -= eta * grad[sl]
        elif mode is Mode.ZO:
            pair = None if drawn is None else next(drawn)
            new_values[sl] -= eta * estimate_block_gradient(obj, values, i, cfg.zo, rng, block, pair)
    if drawn is None and not np.isfinite(new_values).all():
        raise NumericError(f"non-finite update from sample {i}")
    return new_values


def run_epoch(obj: FiniteSumObjective, values: np.ndarray, cfg: OptimizerConfig, rng: RngStream, epochs: int,
              guard: float, trace: list, snapshots: list, snapshot_every: int) -> tuple[np.ndarray, bool]:
    """epochs reshuffled passes over all n samples from values: run's body, on raw arrays.

    Validates nothing: values is a checked float64 array and guard the run's resolved
    divergence threshold.  Appends, and never removes, one TraceRecord per step (metrics
    at the updated point) and, when snapshot_every > 0, a (steps taken, HybridPoint)
    pair to snapshots every snapshot_every steps.  Returns the last values and False, or
    stops at the first step whose f exceeds the guard or goes non-finite and returns the
    values after it and True; that step's record is the trace's last.

    A block is a slice of the run's step index k and may cross epoch boundaries: step k
    draws epoch k // n's permutation when k % n == 0, as the step-by-step loop does.  A
    block from step k holds min(``_block_rows(obj._full_row_cost())``, the steps left,
    max(n, k)) rows.  It takes its steps through :func:`step`, reads their trace rows from
    one full-kernel call (each with the bits of a one-row call) and commits all of them or
    none: one ``_norm`` each for g, its x block and its y block, and one extend of the
    trace and of the snapshots.  A step checks its two-point values and update for
    non-finite values and warns if a ZO direction underflows.  A block of more than one
    row runs first speculatively, under an ``np.errstate`` in which the numpy errors the
    caller does not ignore raise; there it hands its steps its draws, so they skip those
    checks, and it makes them once, before its kernel call: every point is finite (a
    non-finite two-point value makes its step's point so, or a numpy error raises first)
    and no step ``_underflows``.  The draws are one ``sample_gaussian(rng, m, q * width)``
    per epoch segment of m steps (width the ZO blocks' summed dimension, x's columns
    first), called when its first step asks, after the epoch's permutation, so in the
    loop's stream order and bits.  A segment ends at the block end, the epoch end or
    ``_block_rows(q * width)`` steps.  If it raises there, fails a check or trips the
    guard, it has committed nothing: the stream state and the permutation of the epoch
    in progress are restored, and it is replayed as blocks of one row under the caller's
    error state, the step-by-step loop.  So step runs once per committed step plus once per
    step of a replayed block: a run that trips calls it at most len(trace) + max(n,
    len(trace)) times.  A row cost over ``_ROW_BUDGET`` gives blocks of one row and no
    speculation.
    """
    n, layout, d_x = obj.n, obj.layout, obj.layout.d_x
    q = cfg.zo.directions_per_step if cfg.zo else 0
    zo, columns = [], 0  # each ZO block's slice and its q * dim columns in a step's draws, x's before y's
    for sl, mode in ((slice(0, d_x), cfg.x_mode), (slice(d_x, layout.d), cfg.y_mode)):
        if mode is Mode.ZO:
            zo.append((sl, slice(columns, columns + q * (sl.stop - sl.start))))
            columns = zo[-1][1].stop
    order = []  # the permutation of the epoch in progress

    def draws(rows: range, segments: list):
        """Each ZO step's (directions, mu * directions) over rows, in stream order: one (m, columns) draw per
        epoch segment of m <= _block_rows(columns) steps, made when its first step asks, and kept in segments."""
        k, cap = rows.start, _block_rows(columns)
        while k < rows.stop:
            m = min(rows.stop, k + cap, (k // n + 1) * n) - k
            segments.append(segment := sample_gaussian(rng, m, columns))
            shifts = cfg.zo.mu * segment
            pairs = [(segment[:, cols].reshape(m, q, -1), shifts[:, cols].reshape(m, q, -1)) for _, cols in zo]
            for r in range(m):
                for directions, shifted in pairs:
                    yield directions[r], shifted[r]
            k += m

    def block(rows: range, values: np.ndarray) -> tuple[np.ndarray, bool]:
        nonlocal order
        drawn = draws(rows, segments := []) if len(rows) > 1 else None  # given it, the steps skip their checks
        points = [values]
        for k in rows:
            if k % n == 0:
                order = shuffle_permutation(rng, n).tolist()
            try:
                values = step(obj, values, order[k % n], cfg, rng, drawn)
            except NumericError as exc:
                raise NumericError(f"epoch {k // n}, step {k}: {exc}") from exc
            points.append(values)
        stacked = np.array(points)  # the incoming point, then each step's
        if drawn is not None:  # the checks that the steps skipped, once for the block: a failure replays it
            if not np.isfinite(stacked[1:]).all():
                return values, True
            for sl, cols in zo:
                directions = np.concatenate([segment[:, cols] for segment in segments]).reshape(len(rows), q, -1)
                if _underflows(cfg.zo.mu, directions, stacked[:-1, sl]).any():
                    return values, True
        fs, gs = obj.full_values_and_grads_at_points(stacked[1:])
        fs = fs.tolist()
        diverged = any(not math.isfinite(f) or f > guard for f in fs)
        if diverged and drawn is not None:  # commits nothing: the caller replays it step by step
            return values, True
        norms = (_norm(a).tolist() for a in (gs, gs[:, :d_x], gs[:, d_x:]))
        trace.extend(map(TraceRecord, [k // n for k in rows], rows, fs, *norms))
        if snapshot_every:
            snapshots.extend((k + 1, HybridPoint(layout, p)) for k, p in zip(rows, points[1:])
                             if (k + 1) % snapshot_every == 0)
        return values, diverged

    raising = {k: v if v == "ignore" else "raise" for k, v in np.geterr().items()}
    rows_max, total, start = _block_rows(obj._full_row_cost()), epochs * n, 0
    while start < total:
        rows = range(start, min(total, start + rows_max, start + max(n, start)))
        start = rows.stop
        if len(rows) > 1:
            state, epoch_order = rng.generator.bit_generator.state, order
            try:
                with np.errstate(**raising):
                    after, diverged = block(rows, values)
                if not diverged:
                    values = after
                    continue
            except Exception:  # the replay raises it again if the step-by-step loop reaches it
                pass
            rng.generator.bit_generator.state, order = state, epoch_order
        for k in rows:
            values, diverged = block(range(k, k + 1), values)
            if diverged:
                return values, True
    return values, False


@dataclass
class RunResult:
    """Outcome of a multi-epoch run.

    min_grad_sq is the minimum of grad_norm^2, a trace row's norm of the full
    kernel's gradient, over the epoch-boundary iterates (the start point and the
    end of every completed epoch), the quantity the rate planner budgets for.
    snapshots holds (steps taken, point) pairs when snapshotting was requested,
    starting with the start point at 0 steps.  divergence_threshold is the guard
    the run resolved.  A diverged run's trace ends at the offending step; point
    is the iterate after it.
    """

    point: HybridPoint
    trace: list
    epochs_completed: int
    diverged: bool
    min_grad_sq: float
    snapshots: list
    divergence_threshold: float


def run(obj: FiniteSumObjective, w0: HybridPoint, cfg: OptimizerConfig, rng: RngStream, *,
        snapshot_every: int = 0) -> RunResult:
    """cfg.epochs reshuffled epochs from w0; never raises on divergence.

    The divergence guard is cfg.divergence_threshold if set, else max(1e6 * |f(w0)|,
    1e6), f(w0) from the kernel's start row.  A divergence aborts the offending epoch
    and is returned in the result (diverged, point after the offending step, partial
    trace) so sweeps can record it per cell; the CLI maps it to its own exit code.
    """
    _check_type("cfg", cfg, OptimizerConfig)
    _check_type("rng", rng, RngStream)
    values = obj.check_point(w0)
    _check_int("snapshot_every", snapshot_every, 0)
    fs, gs = obj.full_values_and_grads_at_points(values[None])  # the start row: f0 and g0
    f0 = float(fs[0])
    if not math.isfinite(f0):
        raise NumericError("objective is non-finite at the start point")
    guard = cfg.divergence_threshold
    guard = max(1e6 * abs(f0), 1e6) if guard is None else guard
    min_grad_sq = _norm(gs).tolist()[0] ** 2  # an epoch end's formula: its trace row's grad_norm squared
    trace: list[TraceRecord] = []
    snapshots: list[tuple[int, HybridPoint]] = [(0, w0)] if snapshot_every > 0 else []
    values, diverged = run_epoch(obj, values, cfg, rng, cfg.epochs, guard, trace, snapshots, snapshot_every)
    for record in trace[obj.n - 1:len(trace) - diverged:obj.n]:  # the epoch ends, less a tripping step
        min_grad_sq = min(min_grad_sq, record.grad_norm ** 2)
    completed = trace[-1].epoch if diverged else cfg.epochs
    return RunResult(HybridPoint(obj.layout, values), trace, completed, diverged, min_grad_sq, snapshots, guard)


TRACE_HEADER = ("epoch", "step", "f", "grad_norm", "grad_norm_x", "grad_norm_y")


def write_trace_csv(records, path) -> None:
    """Write trace records as CSV with 17-significant-digit floats.

    Output bytes are a pure function of the records, so identical runs give
    identical files.
    """
    _write_csv(path, TRACE_HEADER, "%d,%d,%.17g,%.17g,%.17g,%.17g\n", records)
