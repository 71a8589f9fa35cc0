"""Batched kernels and the raw-array step loop against their references.

Each workload is run twice: with the objective as built, and with the same
objective built as a subclass whose batched pair (``values_at_points``/
``grads_at_points``) is reset to the :class:`FiniteSumObjective` loop over
``value_at``/``grad_at``.  Every run reads the pair in both selector forms: a
sample index for the estimator's directions and ``ALL`` for the start point
and the full objective.  Both runs keep the family's full-objective kernel
(``full_values_and_grads_at_points``), whose closed forms are checked against
the base-class loop within a bound in ``test_objectives``.  The
optimizer's raw-array loop is run against a reference loop that validates
its inputs and builds a HybridPoint on every step, with the estimator's rows
summed one by one into a zero accumulator.  The oracle's batched central
differences are run against the per-coordinate loop they replaced, with the
objective's own per-point full_value_at/full_grad_at and value_at, and the
gradient check against one fd_gradient per target, the full objective's held to
its kernel row as in production.
Traces, final iterates, run results and output files must agree bit for bit,
so the check holds on any BLAS build without hard-coded hashes.
"""
import collections
import contextlib
import dataclasses
import inspect
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from hybridsgd import (
    BlockLayout,
    FiniteSumObjective,
    HybridPoint,
    LinearObjective,
    Mode,
    OptimizerConfig,
    ProbeConfig,
    RngStream,
    ZoConfig,
    estimate_constants,
    objective_from_dict,
    run,
    sample_gaussian,
)
from hybridsgd import estimator, objectives, optimizer, oracle
from hybridsgd.cli import main
from hybridsgd.core import Block, NumericError, _check_int, _shifted_rows, shuffle_permutation
from hybridsgd.estimator import PerturbationUnderflowWarning, _two_point_rows, estimate_block_gradient
from hybridsgd.optimizer import RunResult, TraceRecord
from conftest import OffsetObjective

FAMILIES = (
    objectives.BlockQuadratic,
    objectives.CoshObjective,
    objectives.LogisticObjective,
    objectives.LinearObjective,
    objectives.DenseQuadratic,
)

LOGISTIC = {"kind": "logistic", "d_x": 4, "d_y": 3, "n": 25, "lam": 0.01, "seed": 11}
COSH = {"kind": "cosh", "d_x": 2, "d_y": 2, "n": 4, "seed": 12, "shift_spread": 0.3}
DENSE = {"kind": "dense_quadratic", "d_x": 3, "d_y": 2, "n": 3, "seed": 13,
         "center_scale": 1.0}
HYBRID = {"modes": {"x": "zo", "y": "fo"}, "zo": {"mu": 1e-3, "directions_per_step": 2},
          "init": {"kind": "gaussian", "scale": 1.0}, "seed": 5}


PAIR = ("values_at_points", "grads_at_points")
BATCHED_KERNELS = (*PAIR, "full_values_and_grads_at_points")


def _looped(cls):
    return type(f"Looped{cls.__name__}", (cls,),
                {name: getattr(FiniteSumObjective, name) for name in PAIR})


def test_every_family_overrides_all_batched_kernels_or_none():
    families = [
        cls for _, cls in inspect.getmembers(objectives, inspect.isclass)
        if issubclass(cls, FiniteSumObjective) and cls is not FiniteSumObjective
    ]
    assert set(families) == set(FAMILIES)
    for cls in families:
        overridden = {name for name in BATCHED_KERNELS
                      if getattr(cls, name) is not getattr(FiniteSumObjective, name)}
        assert overridden in (set(), set(BATCHED_KERNELS)), (cls.__name__, overridden)


@pytest.fixture
def per_sample_loop(monkeypatch):
    """A context in which objective_from_dict builds every family with the base
    loop as its batched pair."""

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as patch:
            for cls in FAMILIES:
                patch.setattr(objectives, cls.__name__, _looped(cls))
            yield

    return context


def _both(spec, per_sample_loop):
    batched = objective_from_dict(spec)
    with per_sample_loop():
        looped = objective_from_dict(spec)
    for name in BATCHED_KERNELS:
        assert getattr(type(batched), name) is not getattr(FiniteSumObjective, name)
        assert (getattr(type(looped), name) is getattr(FiniteSumObjective, name)) == (name in PAIR)
    return batched, looped


def _assert_same_run(a, b):
    # repr keeps every bit of a float and compares nan equal to nan
    assert repr(a.trace) == repr(b.trace)
    assert np.array_equal(a.point.values, b.point.values)
    assert (a.epochs_completed, a.diverged, repr(a.min_grad_sq)) == (
        b.epochs_completed, b.diverged, repr(b.min_grad_sq)
    )
    assert [k for k, _ in a.snapshots] == [k for k, _ in b.snapshots]
    for (_, p), (_, q) in zip(a.snapshots, b.snapshots):
        assert np.array_equal(p.values, q.values)
    assert repr(a.divergence_threshold) == repr(b.divergence_threshold)


def _cli(tmp_path, name, command, cfg, capsys):
    folder = tmp_path / name
    folder.mkdir()
    cfg_path = folder / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main([*command, "--config", str(cfg_path), "--out", str(folder / "out")])
    stdout = capsys.readouterr().out.replace(str(folder), "<dir>")
    files = {p.name: p.read_bytes() for p in sorted(folder.iterdir()) if p.name != "config.json"}
    return code, stdout, files


def _assert_same_cli(tmp_path, command, cfg, capsys, per_sample_loop):
    batched = _cli(tmp_path, "batched", command, cfg, capsys)
    with per_sample_loop():
        looped = _cli(tmp_path, "looped", command, cfg, capsys)
    assert batched == looped
    return batched


def _hybrid_config(eta_x, eta_y, epochs):
    return OptimizerConfig(
        eta_x, eta_y, Mode.ZO, Mode.FO,
        zo=ZoConfig(mu=1e-3, directions_per_step=2),
        epochs=epochs,
    )


def test_logistic_run_matches_per_sample_loop(tmp_path, capsys, per_sample_loop):
    batched, looped = _both(LOGISTIC, per_sample_loop)
    w0 = HybridPoint(batched.layout, sample_gaussian(RngStream(5, 1), batched.layout.d))
    results = [
        run(obj, w0, _hybrid_config(0.05, 0.1, 2), RngStream(5, 7), snapshot_every=10)
        for obj in (batched, looped)
    ]
    assert len(results[0].trace) == 2 * 25 and not results[0].diverged
    _assert_same_run(*results)

    cfg = {"objective": LOGISTIC, "rates": {"eta_x": 0.05, "eta_y": 0.1}, "epochs": 2, **HYBRID}
    code, stdout, files = _assert_same_cli(tmp_path, ["run"], cfg, capsys, per_sample_loop)
    assert code == 0 and "final_f=" in stdout
    assert set(files) == {"out", "out.meta.json"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cosh_sweep_with_diverging_cell_matches_per_sample_loop(
    tmp_path, capsys, per_sample_loop
):
    batched, looped = _both(COSH, per_sample_loop)
    w0 = HybridPoint(batched.layout, sample_gaussian(RngStream(5, 1), batched.layout.d))
    diverged = []
    for eta_y in (0.1, 2.5):
        results = [run(obj, w0, _hybrid_config(0.05, eta_y, 5), RngStream(5, 7))
                   for obj in (batched, looped)]
        _assert_same_run(*results)
        diverged.append(results[0].diverged)
    assert diverged == [False, True]

    cfg = {"objective": COSH, "eta_x_grid": [0.05, 0.4], "eta_y_grid": [0.1, 2.5],
           "epochs": 5, "f_target": 4.5, **HYBRID}
    code, _, files = _assert_same_cli(tmp_path, ["sweep"], cfg, capsys, per_sample_loop)
    assert code == 0
    rows = files["out"].decode("utf-8").splitlines()[1:]
    assert [row.split(",")[3] for row in rows].count("true") >= 1


def test_dense_quadratic_plan_estimate_matches_per_sample_loop(
    tmp_path, capsys, per_sample_loop
):
    batched, looped = _both(DENSE, per_sample_loop)
    rng = RngStream(6, 1)
    points = [HybridPoint(batched.layout, sample_gaussian(rng, batched.layout.d))
              for _ in range(2)]
    constants = [
        estimate_constants(obj, ProbeConfig(h=1e-5, probes=20), points, RngStream(6, 3),
                           f_star=0.0)
        for obj in (batched, looped)
    ]
    assert repr(constants[0]) == repr(constants[1])

    cfg = {"objective": DENSE, "probe": {"probes": 20},
           "points": {"kind": "gaussian", "count": 2, "scale": 1.0},
           "f_star": 0.0, "T": 100, "seed": 6}
    code, stdout, files = _assert_same_cli(
        tmp_path, ["plan", "--estimate"], cfg, capsys, per_sample_loop
    )
    assert code == 0 and "constants:" in stdout


# -- the raw-array step loop against a validating reference loop ------------


def _reference_block_estimate(obj, values, i, zo, rng, block):
    """The estimator's mean with its rows added one by one to np.zeros."""
    q, sl = zo.directions_per_step, obj.layout.slice_of(block)
    directions = sample_gaussian(rng, q * (sl.stop - sl.start)).reshape(q, -1)
    acc = np.zeros(directions.shape[1])
    for row in _two_point_rows(obj, values, i, zo.mu, directions, sl):
        acc += row
    return acc / q


def _reference_step(obj, w, i, cfg, rng):
    """A step that checks its inputs and returns a new HybridPoint."""
    values = obj.check_point(w)
    i = _check_int("i", i, 0, obj.n - 1)
    layout = obj.layout
    full_grad = None

    def fo_gradient():
        nonlocal full_grad
        if full_grad is None:
            full_grad = obj.grad_at(values, i)
        return full_grad

    def direction(block, mode):
        if mode is Mode.FROZEN:
            return None
        if mode is Mode.FO:
            return fo_gradient()[layout.slice_of(block)]
        return _reference_block_estimate(obj, values, i, cfg.zo, rng, block)

    x_dir = direction(Block.X, cfg.x_mode)
    y_dir = direction(Block.Y, cfg.y_mode)
    new_values = values.copy()
    if x_dir is not None:
        new_values[: layout.d_x] -= cfg.eta_x * x_dir
    if y_dir is not None:
        new_values[layout.d_x :] -= cfg.eta_y * y_dir
    if not np.all(np.isfinite(new_values)):
        raise NumericError(f"non-finite update from sample {i}")
    return HybridPoint(layout, new_values)


def _vecdot_norm(v):
    """np.linalg.norm(v)'s bits (test_optimizer checks that), warning "in vecdot" on overflow as the trace does."""
    return float(np.sqrt(np.vecdot(v, v)))


def _reference_run(obj, w0, cfg, rng, snapshot_every=0):
    """run() driven by _reference_step, one HybridPoint per step."""
    f0 = obj.eval_full(w0)
    guard = cfg.divergence_threshold
    guard = max(1e6 * abs(f0), 1e6) if guard is None else float(guard)
    min_grad_sq = _vecdot_norm(obj.grad_full(w0)) ** 2
    d_x = obj.layout.d_x
    trace, snapshots = [], [(0, w0)] if snapshot_every > 0 else []
    w = w0
    for epoch in range(cfg.epochs):
        for k, idx in enumerate(shuffle_permutation(rng, obj.n)):
            global_step = epoch * obj.n + k
            try:
                w = _reference_step(obj, w, int(idx), cfg, rng)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, step {global_step}: {exc}") from exc
            fs, gs = obj.full_values_and_grads_at_points(w.values[None])
            f, g = float(fs[0]), gs[0]
            norms = (_vecdot_norm(v) for v in (g, g[:d_x], g[d_x:]))
            trace.append(TraceRecord(epoch, global_step, f, *norms))
            if snapshot_every > 0 and (global_step + 1) % snapshot_every == 0:
                snapshots.append((global_step + 1, w))
            if not np.isfinite(f) or f > guard:
                return RunResult(w, trace, epoch, True, min_grad_sq, snapshots, guard)
        min_grad_sq = min(min_grad_sq, trace[-1].grad_norm ** 2)
    return RunResult(w, trace, cfg.epochs, False, min_grad_sq, snapshots, guard)


def test_block_estimate_sums_rows_in_order_from_positive_zero():
    # Zero x slopes make every x row +-0.0, and a sum started at +0.0 is +0.0;
    # with one-coordinate blocks and q = 12 a pairwise sum would round
    # differently from the in-order one.
    slopes = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, -2.0]])
    linear = LinearObjective(BlockLayout(2, 1), slopes)
    cosh = objective_from_dict({"kind": "cosh", "d_x": 1, "d_y": 1, "n": 2, "seed": 24})
    at = np.array([0.5, -0.5, 2.0])
    for obj, values in ((linear, at), (cosh, np.array([0.3, -0.8]))):
        for q, stream in itertools.product((1, 3, 12), range(10)):
            zo = ZoConfig(mu=1e-2, directions_per_step=q)
            for block in (Block.X, Block.Y):
                got = estimate_block_gradient(obj, values, 1, zo, RngStream(24, stream), block)
                want = _reference_block_estimate(obj, values, 1, zo, RngStream(24, stream), block)
                assert got.tobytes() == want.tobytes(), (type(obj).__name__, q, stream, block)
    zero = estimate_block_gradient(linear, at, 0, ZoConfig(mu=1e-2, directions_per_step=3),
                                   RngStream(25, 1), Block.X)
    assert np.array_equal(zero, [0.0, 0.0]) and not np.signbit(zero).any()


FAMILY_SPECS = {
    "block_quadratic": {"kind": "block_quadratic", "a_x": 4.0, "a_y": 1.0,
                        "center_spread": 0.5},
    "cosh": {"kind": "cosh", "shift_spread": 0.3},
    "logistic": {"kind": "logistic", "lam": 0.01},
    "linear": {"kind": "linear"},
    "dense_quadratic": {"kind": "dense_quadratic", "center_scale": 1.0},
}
PAIRINGS = {
    "zo-fo": (Mode.ZO, Mode.FO),
    "fo-fo": (Mode.FO, Mode.FO),
    "zo-zo": (Mode.ZO, Mode.ZO),
    "frozen-fo": (Mode.FROZEN, Mode.FO),
    "fo-frozen": (Mode.FO, Mode.FROZEN),
}


def _assert_run_matches_reference(obj, w0, cfg, seed, snapshot_every=0):
    result = run(obj, w0, cfg, RngStream(seed, 2), snapshot_every=snapshot_every)
    reference = _reference_run(obj, w0, cfg, RngStream(seed, 2), snapshot_every)
    _assert_same_run(result, reference)
    return result


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
@pytest.mark.parametrize("kind", sorted(FAMILY_SPECS))
def test_raw_step_loop_matches_validating_reference(kind, pairing):
    obj = objective_from_dict({**FAMILY_SPECS[kind], "d_x": 3, "d_y": 2, "n": 5, "seed": 21})
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(21, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 0.05, *PAIRINGS[pairing],
                          zo=ZoConfig(mu=1e-3, directions_per_step=3), epochs=3)
    result = _assert_run_matches_reference(obj, w0, cfg, 21, snapshot_every=4)
    assert len(result.trace) == 15 and len(result.snapshots) == 4


def test_raw_step_loop_matches_reference_with_one_coordinate_blocks_and_q12():
    # With dim 1 and q >= 8 a reduce over the rows would sum pairwise; the
    # estimator must still add its q rows in draw order.
    obj = objective_from_dict({"kind": "cosh", "d_x": 1, "d_y": 1, "n": 4, "seed": 22,
                               "shift_spread": 0.5})
    w0 = HybridPoint(obj.layout, [0.7, -1.3])
    for modes in (PAIRINGS["zo-fo"], PAIRINGS["zo-zo"]):
        cfg = OptimizerConfig(0.05, 0.05, *modes,
                              zo=ZoConfig(mu=1e-2, directions_per_step=12), epochs=4)
        _assert_run_matches_reference(obj, w0, cfg, 22, snapshot_every=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_raw_step_loop_matches_reference_when_diverging():
    obj = objective_from_dict(COSH)
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(5, 1), obj.layout.d))
    result = _assert_run_matches_reference(obj, w0, _hybrid_config(0.05, 2.5, 5), 23,
                                           snapshot_every=2)
    assert result.diverged and result.epochs_completed < 5
    # a non-finite update raises the same NumericError from both loops
    cfg = _hybrid_config(0.05, 1e308, 1)
    messages = []
    for run_fn in (run, _reference_run):
        with pytest.raises(NumericError) as info:
            run_fn(obj, w0, cfg, RngStream(23, 2))
        messages.append(str(info.value))
    assert messages[0] == messages[1] and messages[0].startswith("epoch 0, step 0: ")


# -- the trace in row blocks against the step-by-step loop ------------------


def _set_block_rows(monkeypatch, obj, rows):
    """Make _row_blocks give blocks of `rows` trace rows (rows = 0: a row cost over the budget)."""
    monkeypatch.setattr(objectives, "_ROW_BUDGET", max(1, rows * obj._full_row_cost() - (rows == 0)))


def _observed(run_fn, obj, w0, cfg, seed, **kwargs):
    """run_fn's result, or {"error": (type, message)} for the error it raised, the stream
    state after it, and the warnings it issued under simplefilter("always"): (category,
    message, filename, line), in order."""
    rng = RngStream(seed, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run_fn(obj, w0, cfg, rng, **kwargs)
            outcome = {"trace": repr(result.trace), "steps": [r.step for r in result.trace],
                       "point": result.point.values.tobytes(), "epochs": result.epochs_completed,
                       "diverged": result.diverged, "min_grad_sq": repr(result.min_grad_sq),
                       "guard": repr(result.divergence_threshold),
                       "snapshots": [(k, p.values.tobytes()) for k, p in result.snapshots]}
        except (NumericError, FloatingPointError) as exc:
            outcome = {"error": (type(exc), str(exc))}
    return outcome, repr(rng.generator.bit_generator.state), [
        (w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, seed, block_rows, **kwargs):
    """run with each block size equals run with blocks of one row in every observed
    detail, and _reference_run in all but the warnings' locations; returns the one-row
    outcome and warnings, and the rows of each full-kernel call per block size."""
    _set_block_rows(monkeypatch, obj, 0)
    one_row = _observed(run, obj, w0, cfg, seed, **kwargs)
    outcome, state, caught = _observed(_reference_run, obj, w0, cfg, seed, **kwargs)
    assert one_row[:2] == (outcome, state)
    assert [w[:2] for w in one_row[2]] == [w[:2] for w in caught]
    kernel_rows = {}
    kernel = obj.full_values_and_grads_at_points
    for rows in block_rows:
        kernel_rows[rows] = []

        def counted(points, calls=kernel_rows[rows]):
            calls.append(len(points))
            return kernel(points)

        _set_block_rows(monkeypatch, obj, rows)
        with monkeypatch.context() as patch:
            patch.setattr(obj, "full_values_and_grads_at_points", counted)
            assert _observed(run, obj, w0, cfg, seed, **kwargs) == one_row, rows
    return one_row[0], one_row[2], kernel_rows


BLOCK_PAIRINGS = ("zo-fo", "fo-fo", "zo-zo", "frozen-fo")


@pytest.mark.parametrize("pairing", BLOCK_PAIRINGS)
@pytest.mark.parametrize("kind", [*sorted(FAMILY_SPECS), "offset"])
def test_trace_in_row_blocks_matches_step_by_step_loop(monkeypatch, kind, pairing):
    # budgets of 1, 2, 3, n - 1, n, n + 2 and 16 rows over 4 epochs of n = 5 steps; "offset"
    # writes only value_at/grad_at
    obj = _oracle_objective(kind, 5, 28)
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(28, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 0.05, *PAIRINGS[pairing],
                          zo=ZoConfig(mu=1e-3, directions_per_step=3), epochs=4)
    outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(
        monkeypatch, obj, w0, cfg, 28, (1, 2, 3, 4, 5, 7, 16), snapshot_every=4)
    assert (outcome["epochs"], outcome["diverged"], caught) == (4, False, [])
    # the start row's one-row call, then the blocks of the run's 20 steps: a block starting at step k
    # holds min(budget, steps left, max(n, k)) rows, across epoch boundaries
    assert kernel_rows == {1: [1] + [1] * 20, 2: [1] + [2] * 10, 3: [1] + [3] * 6 + [2], 4: [1] + [4] * 5,
                           5: [1] + [5] * 4, 7: [1, 5, 5, 7, 3], 16: [1, 5, 5, 10]}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # cosh's gradient norm overflows at 1e3
@pytest.mark.parametrize("kind", [*sorted(FAMILY_SPECS), "offset"])
def test_eval_full_grad_full_and_the_run_guard_read_one_kernel_row(kind):
    # f and grad f are the kernel's one-row call, and run's guard 1e6 |f0| (|f0| > 1 at
    # most points) is built from that row; "offset" keeps the looped reference kernel
    obj = _oracle_objective(kind, 5, 36)
    cfg = OptimizerConfig(0.0, 0.0, Mode.FO, Mode.FO, epochs=1)
    for scale in (1.0, 30.0, 1e3):
        w = HybridPoint(obj.layout, scale * sample_gaussian(RngStream(36, 1), obj.layout.d))
        fs, gs = obj.full_values_and_grads_at_points(w.values[None])
        f = obj.eval_full(w)
        assert type(f) is float and np.float64(f).tobytes() == fs[0].tobytes(), (kind, scale)
        assert obj.grad_full(w).tobytes() == gs[0].tobytes(), (kind, scale)
        guard = run(obj, w, cfg, RngStream(36, 2)).divergence_threshold
        assert np.float64(guard).tobytes() == np.float64(max(1e6 * abs(f), 1e6)).tobytes(), (kind, scale)


# cosh on one-coordinate blocks with every sample alike: an FO step of 2 from x = 1 goes
# to -1.35, 2.25, -7.1 and 1300, whose sinh overflows in the next step
COSH_ALIKE = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]] * 8}


class MathCosh(FiniteSumObjective):
    """COSH_ALIKE through Python's math, whose overflow raises OverflowError."""

    def __init__(self):
        super().__init__(BlockLayout(1, 1), 8)

    def value_at(self, values, i):
        return math.cosh(values[0]) + math.cosh(values[1])

    def grad_at(self, values, i):
        return np.array([math.sinh(values[0]), math.sinh(values[1])])


@pytest.mark.parametrize("kind", ["cosh", "math"])
def test_guard_trip_mid_block_replays_to_the_tripping_step(monkeypatch, kind):
    # f = 624 at step 2 trips a guard of 100; the block's later steps overflow, numpy
    # warning or math raising OverflowError, but only in the discarded speculative
    # pass, so nothing is printed or raised
    obj = objective_from_dict(COSH_ALIKE) if kind == "cosh" else MathCosh()
    w0 = HybridPoint(obj.layout, [1.0, 0.0])
    cfg = OptimizerConfig(2.0, 2.0, Mode.FO, Mode.FO, epochs=2, divergence_threshold=100.0)
    outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(
        monkeypatch, obj, w0, cfg, 29, (2, 3, 7, 8))
    assert (outcome["steps"], outcome["diverged"], caught) == ([0, 1, 2], True, [])
    # after the start row's call, a whole block's speculative pass ends at step 4's overflow,
    # before its kernel call; in blocks of two, the kernel call of steps 2 and 3 overflows.
    # Both replay up to step 2
    assert kernel_rows[8] == [1, 1, 1, 1] and kernel_rows[2] == [1, 2, 2, 1]


def test_numeric_error_mid_block_keeps_its_step_context_and_warning(monkeypatch):
    # the last sample's y shift makes its FO step overflow, at step 5 of the permutation
    obj = objective_from_dict({**COSH_ALIKE, "shifts": [[0.0, 0.0]] * 7 + [[0.0, 5.0]]})
    w0 = HybridPoint(obj.layout, [1.0, 0.0])
    cfg = OptimizerConfig(0.01, 1e307, Mode.FO, Mode.FO, epochs=2)
    outcome, caught, _ = _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, 2, (2, 3, 7, 8))
    assert outcome == {"error": (NumericError, "epoch 0, step 5: non-finite update from sample 7")}
    [(category, message, filename, _)] = caught
    assert (category, message) == (RuntimeWarning, "overflow encountered in multiply")
    assert filename.endswith("optimizer.py")


def test_underflow_warning_inside_blocks_is_issued_step_by_step(monkeypatch):
    # mu = 1e-30 is below 1e3 eps of every x block norm: each ZO step warns once
    obj = _oracle_objective("logistic", 6, 30)
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(30, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 0.05, Mode.ZO, Mode.FO, zo=ZoConfig(mu=1e-30), epochs=2)
    outcome, caught, _ = _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, 30, (2, 3, 5, 6))
    assert (outcome["epochs"], outcome["diverged"]) == (2, False)
    assert [w[0] for w in caught] == [PerturbationUnderflowWarning] * 12
    assert all(w[2].endswith("optimizer.py") for w in caught)


def _underflow_draws(rows, q, dim, seed):
    """(rows, q, dim) directions, (rows, dim) blocks x and a mu = 2^-10, with the shortest direction of
    every third row sitting exactly at 1e3 eps ||x|| / mu and of the next row one ulp under it."""
    rng = np.random.default_rng(seed)
    mu = 2.0 ** -10
    x = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-3, 12, (rows, 1))
    directions = rng.standard_normal((rows, q, dim)) * 10.0 ** rng.integers(-12, 3, (rows, q, 1))
    at = 1e3 * estimator._EPS * np.sqrt(np.vecdot(x, x)) / mu  # exact: mu is a power of two
    for r in range(0, rows - 1, 3):
        for row, length in ((r, at[r]), (r + 1, np.nextafter(at[r + 1], 0.0))):
            k = rng.integers(q)  # the shortest direction sits anywhere among the q
            directions[row] *= 2.0 * at[row] / np.sqrt(np.vecdot(directions[row], directions[row]))[:, None]
            directions[row, k] = 0.0
            directions[row, k, rng.integers(dim)] = length  # sqrt(fl(t * t)) == t
    return mu, directions, x


@pytest.mark.parametrize(("rows", "q", "dim"), [(12, 1, 1), (30, 3, 4), (31, 8, 7), (9, 2, 20)])
def test_underflows_on_stacked_draws_is_the_per_step_decision(rows, q, dim):
    # the block check reads _underflows once on all its steps; each row must decide as a step's
    # own check does, and as the argmin and math.sqrt form that check was written in
    mu, directions, x = _underflow_draws(rows, q, dim, 100 * q + dim)
    got = estimator._underflows(mu, directions, x)
    assert got.shape == (rows,) and got[0:rows - 1:3].tolist() == [False] * len(range(0, rows - 1, 3))
    assert got[1:rows:3].all()
    obj = objectives.BlockQuadratic(BlockLayout(dim, 1), np.zeros((1, dim + 1)), 1.0, 1.0)
    for r in range(rows):
        sq = np.vecdot(directions[r], directions[r])
        assert got[r] == (mu * math.sqrt(sq[sq.argmin()]) < 1e3 * estimator._EPS * math.sqrt(np.vecdot(x[r], x[r])))
        assert got[r] == estimator._underflows(mu, directions[r], x[r])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _two_point_rows(obj, np.append(x[r], 0.0), 0, mu, directions[r], slice(0, dim))
        assert got[r] == bool(caught) and all(w.category is PerturbationUnderflowWarning for w in caught)


def test_underflow_of_the_y_block_alone_inside_blocks_is_issued_step_by_step(monkeypatch):
    # ZO on both blocks: a block's draws hold each step's x directions, then its y ones.
    # ||y|| = 3e9 puts y's threshold 1e3 eps ||y|| / mu near its shortest of two directions, so some
    # y steps warn and some do not, while x (||x|| ~ 1) never does
    obj = objective_from_dict({**FAMILY_SPECS["block_quadratic"], "d_x": 4, "d_y": 3, "n": 6, "seed": 37})
    w0 = HybridPoint(obj.layout, np.append(sample_gaussian(RngStream(37, 1), 4), [3e9, 0.0, 0.0]))
    cfg = OptimizerConfig(0.02, 1e-12, Mode.ZO, Mode.ZO, zo=ZoConfig(mu=1e-3, directions_per_step=2),
                          epochs=3)
    outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, 37, (2, 3, 6))
    assert (outcome["epochs"], outcome["diverged"]) == (3, False)
    assert 0 < len(caught) < 18 and {w[0] for w in caught} == {PerturbationUnderflowWarning}
    # a block with a warning step is replayed row by row; one without commits in one call
    assert 6 in kernel_rows[6] and 1 in kernel_rows[6][1:]


class ClampedCosh(objectives.CoshObjective):
    """Cosh whose full kernel reads a non-finite f as 0: only the block's own finiteness check
    can then see a non-finite point, since the guard passes 0."""

    def full_values_and_grads_at_points(self, points):
        fs, gs = super().full_values_and_grads_at_points(points)
        return np.where(np.isfinite(fs), fs, 0.0), gs


def test_a_non_finite_point_the_kernel_clamps_stops_at_its_step(monkeypatch):
    # the setup of test_numeric_error_mid_block_keeps_its_step_context_and_warning, with the caller
    # ignoring overflow and invalid, so no numpy error ends a speculative pass: the block sees step 5's
    # infinite point itself, before its kernel call, and the replay raises from step 5
    obj = ClampedCosh(BlockLayout(1, 1), [[0.0, 0.0]] * 7 + [[0.0, 5.0]])
    w0 = HybridPoint(obj.layout, [1.0, 0.0])
    cfg = OptimizerConfig(0.01, 1e307, Mode.FO, Mode.FO, epochs=2)
    with np.errstate(over="ignore", invalid="ignore"):
        outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(
            monkeypatch, obj, w0, cfg, 2, (2, 3, 7, 8))
    assert outcome == {"error": (NumericError, "epoch 0, step 5: non-finite update from sample 7")}
    assert caught == []
    # the start row, then the replayed rows 0 to 4; steps 5, 6 and 7 ran in the speculative pass
    assert kernel_rows[8] == [1, 1, 1, 1, 1, 1]
    assert kernel_rows[2] == [1, 2, 2, 1]


@pytest.mark.parametrize("mu", [1e-3, 1e-30])
def test_replayed_block_keeps_nothing_of_its_speculative_pass(monkeypatch, mu):
    # FO steps of 3 on a_y = 1 double y's distance to the center: f passes the guard at
    # step 10, row 4 of epoch 1, and the steps after it stay finite.  The speculative pass
    # of that block steps past the trip (mu = 1e-3), and its ZO steps would each warn
    # (mu = 1e-30); the run keeps none of it.
    obj = objective_from_dict({**FAMILY_SPECS["block_quadratic"], "d_x": 4, "d_y": 3, "n": 6,
                               "seed": 33})
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(33, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 3.0, Mode.ZO, Mode.FO, zo=ZoConfig(mu=mu), epochs=4)
    outcome, caught, _ = _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, 33, (2, 3, 5, 6),
                                                           snapshot_every=1)
    assert (outcome["epochs"], outcome["diverged"], outcome["steps"]) == (1, True, list(range(11)))
    assert len(outcome["snapshots"]) == 1 + 11
    assert [w[0] for w in caught] == [PerturbationUnderflowWarning] * (11 if mu < 1e-20 else 0)


def _huge_slopes():
    """Linear losses whose gradient norm overflows: every trace row warns, f stays finite."""
    slopes = 1e200 * np.abs(sample_gaussian(RngStream(31, 1), 6 * 3)).reshape(6, 3) + 1e199
    return LinearObjective(BlockLayout(2, 1), slopes), HybridPoint(BlockLayout(2, 1), [0.5, -0.5, 1.0])


def test_numpy_overflow_inside_blocks_warns_step_by_step(monkeypatch):
    obj, w0 = _huge_slopes()
    cfg = OptimizerConfig(1e-300, 1e-300, Mode.FO, Mode.FO, epochs=2)
    outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(
        monkeypatch, obj, w0, cfg, 31, (2, 3, 5, 6))
    assert (outcome["epochs"], outcome["diverged"]) == (2, False)
    # min_grad_sq at the start point, then the three norms of each trace row
    assert [w[1] for w in caught] == ["overflow encountered in vecdot"] * (1 + 12 * 3)
    assert kernel_rows[6] == [1] + [6, 1, 1, 1, 1, 1, 1] * 2  # the start row; every block is replayed


def test_caller_ignoring_overflow_replays_no_block(monkeypatch):
    obj, w0 = _huge_slopes()
    cfg = OptimizerConfig(1e-300, 1e-300, Mode.FO, Mode.FO, epochs=2)
    with np.errstate(over="ignore"):
        outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(
            monkeypatch, obj, w0, cfg, 31, (2, 3, 5, 6))
    assert (outcome["epochs"], outcome["diverged"], caught) == (2, False, [])
    assert kernel_rows[6] == [1, 6, 6]


@pytest.mark.parametrize("over", ["ignore", "raise"])
def test_caller_error_state_stops_every_block_size_at_the_same_step(monkeypatch, over):
    # y steps of 1e3 on a_y = 1 multiply y's distance to the center by 999: with the
    # guard off, f overflows at step 51, row 3 of epoch 8's block.  Ignored, the run
    # stops there on the infinite f; raised, the same FloatingPointError comes from
    # that step, and since x is ZO the stream state after it pins the step
    obj = objective_from_dict({**FAMILY_SPECS["block_quadratic"], "d_x": 4, "d_y": 3, "n": 6,
                               "seed": 34})
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(34, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 1e3, Mode.ZO, Mode.FO, zo=ZoConfig(mu=1e-3), epochs=20,
                          divergence_threshold=math.inf)
    with np.errstate(over=over):
        outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(
            monkeypatch, obj, w0, cfg, 34, (2, 3, 5, 6))
    if over == "ignore":
        assert (outcome["epochs"], outcome["diverged"], outcome["steps"][-1]) == (8, True, 51)
    else:
        assert outcome == {"error": (FloatingPointError, "overflow encountered in vecdot")}
    assert caught == []
    # after the start row's call, epoch 8's speculative pass ends in step 52's two-point
    # probe, before its kernel call, and the block is replayed row by row up to step 51
    assert kernel_rows[6] == [1] + [6] * 8 + [1, 1, 1, 1]


def test_one_row_blocks_never_speculate(monkeypatch):
    # a row cost over _ROW_BUDGET: every block holds one row and runs the step-by-step loop;
    # at two rows, all five blocks of the two epochs speculate, the third across their boundary.
    # A step runs speculatively when it finds the block's draws set
    obj = _oracle_objective("logistic", 5, 32)
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(32, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 0.05, Mode.ZO, Mode.FO, zo=ZoConfig(mu=1e-3), epochs=2)
    speculating = []
    original_step = optimizer.step

    def watched_step(*args):
        speculating.append(estimator._SPECULATIVE.get() is not None)
        return original_step(*args)

    monkeypatch.setattr(optimizer, "step", watched_step)
    for rows, want in ((0, [False] * 10), (2, [True] * 10)):
        _set_block_rows(monkeypatch, obj, rows)
        speculating.clear()
        trace = []
        optimizer.run_epoch(obj, w0.values, cfg, RngStream(32, 2), cfg.epochs, np.inf, trace, [], 0)
        assert speculating == want and len(trace) == 10
    assert estimator._SPECULATIVE.get() is None  # the caller's context never holds the draws


class _AppendOnly(list):
    """A list that fails on any deletion."""

    def __delitem__(self, key):
        raise AssertionError(f"del [{key!r}]")


@pytest.mark.parametrize("rows", [3, 6])
def test_a_tripping_block_commits_nothing_so_trace_and_snapshots_only_grow(monkeypatch, rows):
    # the run of test_replayed_block_keeps_nothing_of_its_speculative_pass: f passes the
    # guard at row 4 of epoch 1, inside a block of 3 or 6 rows whose speculative pass
    # trips; the one run_epoch call appends the rows and snapshots of run's step-by-step loop only
    obj = objective_from_dict({**FAMILY_SPECS["block_quadratic"], "d_x": 4, "d_y": 3, "n": 6,
                               "seed": 33})
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(33, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 3.0, Mode.ZO, Mode.FO, zo=ZoConfig(mu=1e-3), epochs=4)
    _set_block_rows(monkeypatch, obj, 0)
    want = run(obj, w0, cfg, RngStream(33, 2), snapshot_every=1)
    _set_block_rows(monkeypatch, obj, rows)
    trace, snapshots = _AppendOnly(), _AppendOnly([(0, w0)])
    values, diverged = optimizer.run_epoch(obj, w0.values, cfg, RngStream(33, 2), cfg.epochs,
                                           want.divergence_threshold, trace, snapshots, 1)
    assert (diverged, trace[-1].epoch, len(trace), len(snapshots)) == (True, 1, 11, 1 + 11)
    assert trace == want.trace and values.tobytes() == want.point.values.tobytes()
    assert [(k, p.values.tobytes()) for k, p in snapshots] == [
        (k, p.values.tobytes()) for k, p in want.snapshots]


class ReciprocalQuadratic(objectives.BlockQuadratic):
    """A block quadratic whose full kernel reports 1 / f: on a converging run the reported f
    grows while the gradient norm falls, so a guard on it trips at a chosen step."""

    def full_values_and_grads_at_points(self, points):
        fs, gs = super().full_values_and_grads_at_points(points)
        return 1.0 / fs, gs


@pytest.mark.parametrize("trip", [19, 20])
def test_a_guard_trip_at_an_epoch_boundary_inside_a_block_is_the_step_by_step_loop(monkeypatch, trip):
    # n = 4: the guard trips on the last step of epoch 4 (step 19) or the first of epoch 5 (step 20),
    # inside blocks of 1, n - 1, n + 1 and 3n rows; in the last three the tripping block holds both
    # steps, across the boundary.  Each epoch end has the smallest gradient norm so far, so
    # min_grad_sq takes step 15's row at a trip on step 19, whose own row it must leave out, and
    # step 19's at a trip on step 20
    n = 4
    obj = ReciprocalQuadratic.random(BlockLayout(3, 2), n, 4.0, 1.0, RngStream(40, 0xDA7A), center_spread=0.5)
    w0 = HybridPoint(obj.layout, 3.0 + sample_gaussian(RngStream(40, 1), obj.layout.d))
    cfg = OptimizerConfig(0.01, 0.05, Mode.ZO, Mode.FO, zo=ZoConfig(mu=1e-3, directions_per_step=2), epochs=8,
                          divergence_threshold=math.inf)
    free = run(obj, w0, cfg, RngStream(40, 2)).trace
    fs, ends = [r.f_value for r in free], [r.grad_norm for r in free[n - 1::n]]
    assert fs[trip] > max(fs[:trip]) and ends == sorted(ends, reverse=True)
    cfg = dataclasses.replace(cfg, divergence_threshold=max(fs[:trip]))
    outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(
        monkeypatch, obj, w0, cfg, 40, (1, n - 1, n + 1, 3 * n), snapshot_every=3)
    assert (outcome["steps"], outcome["epochs"], outcome["diverged"], caught) == (
        list(range(trip + 1)), trip // n, True, [])
    assert outcome["min_grad_sq"] == repr(free[trip // n * n - 1].grad_norm ** 2)
    # the start row, the committed blocks, the tripping block's speculative call, then its replay
    # from the block's first step, 18 or 16, up to the trip
    assert kernel_rows[n + 1] == [1, 4, 4, 5, 5, 5] + [1] * (trip - 17)
    assert kernel_rows[3 * n] == [1, 4, 4, 8, 12] + [1] * (trip - 15)


# -- a block's ZO draws, one per epoch segment, against the step-by-step stream -


class _RecordedGenerator:
    """A numpy Generator that records each standard_normal call made inside a speculative block."""

    def __init__(self, generator, draws):
        self._generator, self._draws = generator, draws

    def __getattr__(self, name):
        return getattr(self._generator, name)

    def standard_normal(self, size=None, *args, **kwargs):
        if estimator._SPECULATIVE.get() is not None:
            self._draws[objectives._ROW_BUDGET].append(size)
        return self._generator.standard_normal(size, *args, **kwargs)


@pytest.fixture
def block_draws(monkeypatch):
    """{_ROW_BUDGET: [the size of each standard_normal call of a speculative block]} of the RngStreams made
    while it is active, each with a _RecordedGenerator as its generator."""
    draws = collections.defaultdict(list)
    post_init = RngStream.__post_init__

    def recorded(rng):
        post_init(rng)
        rng._generator = _RecordedGenerator(rng._generator, draws)

    monkeypatch.setattr(RngStream, "__post_init__", recorded)
    return draws


DRAW_PAIRINGS = {"zo-fo": (Mode.ZO, Mode.FO), "fo-zo": (Mode.FO, Mode.ZO), "zo-zo": (Mode.ZO, Mode.ZO),
                 "zo-frozen": (Mode.ZO, Mode.FROZEN)}


@pytest.mark.parametrize("pairing", sorted(DRAW_PAIRINGS))
def test_block_draws_replay_the_step_by_step_stream(monkeypatch, block_draws, pairing):
    # logistic on d = 4 + 3, n = 5 and q = 6 over 4 epochs: a row cost of n + d = 12 against a step's draws of
    # 6 d_x, 6 d_y or 6 d columns.  Budgets of 1, 3, 7 and 16 trace rows give one-row blocks, blocks across
    # epoch boundaries and, at 7, segments that the draw cap _block_rows(q * width) ends inside an epoch
    obj = _oracle_objective("logistic", 5, 41)
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(41, 1), obj.layout.d))
    cfg = OptimizerConfig(0.02, 0.05, *DRAW_PAIRINGS[pairing], zo=ZoConfig(mu=1e-3, directions_per_step=6),
                          epochs=4)
    outcome, caught, _ = _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, 41, (1, 3, 7, 16),
                                                           snapshot_every=3)
    assert (outcome["epochs"], outcome["diverged"], caught) == (4, False, [])
    width = {"zo-fo": 24, "fo-zo": 18, "zo-zo": 42, "zo-frozen": 24}[pairing]
    # blocks of 7 trace rows are steps 0-4, 5-9, 10-16 and 17-19; a draw cap of 84 // width steps cuts the
    # epoch segments 0-4, 5-9, 10-14, 15-16 and 17-19
    rows = {24: [3, 2, 3, 2, 3, 2, 2, 3], 18: [4, 1, 4, 1, 4, 1, 2, 3], 42: [2, 2, 1] * 2 + [2, 2, 1, 2, 2, 1]}
    assert block_draws[7 * 12] == [(m, width) for m in rows[width]]
    assert sorted(block_draws) == [3 * 12, 7 * 12, 16 * 12]  # one-row blocks draw per step, outside a block


def test_a_guard_trip_mid_block_restores_the_stream_of_its_draws(monkeypatch, block_draws):
    # ZO on both blocks of test_a_guard_trip_at_an_epoch_boundary_inside_a_block_is_the_step_by_step_loop's
    # objective, whose reported f grows at every step: a guard of f at step 12 trips at step 13, inside the
    # block of steps 8-15, after its speculative pass drew both its epoch segments; the replay then draws
    # step by step from the restored stream
    n = 4
    obj = ReciprocalQuadratic.random(BlockLayout(3, 2), n, 4.0, 1.0, RngStream(40, 0xDA7A), center_spread=0.5)
    w0 = HybridPoint(obj.layout, 3.0 + sample_gaussian(RngStream(40, 1), obj.layout.d))
    cfg = OptimizerConfig(0.01, 0.05, Mode.ZO, Mode.ZO, zo=ZoConfig(mu=1e-3, directions_per_step=2), epochs=8,
                          divergence_threshold=math.inf)
    fs = [r.f_value for r in run(obj, w0, cfg, RngStream(40, 2)).trace]
    assert all(a < b for a, b in zip(fs, fs[1:]))
    cfg = dataclasses.replace(cfg, divergence_threshold=fs[12])
    outcome, caught, kernel_rows = _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, 40, (3 * n,))
    assert (outcome["steps"], outcome["diverged"], caught) == (list(range(14)), True, [])
    # the start row, the blocks of steps 0-3 and 4-7, the tripping block's speculative call, then its replay
    assert kernel_rows[3 * n] == [1, 4, 4, 8] + [1] * 6
    assert block_draws[3 * n * obj._full_row_cost()] == [(n, 2 * 5)] * 4


@pytest.mark.parametrize("pairing", ["zo-fo", "zo-zo"])
def test_a_block_draw_holds_at_most_the_row_budget_or_one_step(monkeypatch, block_draws, pairing):
    # q = 64 on d_x = 72 makes a step's draws 64 * 72 or 64 * 80 columns, so an epoch segment of n = 4 steps
    # would be over 2^14 elements: near the default budget the cap cuts each into 3 + 1 steps, and under one
    # step's draws into single steps
    obj = objective_from_dict({**FAMILY_SPECS["logistic"], "d_x": 72, "d_y": 8, "n": 4, "seed": 42})
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(42, 1), obj.layout.d))
    cfg = OptimizerConfig(0.01, 0.05, *DRAW_PAIRINGS[pairing], zo=ZoConfig(mu=1e-3, directions_per_step=64),
                          epochs=6)
    cost, width = obj._full_row_cost(), 64 * (72 if pairing == "zo-fo" else 80)
    near_default = objectives._ROW_BUDGET // cost
    _assert_blocks_match_step_by_step(monkeypatch, obj, w0, cfg, 42, (4, near_default))
    assert sorted(block_draws) == [4 * cost, near_default * cost] and 4 * cost < width
    for budget, sizes in block_draws.items():
        assert all(math.prod(size) <= max(width, budget) for size in sizes), budget
    assert block_draws[4 * cost] == [(1, width)] * 24
    assert block_draws[near_default * cost] == [(3, width), (1, width)] * 6


@pytest.mark.parametrize("q", [1, 8, 2000])
def test_two_point_rows_builds_the_shifted_rows_of_core(q):
    # the estimator's 2-D build of its q + 1 points is core._shifted_rows bit for bit on either block, with
    # -0.0 entries in values (a values + 0.0 copy would make them +0.0); given the shifts mu * directions,
    # it returns the same rows unchecked
    obj = _oracle_objective("logistic", 5, 43)
    values = sample_gaussian(RngStream(43, 1), obj.layout.d)
    values[[1, 5]] = -0.0
    mu, seen = 1e-3, []
    batched = obj.values_at_points

    def recorded(points, i):
        seen.append(points.copy())
        return batched(points, i)

    obj.values_at_points = recorded
    for block in (Block.X, Block.Y):
        sl = obj.layout.slice_of(block)
        directions = sample_gaussian(RngStream(43, 2), q * (sl.stop - sl.start)).reshape(q, -1)
        seen.clear()
        rows = _two_point_rows(obj, values, 2, mu, directions, sl)
        unchecked = _two_point_rows(obj, values, 2, mu, directions, sl, mu * directions)
        points = _shifted_rows(values, sl, mu * directions)
        assert seen[0].tobytes() == seen[1].tobytes() == points.tobytes()
        assert np.signbit(points[:, 5 if block is Block.X else 1]).all() and np.signbit(points[0, [1, 5]]).all()
        vals = batched(points, 2)
        assert rows.tobytes() == unchecked.tobytes() == (((vals[1:] - vals[0]) / mu)[:, None] * directions).tobytes()


def test_check_estimator_bounds_keeps_the_bits_of_the_shifted_rows_build(monkeypatch):
    # the oracle's 2000 directions through _two_point_rows, against the same rows built by core._shifted_rows
    obj = _oracle_objective("logistic", 5, 44)
    w = HybridPoint(obj.layout, sample_gaussian(RngStream(44, 1), obj.layout.d))
    got = oracle.check_estimator_bounds(obj, w, 3, 1e-3, 2000, RngStream(44, 2))

    def shifted_rows(obj, values, i, mu, directions, sl):
        vals = obj.values_at_points(_shifted_rows(values, sl, mu * directions), i)
        return ((vals[1:] - vals[0]) / mu)[:, None] * directions

    monkeypatch.setattr(oracle, "_two_point_rows", shifted_rows)
    assert repr(got) == repr(oracle.check_estimator_bounds(obj, w, 3, 1e-3, 2000, RngStream(44, 2)))


# -- the oracle's batched central differences against the per-coordinate loop -


def _reference_central_differences(fn, values, h):
    """(fn(values + h e_j) - fn(values - h e_j)) / 2h as row j, one coordinate at a time."""
    out = []
    for j in range(len(values)):
        plus = values.copy()
        minus = values.copy()
        plus[j] += h
        minus[j] -= h
        out.append((fn(plus) - fn(minus)) / (2.0 * h))
    return np.array(out)


def _reference_fd_gradient(obj, w, i=None):
    fn = obj.full_value_at if i is None else (lambda values: obj.value_at(values, i))
    return _reference_central_differences(fn, w.values, 1e-5)


def _reference_dense_hessian(obj, w):
    columns = _reference_central_differences(obj.full_grad_at, w.values, 1e-5).T
    return 0.5 * (columns + columns.T)


def _reference_grad_agreement_report(name, obj, points):
    """The gradient check as one fd_gradient per target: the full objective, against its kernel
    row, then each sample."""
    worst = 0.0
    for w in points:
        for i in [None, *range(obj.n)]:
            approx = _reference_fd_gradient(obj, w, i)
            exact = obj.grad_full(w) if i is None else obj.grad_at(w.values, i)
            scale = max(float(np.linalg.norm(exact)), 1e-12)
            worst = max(worst, float(np.linalg.norm(approx - exact)) / scale)
    return oracle.BoundCheckReport(name, worst, 0.0, 1e-6, len(points), bool(worst <= 1e-6))


def _oracle_objective(kind, n, seed):
    """A family from FAMILY_SPECS on d = 7, or for "offset" an OffsetObjective of logistic:
    a subclass with only value_at/grad_at, so the oracle reads the base-class loop."""
    spec = {**FAMILY_SPECS.get(kind, FAMILY_SPECS["logistic"]), "d_x": 4, "d_y": 3, "n": n,
            "seed": seed}
    obj = objective_from_dict(spec)
    return obj if kind in FAMILY_SPECS else OffsetObjective(obj, 2.5)


def _oracle_results(obj, w, fd_gradient=oracle.fd_gradient, dense_hessian=oracle.dense_hessian):
    """fd_gradient of the full objective and of three samples, and dense_hessian."""
    samples = sorted({0, obj.n // 2, obj.n - 1})
    return [fd_gradient(obj, w), *(fd_gradient(obj, w, i) for i in samples), dense_hessian(obj, w)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 3, 9, 130])  # n = 130: the sum over samples splits into blocks
@pytest.mark.parametrize("kind", [*sorted(FAMILY_SPECS), "offset"])
def test_oracle_central_differences_match_per_coordinate_loop(kind, n):
    obj = _oracle_objective(kind, n, 26)
    points = []
    for k, scale in enumerate((1.0, 0.01, 30.0)):
        w = HybridPoint(obj.layout, scale * sample_gaussian(RngStream(26, k), obj.layout.d))
        want = _oracle_results(obj, w, _reference_fd_gradient, _reference_dense_hessian)
        for got, ref in zip(_oracle_results(obj, w), want, strict=True):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (kind, n, scale)
        points.append(w)
    # the gradient check reads one table a point; the reference runs one target at a time
    want = _reference_grad_agreement_report("grad", obj, points)
    assert oracle._grad_agreement_report("grad", obj, points) == want


@pytest.mark.parametrize("budget_rows", [0, 1, 3, 5, 14])
@pytest.mark.parametrize("kind", sorted(FAMILY_SPECS))
def test_oracle_central_differences_go_in_row_blocks(monkeypatch, kind, budget_rows):
    # With a budget of R n d (1 for R = 0), the 2d = 14 points of every target, the full
    # objective and each sample alike, go to the pair with ALL on (rows, 1, d) points in
    # ceil(2 d n d / budget) calls of at most budget / (n d) rows, or in 2d calls of one row
    # when the budget is below n d; blocks of 3 and 5 rows hold both +h and -h points.  The
    # bits are those of one call.
    n, d = 9, 7
    obj = _oracle_objective(kind, n, 27)
    w = HybridPoint(obj.layout, sample_gaussian(RngStream(27, 1), d))
    want = _oracle_results(obj, w)
    budget = budget_rows * n * d or 1
    monkeypatch.setattr(objectives, "_ROW_BUDGET", budget)
    calls = {pair: [] for pair in PAIR}
    for pair in PAIR:
        def counted(points, i, pair=pair, kernel=getattr(obj, pair)):
            calls[pair].append((points.shape, i))
            return kernel(points, i)
        monkeypatch.setattr(obj, pair, counted)
    for got, ref in zip(_oracle_results(obj, w), want, strict=True):
        assert got.tobytes() == ref.tobytes()
    per_table = -(-2 * d * n * d // budget) if budget >= n * d else 2 * d
    # values: one table for the full target and one for each of three samples; gradients: one
    assert len(calls["values_at_points"]) == 4 * per_table
    assert len(calls["grads_at_points"]) == per_table
    for shape, i in calls["values_at_points"] + calls["grads_at_points"]:
        assert i is objectives.ALL and shape[1:] == (1, d) and shape[0] * n * d <= max(budget, n * d)
