"""Reshuffled per-sample updates, divergence guard, and trace output."""
import math

import numpy as np
import pytest

from hybridsgd import (
    BlockLayout,
    BlockQuadratic,
    HybridPoint,
    LinearObjective,
    LogisticObjective,
    Mode,
    NumericError,
    OptimizerConfig,
    RngStream,
    ZoConfig,
    run,
    sample_gaussian,
)
from hybridsgd import optimizer
from hybridsgd.core import shuffle_permutation
from hybridsgd.optimizer import step, write_trace_csv
from conftest import IndexRecordingObjective

FO = (Mode.FO, Mode.FO)


def _quad(layout, a_x, a_y, n=1, spread=0.0, seed=40):
    return BlockQuadratic.random(layout, n, a_x, a_y, RngStream(seed, 0xDA7A),
                                 center_spread=spread)


def test_zero_rates_leave_point_unchanged():
    obj = _quad(BlockLayout(2, 2), 3.0, 1.0)
    w = HybridPoint(obj.layout, [1.0, 2.0, 3.0, 4.0])
    cfg = OptimizerConfig(0.0, 0.0, *FO)
    assert np.array_equal(step(obj, w.values, 0, cfg, RngStream(41, 1)), w.values)


def test_fo_step_closed_form():
    # f = ||w||^2 / 2, eta = 0.1: (1, 1) -> (0.9, 0.9).
    obj = BlockQuadratic(BlockLayout(1, 1), np.zeros((1, 2)), 1.0, 1.0)
    w = HybridPoint(obj.layout, [1.0, 1.0])
    out = step(obj, w.values, 0, OptimizerConfig(0.1, 0.1, *FO), RngStream(42, 1))
    assert np.array_equal(out, [0.9, 0.9])


def test_frozen_block_is_bit_identical():
    obj = _quad(BlockLayout(3, 2), 2.0, 1.0, n=3, spread=1.0)
    w = HybridPoint(obj.layout, sample_gaussian(RngStream(43, 1), 5))
    cfg = OptimizerConfig(0.1, 0.1, Mode.FROZEN, Mode.FO)
    out = step(obj, w.values, 2, cfg, RngStream(44, 1))
    assert np.array_equal(out[:3], w.values[:3])
    assert not np.array_equal(out[3:], w.values[3:])
    cfg = OptimizerConfig(0.1, 0.1, Mode.FO, Mode.FROZEN)
    out = step(obj, w.values, 2, cfg, RngStream(44, 1))
    assert np.array_equal(out[3:], w.values[3:])


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(-0.1, 0.1, *FO)
    with pytest.raises(ValueError):
        OptimizerConfig(0.1, 0.1, *FO, epochs=0)
    with pytest.raises(ValueError):
        OptimizerConfig(0.1, 0.1, Mode.ZO, Mode.FO)  # no zo cfg
    with pytest.raises(ValueError):
        OptimizerConfig(0.1, 0.1, *FO, divergence_threshold=0.0)


def test_epoch_uses_every_sample_exactly_once():
    obj = IndexRecordingObjective(BlockLayout(1, 1), 7)
    w = HybridPoint(obj.layout, [0.0, 0.0])
    cfg = OptimizerConfig(1e-3, 1e-3, *FO)
    trace = run(obj, w, cfg, RngStream(45, 1)).trace
    assert sorted(obj.seen) == list(range(7))
    assert len(trace) == 7


def test_single_sample_epoch_equals_step():
    obj = _quad(BlockLayout(2, 1), 2.0, 1.0)
    w = HybridPoint(obj.layout, [1.0, -1.0, 0.5])
    cfg = OptimizerConfig(0.05, 0.05, *FO)
    via_epoch = run(obj, w, cfg, RngStream(46, 1)).point
    via_step = step(obj, w.values, 0, cfg, RngStream(46, 1))
    assert np.array_equal(via_epoch.values, via_step)


def test_epoch_contracts_quadratic():
    obj = _quad(BlockLayout(2, 2), 4.0, 1.0, n=6, spread=0.5)
    w = HybridPoint(obj.layout, sample_gaussian(RngStream(47, 1), 4) + 2.0)
    cfg = OptimizerConfig(1.0 / (4.0 * 6), 1.0 / (1.0 * 6), *FO)
    trace = run(obj, w, cfg, RngStream(48, 1)).trace
    assert trace[-1].f_value < obj.eval_full(w)


def test_run_is_deterministic_bitwise():
    obj = _quad(BlockLayout(2, 2), 5.0, 1.0, n=4, spread=0.5)
    w0 = HybridPoint(obj.layout, np.ones(4))
    cfg = OptimizerConfig(
        1e-3, 0.1, Mode.ZO, Mode.FO, zo=ZoConfig(mu=1e-3), epochs=3
    )
    a = run(obj, w0, cfg, RngStream(49, 1))
    b = run(obj, w0, cfg, RngStream(49, 1))
    assert np.array_equal(a.point.values, b.point.values)
    assert a.trace == b.trace


def test_run_single_epoch_equals_run_epoch():
    obj = _quad(BlockLayout(2, 1), 2.0, 1.0, n=3, spread=0.3)
    w0 = HybridPoint(obj.layout, [1.0, 1.0, 1.0])
    cfg = OptimizerConfig(0.01, 0.01, *FO, epochs=1)
    result = run(obj, w0, cfg, RngStream(50, 1))
    trace = []
    end, diverged = optimizer.run_epoch(obj, w0.values, cfg, RngStream(50, 1), 1, np.inf, trace, [], 0)
    assert np.array_equal(result.point.values, end) and not diverged
    assert result.trace == trace


@pytest.mark.parametrize("modes", [FO, (Mode.ZO, Mode.FO)], ids=["fo-fo", "zo-fo"])
def test_every_step_goes_through_the_module_level_step(monkeypatch, modes):
    # The step and the engine are units of work that profilers and the benchmark
    # count, by wrapping the module globals: run must call run_epoch once, with the
    # epoch count, and run_epoch step once per committed step plus once per step of
    # a replayed trace block.  Here the three epochs are three blocks of 5 steps.
    samples, epochs = [], []
    original_step, original_epoch = optimizer.step, optimizer.run_epoch

    def counting_step(obj, values, i, cfg, rng, *rest):
        samples.append(i)
        return original_step(obj, values, i, cfg, rng, *rest)

    def counting_epoch(obj, values, cfg, rng, count, *rest):
        epochs.append(count)
        return original_epoch(obj, values, cfg, rng, count, *rest)

    monkeypatch.setattr(optimizer, "step", counting_step)
    monkeypatch.setattr(optimizer, "run_epoch", counting_epoch)
    obj = _quad(BlockLayout(2, 2), 2.0, 1.0, n=5, spread=0.5)
    w0 = HybridPoint(obj.layout, np.ones(4))
    cfg = OptimizerConfig(0.01, 0.01, *modes, zo=ZoConfig(mu=1e-3), epochs=3)
    result = run(obj, w0, cfg, RngStream(53, 1))
    assert len(samples) == 3 * 5 == len(result.trace)
    assert epochs == [3]
    # y steps of 3 on a_y = 1 pass the guard inside epoch 0's block, after the
    # block's speculative pass took all 5 steps; the replay runs up to the trip
    samples.clear(), epochs.clear()
    cfg = OptimizerConfig(0.01, 3.0, *modes, zo=ZoConfig(mu=1e-3), epochs=3,
                          divergence_threshold=200.0)
    result = run(obj, w0, cfg, RngStream(53, 1))
    assert result.diverged and epochs == [3] and 1 < len(result.trace) < 5
    assert len(samples) == len(result.trace) + 5
    samples.clear()
    original_epoch(obj, w0.values, cfg, RngStream(53, 1), 1, np.inf, [], [], 0)
    assert sorted(samples) == list(range(5))


@pytest.mark.parametrize("modes", [FO, (Mode.ZO, Mode.FO)], ids=["fo-fo", "zo-fo"])
def test_speculation_is_bounded_by_the_steps_committed(monkeypatch, modes):
    # A block starting at step k holds at most max(n, k) rows, so a run that trips calls step at
    # most len(trace) + max(n, len(trace)) times.  y steps of 2.1 on a_y = 1 grow f by about 1.21
    # a step: the default guard trips in epoch 19 or 20 of 50, inside the block of steps 64-127
    calls = []
    original_step = optimizer.step

    def counting_step(*args):
        calls.append(None)
        return original_step(*args)

    monkeypatch.setattr(optimizer, "step", counting_step)
    n, epochs = 4, 50
    obj = _quad(BlockLayout(2, 2), 2.0, 1.0, n=n, spread=0.5)
    w0 = HybridPoint(obj.layout, np.ones(4))
    cfg = OptimizerConfig(0.01, 2.1, *modes, zo=ZoConfig(mu=1e-3), epochs=epochs)
    result = run(obj, w0, cfg, RngStream(62, 1))
    assert result.diverged and result.epochs_completed >= 10
    assert len(calls) <= len(result.trace) + max(n, len(result.trace))
    calls.clear()
    result = run(obj, w0, OptimizerConfig(0.01, 2.1, *modes, zo=ZoConfig(mu=1e-3), epochs=epochs,
                                          divergence_threshold=math.inf), RngStream(62, 1))
    assert not result.diverged and len(calls) == epochs * n == len(result.trace)


def test_fo_trajectory_matches_minimal_reshuffled_sgd():
    # Independent reference loop: same permutation stream, scalar rate.
    obj = _quad(BlockLayout(2, 2), 2.0, 2.0, n=5, spread=0.7)
    w0 = HybridPoint(obj.layout, np.full(4, 1.5))
    eta = 0.02
    cfg = OptimizerConfig(eta, eta, *FO, epochs=4)
    result = run(obj, w0, cfg, RngStream(51, 1))

    ref_rng = RngStream(51, 1)
    values = w0.values.copy()
    for _ in range(4):
        for i in shuffle_permutation(ref_rng, obj.n):
            values = values - eta * obj.grad_at(values, int(i))
    assert np.array_equal(result.point.values, values)


def test_quadratic_stability_boundary():
    # n=1 FO on an isotropic quadratic diverges iff eta * a > 2.
    layout = BlockLayout(1, 1)
    obj = BlockQuadratic(layout, np.zeros((1, 2)), 1.0, 1.0)
    w0 = HybridPoint(layout, [1.0, 1.0])

    stable = run(obj, w0, OptimizerConfig(1.9, 1.9, *FO, epochs=50),
                 RngStream(52, 1))
    assert not stable.diverged
    assert stable.trace[-1].f_value <= obj.eval_full(w0)

    unstable = run(obj, w0, OptimizerConfig(2.1, 2.1, *FO, epochs=200),
                   RngStream(52, 1))
    assert unstable.diverged
    # guard = 1e6 and f grows by 1.1^2 per step from f0 = 1: first k with
    # 1.21^k > 1e6 is 73, reported as zero-based step 72.
    assert unstable.trace[-1].step == 72
    assert unstable.epochs_completed == 72
    assert unstable.divergence_threshold == 1e6


def test_large_uniform_rate_reproduces_loss_explosion_regime():
    layout = BlockLayout(4, 4)
    obj = BlockQuadratic(layout, np.zeros((3, 8)), 100.0, 1.0)
    w0 = HybridPoint(layout, np.ones(8))
    near = run(obj, w0, OptimizerConfig(0.019, 0.019, *FO, epochs=2),
               RngStream(53, 1))
    assert not near.diverged
    # y block barely moves at the x-safe uniform rate
    y_ratio = np.linalg.norm(near.point.values[4:]) / np.linalg.norm(w0.values[4:])
    assert y_ratio > 0.85
    beyond = run(obj, w0, OptimizerConfig(0.021, 0.021, *FO, epochs=50),
                 RngStream(53, 1))
    assert beyond.diverged


def test_trace_norm_identity():
    obj = _quad(BlockLayout(3, 2), 3.0, 1.0, n=4, spread=0.5)
    w0 = HybridPoint(obj.layout, np.ones(5))
    cfg = OptimizerConfig(0.01, 0.05, *FO, epochs=2)
    result = run(obj, w0, cfg, RngStream(54, 1))
    for rec in result.trace:
        lhs = rec.grad_norm**2
        rhs = rec.grad_norm_x**2 + rec.grad_norm_y**2
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_trace_norms_are_linalg_norms_of_the_kernel_gradient():
    # a block's three norms come from one vecdot each; every row keeps np.linalg.norm's bits
    obj = LogisticObjective.random(BlockLayout(3, 4), 9, RngStream(56, 0xDA7A), lam=0.1)
    w0 = HybridPoint(obj.layout, sample_gaussian(RngStream(56, 1), obj.layout.d))
    cfg = OptimizerConfig(0.05, 0.05, Mode.ZO, Mode.FO, zo=ZoConfig(mu=1e-3), epochs=2)
    result = run(obj, w0, cfg, RngStream(56, 2), snapshot_every=1)
    assert len(result.trace) == 18
    for rec, (_, point) in zip(result.trace, result.snapshots[1:]):
        g = obj.grad_full(point)
        norms = [float(np.linalg.norm(v)) for v in (g, g[:3], g[3:])]
        assert [rec.grad_norm, rec.grad_norm_x, rec.grad_norm_y] == norms


def test_min_grad_sq_over_epoch_boundaries():
    obj = _quad(BlockLayout(2, 2), 2.0, 1.0, n=3, spread=0.4)
    w0 = HybridPoint(obj.layout, np.full(4, 2.0))
    cfg = OptimizerConfig(0.02, 0.02, *FO, epochs=4)
    result = run(obj, w0, cfg, RngStream(55, 1), snapshot_every=obj.n)
    norms = [float(np.linalg.norm(obj.grad_full(p))) ** 2 for _, p in result.snapshots]
    assert result.min_grad_sq == min(norms)


def test_snapshot_schedule():
    obj = _quad(BlockLayout(1, 1), 1.0, 1.0, n=10)
    w0 = HybridPoint(obj.layout, [1.0, 1.0])
    cfg = OptimizerConfig(0.01, 0.01, *FO, epochs=2)
    result = run(obj, w0, cfg, RngStream(56, 1), snapshot_every=5)
    assert [s for s, _ in result.snapshots] == [0, 5, 10, 15, 20]


@pytest.mark.parametrize("every", [True, False, -1, 2.0, "5"])
def test_run_rejects_snapshot_every_that_is_not_a_count(every):
    # A bool is not a count: True used to snapshot every step.
    obj = _quad(BlockLayout(1, 1), 1.0, 1.0, n=4)
    w0 = HybridPoint(obj.layout, [1.0, 1.0])
    cfg = OptimizerConfig(0.01, 0.01, *FO)
    with pytest.raises(ValueError, match="snapshot_every"):
        run(obj, w0, cfg, RngStream(56, 1), snapshot_every=every)


def test_numeric_failure_carries_step_context():
    layout = BlockLayout(1, 1)
    obj = LinearObjective(layout, np.array([[1e300, 1e300]]))
    w0 = HybridPoint(layout, [0.0, 0.0])
    cfg = OptimizerConfig(1e300, 1e300, *FO, epochs=1)
    with pytest.raises(NumericError, match="epoch 0, step 0"), np.errstate(over="ignore"):
        run(obj, w0, cfg, RngStream(57, 1))


def test_divergence_sets_report_and_partial_trace():
    layout = BlockLayout(1, 1)
    obj = BlockQuadratic(layout, np.zeros((2, 2)), 1.0, 1.0)
    w0 = HybridPoint(layout, [1.0, 1.0])
    cfg = OptimizerConfig(3.0, 3.0, *FO, epochs=10,
                          divergence_threshold=100.0)
    result = run(obj, w0, cfg, RngStream(58, 1))
    assert result.diverged
    # the trace is the divergence record: it stops at the first step over the guard
    assert all(rec.f_value <= 100.0 for rec in result.trace[:-1])
    assert result.trace[-1].f_value > 100.0
    assert result.epochs_completed == result.trace[-1].epoch < cfg.epochs
    # and the returned point is the iterate after that step
    fs, _ = obj.full_values_and_grads_at_points(result.point.values[None])
    assert fs[0] == result.trace[-1].f_value
    assert result.divergence_threshold == 100.0


def test_trace_csv_roundtrip_and_byte_identity(tmp_path):
    obj = _quad(BlockLayout(2, 2), 3.0, 1.0, n=3, spread=0.3)
    w0 = HybridPoint(obj.layout, np.ones(4))
    cfg = OptimizerConfig(0.01, 0.05, *FO, epochs=2)
    result = run(obj, w0, cfg, RngStream(59, 1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(result.trace, p1)
    write_trace_csv(result.trace, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "epoch,step,f,grad_norm,grad_norm_x,grad_norm_y"
    assert len(lines) == 1 + len(result.trace)
    for line, rec in zip(lines[1:], result.trace):
        cells = line.split(",")
        assert int(cells[0]) == rec.epoch and int(cells[1]) == rec.step
        assert float(cells[2]) == rec.f_value
        assert float(cells[3]) == rec.grad_norm
        assert float(cells[4]) == rec.grad_norm_x
        assert float(cells[5]) == rec.grad_norm_y


def test_hybrid_grad_mean_decreases_over_epoch_windows():
    # stationarity trend: window means of ||grad f||^2 decrease epoch over epoch
    layout = BlockLayout(4, 4)
    obj = BlockQuadratic.random(layout, 10, 10.0, 1.0, RngStream(60, 0xDA7A),
                                center_spread=0.05)
    w0 = HybridPoint(layout, obj.centers.mean(axis=0) + 1.0)
    cfg = OptimizerConfig(1e-3, 0.05, Mode.ZO, Mode.FO,
                          zo=ZoConfig(mu=1e-3), epochs=25)
    result = run(obj, w0, cfg, RngStream(61, 1))
    sq = np.array([rec.grad_norm**2 for rec in result.trace])
    windows = sq.reshape(5, -1).mean(axis=1)  # 5-epoch windows
    assert np.all(np.diff(windows) < 0)
