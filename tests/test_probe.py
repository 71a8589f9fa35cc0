"""Finite-difference curvature probes against closed-form Hessians."""
from dataclasses import replace

import numpy as np
import pytest

from hybridsgd import (
    Block,
    BlockLayout,
    BlockQuadratic,
    CoshObjective,
    DenseQuadratic,
    HybridPoint,
    LinearObjective,
    LogisticObjective,
    ProbeConfig,
    ProbeReport,
    RngStream,
    dense_hessian,
    estimate_block_lipschitz,
    sample_gaussian,
    trajectory_scan,
)
from hybridsgd.probe import _hvp_rows, write_probe_csv
from conftest import BlockGuardObjective, CountingQuadratic

LAYOUT = BlockLayout(3, 2)


def _hvp(obj, w, v, h=1e-5, block=Block.FULL):
    """One full-length product (grad(w + h v~) - grad(w)) / h of the full
    objective, v~ being v zero-padded from the block, through the row helper."""
    return _hvp_rows(obj, w.values, v[None, :], h, block, None)[0]


def _diag_quad(a_x=100.0, a_y=1.0, layout=LAYOUT, n=1):
    return BlockQuadratic(layout, np.zeros((n, layout.d)), a_x, a_y)


def test_hvp_matches_diagonal_hessian():
    obj = _diag_quad()
    diag = np.array([100.0, 100.0, 100.0, 1.0, 1.0])
    w = HybridPoint(LAYOUT, np.zeros(5))
    rng = RngStream(70, 1)
    for _ in range(5):
        v = sample_gaussian(rng, 5)
        assert np.allclose(_hvp(obj, w, v), diag * v, atol=1e-9)
    # away from the minimizer the quadratic HVP is still exact up to rounding
    w = HybridPoint(LAYOUT, sample_gaussian(rng, 5))
    v = sample_gaussian(rng, 5)
    assert np.allclose(_hvp(obj, w, v), diag * v, rtol=1e-6, atol=1e-6)


def test_hvp_is_h_robust_for_quadratics():
    obj = _diag_quad(3.0, 2.0)
    w = HybridPoint(LAYOUT, np.zeros(5))
    v = sample_gaussian(RngStream(71, 1), 5)
    a = _hvp(obj, w, v, h=1e-5)
    b = _hvp(obj, w, v, h=1e-3)
    assert np.allclose(a, b, atol=1e-9)


def test_hvp_cosh_curvature_is_one_at_shift():
    layout = BlockLayout(1, 1)
    obj = CoshObjective(layout, np.zeros((1, 2)))
    w = HybridPoint(layout, [0.0, 0.0])
    out = _hvp(obj, w, np.array([1.0]), block=Block.X)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(1.0, abs=1e-9)
    assert out[1] == pytest.approx(0.0, abs=1e-9)


def test_hvp_logistic_step_halving():
    obj = LogisticObjective.random(LAYOUT, 8, RngStream(72, 0xDA7A))
    w = HybridPoint(LAYOUT, 0.1 * np.ones(5))
    v = sample_gaussian(RngStream(73, 1), 5)
    a = _hvp(obj, w, v, h=1e-5)
    b = _hvp(obj, w, v, h=1e-6)
    assert np.linalg.norm(a - b) <= 1e-3 * max(np.linalg.norm(b), 1.0)


def test_hvp_is_linear_in_v():
    obj = _diag_quad(5.0, 2.0)
    w = HybridPoint(LAYOUT, np.zeros(5))
    rng = RngStream(74, 1)
    v1, v2 = sample_gaussian(rng, 5), sample_gaussian(rng, 5)
    lhs = _hvp(obj, w, 2.0 * v1 + 3.0 * v2)
    rhs = 2.0 * _hvp(obj, w, v1) + 3.0 * _hvp(obj, w, v2)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_block_probe_only_perturbs_target_block():
    base = _diag_quad(2.0, 1.0)
    guarded = BlockGuardObjective(base, LAYOUT.slice_of(Block.X), np.zeros(3))
    w = HybridPoint(LAYOUT, np.zeros(5))
    v = np.array([1.0, -1.0])
    out = _hvp(guarded, w, v, block=Block.Y)  # x never moves, guard stays silent
    assert np.array_equal(out[:3], np.zeros(3))
    assert np.allclose(out[3:], v, atol=1e-9)


def test_block_probes_recover_block_curvatures():
    obj = _diag_quad(100.0, 1.0)
    w = HybridPoint(LAYOUT, np.zeros(5))
    cfg = ProbeConfig(probes=50)
    rep_x = estimate_block_lipschitz(obj, w, replace(cfg, target=Block.X), RngStream(75, 1))
    rep_y = estimate_block_lipschitz(obj, w, replace(cfg, target=Block.Y), RngStream(75, 1))
    assert rep_x.operator_lb == pytest.approx(100.0, rel=1e-9)
    assert rep_y.operator_lb == pytest.approx(1.0, rel=1e-9)
    assert rep_x.block == Block.X and rep_y.block == Block.Y


def test_linear_objective_probes_are_zero():
    obj = LinearObjective(LAYOUT, sample_gaussian(RngStream(76, 1), 5).reshape(1, 5))
    w = HybridPoint(LAYOUT, np.zeros(5))
    rep = estimate_block_lipschitz(obj, w, ProbeConfig(probes=20), RngStream(77, 1))
    assert rep.operator_lb <= 1e-9
    assert rep.frobenius_scaled <= 1e-9
    assert rep.frobenius_raw <= 1e-9


def test_frobenius_scaled_estimates_dense_norm():
    layout = BlockLayout(3, 3)
    obj = DenseQuadratic.random(layout, 2, RngStream(78, 0xDA7A))
    w = HybridPoint(layout, np.zeros(6))
    rep = estimate_block_lipschitz(obj, w, ProbeConfig(probes=1000), RngStream(79, 1))
    target = float(np.linalg.norm(obj.hessian))
    assert rep.frobenius_scaled == pytest.approx(target, rel=0.10)


def test_probe_is_h_independent_at_quadratic_origin():
    obj = _diag_quad(7.0, 2.0)
    w = HybridPoint(LAYOUT, np.zeros(5))
    a = estimate_block_lipschitz(obj, w, ProbeConfig(h=1e-5, probes=30), RngStream(80, 1))
    b = estimate_block_lipschitz(obj, w, ProbeConfig(h=1e-3, probes=30), RngStream(80, 1))
    assert a.operator_lb == pytest.approx(b.operator_lb, abs=1e-12)
    assert a.frobenius_scaled == pytest.approx(b.frobenius_scaled, abs=1e-12)


def test_operator_lb_grows_with_probe_count_and_stays_below_truth():
    layout = BlockLayout(3, 3)
    obj = DenseQuadratic.random(layout, 2, RngStream(81, 0xDA7A))
    w = HybridPoint(layout, np.zeros(6))
    small = estimate_block_lipschitz(obj, w, ProbeConfig(probes=10), RngStream(82, 1))
    large = estimate_block_lipschitz(obj, w, ProbeConfig(probes=50), RngStream(82, 1))
    assert large.operator_lb >= small.operator_lb  # same stream prefix, running max
    op_true = float(np.max(np.abs(np.linalg.eigvalsh(obj.hessian))))
    assert large.operator_lb <= op_true + 1e-9


def test_stderr_zero_for_single_probe():
    obj = _diag_quad(2.0, 1.0)
    w = HybridPoint(LAYOUT, np.zeros(5))
    rep = estimate_block_lipschitz(obj, w, ProbeConfig(probes=1), RngStream(83, 1))
    assert rep.stderr == 0.0
    assert rep.probes == 1


def test_probe_agrees_with_dense_hessian_eigenvalue():
    layout = BlockLayout(2, 2)
    obj = DenseQuadratic.random(layout, 1, RngStream(84, 0xDA7A))
    w = HybridPoint(layout, np.zeros(4))
    h_num = dense_hessian(obj, w)
    op_true = float(np.max(np.abs(np.linalg.eigvalsh(h_num))))
    rep = estimate_block_lipschitz(obj, w, ProbeConfig(probes=400), RngStream(85, 1))
    assert rep.operator_lb <= op_true + 1e-6
    assert rep.operator_lb >= 0.5 * op_true  # 400 sphere draws get close in dim 4


@pytest.mark.parametrize("target", [Block.X, Block.FULL])
def test_sample_probe_is_one_batched_call_of_k_plus_one_gradients(target):
    # the base gradient is row 0 of the same batched call as the K perturbed ones
    obj = CountingQuadratic(LAYOUT, np.arange(10.0).reshape(2, 5) / 10.0, 3.0, 1.0)
    w = HybridPoint(LAYOUT, [0.5, -1.0, 0.25, 2.0, -0.5])
    estimate_block_lipschitz(obj, w, ProbeConfig(probes=7, target=target), RngStream(90, 1), sample=1)
    assert obj.grad_calls == 0
    assert obj.grad_rows == [8]


def test_trajectory_scan_constant_on_quadratic():
    obj = _diag_quad(10.0, 1.0)
    rng = RngStream(86, 1)
    pts = [HybridPoint(LAYOUT, sample_gaussian(rng, 5)) for _ in range(3)]
    rows = trajectory_scan(obj, pts, ProbeConfig(probes=40), RngStream(87, 1))
    assert len(rows) == 3
    # Hessian is constant, so only sphere-sampling noise moves the estimate.
    lbs = [rep.operator_lb for _, rep in rows]
    assert max(lbs) <= 10.0 + 1e-9
    assert max(lbs) - min(lbs) <= 0.02 * max(lbs)
    for (gn, _), p in zip(rows, pts):
        assert gn == pytest.approx(float(np.linalg.norm(obj.grad_full(p))), rel=1e-12)


def test_trajectory_scan_tracks_cosh_envelope():
    layout = BlockLayout(1, 1)
    obj = CoshObjective(layout, np.zeros((1, 2)))
    pts = [HybridPoint(layout, [t, t]) for t in (0.0, 1.0, 2.0, 3.0)]
    rows = trajectory_scan(obj, pts, ProbeConfig(probes=60), RngStream(88, 1))
    lbs = [rep.operator_lb for _, rep in rows]
    assert all(b > a for a, b in zip(lbs, lbs[1:]))  # curvature grows along the ray
    for gn, rep in rows:
        assert rep.operator_lb <= 1.0 + gn + 1e-6


def test_trajectory_scan_rejects_empty_input():
    obj = _diag_quad()
    with pytest.raises(ValueError):
        trajectory_scan(obj, [], ProbeConfig(), RngStream(89, 1))


def test_probe_csv_roundtrip_and_byte_identity(tmp_path):
    obj = _diag_quad(4.0, 1.0)
    rng = RngStream(90, 1)
    pts = [HybridPoint(LAYOUT, sample_gaussian(rng, 5)) for _ in range(2)]
    rows = trajectory_scan(obj, pts, ProbeConfig(probes=25), RngStream(91, 1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_probe_csv(rows, p1)
    write_probe_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "point_index,grad_norm,block,frob_raw,frob_scaled,op_lb,stderr,K,h"
    assert len(lines) == 1 + len(rows)
    for idx, (line, (gn, rep)) in enumerate(zip(lines[1:], rows)):
        cells = line.split(",")
        assert int(cells[0]) == idx
        assert float(cells[1]) == gn
        assert cells[2] == rep.block.value
        assert float(cells[5]) == rep.operator_lb
        assert int(cells[7]) == rep.probes
        assert float(cells[8]) == rep.h


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(h=0.0)
    with pytest.raises(ValueError):
        ProbeConfig(probes=0)
    obj = _diag_quad()
    w = HybridPoint(LAYOUT, np.zeros(5))
    with pytest.raises(IndexError):
        estimate_block_lipschitz(obj, w, ProbeConfig(probes=2), RngStream(92, 1), sample=1)
    with pytest.raises(ValueError):
        estimate_block_lipschitz(obj, HybridPoint(BlockLayout(2, 3), np.zeros(5)),
                                 ProbeConfig(probes=2), RngStream(92, 1))
