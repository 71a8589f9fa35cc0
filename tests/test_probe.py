"""Finite-difference curvature probes against closed-form Hessians."""
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import sqrt
from pathlib import Path

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
    NumericError,
    ProbeConfig,
    ProbeReport,
    RngStream,
    dense_hessian,
    estimate_block_lipschitz,
    sample_gaussian,
    trajectory_scan,
)
from hybridsgd import objectives
from hybridsgd.core import _unit_sphere_rows
from hybridsgd.objectives import ALL
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


@pytest.mark.parametrize("sample", [None, ALL], ids=["full", "samples"])
def test_a_squared_norm_overflow_is_a_numeric_error(sample):
    # at x = 700 every product cosh(700) v is finite, but its squared norm overflows
    obj = CoshObjective(BlockLayout(1, 1), [[0.0, 0.0]])
    w = HybridPoint(obj.layout, [700.0, 0.0])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="^non-finite squared norm in a curvature"):
        estimate_block_lipschitz(obj, w, ProbeConfig(probes=4), RngStream(86, 1), sample=sample)


def test_probe_agrees_with_dense_hessian_eigenvalue():
    layout = BlockLayout(2, 2)
    obj = DenseQuadratic.random(layout, 1, RngStream(84, 0xDA7A))
    w = HybridPoint(layout, np.zeros(4))
    h_num = dense_hessian(obj, w)
    op_true = float(np.max(np.abs(np.linalg.eigvalsh(h_num))))
    rep = estimate_block_lipschitz(obj, w, ProbeConfig(probes=400), RngStream(85, 1))
    assert rep.operator_lb <= op_true + 1e-6
    assert rep.operator_lb >= 0.5 * op_true  # 400 sphere draws get close in dim 4


@pytest.mark.parametrize("probes", [1, 9, 10, 19, 52, 53, 100])
def test_full_probe_is_one_kernel_call_per_block_of_rows(probes):
    # 300 samples of dimension 5: the K + 1 points go through the kernel in blocks of
    # C = _ROW_BUDGET // cost rows, so in ceil((K + 1) / C) calls.  A row of the closed
    # forms costs n + d = 305 (C = 53: one call up to K = 52), a row of cosh's (m, n, d)
    # temporaries n d = 1500 (C = 10: 11 calls at K = 100)
    class CountingCosh(CoshObjective):
        def full_values_and_grads_at_points(self, points):
            self.full_rows.append(len(points))
            return super().full_values_and_grads_at_points(points)

    data, points = np.arange(1500.0).reshape(300, 5) / 1000.0, probes + 1
    quadratic, cosh = CountingQuadratic(LAYOUT, data, 3.0, 1.0), CountingCosh(LAYOUT, data)
    cosh.full_rows = []
    w = HybridPoint(LAYOUT, [0.5, -1.0, 0.25, 2.0, -0.5])
    for obj, rows in ((quadratic, 53), (cosh, 10)):
        assert rows == objectives._ROW_BUDGET // obj._full_row_cost()
        estimate_block_lipschitz(obj, w, ProbeConfig(probes=probes), RngStream(93, 1))
        assert obj.full_rows == [min(rows, points - k) for k in range(0, points, rows)]
        assert len(obj.full_rows) == -(-points // rows)
    assert quadratic.full_grad_calls == 0 and quadratic.grad_calls == 0
    assert len(quadratic.full_rows) == (1 if probes <= 52 else 2)


@pytest.mark.parametrize("kind", ["cosh", "logistic"])
def test_full_probe_memory_stays_flat_in_the_probe_count(kind):
    # n = 200 samples of dimension 20, K = 400: in row blocks the peak is 0.52 MiB on cosh
    # and 0.75 MiB on logistic; one unblocked call of 401 rows peaks at 25.3 and 2.70 MiB
    layout = BlockLayout(10, 10)
    rng = RngStream(95, 0xDA7A)
    obj = (CoshObjective.random(layout, 200, rng, shift_spread=0.3) if kind == "cosh"
           else LogisticObjective.random(layout, 200, rng, lam=0.1))
    w = HybridPoint(layout, sample_gaussian(RngStream(95, 1), layout.d))
    tracemalloc.start()
    try:
        estimate_block_lipschitz(obj, w, ProbeConfig(probes=400), RngStream(96, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20, peak


def _families(n):
    rng = RngStream(97, 0xDA7A)
    return {
        "block_quadratic": BlockQuadratic.random(LAYOUT, n, 5.0, 0.5, rng.child(0), center_spread=1.0),
        "cosh": CoshObjective.random(LAYOUT, n, rng.child(1), shift_spread=0.3),
        "logistic": LogisticObjective.random(LAYOUT, n, rng.child(2), lam=0.1),
        "linear": LinearObjective.random(LAYOUT, n, rng.child(3)),
        "dense_quadratic": DenseQuadratic.random(LAYOUT, n, rng.child(4), center_scale=1.0),
    }


@pytest.mark.parametrize("probes", [7, 300])
@pytest.mark.parametrize("target", list(Block))
@pytest.mark.parametrize("name", sorted(_families(1)))
def test_all_samples_probe_equals_per_sample_loop(name, target, probes):
    # 23 samples of dimension 5: one group of samples for K = 7, and groups of
    # 10, 10 and 3 for K = 300, so the pooled call crosses two group boundaries
    obj = _families(23)[name]
    w = HybridPoint(LAYOUT, sample_gaussian(RngStream(98, 1), LAYOUT.d))
    cfg = ProbeConfig(probes=probes, target=target)
    loop_rng, pooled_rng = RngStream(99, 1), RngStream(99, 1)
    # the reference: one sample at a time, K directions and one _hvp_rows call each, from one stream
    sl = LAYOUT.slice_of(target)
    reps = []
    for i in range(obj.n):
        directions = _unit_sphere_rows(loop_rng, probes, sl.stop - sl.start)
        hv = _hvp_rows(obj, w.values, directions, cfg.h, target, np.array([i]))[:, sl]
        sq = np.vecdot(hv, hv)
        reps.append((sqrt(np.max(sq)), sqrt(np.mean(sq))))  # (operator_lb, frobenius_raw)
    got = estimate_block_lipschitz(obj, w, cfg, pooled_rng, sample=ALL)
    assert repr(got.operator_lb) == repr(max(operator_lb for operator_lb, _ in reps))
    assert repr(pooled_rng.generator.bit_generator.state) == repr(loop_rng.generator.bit_generator.state)
    assert got.probes == obj.n * probes
    # the pooled mean of ||Hv||^2 is the mean of the per-sample means
    pooled_sq = np.mean([raw ** 2 for _, raw in reps])
    assert got.frobenius_raw == pytest.approx(sqrt(pooled_sq), rel=1e-12, abs=1e-300)
    assert (got.block, got.h) == (target, cfg.h)


@pytest.mark.parametrize("probes", [1, 7, 300, 3276])
def test_all_samples_probe_is_one_batched_call_per_group_of_samples(probes):
    # 23 samples of dimension 5 go in groups of G = max(1, _ROW_BUDGET // (5 (K + 1)))
    # samples (G = 1 from K = 3276 on); a group is one call on its G (K + 1) points,
    # each sample's base point first among its own K + 1 rows
    class SelectorRecording(CountingQuadratic):
        def grads_at_points(self, points, i):
            self.selectors.append(np.array(i))
            return super().grads_at_points(points, i)

    n, size = 23, max(1, objectives._ROW_BUDGET // (5 * (probes + 1)))
    obj = SelectorRecording(LAYOUT, np.arange(5.0 * n).reshape(n, 5) / 100.0, 3.0, 1.0)
    obj.selectors = []
    w = HybridPoint(LAYOUT, [0.5, -1.0, 0.25, 2.0, -0.5])
    rep = estimate_block_lipschitz(obj, w, ProbeConfig(probes=probes, target=Block.Y), RngStream(93, 1),
                                   sample=ALL)
    assert obj.grad_calls == 0 and obj.full_rows == [] and rep.probes == n * probes
    groups = [np.arange(k, min(k + size, n)) for k in range(0, n, size)]
    assert obj.grad_rows == [len(group) * (probes + 1) for group in groups]
    for got, group in zip(obj.selectors, groups, strict=True):
        assert np.array_equal(got, np.repeat(group, probes + 1))


@pytest.mark.parametrize("scale", [0.0, 1e-75, 1e-20, 1.0, 1e20, 1e75])
@pytest.mark.parametrize("probes", [1, 2, 3, 50])
@pytest.mark.parametrize("sample", [None, 0, ALL], ids=["None", "0", "ALL"])
def test_probe_statistics_equal_numpy_max_mean_std(scale, probes, sample):
    # ||Hv||^2 spans 1e-150 to 1e150 (all zero for scale 0); the report must
    # hold the bits of the np.max / np.mean / np.std(ddof=1) formulas over the
    # K probes of the full objective (None), of sample 0 alone (ALL on the
    # objective of that one sample), or pooled over both samples' n K (ALL)
    layout = BlockLayout(2, 3)
    base = DenseQuadratic.random(layout, 2, RngStream(94, 0xDA7A), center_scale=1.0)
    obj = DenseQuadratic(layout, scale * base.hessian, base.centers[:1] if sample == 0 else base.centers)
    w = HybridPoint(layout, sample_gaussian(RngStream(94, 1), layout.d))
    form, group, m = (None, None, probes) if sample is None else (ALL, np.arange(obj.n), obj.n * probes)
    for target in Block:
        cfg = ProbeConfig(probes=probes, target=target)
        sl = layout.slice_of(target)
        dim = sl.stop - sl.start
        directions = _unit_sphere_rows(RngStream(95, 1), m, dim)
        hv = _hvp_rows(obj, w.values, directions, cfg.h, target, group)[:, sl]
        sq = np.vecdot(hv, hv)
        mean_sq = float(np.mean(sq))
        std = float(np.std(sq, ddof=1)) if m > 1 and mean_sq > 0.0 else None
        want = ProbeReport(
            sqrt(mean_sq), sqrt(dim * mean_sq), float(np.max(np.sqrt(sq))),
            0.0 if std is None else sqrt(dim) * (std / sqrt(m)) / (2.0 * sqrt(mean_sq)),
            m, cfg.h, target)
        got = estimate_block_lipschitz(obj, w, cfg, RngStream(95, 1), sample=form)
        assert repr(got) == repr(want), (target, got, want)


def test_full_probe_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    # logistic n = 2000, d = 300: the kernel's dots run over d and n, below the
    # length (about 1e4) at which OpenBLAS splits one dot across threads, while
    # `c @ features` at this size gives different bytes with 1 and 2 threads
    points = 0.05 * sample_gaussian(RngStream(96, 1), 2 * 300).reshape(2, 300)
    cfg = {"objective": {"kind": "logistic", "d_x": 150, "d_y": 150, "n": 2000, "lam": 0.01,
                         "seed": 96},
           "probe": {"probes": 20}, "trajectory": {"kind": "points", "points": points.tolist()},
           "seed": 96}
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    child = "import sys; from hybridsgd.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = tmp_path / f"threads{threads}.csv"
        subprocess.run([sys.executable, "-c", child, "probe", "--config", str(tmp_path / "config.json"),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3


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
    # a sample is None (the full objective) or ALL (every sample, pooled): an index,
    # an index array, a bool or another slice is an error
    for sample in (1, np.int64(0), np.array([0]), True, slice(0, 1)):
        with pytest.raises(ValueError, match="sample must be None or objectives.ALL, got"):
            estimate_block_lipschitz(obj, w, ProbeConfig(probes=2), RngStream(92, 1), sample=sample)
    with pytest.raises(ValueError):
        estimate_block_lipschitz(obj, HybridPoint(BlockLayout(2, 3), np.zeros(5)),
                                 ProbeConfig(probes=2), RngStream(92, 1))


def test_a_slice_equal_to_all_is_all():
    # slice(None) is ALL by value, not by identity: the same report, bit for bit
    obj = BlockQuadratic.random(LAYOUT, 3, 2.0, 0.5, RngStream(93, 0), center_spread=1.0)
    w = HybridPoint(LAYOUT, sample_gaussian(RngStream(93, 1), 5))
    cfg = ProbeConfig(probes=4, target=Block.X)
    reports = [estimate_block_lipschitz(obj, w, cfg, RngStream(93, 2), sample=sample)
               for sample in (ALL, slice(None))]
    assert repr(reports[0]) == repr(reports[1]) and reports[0].probes == 3 * 4
    for sample in (slice(0, 1), slice(None, None, 1), np.arange(3), np.array([0, 1, 2])):
        with pytest.raises(ValueError, match="sample must be None or objectives.ALL, got"):
            estimate_block_lipschitz(obj, w, cfg, RngStream(93, 2), sample=sample)
