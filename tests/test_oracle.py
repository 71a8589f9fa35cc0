"""Value-only validators versus analytic gradients and estimator theory."""
import tracemalloc

import numpy as np
import pytest

from hybridsgd import (
    BlockLayout,
    BlockQuadratic,
    CoshObjective,
    HybridPoint,
    LinearObjective,
    LogisticObjective,
    RngStream,
    check_estimator_bounds,
    check_hybrid_smoothness,
    dense_hessian,
    fd_gradient,
    sample_gaussian,
)
from hybridsgd import oracle

LAYOUT = BlockLayout(3, 2)


def test_fd_gradient_matches_quadratic():
    obj = BlockQuadratic.random(LAYOUT, 4, 2.0, 1.0, RngStream(130, 0xDA7A),
                                center_spread=0.5)
    w = HybridPoint(LAYOUT, sample_gaussian(RngStream(131, 1), 5))
    assert np.allclose(fd_gradient(obj, w), obj.grad_full(w), atol=1e-8)
    for i in range(obj.n):
        assert np.allclose(fd_gradient(obj, w, i), obj.grad_at(w.values, i), atol=1e-8)


def test_fd_gradient_matches_linear_slope():
    slopes = np.array([[0.5, -1.25, 2.0, 0.25, -0.5]])
    obj = LinearObjective(LAYOUT, slopes)
    w = HybridPoint(LAYOUT, np.zeros(5))
    assert np.allclose(fd_gradient(obj, w, 0), slopes[0], atol=1e-10)


def test_fd_gradient_matches_logistic():
    obj = LogisticObjective.random(LAYOUT, 6, RngStream(132, 0xDA7A))
    w = HybridPoint(LAYOUT, 0.3 * np.ones(5))
    fd = fd_gradient(obj, w)
    an = obj.grad_full(w)
    assert np.linalg.norm(fd - an) <= 1e-6 * max(np.linalg.norm(an), 1.0)


def test_dense_hessian_recovers_diagonal():
    obj = BlockQuadratic(LAYOUT, np.zeros((1, 5)), 4.0, 1.5)
    w = HybridPoint(LAYOUT, sample_gaussian(RngStream(133, 1), 5))
    hess = dense_hessian(obj, w)
    assert np.allclose(hess, np.diag([4.0, 4.0, 4.0, 1.5, 1.5]), atol=1e-8)


def test_dense_hessian_cosh_identity_at_shift():
    obj = CoshObjective(LAYOUT, np.zeros((2, 5)))
    w = HybridPoint(LAYOUT, np.zeros(5))
    assert np.allclose(dense_hessian(obj, w), np.eye(5), atol=1e-8)


def test_dense_hessian_asymmetry_is_noise():
    obj = LogisticObjective.random(LAYOUT, 5, RngStream(134, 0xDA7A))
    w = HybridPoint(LAYOUT, 0.2 * np.ones(5))
    raw = oracle._central_differences(obj, obj.grads_at_points, w.values, False)[:, 0].T
    asym = np.linalg.norm(raw - raw.T)
    assert asym <= 1e-6 * max(np.linalg.norm(raw), 1.0)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["cosh", "logistic"])
def test_oracle_memory_stays_flat_in_the_sample_count(kind):
    # n = 2000 samples of dimension 20.  Blocks that keep only the sample mean peak at 0.63 MiB
    # on cosh and 0.43 MiB on logistic for dense_hessian, 0.62 and 0.06 MiB for the full
    # fd_gradient; keeping every sample's gradients, a (2d, n + 1, d) table, peaks at 30.5 MiB.
    # A sample's fd_gradient reads the (2d, n + 1) table of values and peaks at 2.5 times its size.
    layout, n = BlockLayout(10, 10), 2000
    rng = RngStream(135, 0xDA7A)
    obj = (CoshObjective.random(layout, n, rng, shift_spread=0.3) if kind == "cosh"
           else LogisticObjective.random(layout, n, rng, lam=0.1))
    w = HybridPoint(layout, sample_gaussian(RngStream(135, 1), layout.d))
    assert _traced_peak(dense_hessian, obj, w) < 1.5 * 2 ** 20
    assert _traced_peak(fd_gradient, obj, w) < 1.5 * 2 ** 20
    assert _traced_peak(fd_gradient, obj, w, n - 1) < 4 * (2 * layout.d * (n + 1) * 8)


def test_linear_squared_error_closed_form():
    # error of (c.v)v against c: E||e||^2 = (d_x + 1) ||c||^2, zero curvature
    slopes = np.array([[0.6, -0.3, 0.8, 0.0, 0.0]])
    obj = LinearObjective(LAYOUT, slopes)
    w = HybridPoint(LAYOUT, np.zeros(5))
    c_sq = float(np.dot(slopes[0, :3], slopes[0, :3]))
    bias, sq = check_estimator_bounds(obj, w, 0, mu=0.1, trials=10000,
                                      rng=RngStream(135, 1))
    assert sq.theoretical_rhs == 32.0 * 3 * c_sq
    assert abs(sq.empirical_lhs - 4.0 * c_sq) <= 5.0 * sq.empirical_stderr
    assert sq.passed
    # no curvature, no smoothing bias: rhs = 0 and the mean sits at 0
    assert bias.theoretical_rhs == 0.0
    assert abs(bias.empirical_lhs) <= 3.0 * bias.empirical_stderr
    assert bias.passed
    assert bias.trials == sq.trials == 10000


def test_quadratic_bounds_hold():
    obj = BlockQuadratic.random(LAYOUT, 3, 2.0, 1.0, RngStream(136, 0xDA7A),
                                center_spread=0.5)
    w = HybridPoint(LAYOUT, obj.centers.mean(axis=0) + 0.7)
    bias, sq = check_estimator_bounds(obj, w, 1, mu=1e-3, trials=10000,
                                      rng=RngStream(137, 1))
    assert bias.passed and sq.passed
    assert bias.theoretical_rhs > 0.0
    assert sq.empirical_lhs > 0.0


def test_estimator_bounds_validation():
    obj = BlockQuadratic(LAYOUT, np.zeros((1, 5)), 1.0, 1.0)
    w = HybridPoint(LAYOUT, np.ones(5))
    with pytest.raises(ValueError):
        check_estimator_bounds(obj, w, 0, mu=0.0, trials=100, rng=RngStream(138, 1))
    with pytest.raises(ValueError):
        check_estimator_bounds(obj, w, 0, mu=0.1, trials=1, rng=RngStream(138, 1))
    cosh = CoshObjective(LAYOUT, np.zeros((1, 5)))  # unbounded curvature
    with pytest.raises(ValueError, match="lipschitz"):
        check_estimator_bounds(cosh, w, 0, mu=0.1, trials=100, rng=RngStream(138, 1))


def test_smoothness_envelope_quadratic():
    obj = BlockQuadratic(LAYOUT, np.zeros((2, 5)), 4.0, 1.0)
    rng = RngStream(139, 1)
    pts = [HybridPoint(LAYOUT, sample_gaussian(rng, 5)) for _ in range(5)]
    report = check_hybrid_smoothness(obj, pts, lambda u: 4.0, lambda u: 1.0)
    assert report.bound_name == "hybrid_smoothness_envelope"
    assert report.passed
    assert report.empirical_lhs == pytest.approx(0.0, abs=1e-8)
    assert report.trials == 5

    control = check_hybrid_smoothness(obj, pts, lambda u: 2.0, lambda u: 1.0)
    assert not control.passed
    assert control.empirical_lhs == pytest.approx(2.0, abs=1e-8)


def test_smoothness_envelope_cosh():
    # cosh(t) <= 1 + |sinh(t)|, so ell(u) = 1 + u covers both blocks
    obj = CoshObjective(LAYOUT, np.zeros((3, 5)))
    gen = RngStream(140, 1).generator
    pts = [HybridPoint(LAYOUT, gen.uniform(-3.0, 3.0, size=5)) for _ in range(100)]
    report = check_hybrid_smoothness(obj, pts, lambda u: 1.0 + u, lambda u: 1.0 + u)
    assert report.passed
    assert report.trials == 100

    flat = check_hybrid_smoothness(obj, pts, lambda u: 0.5, lambda u: 0.5)
    assert not flat.passed


def test_smoothness_check_rejects_empty_points():
    obj = BlockQuadratic(LAYOUT, np.zeros((1, 5)), 1.0, 1.0)
    with pytest.raises(ValueError):
        check_hybrid_smoothness(obj, [], lambda u: 1.0, lambda u: 1.0)
