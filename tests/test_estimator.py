"""Two-point directional gradient estimates for the x block."""
import numpy as np
import pytest

from hybridsgd import (
    Block,
    BlockLayout,
    BlockMode,
    BlockQuadratic,
    CoshObjective,
    HybridPoint,
    LearningRates,
    LinearObjective,
    Mode,
    NumericError,
    OptimizerConfig,
    PerturbationUnderflowWarning,
    RngStream,
    ZoConfig,
    estimate_x_gradient,
    sample_gaussian,
    smoothed_gradient_reference,
)
from hybridsgd import optimizer
from hybridsgd.estimator import _two_point_rows
from hybridsgd.optimizer import step
from conftest import BlockGuardObjective, CountingQuadratic, OffsetObjective, ScaledObjective

LAYOUT = BlockLayout(2, 1)


def _x_estimate(obj, w, i, mu, v):
    """One x-block estimate [(f(x + mu v, y; i) - f(x, y; i)) / mu] * v through
    the estimator's row helper."""
    sl = obj.layout.slice_of(Block.X)
    return _two_point_rows(obj, w.values, i, mu, v[None, :], sl)[0]


def _linear(slopes_rows):
    return LinearObjective(BlockLayout(2, 1), np.asarray(slopes_rows, dtype=np.float64))


def test_linear_estimate_is_projection():
    # estimate along v = e0 is (c . v) v = (1, 0); exact on dyadic data,
    # within rounding of the difference quotient otherwise.
    obj = _linear([[1.0, 2.0, 5.0]])
    w = HybridPoint(LAYOUT, [0.5, -0.25, 2.0])
    est = _x_estimate(obj, w, 0, 0.25, np.array([1.0, 0.0]))
    assert np.array_equal(est, [1.0, 0.0])
    est = _x_estimate(obj, w, 0, 0.1, np.array([1.0, 0.0]))
    assert np.allclose(est, [1.0, 0.0], rtol=0.0, atol=1e-12)


def test_constant_in_x_gives_zero_vector():
    obj = _linear([[0.0, 0.0, 3.0]])
    w = HybridPoint(LAYOUT, [1.0, 1.0, 1.0])
    for mu in (1.0, 1e-3):
        est = _x_estimate(obj, w, 0, mu, np.array([0.5, -2.0]))
        assert np.array_equal(est, [0.0, 0.0])


def test_quadratic_difference_quotient_closed_form():
    # f = x^2/2 at x=2: ((x+mu)^2 - x^2)/(2 mu) = x + mu/2 = 2.005 for mu = 0.01.
    obj = BlockQuadratic(BlockLayout(1, 1), np.zeros((1, 2)), 1.0, 1.0)
    w = HybridPoint(obj.layout, [2.0, 7.0])
    est = _x_estimate(obj, w, 0, 0.01, np.array([1.0]))
    assert est[0] == pytest.approx(2.005, rel=0.0, abs=1e-12)


def test_shift_invariance_exact_on_dyadic_data():
    base = _linear([[2.0, 4.0, 8.0]])
    shifted = OffsetObjective(base, 16.0)
    w = HybridPoint(LAYOUT, [1.0, 2.0, 4.0])
    v = np.array([1.0, -1.0])
    a = _x_estimate(base, w, 0, 0.5, v)
    b = _x_estimate(shifted, w, 0, 0.5, v)
    assert np.array_equal(a, b)


def test_shift_invariance_close_on_generic_data():
    base = BlockQuadratic.random(LAYOUT, 2, 3.0, 1.0, RngStream(21, 0xDA7A), center_spread=1.0)
    shifted = OffsetObjective(base, np.pi)
    w = HybridPoint(LAYOUT, sample_gaussian(RngStream(22, 1), 3))
    v = sample_gaussian(RngStream(23, 1), 2)
    a = _x_estimate(base, w, 1, 1e-3, v)
    b = _x_estimate(shifted, w, 1, 1e-3, v)
    assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def test_homogeneity_exact_for_power_of_two_scale():
    base = _linear([[1.5, -0.75, 2.0]])
    scaled = ScaledObjective(base, 4.0)
    w = HybridPoint(LAYOUT, [1.0, -1.0, 0.5])
    v = np.array([0.5, 2.0])
    assert np.array_equal(
        _x_estimate(scaled, w, 0, 0.25, v),
        4.0 * _x_estimate(base, w, 0, 0.25, v),
    )


def test_output_is_x_block_only_and_y_never_perturbed():
    base = BlockQuadratic.random(LAYOUT, 2, 2.0, 1.0, RngStream(24, 0xDA7A))
    w = HybridPoint(LAYOUT, [0.2, -0.4, 1.7])
    guarded = BlockGuardObjective(base, slice(2, 3), w.values[2:])
    est = estimate_x_gradient(guarded, w, 0, ZoConfig(mu=1e-2, directions_per_step=3),
                              RngStream(25, 1))
    assert est.shape == (2,)


def test_q3_average_replays_single_direction_estimates():
    obj = BlockQuadratic.random(LAYOUT, 3, 2.0, 1.0, RngStream(26, 0xDA7A), center_spread=0.5)
    w = HybridPoint(LAYOUT, [1.0, 2.0, -1.0])
    averaged = estimate_x_gradient(obj, w, 1, ZoConfig(mu=1e-3, directions_per_step=3),
                                   RngStream(27, 1))
    rng = RngStream(27, 1)
    acc = np.zeros(2)
    for _ in range(3):
        acc += _x_estimate(obj, w, 1, 1e-3, sample_gaussian(rng, 2))
    assert np.array_equal(averaged, acc / 3)


class _ValueCounting(OffsetObjective):
    """Counts per-sample value calls; adds nothing to the values."""

    def __init__(self, base):
        super().__init__(base, 0.0)
        self.value_calls = 0

    def value_at(self, values, i):
        self.value_calls += 1
        return self.base.value_at(values, i)


@pytest.mark.parametrize("q", [1, 2, 5])
def test_q_direction_estimate_costs_q_plus_one_values(q):
    base = BlockQuadratic.random(LAYOUT, 3, 2.0, 1.0, RngStream(30, 0xDA7A), center_spread=0.5)
    counted = _ValueCounting(base)
    w = HybridPoint(LAYOUT, [1.0, 2.0, -1.0])
    cfg = ZoConfig(mu=1e-3, directions_per_step=q)
    est = estimate_x_gradient(counted, w, 2, cfg, RngStream(31, 1))
    assert counted.value_calls == q + 1
    assert np.array_equal(est, estimate_x_gradient(base, w, 2, cfg, RngStream(31, 1)))
    counted.value_calls = 0
    _x_estimate(counted, w, 2, 1e-3, np.array([1.0, 0.5]))
    assert counted.value_calls == 2


@pytest.mark.parametrize("q", [1, 3])
def test_q_direction_estimate_is_one_batched_call_of_q_plus_one_values(q):
    # the base value is row 0 of the same batched call as the q shifted values
    obj = CountingQuadratic(LAYOUT, [[0.5, -0.5, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], 2.0, 1.0)
    w = HybridPoint(LAYOUT, [1.0, 2.0, -1.0])
    estimate_x_gradient(obj, w, 2, ZoConfig(mu=1e-3, directions_per_step=q), RngStream(31, 1))
    assert obj.value_calls == 0
    assert obj.value_rows == [q + 1]


def test_estimate_replays_bitwise():
    obj = CoshObjective.random(LAYOUT, 2, RngStream(28, 0xDA7A))
    w = HybridPoint(LAYOUT, [0.1, 0.2, 0.3])
    cfg = ZoConfig(mu=1e-4)
    a = estimate_x_gradient(obj, w, 0, cfg, RngStream(29, 1))
    b = estimate_x_gradient(obj, w, 0, cfg, RngStream(29, 1))
    assert np.array_equal(a, b)


def test_validation_errors():
    obj = _linear([[1.0, 1.0, 1.0]])
    w = HybridPoint(LAYOUT, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ZoConfig(mu=0.0)
    with pytest.raises(ValueError):
        ZoConfig(mu=-1e-3)
    cfg = ZoConfig(mu=1e-3)
    with pytest.raises(IndexError):
        estimate_x_gradient(obj, w, 1, cfg, RngStream(32, 1))  # n = 1
    with pytest.raises(ValueError):
        estimate_x_gradient(obj, HybridPoint(BlockLayout(1, 2), np.zeros(3)), 0, cfg,
                            RngStream(32, 1))
    with pytest.raises(ValueError):
        ZoConfig(mu=1e-3, directions_per_step=0)
    with pytest.raises(ValueError):
        ZoConfig(mu=np.inf)


def test_non_finite_perturbed_value_is_reported():
    obj = CoshObjective(BlockLayout(1, 1), np.zeros((1, 2)))
    w = HybridPoint(obj.layout, [700.0, 0.0])
    with pytest.raises(NumericError), np.errstate(over="ignore"):
        _x_estimate(obj, w, 0, coercing_mu := 50.0, np.array([1.0]))
    assert coercing_mu == 50.0


def test_underflow_warning_when_mu_below_float_resolution():
    obj = BlockQuadratic(BlockLayout(1, 1), np.zeros((1, 2)), 1.0, 1.0)
    w = HybridPoint(obj.layout, [1e12, 0.0])
    with pytest.warns(PerturbationUnderflowWarning) as record:
        est = _x_estimate(obj, w, 0, 1e-9, np.array([1.0]))
    assert np.all(np.isfinite(est))
    with pytest.warns(PerturbationUnderflowWarning) as record:
        est = estimate_x_gradient(obj, w, 0, ZoConfig(mu=1e-9, directions_per_step=2),
                                  RngStream(35, 1))
    assert np.all(np.isfinite(est))
    assert record[0].filename == __file__  # attributed to the caller


def test_step_reports_non_finite_direction_value_and_underflow_at_caller():
    # mu = 1e3 pushes some of the q = 4 cosh arguments past overflow
    obj = CoshObjective(BlockLayout(2, 1), np.zeros((1, 3)))
    w = HybridPoint(obj.layout, [0.5, -0.5, 0.25])
    cfg = OptimizerConfig(LearningRates(0.1, 0.1), BlockMode(Mode.ZO, Mode.FO),
                          zo=ZoConfig(mu=1e3, directions_per_step=4))
    message = r"non-finite value in a two-point probe \(sample 0\)"
    with pytest.raises(NumericError, match=message), np.errstate(over="ignore"):
        step(obj, w.values, 0, cfg, RngStream(36, 1))
    # mu * ||v|| far below the float resolution of ||x|| = 1e12
    quad = BlockQuadratic(BlockLayout(1, 1), np.zeros((1, 2)), 1.0, 1.0)
    w = HybridPoint(quad.layout, [1e12, 0.0])
    cfg = OptimizerConfig(LearningRates(0.0, 0.0), BlockMode(Mode.ZO, Mode.FO),
                          zo=ZoConfig(mu=1e-9, directions_per_step=3))
    with pytest.warns(PerturbationUnderflowWarning) as record:
        out = step(quad, w.values, 0, cfg, RngStream(37, 1))
    assert np.all(np.isfinite(out))
    assert record[0].filename == optimizer.__file__  # step, the estimator's caller


def test_underflow_warning_when_any_direction_is_short():
    obj = BlockQuadratic(BlockLayout(1, 1), np.zeros((1, 2)), 1.0, 1.0)
    values = np.array([1e6, 0.0])
    # threshold 1e3 * eps * 1e6 ~ 2.2e-7: mu * 1 is above it, mu * 1e-6 below
    _two_point_rows(obj, values, 0, 1e-3, np.array([[1.0], [2.0]]), slice(0, 1))
    with pytest.warns(PerturbationUnderflowWarning):
        _two_point_rows(obj, values, 0, 1e-3, np.array([[1.0], [1e-6]]), slice(0, 1))


def test_smoothed_reference_linear_recovers_slope():
    obj = _linear([[1.0, -2.0, 3.0]])
    w = HybridPoint(LAYOUT, [0.5, 0.5, 0.5])
    ref = smoothed_gradient_reference(obj, w, 0, 1e-2, 20_000, RngStream(30, 1))
    assert np.all(np.abs(ref.mean - np.array([1.0, -2.0])) <= 4.0 * ref.stderr)


def test_smoothed_reference_quadratic_recovers_block_gradient():
    # Gaussian smoothing adds a constant to a quadratic, not to its gradient.
    layout = BlockLayout(2, 2)
    obj = BlockQuadratic(layout, np.tile(np.array([1.0, -1.0, 0.0, 2.0]), (3, 1)), 2.0, 1.0)
    w = HybridPoint(layout, [0.0, 0.5, 1.0, 1.0])
    expected = 2.0 * (w.values[:2] - np.array([1.0, -1.0]))
    ref = smoothed_gradient_reference(obj, w, 1, 1e-3, 40_000, RngStream(31, 1))
    assert np.all(np.abs(ref.mean - expected) <= 4.0 * ref.stderr)


def test_smoothed_reference_consistent_across_seeds():
    obj = CoshObjective.random(LAYOUT, 2, RngStream(32, 0xDA7A), shift_spread=0.2)
    w = HybridPoint(LAYOUT, [0.4, -0.3, 0.8])
    a = smoothed_gradient_reference(obj, w, 0, 1e-2, 50_000, RngStream(33, 1))
    b = smoothed_gradient_reference(obj, w, 0, 1e-2, 50_000, RngStream(34, 1))
    combined = np.sqrt(a.stderr**2 + b.stderr**2)
    assert np.all(np.abs(a.mean - b.mean) <= 5.0 * combined)


def test_unbiased_for_quadratic_smoothed_gradient():
    # E[(x^T v) v] = x and E[||v||^2 v] = 0: the Monte Carlo mean approaches
    # the true x-block gradient a (x - c) despite the mu-order bias terms.
    layout = BlockLayout(3, 1)
    centers = np.tile(np.array([0.5, -0.5, 1.0, 0.0]), (2, 1))
    obj = BlockQuadratic(layout, centers, 3.0, 1.0)
    w = HybridPoint(layout, [1.0, 1.0, 0.0, 2.0])
    expected = 3.0 * (w.values[:3] - centers[0, :3])
    rng = RngStream(35, 1)
    cfg = ZoConfig(mu=1e-4)
    draws = 20_000
    total = np.zeros(3)
    total_sq = np.zeros(3)
    for _ in range(draws):
        e = estimate_x_gradient(obj, w, 0, cfg, rng)
        total += e
        total_sq += e * e
    mean = total / draws
    stderr = np.sqrt((total_sq / draws - mean * mean) / (draws - 1))
    assert np.all(np.abs(mean - expected) <= 4.0 * stderr)
