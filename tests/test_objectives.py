"""Finite-sum objective families: values, gradients, variance, serialization."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hybridsgd import (
    BlockLayout,
    BlockQuadratic,
    CoshObjective,
    DenseQuadratic,
    FiniteSumObjective,
    HybridPoint,
    LinearObjective,
    LogisticObjective,
    RngStream,
    fd_gradient,
    objective_from_dict,
    sample_gaussian,
)

from hybridsgd.core import _load_json
from hybridsgd.objectives import ALL
from conftest import OffsetObjective, ScaledObjective

LAYOUT = BlockLayout(3, 2)
EPS = np.finfo(np.float64).eps


def _families(seed=101):
    rng = RngStream(seed, 0xDA7A)
    return {
        "block_quadratic": BlockQuadratic.random(
            LAYOUT, 4, 5.0, 0.5, rng.child(0), center_spread=1.0
        ),
        "cosh": CoshObjective.random(LAYOUT, 3, rng.child(1), shift_spread=0.3),
        "logistic": LogisticObjective.random(LAYOUT, 5, rng.child(2), lam=0.1),
        "linear": LinearObjective.random(LAYOUT, 3, rng.child(3)),
        "dense_quadratic": DenseQuadratic.random(LAYOUT, 2, rng.child(4), center_scale=1.0),
    }


def test_quadratic_eval_example():
    # a_x = a_y = 1 and zero center: f(w; 0) = 0.5 ||w||^2, so (3, 4) -> 12.5.
    obj = BlockQuadratic(BlockLayout(1, 1), np.zeros((1, 2)), 1.0, 1.0)
    assert obj.value_at(np.array([3.0, 4.0]), 0) == 12.5


def test_quadratic_gradient_closed_form():
    layout = BlockLayout(2, 2)
    centers = np.array([[1.0, -1.0, 2.0, 0.5], [0.0, 3.0, -2.0, 1.0]])
    obj = BlockQuadratic(layout, centers, 4.0, 0.25)
    w = HybridPoint(layout, [0.5, 0.5, 0.5, 0.5])
    diag = np.array([4.0, 4.0, 0.25, 0.25])
    for i in range(2):
        assert np.array_equal(obj.grad_at(w.values, i), diag * (w.values - centers[i]))
    expected_full = diag * (w.values - centers.mean(axis=0))
    assert np.allclose(obj.grad_full(w), expected_full, rtol=1e-12, atol=0.0)


def test_quadratic_minimizer_is_mean_center():
    obj = _families()["block_quadratic"]
    mean = obj.centers.mean(axis=0)
    w = HybridPoint(LAYOUT, mean)
    assert np.linalg.norm(obj.grad_full(w)) <= 1e-12
    assert obj.f_star == pytest.approx(obj.eval_full(w), rel=0.0, abs=0.0)


def test_cosh_value_and_gradient_at_shift():
    obj = CoshObjective.random(BlockLayout(2, 2), 3, RngStream(5, 0xDA7A), shift_spread=0.5)
    for i in range(obj.n):
        w = HybridPoint(obj.layout, obj.shifts[i])
        assert obj.value_at(w.values, i) == pytest.approx(4.0, rel=0.0, abs=0.0)
        assert np.array_equal(obj.grad_at(w.values, i), np.zeros(4))


def test_cosh_f_star_only_for_shared_shifts():
    shared = CoshObjective.random(LAYOUT, 3, RngStream(6, 0xDA7A))
    spread = CoshObjective.random(LAYOUT, 3, RngStream(6, 0xDA7A), shift_spread=0.5)
    assert shared.f_star == float(LAYOUT.d)
    assert spread.f_star is None


def test_logistic_at_zero_is_log2():
    obj = LogisticObjective.random(LAYOUT, 4, RngStream(7, 0xDA7A), lam=0.0)
    w = HybridPoint(LAYOUT, np.zeros(LAYOUT.d))
    for i in range(obj.n):
        assert obj.value_at(w.values, i) == pytest.approx(np.log(2.0), rel=1e-15)
    assert obj.eval_full(w) == pytest.approx(np.log(2.0), rel=1e-15)


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError):
        LogisticObjective(LAYOUT, np.ones((2, 5)), [1.0, 0.5])
    with pytest.raises(ValueError):
        LogisticObjective(LAYOUT, np.ones((2, 5)), [1.0, -1.0], lam=-0.1)


def test_logistic_lipschitz_bound_formula():
    features = np.array([[2.0, 0.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0, 0.0]])
    obj = LogisticObjective(LAYOUT, features, [1.0, -1.0], lam=0.25)
    l_x, l_y = obj.block_lipschitz_bound()
    assert l_x == pytest.approx(9.0 / 4.0 + 0.25, rel=1e-15)
    assert l_y == pytest.approx(0.25, rel=1e-15)


def test_singleton_full_equals_sample():
    obj = BlockQuadratic.random(LAYOUT, 1, 2.0, 1.0, RngStream(8, 0xDA7A))
    w = HybridPoint(LAYOUT, sample_gaussian(RngStream(9, 1), LAYOUT.d))
    assert obj.eval_full(w) == obj.value_at(w.values, 0)
    assert np.array_equal(obj.grad_full(w), obj.grad_at(w.values, 0))


def test_full_value_matches_direct_summation():
    rng = RngStream(10, 1)
    for obj in _families().values():
        w = HybridPoint(LAYOUT, sample_gaussian(rng, LAYOUT.d))
        direct = sum(obj.value_at(w.values, i) for i in range(obj.n)) / obj.n
        assert obj.eval_full(w) == pytest.approx(direct, rel=1e-12)
        direct_grad = sum(obj.grad_at(w.values, i) for i in range(obj.n)) / obj.n
        assert np.allclose(obj.grad_full(w), direct_grad, rtol=1e-12, atol=1e-15)


def test_sample_variance_identical_samples_is_zero():
    obj = BlockQuadratic(LAYOUT, np.tile(np.arange(5.0), (4, 1)), 3.0, 1.0)
    w = HybridPoint(LAYOUT, np.ones(5))
    assert obj.sample_variance(w) == 0.0


def test_sample_variance_symmetric_two_point():
    # gradients g + delta and g - delta: variance is ||delta||^2 exactly
    g = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
    delta = np.array([0.5, 0.25, -1.0, 0.0, 2.0])
    obj = LinearObjective(LAYOUT, np.vstack([g + delta, g - delta]))
    w = HybridPoint(LAYOUT, np.zeros(5))
    assert obj.sample_variance(w) == pytest.approx(float(delta @ delta), rel=1e-15)


def test_sample_variance_matches_definition():
    obj = _families()["block_quadratic"]
    w = HybridPoint(LAYOUT, sample_gaussian(RngStream(12, 1), LAYOUT.d))
    grads = [obj.grad_at(w.values, i) for i in range(obj.n)]
    mean = sum(grads) / obj.n
    direct = sum(float(np.dot(gi - mean, gi - mean)) for gi in grads) / obj.n
    assert obj.sample_variance(w) == pytest.approx(direct, rel=1e-12)


def test_gradients_match_central_differences():
    rng = RngStream(13, 1)
    for name, obj in _families().items():
        for _ in range(3):
            w = HybridPoint(LAYOUT, sample_gaussian(rng, LAYOUT.d))
            i = int(sample_gaussian(rng, 1)[0] * 100) % obj.n
            approx = fd_gradient(obj, w, i)
            exact = obj.grad_at(w.values, i)
            scale = max(np.linalg.norm(exact), 1e-12)
            assert np.linalg.norm(approx - exact) / scale <= 1e-6, name


def test_objective_data_is_immutable():
    centers = np.zeros((2, 5))
    obj = BlockQuadratic(LAYOUT, centers, 1.0, 1.0)
    centers[0, 0] = 7.0
    w = HybridPoint(LAYOUT, np.zeros(5))
    assert obj.eval_full(w) == 0.0
    with pytest.raises(ValueError):
        obj.centers[0, 0] = 1.0


# every family's data arrays, each read through core._check_array
_DATA_ARRAYS = {"block_quadratic": ("centers",), "cosh": ("shifts",), "logistic": ("features", "labels"),
                "linear": ("slopes",), "dense_quadratic": ("hessian", "centers")}


def test_checked_arrays_are_read_only():
    families = _families()
    assert sorted(families) == sorted(_DATA_ARRAYS)
    arrays = [(f"{kind}.{name}", getattr(families[kind], name))
              for kind, names in _DATA_ARRAYS.items() for name in names]
    arrays.append(("HybridPoint.values", HybridPoint(LAYOUT, [0.0, 1.0, 2.0, 3.0, 4.0]).values))
    for label, arr in arrays:
        assert not arr.flags.writeable, label
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_index_and_layout_validation():
    obj = _families()["linear"]
    w = HybridPoint(LAYOUT, np.zeros(5))
    with pytest.raises(IndexError):
        obj.check_sample(obj.n)
    with pytest.raises(IndexError):
        obj.check_sample(-1)
    with pytest.raises(IndexError):
        obj.check_sample(True)
    assert obj.check_sample(np.int64(1)) == 1
    assert obj.check_point(w) is w.values
    with pytest.raises(ValueError):
        obj.check_point(HybridPoint(BlockLayout(2, 2), np.zeros(4)))


def test_dense_quadratic_requires_symmetry():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        DenseQuadratic(BlockLayout(1, 1), bad)
    h = np.array([[2.0, 1.0], [1.0, 3.0]])
    obj = DenseQuadratic(BlockLayout(1, 1), h)
    w = HybridPoint(obj.layout, [1.0, -1.0])
    assert np.array_equal(obj.grad_full(w), h @ np.array([1.0, -1.0]))


def test_dense_quadratic_f_star_and_block_curvature_bound():
    # PSD: the minimum of the mean of 0.5 (w - c_i)^T H (w - c_i) is its value at the
    # mean center, 0.5 (1/n) sum_i (c_i - c)^T H (c_i - c) = 0.5 * 2 * 0.5^2 here
    psd = DenseQuadratic(BlockLayout(1, 1), [[2.0, 1.0], [1.0, 3.0]], [[0.0, 0.0], [1.0, 0.0]])
    assert psd.f_star == pytest.approx(0.25)
    assert psd.eval_full(HybridPoint(psd.layout, [0.5, 0.0])) == pytest.approx(psd.f_star)
    # indefinite: unbounded below, so no analytic minimum
    indefinite = DenseQuadratic(BlockLayout(1, 1), [[1.0, 3.0], [3.0, -2.0]])
    assert indefinite.f_star is None
    assert OffsetObjective(psd, 1.0).f_star is None  # the base class knows no minimum
    # per block, the largest |eigenvalue| of the diagonal sub-Hessian
    hessian = np.array([[1.0, 0.5, 0.2], [0.5, -4.0, 0.0], [0.2, 0.0, 3.0]])
    obj = DenseQuadratic(BlockLayout(2, 1), hessian)
    l_x, l_y = obj.block_lipschitz_bound()
    assert l_x == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(hessian[:2, :2]))))
    assert l_x > 4.0 and l_y == 3.0


QUADRATIC_KERNELS = ("value_at", "grad_at", "values_at_points", "grads_at_points",
                     "full_values_and_grads_at_points")


@pytest.mark.parametrize("seed", range(4))
def test_block_and_dense_quadratic_share_one_kernel(seed):
    # one body per kernel, held by both classes; a diagonal H gives the block
    # quadratic's values (by value: a matvec's zero terms can flip a zero's sign)
    assert all(DenseQuadratic.__dict__[name] is BlockQuadratic.__dict__[name] for name in QUADRATIC_KERNELS)
    rng = RngStream(seed, 0xDA7A)
    layout = BlockLayout(2 + seed, 3)
    n, m = 3 + seed, 5
    centers = sample_gaussian(rng, n * layout.d).reshape(n, layout.d)
    block = BlockQuadratic(layout, centers, 4.0 + seed, 0.5)
    dense = DenseQuadratic(layout, np.diag([4.0 + seed] * layout.d_x + [0.5] * layout.d_y), centers)
    points = sample_gaussian(rng, m * layout.d).reshape(m, layout.d)
    points[0] = centers[1]  # a zero difference row
    for i in range(n):
        assert dense.value_at(points[2], i) == block.value_at(points[2], i)
        assert np.array_equal(dense.grad_at(points[2], i), block.grad_at(points[2], i))
    for rows, i in ((points, 1), (points, np.array([2, 0, 0, n - 1, 1])), (points[3], ALL)):
        assert np.array_equal(dense.values_at_points(rows, i), block.values_at_points(rows, i))
        assert np.array_equal(dense.grads_at_points(rows, i), block.grads_at_points(rows, i))
    for got, want in zip(dense.full_values_and_grads_at_points(points),
                         block.full_values_and_grads_at_points(points)):
        assert np.array_equal(got, want)
    assert dense.f_star == block.f_star


@pytest.mark.parametrize("d", [2, 7, 64, 300])
def test_dense_quadratic_per_sample_pair_keeps_the_matmul_bits(d):
    # step's FO gradient (and its ZO values) take the square np.matvec: the
    # same bits as hessian @ dv, the form these kernels used before
    obj = DenseQuadratic.random(BlockLayout(d - 1, 1), 3, RngStream(d, 0xDA7A), center_scale=1.0)
    v = sample_gaussian(RngStream(d, 1), d)
    for i in range(obj.n):
        dv = v - obj.centers[i]
        assert obj.grad_at(v, i).tobytes() == (obj.hessian @ dv).tobytes()
        assert obj.value_at(v, i) == float(0.5 * np.dot(dv, obj.hessian @ dv))


def test_serialization_roundtrip_every_kind(tmp_path):
    specs = [
        {"kind": "block_quadratic", "d_x": 2, "d_y": 2, "n": 3, "a_x": 4.0, "a_y": 1.0,
         "seed": 3, "center_scale": 1.0, "center_spread": 0.5},
        {"kind": "cosh", "d_x": 2, "d_y": 1, "n": 2, "seed": 4, "shift_scale": 0.5},
        {"kind": "logistic", "d_x": 3, "d_y": 2, "n": 4, "seed": 5, "lam": 0.1,
         "feature_scale": 1.0},
        {"kind": "linear", "d_x": 2, "d_y": 2, "n": 2, "seed": 6, "slope_scale": 2.0},
        {"kind": "dense_quadratic", "d_x": 2, "d_y": 2, "n": 1, "seed": 7,
         "entry_scale": 1.0},
    ]
    rng = RngStream(14, 1)
    for spec in specs:
        obj = objective_from_dict(spec)
        again = objective_from_dict(spec)
        w = HybridPoint(obj.layout, sample_gaussian(rng, obj.layout.d))
        assert obj.eval_full(w) == again.eval_full(w)
        path = tmp_path / f"{spec['kind']}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        from_file = objective_from_dict(_load_json(path))
        assert from_file.eval_full(w) == obj.eval_full(w)


def test_explicit_data_arrays_in_specs():
    spec = {
        "kind": "block_quadratic", "d_x": 1, "d_y": 1, "a_x": 1.0, "a_y": 1.0,
        "centers": [[0.0, 0.0]],
    }
    obj = objective_from_dict(spec)
    assert obj.value_at(np.array([3.0, 4.0]), 0) == 12.5


def test_spec_errors():
    with pytest.raises(ValueError):
        objective_from_dict({"kind": "unknown_kind", "d_x": 1, "d_y": 1})
    with pytest.raises(ValueError):
        objective_from_dict({"kind": "block_quadratic", "d_x": 1, "d_y": 1})


# -- batched kernels ------------------------------------------------------

# Builders take (layout, n, rng, scale); scale widens the data so logistic
# margins and cosh arguments reach the saturating and overflowing ranges.
_BUILDERS = {
    "block_quadratic": lambda layout, n, rng, scale: BlockQuadratic.random(
        layout, n, 5.0, 0.5, rng, center_scale=scale, center_spread=1.0
    ),
    "cosh": lambda layout, n, rng, scale: CoshObjective.random(
        layout, n, rng, shift_scale=scale, shift_spread=0.3
    ),
    "logistic": lambda layout, n, rng, scale: LogisticObjective.random(
        layout, n, rng, lam=0.1, feature_scale=scale
    ),
    "linear": lambda layout, n, rng, scale: LinearObjective.random(
        layout, n, rng, slope_scale=scale
    ),
    "dense_quadratic": lambda layout, n, rng, scale: DenseQuadratic.random(
        layout, n, rng, entry_scale=scale, center_scale=1.0
    ),
}


def _per_sample(obj, values):
    """The per-sample reference: every sample's value and gradient, one call each."""
    vals = np.array([obj.value_at(values, i) for i in range(obj.n)])
    grads = np.stack([obj.grad_at(values, i) for i in range(obj.n)])
    return vals, grads


def _per_row(obj, points, i):
    """The per-row reference: sample i's value and gradient at every row, one call each."""
    vals = np.array([obj.value_at(p, i) for p in points])
    grads = np.stack([obj.grad_at(p, i) for p in points])
    return vals, grads


def _base_loop(obj, points, i):
    """The base-class loop of the batched pair, for any selector form."""
    return (FiniteSumObjective.values_at_points(obj, points, i),
            FiniteSumObjective.grads_at_points(obj, points, i))


def _fused(obj, values):
    """The full-objective kernel's m = 1 case: (f, grad f) at one point."""
    fs, gs = obj.full_values_and_grads_at_points(values[None])
    return float(fs[0]), gs[0]


def _hessian(obj):
    """The d x d Hessian A of a quadratic family."""
    if isinstance(obj, DenseQuadratic):
        return obj.hessian
    return np.diag(np.repeat([obj.a_x, obj.a_y], [obj.layout.d_x, obj.layout.d_y]))


def _kernel_bound(obj, w):
    """The objectives module's bound on a full kernel row at w against the exact
    full objective: (on f, on each gradient entry), in input magnitudes, with
    gamma = (n + d) eps and (n + d) smallest subnormals for underflow; (0, 0) for
    cosh, whose kernel is exact."""
    n_d = obj.n + obj.layout.d
    gamma, under = n_d * EPS, n_d * np.finfo(np.float64).smallest_subnormal
    big_w = float(np.max(np.abs(w)))
    if isinstance(obj, CoshObjective):
        return 0.0, 0.0
    if isinstance(obj, LogisticObjective):
        z = np.abs(obj.features)
        m_f = 1.0 + np.max(z.sum(axis=1)) * big_w + obj.lam * obj.layout.d * big_w ** 2
        m_g = np.max(z) + obj.lam * big_w
    elif isinstance(obj, LinearObjective):
        m_g = float(np.max(np.abs(obj.slopes)))
        m_f = obj.layout.d * big_w * m_g
    else:
        a = np.abs(_hessian(obj))
        c, r = float(np.max(np.abs(obj.centers))), float(np.max(np.abs(w - obj.centers)))
        m_f, m_g = a.sum() * (c + r) * (r + gamma * c), a.sum(axis=1).max() * (c + r)
    return gamma * m_f + under, gamma * m_g + under


def _assert_within_bound(obj, points, vals, grads, ref_vals, ref_grads, factor=2.0):
    """Kernel rows against reference rows: equal bits for cosh, else within factor
    times _kernel_bound, compared by value (a closed form may give -0.0 for +0.0).
    Against a float reference the factor is 2: the reference rounds too."""
    if isinstance(obj, CoshObjective):
        assert vals.tobytes() == ref_vals.tobytes() and grads.tobytes() == ref_grads.tobytes()
        return
    for p, f, g, ref_f, ref_g in zip(points, vals, grads, ref_vals, ref_grads):
        f_tol, g_tol = _kernel_bound(obj, p)
        assert abs(f - ref_f) <= factor * f_tol, (f, ref_f, f_tol)
        assert np.max(np.abs(g - ref_g)) <= factor * g_tol, (g, ref_g, g_tol)


def _assert_full_kernel_matches(obj, points):
    """The full-objective kernel against full_value_at/full_grad_at per row and
    the base-class loop (one reference, the same bits), within the bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals, grads = obj.full_values_and_grads_at_points(points)
        base_vals, base_grads = FiniteSumObjective.full_values_and_grads_at_points(obj, points)
        ref_vals = np.array([obj.full_value_at(p) for p in points])
        ref_grads = np.stack([obj.full_grad_at(p) for p in points])
    assert vals.shape == (len(points),) and grads.shape == points.shape
    assert ref_vals.tobytes() == base_vals.tobytes() and ref_grads.tobytes() == base_grads.tobytes()
    _assert_within_bound(obj, points, vals, grads, ref_vals, ref_grads)


def _assert_batched_matches(obj, values):
    """The pair with ALL against the per-sample loop and the base-class loop."""
    with np.errstate(over="ignore"):
        vals, grads = obj.values_at_points(values, ALL), obj.grads_at_points(values, ALL)
        ref_vals, ref_grads = _per_sample(obj, values)
        base_vals, base_grads = _base_loop(obj, values, ALL)
        fused = _fused(obj, values)
        full = (obj.full_value_at(values), obj.full_grad_at(values))
    assert vals.shape == (obj.n,) and grads.shape == (obj.n, obj.layout.d)
    assert np.array_equal(vals, ref_vals) and np.array_equal(base_vals, ref_vals)
    assert np.array_equal(grads, ref_grads) and np.array_equal(base_grads, ref_grads)
    _assert_within_bound(obj, [values], np.array([fused[0]]), fused[1][None],
                         np.array([full[0]]), full[1][None])
    return vals, grads


def _assert_at_points_matches(obj, points):
    """The pair with a sample index against the per-row loop and the base-class
    loop, for every sample."""
    out = []
    for i in range(obj.n):
        with np.errstate(over="ignore"):
            vals, grads = obj.values_at_points(points, i), obj.grads_at_points(points, i)
            ref_vals, ref_grads = _per_row(obj, points, i)
            base_vals, base_grads = _base_loop(obj, points, i)
        assert vals.shape == (len(points),) and grads.shape == points.shape
        assert np.array_equal(vals, ref_vals) and np.array_equal(base_vals, ref_vals)
        assert np.array_equal(grads, ref_grads) and np.array_equal(base_grads, ref_grads)
        out.append((vals, grads))
    return out


def _assert_selector_matches(obj, points, idx):
    """The pair with an int-array selector (row k at sample idx[k]) against the
    per-row loop and the base-class loop, bit for bit."""
    with np.errstate(over="ignore"):
        vals, grads = obj.values_at_points(points, idx), obj.grads_at_points(points, idx)
        ref_vals = np.array([obj.value_at(p, i) for p, i in zip(points, idx)])
        ref_grads = np.stack([obj.grad_at(p, i) for p, i in zip(points, idx)])
        base_vals, base_grads = _base_loop(obj, points, idx)
    assert vals.shape == (len(points),) and grads.shape == points.shape
    assert vals.tobytes() == ref_vals.tobytes() and base_vals.tobytes() == ref_vals.tobytes()
    assert grads.tobytes() == ref_grads.tobytes() and base_grads.tobytes() == ref_grads.tobytes()


def _assert_means_match_np_mean(obj, values):
    """The full_* means and sample_variance against np.mean, bit for bit, and the
    kernel's m = 1 case against them within the bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals, grads = obj.values_at_points(values, ALL), obj.grads_at_points(values, ALL)
        want_value, want_grad = float(np.mean(vals)), np.mean(grads, axis=0)
        want_variance = float(np.mean(np.sum((grads - want_grad) ** 2, axis=1)))
        fused_value, fused_grad = _fused(obj, values)
        value, grad = obj.full_value_at(values), obj.full_grad_at(values)
        variance = obj.sample_variance(HybridPoint(obj.layout, values))
    assert repr(value) == repr(want_value) and grad.tobytes() == want_grad.tobytes()
    _assert_within_bound(obj, [values], np.array([fused_value]), fused_grad[None],
                         np.array([want_value]), want_grad[None])
    assert repr(variance) == repr(want_variance)


@st.composite
def _family_and_point(draw):
    kind = draw(st.sampled_from(sorted(_BUILDERS)))
    layout = BlockLayout(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    # above 128 samples the pairwise sum behind the means splits into blocks
    n = draw(st.sampled_from([1, 2, 7, 129, 300]))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    obj = _BUILDERS[kind](layout, n, RngStream(seed, 0xDA7A), scale)
    values = draw(hnp.arrays(np.float64, layout.d, elements=st.floats(-1e3, 1e3)))
    m = draw(st.sampled_from([1, 2, 7]))
    points = draw(hnp.arrays(np.float64, (m, layout.d), elements=st.floats(-1e3, 1e3)))
    return obj, values, points


@given(_family_and_point())
def test_batched_kernels_bit_identical_to_per_sample(case):
    obj, values, points = case
    _assert_batched_matches(obj, values)
    _assert_means_match_np_mean(obj, values)
    _assert_at_points_matches(obj, points)


@given(_family_and_point(), st.data())
def test_int_array_selector_bit_identical_to_per_row(case, data):
    obj, _, points = case
    m = len(points)
    idx = np.array(data.draw(st.lists(st.integers(0, obj.n - 1), min_size=m, max_size=m)))
    _assert_selector_matches(obj, points, idx)


@pytest.mark.parametrize("rows", [1, 4])
def test_all_selector_holds_for_any_leading_shape(rows):
    # (r, 1, d) points against ALL: entry (k, s) is sample s at point k, shapes
    # (r, n) and (r, n, d), for every family and a subclass with only value_at/grad_at
    rng = RngStream(18, 1)
    for name, base in _families().items():
        for obj in (base, OffsetObjective(base, 2.5)):
            points = sample_gaussian(rng, rows * LAYOUT.d).reshape(rows, 1, LAYOUT.d)
            vals, grads = obj.values_at_points(points, ALL), obj.grads_at_points(points, ALL)
            assert vals.shape == (rows, obj.n) and grads.shape == (rows, obj.n, LAYOUT.d), name
            ref_vals = np.array([[obj.value_at(p[0], s) for s in range(obj.n)] for p in points])
            ref_grads = np.array([[obj.grad_at(p[0], s) for s in range(obj.n)] for p in points])
            assert vals.tobytes() == ref_vals.tobytes(), name
            assert grads.tobytes() == ref_grads.tobytes(), name


def test_int_array_selector_with_repeated_and_unsorted_indices():
    rng = RngStream(17, 1)
    for name, obj in _families().items():
        points = sample_gaussian(rng, 6 * LAYOUT.d).reshape(6, LAYOUT.d)
        last = obj.n - 1
        _assert_selector_matches(obj, points, np.array([last, 0, last, 1, 0, last]))
        # one index: the same bytes as the int selector it repeats
        for i in range(obj.n):
            for pair in ("values_at_points", "grads_at_points"):
                got = getattr(obj, pair)(points, np.full(6, i))
                assert got.tobytes() == getattr(obj, pair)(points, i).tobytes(), (name, pair, i)


@given(_family_and_point())
def test_full_kernel_rows_match_per_point_within_bound(case):
    obj, values, points = case
    _assert_full_kernel_matches(obj, points)
    _assert_full_kernel_matches(obj, np.stack([values, *points]))


def test_batched_logistic_saturated_margins():
    # margins of +-900 and +-5000 saturate logaddexp: loss 0 or -margin, p 0 or 1
    layout = BlockLayout(1, 1)
    features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    obj = LogisticObjective(layout, features, [1.0, 1.0, -1.0, 1.0], lam=0.0)
    vals, grads = _assert_batched_matches(obj, np.array([900.0, 5000.0]))
    assert np.array_equal(vals, [0.0, 900.0, 5000.0, 5000.0])
    assert np.array_equal(grads[0], [0.0, 0.0])
    assert np.array_equal(grads[1], [1.0, 0.0])
    # the same saturation with the sample fixed and the points varying
    points = np.array([[900.0, 5000.0], [-900.0, 5000.0], [5000.0, -900.0]])
    (vals, grads), *_ = _assert_at_points_matches(obj, points)
    assert np.array_equal(vals, [0.0, 900.0, 0.0])
    assert np.array_equal(grads[:, 0], [0.0, -1.0, 0.0])
    _assert_full_kernel_matches(obj, points)


def test_batched_cosh_overflow_lands_at_same_positions():
    layout = BlockLayout(2, 1)
    shifts = np.array([[0.0, 0.0, 0.0], [800.0, 0.0, 0.0], [0.0, -800.0, 800.0]])
    obj = CoshObjective(layout, shifts)
    vals, grads = _assert_batched_matches(obj, np.array([750.0, 0.5, 0.0]))
    assert np.array_equal(np.isinf(vals), [True, False, True])
    assert np.array_equal(np.isinf(grads), [[True, False, False], [False] * 3, [True] * 3])
    assert np.array_equal(grads[2], [np.inf, np.inf, -np.inf])
    points = np.array([[750.0, 0.5, 0.0], [0.0, 0.5, 0.0], [-750.0, 800.0, -1.0]])
    (vals, grads), *_ = _assert_at_points_matches(obj, points)
    assert np.array_equal(np.isinf(vals), [True, False, True])
    assert np.array_equal(grads[2], [-np.inf, np.inf, np.sinh(-1.0)])
    _assert_full_kernel_matches(obj, points)


# -- closed-form kernels against exact references ----------------------------


def _exact_full(obj, w):
    """(f, grad f) at w from exact sums, rounded once: rational arithmetic for the
    quadratic and linear families, math.fsum over value_at/grad_at for logistic."""
    n = obj.n
    if isinstance(obj, LogisticObjective):
        grads = np.stack([obj.grad_at(w, i) for i in range(n)])
        return (math.fsum(obj.value_at(w, i) for i in range(n)) / n,
                np.array([math.fsum(column) / n for column in grads.T]))
    q = [Fraction(v) for v in w]
    if isinstance(obj, LinearObjective):
        rows = [[Fraction(v) for v in row] for row in obj.slopes]
        return (float(sum(a * b for row in rows for a, b in zip(row, q)) / n),
                np.array([float(sum(column) / n) for column in zip(*rows)]))
    a = [[Fraction(v) for v in row] for row in _hessian(obj)]
    f, g = Fraction(0), [Fraction(0)] * len(q)
    for center in obj.centers:
        dv = [x - Fraction(c) for x, c in zip(q, center)]
        a_dv = [sum(h * y for h, y in zip(row, dv)) for row in a]
        f += sum(y * z for y, z in zip(dv, a_dv)) / 2
        g = [x + y for x, y in zip(g, a_dv)]
    return float(f / n), np.array([float(x / n) for x in g])


def _assert_kernel_near_exact(obj, points):
    vals, grads = obj.full_values_and_grads_at_points(points)
    exact = [_exact_full(obj, p) for p in points]
    _assert_within_bound(obj, points, vals, grads, np.array([f for f, _ in exact]),
                         np.stack([g for _, g in exact]), factor=1.0)
    return vals, grads


@pytest.mark.parametrize("kind", ["block_quadratic", "dense_quadratic", "linear", "logistic"])
def test_closed_form_kernel_within_bound_of_exact(kind):
    rng = RngStream(31, 1)
    for n, scale in ((1, 1.0), (5, 1.0), (40, 30.0)):
        obj = _BUILDERS[kind](LAYOUT, n, RngStream(31, 0xDA7A).child(n), scale)
        _assert_kernel_near_exact(obj, 10.0 * sample_gaussian(rng, 4 * LAYOUT.d).reshape(4, -1))


def test_quadratic_kernels_near_centers_sharing_a_large_offset():
    # Centers 1e8 +- 0.1: the kernel goes through the rounded mean center, which
    # costs about eps ||c|| ||A dv||, far above eps f near the minimum; the bound,
    # stated in input magnitudes, still holds there and far away.
    layout = BlockLayout(2, 1)
    centers = 1e8 + 0.1 * sample_gaussian(RngStream(32, 1), 4 * 3).reshape(4, 3)
    hessian = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]])
    mean = centers.mean(axis=0)
    points = np.stack([mean, mean + 0.05, mean - [0.3, 0.0, 0.1], centers[0], np.zeros(3)])
    for obj in (BlockQuadratic(layout, centers, 4.0, 0.5), DenseQuadratic(layout, hessian, centers)):
        _assert_kernel_near_exact(obj, points)


def test_logistic_kernel_saturated_margins_against_exact_sums():
    # margins of +-900 and +-5000: logaddexp saturates at 0 or -margin
    layout = BlockLayout(1, 1)
    features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.5, 0.5]])
    labels = [1.0, 1.0, -1.0, 1.0, -1.0]
    points = np.array([[900.0, 5000.0], [-900.0, 5000.0], [5000.0, -900.0], [-5000.0, -900.0],
                       [0.3, -0.2]])
    for lam in (0.0, 0.1):
        _assert_kernel_near_exact(LogisticObjective(layout, features, labels, lam), points)
    # every loss and gradient term is exact here, and so is the kernel, by value
    obj = LogisticObjective(layout, features[:4], labels[:4], lam=0.0)
    vals, grads = _assert_kernel_near_exact(obj, points[:2])
    assert np.array_equal(vals, [(900.0 + 5000.0 + 5000.0) / 4] * 2)
    assert np.array_equal(grads, [[0.25, 0.5], [-0.25, 0.5]])


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_family_overrides_batched_kernels(kind):
    cls = type(_BUILDERS[kind](LAYOUT, 2, RngStream(15, 0xDA7A), 1.0))
    for name in ("values_at_points", "grads_at_points", "full_values_and_grads_at_points"):
        assert getattr(cls, name) is not getattr(FiniteSumObjective, name), name


def test_subclass_without_kernels_uses_base_loop():
    rng = RngStream(16, 1)
    for name, base in _families().items():
        offset = OffsetObjective(base, 2.5)
        scaled = ScaledObjective(base, -3.0)
        for wrapper in (offset, scaled):
            for kernel in ("values_at_points", "grads_at_points", "full_values_and_grads_at_points"):
                assert getattr(type(wrapper), kernel) is getattr(FiniteSumObjective, kernel)
        values = sample_gaussian(rng, LAYOUT.d)
        w = HybridPoint(LAYOUT, values)
        base_vals, base_grads = base.values_at_points(values, ALL), base.grads_at_points(values, ALL)
        points = np.stack([values, 2.0 * values])
        base_at_points = base.values_at_points(points, 1), base.grads_at_points(points, 1)
        assert np.array_equal(offset.values_at_points(points, 1), base_at_points[0] + 2.5)
        assert np.array_equal(scaled.grads_at_points(points, 1), -3.0 * base_at_points[1])
        # offset: values shift by the constant, gradients are untouched
        assert np.array_equal(offset.values_at_points(values, ALL), base_vals + 2.5)
        assert np.array_equal(offset.grads_at_points(values, ALL), base_grads)
        assert offset.full_value_at(values) == pytest.approx(np.mean(base_vals) + 2.5, rel=1e-14)
        assert np.array_equal(offset.full_grad_at(values), base.full_grad_at(values))
        assert offset.sample_variance(w) == base.sample_variance(w)
        # scaled: values and gradients scale by alpha, the variance by alpha^2
        assert np.array_equal(scaled.values_at_points(values, ALL), -3.0 * base_vals)
        assert np.array_equal(scaled.grads_at_points(values, ALL), -3.0 * base_grads)
        assert scaled.eval_full(w) == pytest.approx(-3.0 * base.eval_full(w), rel=1e-14), name
        assert np.allclose(scaled.grad_full(w), -3.0 * base.grad_full(w), rtol=1e-14, atol=1e-15)
        assert scaled.sample_variance(w) == pytest.approx(
            9.0 * base.sample_variance(w), rel=1e-13, abs=1e-300
        )
