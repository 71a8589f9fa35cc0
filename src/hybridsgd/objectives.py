"""Finite-sum test objectives with exact per-sample gradients.

Each objective is f(w) = (1/n) sum_i f(w; i) on a block-partitioned domain.
Gradients are hand-written analytic expressions (no autodiff); the oracle
module cross-checks them against finite differences.  Instances are immutable
after construction and safe to evaluate concurrently.

``value_at``/``grad_at`` evaluate one sample at one point, on raw float64 arrays for
hot loops and with no check of i.  The batched pair ``values_at_points(points, i)``/
``grads_at_points(points, i)`` follows one rule: row k evaluates the k-th row of points,
broadcast against the samples ``range(n)[i]``, for any leading shape.  So an int i
evaluates sample i at every row of (m, d) points (the two-point estimator), an int
array of length m sample i[k] at row k (the per-sample probes), and :data:`ALL`, the
index of every sample, all n samples at one (d,) point (``full_value_at``,
``full_grad_at``, ``sample_variance``) or at each of (m, 1, d) points, shape
(m, n) (the oracle).  The base class loops the pair over ``value_at``/``grad_at``;
each family overrides it with one vectorised body, bit-identical to that loop,
and a family that overrides ``value_at``/``grad_at`` must do the same.

The kernel ``full_values_and_grads_at_points(points)`` gives the full value and gradient
at every row, shapes (m,) and (m, d), as m one-row calls would.  It is the package's one
f and grad f: ``eval_full``/``grad_full`` validate a :class:`HybridPoint` and return its
one-row call, and run's start, the trace, probes and check read it.
``full_value_at``/``full_grad_at``, the pair's means over ALL, are the per-sample-mean
reference: tests hold the kernel to them, the base class loops them over the rows (cosh
keeps their bits) and the quadratics take f(c) from them.  The others use closed forms:
logistic the loss max(-m, 0) + log1p(exp(-|m|)) of each margin m, the per-sample pair's
``logaddexp(0, -m)`` on numpy's SIMD exp and log1p (logaddexp is a scalar libm loop, about
10x slower; the two agree within 4 ulps), and one dot of the (d, n) features with the
sigmoid weights; linear the mean slope; the quadratics the mean center c,
f = 0.5 (w - c)^T A (w - c) + f(c).  The two
quadratics share one kernel, written in :class:`BlockQuadratic`; they differ only in how
``_apply`` forms A dv.  With gamma = (n + d) eps and W = max |w_j|, a row is within
gamma M (plus n + d smallest subnormals) of the exact value, M being, for f and for each
gradient entry: quadratics sum |A_jk| (C + R)(R + gamma C) and max_j sum_k |A_jk|
(C + R), with C = max |c_ij| and R = max |w_j - c_ij| (rounding c costs about
eps ||c|| ||A (w - c)||); logistic 1 + Z_1 W + lam d W^2 and Z + lam W, with
Z_1 = max_i sum_j |z_ij| and Z = max |z_ij|; linear d W S and S, with S = max |s_ij|.
Dots are ``np.vecdot``, or ``np.matvec`` with the square dense Hessian: ``@``,
``matmul``, ``einsum`` and ``np.matvec`` with a wide matrix can round differently with
the BLAS thread count.
Batched calls go in row blocks of ``_block_rows`` rows, at most ``_ROW_BUDGET`` elements
each (``_row_blocks`` cuts a range into them); ``_full_row_cost`` is one full-kernel row.
Data arrays are read through ``core._check_array``, so a bool or a string
in them is an error.  :func:`objective_from_dict` reads a spec through the key
table of its path, read once off the kind's ``__init__`` (explicit data) or
``random`` (generation from a seed).
"""
from __future__ import annotations

import abc
from functools import partial

import numpy as np

from .core import (_REQUIRED, BlockLayout, HybridPoint, RngStream, _check_array, _check_finite,
                   _check_int, _check_real, _check_type, _check_u64, _read_section, _signature_keys,
                   sample_gaussian)

__all__ = [
    "FiniteSumObjective",
    "BlockQuadratic",
    "CoshObjective",
    "LogisticObjective",
    "LinearObjective",
    "DenseQuadratic",
    "objective_from_dict",
]

# Stream id reserved for generating objective data from a config seed; run,
# init, probe and check streams use distinct ids so draws never overlap.
DATA_STREAM_ID = 0xDA7A

# Sample selector of values_at_points/grads_at_points: every sample at one
# point.  A basic slice, so indexing the data with it makes a view, not a copy.
ALL = slice(None)

# Elements a row block of a batched call may hold: 2^14 float64s, 128 KiB, glibc's mmap threshold,
# so peak memory stays flat as the row count grows (2^15 raised plan's peak RSS by 0.4 MB).
_ROW_BUDGET = 1 << 14


def _block_rows(row_cost: int) -> int:
    """The rows of row_cost elements a block holds: max(1, _ROW_BUDGET // row_cost), read at call time."""
    return max(1, _ROW_BUDGET // row_cost)


def _row_blocks(total: int, row_cost: int) -> list[slice]:
    """range(total) as in-order slices of _block_rows(row_cost) rows of row_cost elements."""
    rows = _block_rows(row_cost)
    return [slice(k, min(k + rows, total)) for k in range(0, total, rows)]


class FiniteSumObjective(abc.ABC):
    """n-sample objective on a block-partitioned parameter vector."""

    def __init__(self, layout: BlockLayout, n: int):
        self._layout = _check_type("layout", layout, BlockLayout)
        self._n = _check_int("n", n)

    @property
    def layout(self) -> BlockLayout:
        return self._layout

    @property
    def n(self) -> int:
        return self._n

    # -- raw-array layer -------------------------------------------------

    @abc.abstractmethod
    def value_at(self, values: np.ndarray, i: int) -> float:
        """f(w; i) for raw values; no validation."""

    @abc.abstractmethod
    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        """Analytic gradient of f(w; i) for raw values; no validation."""

    def _loop(self, fn, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        # fn(p, s) for each row p of points broadcast against each sample s of range(n)[i], in that shape
        samples, d = np.arange(self._n)[i], points.shape[-1]
        shape = np.broadcast_shapes(points.shape[:-1], samples.shape)
        rows = np.broadcast_to(points, shape + (d,)).reshape(-1, d)
        out = np.array([fn(p, s) for p, s in zip(rows, np.broadcast_to(samples, shape).flat)], dtype=np.float64)
        return out.reshape(shape + out.shape[1:])

    def values_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        """f(p_k; s_k) for row k, where the rows p_k of points broadcast against the
        samples s_k of range(n)[i], in the broadcast shape.  The loop is the reference."""
        return self._loop(self.value_at, points, i)

    def grads_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        """grad f(p_k; s_k) for row k, as in values_at_points, shape (..., d).
        The loop is the reference."""
        return self._loop(self.grad_at, points, i)

    def full_value_at(self, values: np.ndarray) -> float:  # the per-sample-mean reference; f is the kernel
        return float(np.add.reduce(self.values_at_points(values, ALL)) / self._n)

    def full_grad_at(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduce(self.grads_at_points(values, ALL), 0) / self._n

    def full_values_and_grads_at_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(full_value_at(p), full_grad_at(p)) for every row p of points, shapes
        (m,) and (m, d).  The loop is the reference."""
        return (np.array([self.full_value_at(p) for p in points], dtype=np.float64),
                np.stack([self.full_grad_at(p) for p in points]))

    def _full_row_cost(self) -> int:
        return self._n + self._layout.d  # a row of the kernel's (m, n) and (m, d) arrays

    # -- validated layer -------------------------------------------------

    def check_point(self, w: HybridPoint) -> np.ndarray:
        """Validate a point against this objective's layout; return its values."""
        _check_type("point", w, HybridPoint)
        if w.layout != self._layout:
            raise ValueError(f"point layout {w.layout} != objective layout {self._layout}")
        return w.values

    def check_points(self, points) -> list:
        """The points as a list, if there is at least one and each passes check_point."""
        points = list(points)
        if not points:
            raise ValueError("points must contain at least one point")
        for w in points:
            self.check_point(w)
        return points

    def eval_full(self, w: HybridPoint) -> float:
        return float(self.full_values_and_grads_at_points(self.check_point(w)[None])[0][0])

    def grad_full(self, w: HybridPoint) -> np.ndarray:
        return self.full_values_and_grads_at_points(self.check_point(w)[None])[1][0]

    def sample_variance(self, w: HybridPoint) -> float:
        """(1/n) sum_i ||grad f(w; i) - grad f(w)||^2, from analytic gradients."""
        grads = self.grads_at_points(self.check_point(w), ALL)
        mean = np.add.reduce(grads, 0) / self._n
        return float(np.add.reduce(np.sum((grads - mean) ** 2, axis=1)) / self._n)

    # -- optional analytic structure --------------------------------------

    @property
    def f_star(self) -> float | None:
        """Analytic minimum value of the full objective, when known."""
        return None

    def block_lipschitz_bound(self) -> tuple[float, float] | None:
        """Upper bounds (L_x, L_y) on per-sample block curvature, when bounded.

        Valid simultaneously for every sample and for the full average; None
        when the Hessian is unbounded over the domain.
        """
        return None


class BlockQuadratic(FiniteSumObjective):
    """f(w; i) = 0.5 (w - c_i)^T A (w - c_i) with A = diag(a_x I, a_y I).

    The full objective is minimized at the mean center; per-sample curvature
    equals the full curvature exactly, so a_x and a_y are the exact block
    gradient-Lipschitz constants.
    """

    def __init__(self, layout: BlockLayout, centers, a_x: float, a_y: float):
        centers = _check_array("centers", centers, (None, _check_type("layout", layout, BlockLayout).d))
        super().__init__(layout, centers.shape[0])
        self.a_x = _check_real("a_x", a_x)
        self.a_y = _check_real("a_y", a_y)
        self.centers = centers
        self._diag = np.concatenate(
            [np.full(layout.d_x, self.a_x), np.full(layout.d_y, self.a_y)]
        )
        self._mean_center = np.add.reduce(centers, 0) / self._n
        # f at the mean center: the minimum, and the kernel's constant term
        self._f_center = self.full_value_at(self._mean_center)

    # The quadratic kernel, shared with DenseQuadratic: A dv for every row dv is _apply(dv)
    def _apply(self, dv: np.ndarray) -> np.ndarray:
        return self._diag * dv

    def value_at(self, values: np.ndarray, i: int) -> float:
        dv = values - self.centers[i]
        return float(0.5 * np.dot(dv, self._apply(dv)))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        return self._apply(values - self.centers[i])

    def values_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        dv = points - self.centers[i]
        return 0.5 * np.vecdot(dv, self._apply(dv))

    def grads_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        return self._apply(points - self.centers[i])

    def full_values_and_grads_at_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dv = points - self._mean_center
        grads = self._apply(dv)
        return 0.5 * np.vecdot(dv, grads) + self._f_center, grads

    @property
    def f_star(self) -> float | None:
        return self._f_center

    def block_lipschitz_bound(self) -> tuple[float, float]:
        return (self.a_x, self.a_y)

    @classmethod
    def random(
        cls,
        layout: BlockLayout,
        n: int,
        a_x: float,
        a_y: float,
        rng: RngStream,
        *,
        center_scale: float = 1.0,
        center_spread: float = 0.0,
    ) -> "BlockQuadratic":
        """Seeded instance: shared base center plus optional per-sample spread."""
        centers = _spread_rows(layout.d, n, rng, center_scale, center_spread)
        return cls(layout, centers, a_x, a_y)


class CoshObjective(FiniteSumObjective):
    """f(w; i) = sum_j cosh(w_j - s_{i,j}).

    Coordinate-wise |f''| = cosh <= 1 + |sinh| = 1 + |f'|, so with shifts
    shared across samples the objective keeps per-block curvature inside the
    envelope ell(u) = 1 + u of its own gradient norm at every point.  With
    per-sample spread the averaged objective can exceed that envelope near
    its minimizer (sinh terms cancel, cosh terms do not).
    """

    def __init__(self, layout: BlockLayout, shifts):
        shifts = _check_array("shifts", shifts, (None, _check_type("layout", layout, BlockLayout).d))
        super().__init__(layout, shifts.shape[0])
        self.shifts = shifts

    def value_at(self, values: np.ndarray, i: int) -> float:
        return float(np.sum(np.cosh(values - self.shifts[i])))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        return np.sinh(values - self.shifts[i])

    def values_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        return np.sum(np.cosh(points - self.shifts[i]), axis=-1)

    def grads_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        return np.sinh(points - self.shifts[i])

    def full_values_and_grads_at_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # no closed form: the means of the pair's (m, n) values and (m, n, d) gradients
        dv = points[:, None, :] - self.shifts
        return (np.add.reduce(np.sum(np.cosh(dv), axis=-1), -1) / self._n,
                np.add.reduce(np.sinh(dv), -2) / self._n)

    def _full_row_cost(self) -> int:
        return self._n * self._layout.d  # the kernel's (m, n, d) temporaries

    @property
    def f_star(self) -> float | None:
        if np.all(self.shifts == self.shifts[0]):
            return float(self.layout.d)
        return None

    @classmethod
    def random(
        cls,
        layout: BlockLayout,
        n: int,
        rng: RngStream,
        *,
        shift_scale: float = 1.0,
        shift_spread: float = 0.0,
    ) -> "CoshObjective":
        """Seeded instance; spread defaults to 0 (all samples share one shift)."""
        shifts = _spread_rows(layout.d, n, rng, shift_scale, shift_spread)
        return cls(layout, shifts)


class LogisticObjective(FiniteSumObjective):
    """f(w; i) = log(1 + exp(-b_i z_i . w)) + (lam/2) ||w||^2 with b_i in {-1, +1}."""

    def __init__(self, layout: BlockLayout, features, labels, lam: float = 0.0):
        features = _check_array("features", features, (None, _check_type("layout", layout, BlockLayout).d))
        super().__init__(layout, features.shape[0])
        labels = _check_array("labels", labels, (self._n,))
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self.lam = _check_real("lam", lam, allow_zero=True)
        self.features = features
        self.labels = labels
        self._features_t = np.ascontiguousarray(features.T)  # (d, n) rows for the kernel's gradient

    def value_at(self, values: np.ndarray, i: int) -> float:
        margin = self.labels[i] * float(np.dot(self.features[i], values))
        loss = float(np.logaddexp(0.0, -margin))
        return loss + 0.5 * self.lam * float(np.dot(values, values))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        margin = self.labels[i] * float(np.dot(self.features[i], values))
        # sigmoid(-margin), computed without overflow for any margin sign
        p = float(np.exp(-np.logaddexp(0.0, margin)))
        return (-self.labels[i] * p) * self.features[i] + self.lam * values

    def values_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        margin = self.labels[i] * np.vecdot(points, self.features[i])
        return np.logaddexp(0.0, -margin) + 0.5 * self.lam * np.vecdot(points, points)

    def grads_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        margin = self.labels[i] * np.vecdot(points, self.features[i])
        p = np.exp(-np.logaddexp(0.0, margin))
        grads = (-self.labels[i] * p)[..., None] * self.features[i]
        grads += self.lam * points  # in place: the same sum, one (..., d) temporary fewer
        return grads

    def full_values_and_grads_at_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        margin = self.labels * np.vecdot(points[:, None, :], self.features)  # (m, n)
        # softplus(-margin) in logaddexp's form, which never cancels at saturated margins, on SIMD
        # exp and log1p (see the module docstring); the gradient weight -b sigmoid(-margin) is b expm1(-loss)
        losses = np.maximum(-margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
        coeff = self.labels * np.expm1(-losses)
        return (np.add.reduce(losses, -1) / self._n + 0.5 * self.lam * np.vecdot(points, points),
                np.vecdot(self._features_t, coeff[:, None, :]) / self._n + self.lam * points)

    def block_lipschitz_bound(self) -> tuple[float, float]:
        d_x = self.layout.d_x
        l_x = float(np.max(np.sum(self.features[:, :d_x] ** 2, axis=1))) / 4.0 + self.lam
        l_y = float(np.max(np.sum(self.features[:, d_x:] ** 2, axis=1))) / 4.0 + self.lam
        return (l_x, l_y)

    @classmethod
    def random(
        cls,
        layout: BlockLayout,
        n: int,
        rng: RngStream,
        *,
        lam: float = 0.0,
        feature_scale: float = 1.0,
    ) -> "LogisticObjective":
        features = feature_scale * sample_gaussian(rng, n, layout.d)
        labels = np.where(rng.generator.random(n) < 0.5, -1.0, 1.0)
        return cls(layout, features, labels, lam)


class LinearObjective(FiniteSumObjective):
    """f(w; i) = c_i . w; zero curvature everywhere, unbounded below."""

    def __init__(self, layout: BlockLayout, slopes):
        slopes = _check_array("slopes", slopes, (None, _check_type("layout", layout, BlockLayout).d))
        super().__init__(layout, slopes.shape[0])
        self.slopes = slopes
        self._mean_slope = np.add.reduce(slopes, 0) / self._n

    def value_at(self, values: np.ndarray, i: int) -> float:
        return float(np.dot(self.slopes[i], values))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        return self.slopes[i].copy()

    def values_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        return np.vecdot(points, self.slopes[i])

    def grads_at_points(self, points: np.ndarray, i: int | np.ndarray | slice) -> np.ndarray:
        # one copy of slopes[i] per row of points, of slopes[i[k]] for row k, or of every slope for ALL
        slopes = self.slopes[i]
        return np.broadcast_to(slopes, np.broadcast_shapes(points.shape, slopes.shape)).copy()

    def full_values_and_grads_at_points(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.vecdot(points, self._mean_slope), np.tile(self._mean_slope, (len(points), 1))

    def block_lipschitz_bound(self) -> tuple[float, float]:
        return (0.0, 0.0)

    @classmethod
    def random(
        cls, layout: BlockLayout, n: int, rng: RngStream, *, slope_scale: float = 1.0
    ) -> "LinearObjective":
        slopes = slope_scale * sample_gaussian(rng, n, layout.d)
        return cls(layout, slopes)


class DenseQuadratic(FiniteSumObjective):
    """f(w; i) = 0.5 (w - c_i)^T H (w - c_i) for a full symmetric H.

    Unlike :class:`BlockQuadratic` the Hessian may couple the blocks and need
    not be positive definite; the exact spectrum makes it the reference case
    for curvature probes.  The kernels are BlockQuadratic's, with H dv as the
    one square ``np.matvec``.
    """

    def __init__(self, layout: BlockLayout, hessian, centers=None):
        d = _check_type("layout", layout, BlockLayout).d
        hessian = _check_array("hessian", hessian, (d, d))
        scale = float(np.max(np.abs(hessian))) or 1.0
        if not np.allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("hessian must be symmetric")
        hessian = 0.5 * (hessian + hessian.T)
        if centers is None:
            centers = np.zeros((1, d))
        centers = _check_array("centers", centers, (None, d))
        super().__init__(layout, centers.shape[0])
        self.hessian = hessian
        self.centers = centers
        eigs = np.linalg.eigvalsh(hessian)
        self._psd = bool(eigs[0] >= -1e-12 * max(scale, 1.0))
        self._mean_center = np.add.reduce(centers, 0) / self._n
        self._f_center = self.full_value_at(self._mean_center)  # the kernel's constant term
        self.hessian.setflags(write=False)  # the symmetrised copy, not the checked array

    def _apply(self, dv: np.ndarray) -> np.ndarray:
        return np.matvec(self.hessian, dv)

    value_at = BlockQuadratic.value_at
    grad_at = BlockQuadratic.grad_at
    values_at_points = BlockQuadratic.values_at_points
    grads_at_points = BlockQuadratic.grads_at_points
    full_values_and_grads_at_points = BlockQuadratic.full_values_and_grads_at_points

    @property
    def f_star(self) -> float | None:
        return self._f_center if self._psd else None

    def block_lipschitz_bound(self) -> tuple[float, float]:
        d_x = self.layout.d_x
        l_x = float(np.max(np.abs(np.linalg.eigvalsh(self.hessian[:d_x, :d_x]))))
        l_y = float(np.max(np.abs(np.linalg.eigvalsh(self.hessian[d_x:, d_x:]))))
        return (l_x, l_y)

    @classmethod
    def random(
        cls,
        layout: BlockLayout,
        n: int,
        rng: RngStream,
        *,
        entry_scale: float = 1.0,
        center_scale: float = 0.0,
    ) -> "DenseQuadratic":
        d = layout.d
        g = entry_scale * sample_gaussian(rng, d, d)
        hessian = 0.5 * (g + g.T)
        centers = _spread_rows(d, n, rng, center_scale, 0.0)
        return cls(layout, hessian, centers)


def _spread_rows(
    d: int, n: int, rng: RngStream, scale: float, spread: float
) -> np.ndarray:
    """n rows equal to a shared scaled Gaussian base, plus optional per-row spread."""
    base = scale * sample_gaussian(rng, d)
    rows = np.tile(base, (n, 1))
    if spread != 0.0:
        rows = rows + spread * sample_gaussian(rng, n, d)
    return rows


# -- config files ---------------------------------------------------------

_LAYOUT_KEYS = {"kind": (None, _REQUIRED), **_signature_keys(BlockLayout)}

# kind: (class name, default of a generated n); the class is looked up in globals() per spec
_KINDS = {
    "block_quadratic": ("BlockQuadratic", _REQUIRED),
    "cosh": ("CoshObjective", _REQUIRED),
    "logistic": ("LogisticObjective", _REQUIRED),
    "linear": ("LinearObjective", _REQUIRED),
    "dense_quadratic": ("DenseQuadratic", 1),
}


def _kind_tables(cls, n) -> tuple[dict, dict]:
    """A kind's data table, __init__'s keys after layout, and its generation table: the seed, the keys
    random shares with __init__ (the class checks both), n, then random's own keys as finite reals."""
    data = _signature_keys(cls, skip=("layout",))
    own = _signature_keys(cls.random, skip=("layout", "n", "rng", *data))
    return data, {"seed": (_check_u64, _REQUIRED), **_signature_keys(cls.random, *data),
                  "n": (partial(_check_int, hi=int(np.iinfo(np.intp).max)), n),
                  **{key: (_check_finite, default) for key, (_, default) in own.items()}}


_TABLES = {kind: _kind_tables(globals()[name], n) for kind, (name, n) in _KINDS.items()}


def _path_keys(spec: dict) -> dict:
    """The key table of the path a spec takes: its kind's data keys when the
    first of them is given, else the seed and the generation keys."""
    data, generation = _TABLES[spec["kind"]]
    return data if spec.get(next(iter(data))) is not None else generation


def objective_from_dict(spec: dict) -> FiniteSumObjective:
    """Build an objective from a JSON-compatible dict.

    Data arrays may be given explicitly (``centers``, ``shifts``, ``features``
    + ``labels``, ``slopes``, ``hessian``) or generated from ``seed`` with
    ``n`` rows; generation draws from the dedicated data stream, so any run
    seeded with the same config reproduces the exact same instance.  A key the
    chosen path does not read is an error.
    """
    args = _read_section("objective", spec, _LAYOUT_KEYS, dict.fromkeys(_KINDS, _path_keys))
    cls = globals()[_KINDS[args.pop("kind")][0]]
    layout = BlockLayout(args.pop("d_x"), args.pop("d_y"))
    if "seed" not in args:
        return cls(layout, **args)
    return cls.random(layout, rng=RngStream(args.pop("seed"), DATA_STREAM_ID), **args)
