"""Finite-sum test objectives with exact per-sample gradients.

Each objective is f(w) = (1/n) sum_i f(w; i) on a block-partitioned domain.
Gradients are hand-written analytic expressions (no autodiff); the oracle
module cross-checks them against finite differences.  Instances are immutable
after construction and safe to evaluate concurrently.

Two API layers: ``eval_sample``/``grad_sample``/``eval_full``/``grad_full``
validate :class:`HybridPoint` inputs, while ``value_at``/``grad_at`` and the
``full_*`` variants work on raw float64 arrays for hot loops.  The raw layer
has two batched pairs.  ``values_all``/``grads_all`` return every sample's
value (shape (n,)) or gradient (shape (n, d)) at one point, and
``full_value_at``, ``full_grad_at``, ``full_value_and_grad_at`` and
``sample_variance`` are built on them.  ``values_at_points``/
``grads_at_points`` return one sample's value (shape (m,)) or gradient
(shape (m, d)) at every row of an (m, d) array of points; the estimator,
probes and oracle evaluate all their random directions through them.  In the
base class all four loop over ``value_at``/``grad_at``; that loop is the
reference.  Each family here overrides all four with one vectorised
expression each whose results are bit-identical to its own per-sample path
(``np.vecdot`` and ``np.matvec``, not ``@`` or ``einsum``, which can round
differently).  A family that overrides ``value_at``/``grad_at`` must override
all four batched kernels to match, or none of them and inherit the loops from
:class:`FiniteSumObjective`.
"""
from __future__ import annotations

import abc
import json
from pathlib import Path

import numpy as np

from .core import BlockLayout, HybridPoint, RngStream, _check_int, _check_real, sample_gaussian

__all__ = [
    "FiniteSumObjective",
    "BlockQuadratic",
    "CoshObjective",
    "LogisticObjective",
    "LinearObjective",
    "DenseQuadratic",
    "objective_from_dict",
    "load_objective",
    "DATA_STREAM_ID",
]

# Stream id reserved for generating objective data from a config seed; run,
# init, probe and check streams use distinct ids so draws never overlap.
DATA_STREAM_ID = 0xDA7A


class FiniteSumObjective(abc.ABC):
    """n-sample objective on a block-partitioned parameter vector."""

    def __init__(self, layout: BlockLayout, n: int):
        if not isinstance(layout, BlockLayout):
            raise ValueError(f"layout must be a BlockLayout, got {layout!r}")
        self._layout = layout
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

    def values_all(self, values: np.ndarray) -> np.ndarray:
        """f(w; i) for every sample, shape (n,); the loop is the reference."""
        return np.array([self.value_at(values, i) for i in range(self._n)], dtype=np.float64)

    def grads_all(self, values: np.ndarray) -> np.ndarray:
        """grad f(w; i) for every sample, shape (n, d); the loop is the reference."""
        return np.stack([self.grad_at(values, i) for i in range(self._n)])

    def values_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        """f(p; i) for every row p of points, shape (m,); the loop is the reference."""
        return np.array([self.value_at(p, i) for p in points], dtype=np.float64)

    def grads_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        """grad f(p; i) for every row p of points, shape (m, d); the loop is the reference."""
        return np.stack([self.grad_at(p, i) for p in points])

    def full_value_at(self, values: np.ndarray) -> float:
        return float(np.add.reduce(self.values_all(values)) / self._n)

    def full_grad_at(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduce(self.grads_all(values), 0) / self._n

    def full_value_and_grad_at(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        """(full_value_at, full_grad_at) in one call, for families that share work."""
        return self.full_value_at(values), self.full_grad_at(values)

    # -- validated layer -------------------------------------------------

    def check_point(self, w: HybridPoint) -> np.ndarray:
        """Validate a point against this objective's layout; return its values."""
        if not isinstance(w, HybridPoint):
            raise ValueError(f"expected a HybridPoint, got {w!r}")
        if w.layout != self._layout:
            raise ValueError(f"point layout {w.layout} != objective layout {self._layout}")
        return w.values

    def check_sample(self, i: int) -> int:
        """Validate a sample index (negative indices never wrap)."""
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
            raise IndexError(f"sample index must be an integer, got {i!r}")
        if not 0 <= i < self._n:
            raise IndexError(f"sample index {i} out of range [0, {self._n})")
        return int(i)

    def eval_sample(self, w: HybridPoint, i: int) -> float:
        return self.value_at(self.check_point(w), self.check_sample(i))

    def grad_sample(self, w: HybridPoint, i: int) -> np.ndarray:
        return self.grad_at(self.check_point(w), self.check_sample(i))

    def eval_full(self, w: HybridPoint) -> float:
        return self.full_value_at(self.check_point(w))

    def grad_full(self, w: HybridPoint) -> np.ndarray:
        return self.full_grad_at(self.check_point(w))

    def sample_variance(self, w: HybridPoint) -> float:
        """(1/n) sum_i ||grad f(w; i) - grad f(w)||^2, from analytic gradients."""
        grads = self.grads_all(self.check_point(w))
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


def _as_matrix(name: str, data, rows: int, cols: int) -> np.ndarray:
    arr = np.array(data, dtype=np.float64, copy=True)
    if arr.shape != (rows, cols):
        raise ValueError(f"{name} must have shape ({rows}, {cols}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


class BlockQuadratic(FiniteSumObjective):
    """f(w; i) = 0.5 (w - c_i)^T A (w - c_i) with A = diag(a_x I, a_y I).

    The full objective is minimized at the mean center; per-sample curvature
    equals the full curvature exactly, so a_x and a_y are the exact block
    gradient-Lipschitz constants.
    """

    def __init__(self, layout: BlockLayout, centers, a_x: float, a_y: float):
        centers = _as_matrix("centers", centers, *_infer_rows(centers, layout.d))
        super().__init__(layout, centers.shape[0])
        self.a_x = _check_real("a_x", a_x)
        self.a_y = _check_real("a_y", a_y)
        self.centers = centers
        self._diag = np.concatenate(
            [np.full(layout.d_x, self.a_x), np.full(layout.d_y, self.a_y)]
        )
        mean_center = centers.mean(axis=0)
        self._f_star = self.full_value_at(mean_center)
        self.centers.setflags(write=False)

    def value_at(self, values: np.ndarray, i: int) -> float:
        dv = values - self.centers[i]
        return float(0.5 * np.dot(dv, self._diag * dv))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        return self._diag * (values - self.centers[i])

    def values_all(self, values: np.ndarray) -> np.ndarray:
        dv = values - self.centers
        return 0.5 * np.vecdot(dv, self._diag * dv)

    def grads_all(self, values: np.ndarray) -> np.ndarray:
        return self._diag * (values - self.centers)

    def values_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        dv = points - self.centers[i]
        return 0.5 * np.vecdot(dv, self._diag * dv)

    def grads_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        return self._diag * (points - self.centers[i])

    @property
    def f_star(self) -> float | None:
        return self._f_star

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
        shifts = _as_matrix("shifts", shifts, *_infer_rows(shifts, layout.d))
        super().__init__(layout, shifts.shape[0])
        self.shifts = shifts
        self.shifts.setflags(write=False)

    def value_at(self, values: np.ndarray, i: int) -> float:
        return float(np.sum(np.cosh(values - self.shifts[i])))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        return np.sinh(values - self.shifts[i])

    def values_all(self, values: np.ndarray) -> np.ndarray:
        return np.sum(np.cosh(values - self.shifts), axis=1)

    def grads_all(self, values: np.ndarray) -> np.ndarray:
        return np.sinh(values - self.shifts)

    def values_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        return np.sum(np.cosh(points - self.shifts[i]), axis=1)

    def grads_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        return np.sinh(points - self.shifts[i])

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
        features = _as_matrix("features", features, *_infer_rows(features, layout.d))
        super().__init__(layout, features.shape[0])
        labels = np.array(labels, dtype=np.float64, copy=True)
        if labels.shape != (self._n,):
            raise ValueError(f"labels must have shape ({self._n},), got {labels.shape}")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        self.lam = _check_real("lam", lam, allow_zero=True)
        self.features = features
        self.labels = labels
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    def value_at(self, values: np.ndarray, i: int) -> float:
        margin = self.labels[i] * float(np.dot(self.features[i], values))
        loss = float(np.logaddexp(0.0, -margin))
        return loss + 0.5 * self.lam * float(np.dot(values, values))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        margin = self.labels[i] * float(np.dot(self.features[i], values))
        # sigmoid(-margin), computed without overflow for any margin sign
        p = float(np.exp(-np.logaddexp(0.0, margin)))
        return (-self.labels[i] * p) * self.features[i] + self.lam * values

    def values_all(self, values: np.ndarray) -> np.ndarray:
        return self._losses(self.labels * np.vecdot(self.features, values), values)

    def grads_all(self, values: np.ndarray) -> np.ndarray:
        return self._grads(self.labels * np.vecdot(self.features, values), values)

    def full_value_and_grad_at(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        margin = self.labels * np.vecdot(self.features, values)
        return (
            float(np.add.reduce(self._losses(margin, values)) / self._n),
            np.add.reduce(self._grads(margin, values), 0) / self._n,
        )

    def _losses(self, margin: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.logaddexp(0.0, -margin) + 0.5 * self.lam * float(np.dot(values, values))

    def _grads(self, margin: np.ndarray, values: np.ndarray) -> np.ndarray:
        p = np.exp(-np.logaddexp(0.0, margin))
        return (-self.labels * p)[:, None] * self.features + self.lam * values

    def values_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        margin = self.labels[i] * np.vecdot(points, self.features[i])
        return np.logaddexp(0.0, -margin) + 0.5 * self.lam * np.vecdot(points, points)

    def grads_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        margin = self.labels[i] * np.vecdot(points, self.features[i])
        p = np.exp(-np.logaddexp(0.0, margin))
        return (-self.labels[i] * p)[:, None] * self.features[i] + self.lam * points

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
        features = feature_scale * sample_gaussian(rng, n * layout.d).reshape(n, layout.d)
        labels = np.where(rng.generator.random(n) < 0.5, -1.0, 1.0)
        return cls(layout, features, labels, lam)


class LinearObjective(FiniteSumObjective):
    """f(w; i) = c_i . w; zero curvature everywhere, unbounded below."""

    def __init__(self, layout: BlockLayout, slopes):
        slopes = _as_matrix("slopes", slopes, *_infer_rows(slopes, layout.d))
        super().__init__(layout, slopes.shape[0])
        self.slopes = slopes
        self.slopes.setflags(write=False)

    def value_at(self, values: np.ndarray, i: int) -> float:
        return float(np.dot(self.slopes[i], values))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        return self.slopes[i].copy()

    def values_all(self, values: np.ndarray) -> np.ndarray:
        return np.vecdot(self.slopes, values)

    def grads_all(self, values: np.ndarray) -> np.ndarray:
        return self.slopes.copy()

    def values_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        return np.vecdot(points, self.slopes[i])

    def grads_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        return np.tile(self.slopes[i], (len(points), 1))

    def block_lipschitz_bound(self) -> tuple[float, float]:
        return (0.0, 0.0)

    @classmethod
    def random(
        cls, layout: BlockLayout, n: int, rng: RngStream, *, slope_scale: float = 1.0
    ) -> "LinearObjective":
        slopes = slope_scale * sample_gaussian(rng, n * layout.d).reshape(n, layout.d)
        return cls(layout, slopes)


class DenseQuadratic(FiniteSumObjective):
    """f(w; i) = 0.5 (w - c_i)^T H (w - c_i) for a full symmetric H.

    Unlike :class:`BlockQuadratic` the Hessian may couple the blocks and need
    not be positive definite; the exact spectrum makes it the reference case
    for curvature probes.
    """

    def __init__(self, layout: BlockLayout, hessian, centers=None):
        hessian = np.array(hessian, dtype=np.float64, copy=True)
        d = layout.d
        if hessian.shape != (d, d):
            raise ValueError(f"hessian must have shape ({d}, {d}), got {hessian.shape}")
        if not np.isfinite(hessian).all():
            raise ValueError("hessian must be finite")
        scale = float(np.max(np.abs(hessian))) or 1.0
        if not np.allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("hessian must be symmetric")
        hessian = 0.5 * (hessian + hessian.T)
        if centers is None:
            centers = np.zeros((1, d))
        centers = _as_matrix("centers", centers, *_infer_rows(centers, d))
        super().__init__(layout, centers.shape[0])
        self.hessian = hessian
        self.centers = centers
        eigs = np.linalg.eigvalsh(hessian)
        self._psd = bool(eigs[0] >= -1e-12 * max(scale, 1.0))
        self._f_star = self.full_value_at(centers.mean(axis=0)) if self._psd else None
        self.hessian.setflags(write=False)
        self.centers.setflags(write=False)

    def value_at(self, values: np.ndarray, i: int) -> float:
        dv = values - self.centers[i]
        return float(0.5 * np.dot(dv, self.hessian @ dv))

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        return self.hessian @ (values - self.centers[i])

    def values_all(self, values: np.ndarray) -> np.ndarray:
        dv = values - self.centers
        return 0.5 * np.vecdot(dv, np.matvec(self.hessian, dv))

    def grads_all(self, values: np.ndarray) -> np.ndarray:
        return np.matvec(self.hessian, values - self.centers)

    def values_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        dv = points - self.centers[i]
        return 0.5 * np.vecdot(dv, np.matvec(self.hessian, dv))

    def grads_at_points(self, points: np.ndarray, i: int) -> np.ndarray:
        return np.matvec(self.hessian, points - self.centers[i])

    @property
    def f_star(self) -> float | None:
        return self._f_star

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
        g = entry_scale * sample_gaussian(rng, d * d).reshape(d, d)
        hessian = 0.5 * (g + g.T)
        centers = _spread_rows(d, n, rng, center_scale, 0.0)
        return cls(layout, hessian, centers)


def _infer_rows(data, d: int) -> tuple[int, int]:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array of rows, got ndim={arr.ndim}")
    return arr.shape[0], d


def _spread_rows(
    d: int, n: int, rng: RngStream, scale: float, spread: float
) -> np.ndarray:
    """n rows equal to a shared scaled Gaussian base, plus optional per-row spread."""
    base = scale * sample_gaussian(rng, d)
    rows = np.tile(base, (n, 1))
    if spread != 0.0:
        rows = rows + spread * sample_gaussian(rng, n * d).reshape(n, d)
    return rows


# -- config files ---------------------------------------------------------

_KINDS = ("block_quadratic", "cosh", "logistic", "linear", "dense_quadratic")


def _require(spec: dict, key: str):
    if key not in spec:
        raise ValueError(f"objective spec missing required key {key!r}")
    return spec[key]


def _layout_of(spec: dict) -> BlockLayout:
    return BlockLayout(int(_require(spec, "d_x")), int(_require(spec, "d_y")))


def _seeded_rng(spec: dict) -> RngStream:
    return RngStream(int(_require(spec, "seed")), DATA_STREAM_ID)


def objective_from_dict(spec: dict) -> FiniteSumObjective:
    """Build an objective from a JSON-compatible dict.

    Data arrays may be given explicitly (``centers``, ``shifts``, ``features``
    + ``labels``, ``slopes``, ``hessian``) or generated from ``seed`` with
    ``n`` rows; generation draws from the dedicated data stream, so any run
    seeded with the same config reproduces the exact same instance.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"objective spec must be a dict, got {type(spec).__name__}")
    kind = _require(spec, "kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown objective kind {kind!r}; expected one of {_KINDS}")
    layout = _layout_of(spec)

    if kind == "block_quadratic":
        a_x, a_y = float(_require(spec, "a_x")), float(_require(spec, "a_y"))
        if "centers" in spec:
            return BlockQuadratic(layout, spec["centers"], a_x, a_y)
        return BlockQuadratic.random(
            layout,
            int(_require(spec, "n")),
            a_x,
            a_y,
            _seeded_rng(spec),
            center_scale=float(spec.get("center_scale", 1.0)),
            center_spread=float(spec.get("center_spread", 0.0)),
        )
    if kind == "cosh":
        if "shifts" in spec:
            return CoshObjective(layout, spec["shifts"])
        return CoshObjective.random(
            layout,
            int(_require(spec, "n")),
            _seeded_rng(spec),
            shift_scale=float(spec.get("shift_scale", 1.0)),
            shift_spread=float(spec.get("shift_spread", 0.0)),
        )
    if kind == "logistic":
        lam = float(spec.get("lam", 0.0))
        if "features" in spec:
            return LogisticObjective(layout, spec["features"], _require(spec, "labels"), lam)
        return LogisticObjective.random(
            layout,
            int(_require(spec, "n")),
            _seeded_rng(spec),
            lam=lam,
            feature_scale=float(spec.get("feature_scale", 1.0)),
        )
    if kind == "linear":
        if "slopes" in spec:
            return LinearObjective(layout, spec["slopes"])
        return LinearObjective.random(
            layout,
            int(_require(spec, "n")),
            _seeded_rng(spec),
            slope_scale=float(spec.get("slope_scale", 1.0)),
        )
    # dense_quadratic
    if "hessian" in spec:
        return DenseQuadratic(layout, spec["hessian"], spec.get("centers"))
    return DenseQuadratic.random(
        layout,
        int(spec.get("n", 1)),
        _seeded_rng(spec),
        entry_scale=float(spec.get("entry_scale", 1.0)),
        center_scale=float(spec.get("center_scale", 0.0)),
    )


def load_objective(path) -> FiniteSumObjective:
    """Load an objective from a JSON file; see :func:`objective_from_dict`."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return objective_from_dict(spec)
