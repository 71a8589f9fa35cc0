"""Shared fixtures and instrumented objectives for the test suite."""
import numpy as np
from hypothesis import settings

from hybridsgd import BlockLayout, BlockQuadratic, FiniteSumObjective

settings.register_profile("deterministic", derandomize=True, max_examples=200, deadline=None)
settings.load_profile("deterministic")


class IndexRecordingObjective(FiniteSumObjective):
    """Linear losses whose per-sample gradient calls record the sample index.

    Full-objective evaluations (used by trace logging) bypass the per-sample
    path, so `seen` holds exactly one index per optimizer step.
    """

    def __init__(self, layout: BlockLayout, n: int):
        super().__init__(layout, n)
        self.slopes = np.ones((n, layout.d))
        self.seen: list[int] = []

    def value_at(self, values: np.ndarray, i: int) -> float:
        return float(values @ self.slopes[i])

    def grad_at(self, values: np.ndarray, i: int) -> np.ndarray:
        self.seen.append(int(i))
        return self.slopes[i].copy()

    def full_value_at(self, values: np.ndarray) -> float:
        return float(values @ self.slopes.mean(axis=0))

    def full_grad_at(self, values: np.ndarray) -> np.ndarray:
        return self.slopes.mean(axis=0)


class OffsetObjective(FiniteSumObjective):
    """base objective plus a constant (gradients untouched)."""

    def __init__(self, base: FiniteSumObjective, constant: float):
        super().__init__(base.layout, base.n)
        self.base = base
        self.constant = float(constant)

    def value_at(self, values, i):
        return self.base.value_at(values, i) + self.constant

    def grad_at(self, values, i):
        return self.base.grad_at(values, i)


class ScaledObjective(FiniteSumObjective):
    """alpha times a base objective."""

    def __init__(self, base: FiniteSumObjective, alpha: float):
        super().__init__(base.layout, base.n)
        self.base = base
        self.alpha = float(alpha)

    def value_at(self, values, i):
        return self.alpha * self.base.value_at(values, i)

    def grad_at(self, values, i):
        return self.alpha * self.base.grad_at(values, i)


class BlockGuardObjective(FiniteSumObjective):
    """Wrapper that asserts one block is never perturbed during evaluation."""

    def __init__(self, base: FiniteSumObjective, guard_slice: slice, expected: np.ndarray):
        super().__init__(base.layout, base.n)
        self.base = base
        self.guard_slice = guard_slice
        self.expected = np.array(expected, dtype=np.float64)

    def _check(self, values):
        assert np.array_equal(values[self.guard_slice], self.expected), (
            "guarded block was perturbed"
        )

    def value_at(self, values, i):
        self._check(values)
        return self.base.value_at(values, i)

    def grad_at(self, values, i):
        self._check(values)
        return self.base.grad_at(values, i)


class CountingQuadratic(BlockQuadratic):
    """A BlockQuadratic that counts per-sample value_at/grad_at calls and
    records the number of rows of each batched values_at_points/grads_at_points call."""

    def __init__(self, *args):
        self.reset()
        super().__init__(*args)  # the constructor evaluates f at the mean center
        self.reset()

    def reset(self):
        self.value_calls = self.grad_calls = 0
        self.value_rows, self.grad_rows = [], []

    def value_at(self, values, i):
        self.value_calls += 1
        return super().value_at(values, i)

    def grad_at(self, values, i):
        self.grad_calls += 1
        return super().grad_at(values, i)

    def values_at_points(self, points, i):
        self.value_rows.append(len(points))
        return super().values_at_points(points, i)

    def grads_at_points(self, points, i):
        self.grad_rows.append(len(points))
        return super().grads_at_points(points, i)
