"""Block-partitioned parameter vectors and deterministic random streams.

Every stochastic component in the package draws from an :class:`RngStream`,
a counter-based generator keyed by ``(seed, stream_id)``.  Equal keys replay
the exact same sequence on every platform and run; distinct stream ids give
statistically independent streams, so concurrent consumers never share state.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Block",
    "BlockLayout",
    "HybridPoint",
    "NumericError",
    "RngStream",
    "fmt17",
    "sample_gaussian",
    "sample_unit_sphere",
    "shuffle_permutation",
]


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless text round trip)."""
    return format(float(x), ".17g")

_U64 = 0xFFFFFFFFFFFFFFFF


def _check_int(name: str, value, lo: int = 1, hi: int | None = None) -> int:
    """value as an int, if it is an integer (not a bool) in [lo, hi]; else ValueError."""
    if (
        not isinstance(value, (int, np.integer))
        or isinstance(value, bool)
        or value < lo
        or (hi is not None and value > hi)
    ):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _check_real(name: str, value, *, allow_zero: bool = False) -> float:
    """value as a float, if it is finite and > 0 (>= 0 with allow_zero); else ValueError."""
    if not np.isfinite(value) or (value < 0 if allow_zero else value <= 0):
        bound = ">= 0" if allow_zero else "positive"
        raise ValueError(f"{name} must be {bound} and finite, got {value}")
    return float(value)


class NumericError(RuntimeError):
    """A computation produced a non-finite value where a finite one is required."""


class Block(Enum):
    """Selects the x block, the y block, or the full parameter vector."""

    X = "x"
    Y = "y"
    FULL = "full"


@dataclass(frozen=True)
class BlockLayout:
    """Dimensions of the two parameter blocks; points store x first, then y."""

    d_x: int
    d_y: int

    def __post_init__(self) -> None:
        _check_int("d_x", self.d_x)
        _check_int("d_y", self.d_y)

    @property
    def d(self) -> int:
        return self.d_x + self.d_y

    def slice_of(self, block: Block) -> slice:
        if block is Block.X:
            return slice(0, self.d_x)
        if block is Block.Y:
            return slice(self.d_x, self.d)
        return slice(0, self.d)

    def dim_of(self, block: Block) -> int:
        if block is Block.X:
            return self.d_x
        if block is Block.Y:
            return self.d_y
        return self.d


@dataclass(frozen=True, eq=False)
class HybridPoint:
    """An immutable point w = (x, y); all entries finite float64."""

    layout: BlockLayout
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != (self.layout.d,):
            raise ValueError(
                f"values must have shape ({self.layout.d},), got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def x(self) -> np.ndarray:
        return self.values[: self.layout.d_x]

    @property
    def y(self) -> np.ndarray:
        return self.values[self.layout.d_x :]

    def with_values(self, values: np.ndarray) -> "HybridPoint":
        return HybridPoint(self.layout, values)


def _splitmix64(z: int) -> int:
    # SplitMix64 finalizer; mixes ids so derived streams never collide in practice.
    z = (z + 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


@dataclass(eq=False)
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the Philox counter-based bit generator with the pair as its key,
    so a stream's draw sequence is a pure function of the key.  Instances are
    stateful (draws advance the stream) and single-owner: hand each concurrent
    consumer its own stream via distinct ids or :meth:`child`.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        self.seed = _check_int("seed", self.seed, 0, _U64)
        self.stream_id = _check_int("stream_id", self.stream_id, 0, _U64)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def child(self, index: int) -> "RngStream":
        """A fresh independent stream derived from this stream's identity.

        The child's id is a SplitMix64 mix of (stream_id, index), so children
        of distinct indices, and children of distinct parents, do not collide.
        Deriving a child does not advance this stream.
        """
        index = _check_int("index", index, 0, _U64)
        derived = _splitmix64((_splitmix64(self.stream_id) + index + 1) & _U64)
        return RngStream(self.seed, derived)


def sample_gaussian(rng: RngStream, dim: int) -> np.ndarray:
    """Draw a standard Gaussian vector of the given dimension."""
    dim = _check_int("dim", dim)
    return rng.generator.standard_normal(dim)


def _gaussian_point(layout: BlockLayout, rng: RngStream, scale: float = 1.0) -> HybridPoint:
    """A point with scale * N(0, I) entries, drawn with one sample_gaussian call."""
    return HybridPoint(layout, scale * sample_gaussian(rng, layout.d))


def sample_unit_sphere(rng: RngStream, dim: int) -> np.ndarray:
    """Draw a vector uniformly from the unit sphere (normalized Gaussian).

    A zero draw (possible only in degenerate floating-point corners) is
    rejected and redrawn, so the result always has unit norm.
    """
    return _unit_sphere_rows(rng, 1, _check_int("dim", dim))[0]


def _unit_sphere_rows(rng: RngStream, m: int, dim: int) -> np.ndarray:
    """m unit-sphere draws as the rows of an (m, dim) array.

    Equal bit for bit, and in stream position, to m sequential
    :func:`sample_unit_sphere` calls: the (m, dim) Gaussian block consumes the
    stream in the same order as m draws of dim, and a zero row is dropped and
    the block topped up from the stream in order, as the sequential redraw
    would.  ``np.sqrt(np.vecdot(.))`` equals ``np.linalg.norm`` row by row.
    """
    rows = rng.generator.standard_normal((m, dim))
    norms = np.sqrt(np.vecdot(rows, rows))
    while True:
        keep = norms > 0.0
        if keep.all():
            return rows / norms[:, None]
        extra = rng.generator.standard_normal((m - np.count_nonzero(keep), dim))
        rows = np.concatenate([rows[keep], extra])
        norms = np.concatenate([norms[keep], np.sqrt(np.vecdot(extra, extra))])


def _shifted_rows(values: np.ndarray, sl: slice, shifts: np.ndarray) -> np.ndarray:
    """One copy of values per row of shifts, with that row added to values[sl].

    Row k is bit for bit ``values.copy()`` after ``[sl] += shifts[k]``.
    """
    rows = np.empty((len(shifts), len(values)))
    rows[:] = values
    rows[:, sl] += shifts
    return rows


def shuffle_permutation(rng: RngStream, n: int) -> np.ndarray:
    """Draw a uniformly random permutation of range(n)."""
    n = _check_int("n", n)
    return rng.generator.permutation(n)
