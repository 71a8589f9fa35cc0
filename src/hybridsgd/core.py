"""Block-partitioned parameter vectors and deterministic random streams.

Every stochastic component in the package draws from an :class:`RngStream`,
a counter-based generator keyed by ``(seed, stream_id)``.  Equal keys replay
the exact same sequence on every platform and run; distinct stream ids give
statistically independent streams, so concurrent consumers never share state.

Config values enter through ``_load_json`` and ``_read_section``, which reads
a JSON object section through a key table, rejects keys the table does not
list and sends values to the checks ``_check_int``/``_check_real``/
``_check_finite``: a bool or a string is never a number, an int in a real
field becomes a float.  ``_check_array`` applies the same rule to every entry
of a nested list, so array values (data, points) are never coerced either.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "Block",
    "BlockLayout",
    "HybridPoint",
    "NumericError",
    "RngStream",
    "fmt17",
    "sample_gaussian",
]


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless text round trip)."""
    return format(float(x), ".17g")


def _write_csv(path, header, line, rows) -> None:
    """Write a header and one ``line % row`` per row as utf-8 CSV, "\n" line ends;
    "%.17g" in line gives the text of fmt17."""
    with open(Path(path), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write("".join([line % row for row in rows]))

_U64 = 0xFFFFFFFFFFFFFFFF
_FLOAT_MAX = float(np.finfo(np.float64).max)


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


def _check_type(name: str, value, cls):
    """value, if it is an instance of cls; else ValueError."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _check_u64(name: str, value) -> int:
    """value as an int, if it is an integer (not a bool) that fits in 64 unsigned bits."""
    return _check_int(name, value, 0, _U64)


def _check_finite(name: str, value) -> float:
    """value as a float, if it is a finite real number (not a bool or a string); else ValueError."""
    # abs(.) <= max float also rejects an int too large to convert, where isfinite raises
    real = (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, real) or not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _check_array(name: str, data, shape: tuple) -> np.ndarray:
    """data as a new float64 array, if it has the given shape (a leading None: any
    number of rows) and every entry is a finite real number.  Nested lists are
    walked entry by entry with _check_finite, so a bool, a string or None is an
    error, and a ragged or too deep nesting is a shape error."""
    todo = [] if isinstance(data, np.ndarray) and data.dtype.kind in "iuf" else [data]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, tuple)):
            todo.extend(reversed(item))
        elif not (isinstance(item, np.ndarray) and item.dtype.kind in "iuf"):
            _check_finite(f"every entry of {name}", item)
    try:
        arr = np.array(data, dtype=np.float64)
    except ValueError:  # every entry is a real number: the nesting is ragged or too deep
        arr = None
    if (arr is None or arr.ndim != len(shape) or arr.shape[1:] != shape[1:]
            or shape[0] not in (None, arr.shape[0])):
        got = arr.shape if arr is not None else _nesting(data)
        raise ValueError(f"{name} must have shape {str(shape).replace('None', 'n')}, got {got}")
    if not np.isfinite(arr).all():
        raise ValueError(f"every entry of {name} must be a finite real number")
    return arr


def _nesting(data) -> str:
    """Why numpy cannot make an array of a nested list of reals: deeper than its 64 dimensions, or ragged."""
    depth, level = 0, [data]
    while all(isinstance(item, (list, tuple)) for item in level) and len({len(item) for item in level}) == 1:
        depth += 1
        level = [x for item in level for x in item]
    return f"a list nested {depth} levels deep" if depth > 64 else "a ragged nested list"


def _check_real(name: str, value, *, allow_zero: bool = False) -> float:
    """value as a float, if it is finite and > 0 (>= 0 with allow_zero); else ValueError."""
    x = _check_finite(name, value)
    if x < 0 if allow_zero else x <= 0:
        bound = ">= 0" if allow_zero else "positive"
        raise ValueError(f"{name} must be {bound} and finite, got {x}")
    return x


# Default of a key that a section must contain (see _read_section).
_REQUIRED = object()


def _load_json(path):
    """The JSON value in a file; a ValueError naming the file if it is not JSON
    or is nested too deeply for the decoder."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError as exc:
            raise ValueError(f"{path}: invalid JSON (nested too deeply to decode)") from exc


def _read_section(where: str, spec, table: dict, kinds: dict | None = None) -> dict:
    """The values of one JSON object section, read through its key table.

    table maps each key the section may hold to (check, default).  An absent or
    null key takes its default (_REQUIRED: an error); a present value becomes
    check(key, value), or stays as is where check is None.  With kinds, the
    section's "kind" picks kinds[kind], the table of the keys of that kind only
    (or a function of the section returning it).  Other keys are an error.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(spec).__name__}")
    if kinds is not None:
        default = table["kind"][1]
        kind = default if spec.get("kind") is None else spec["kind"]
        if kind is _REQUIRED:
            raise ValueError(f"{where}: missing required key 'kind'")
        if kind not in tuple(kinds):
            raise ValueError(f"{where}: unknown kind {kind!r}; expected one of {', '.join(kinds)}")
        extra = kinds[kind]
        table = {**table, **(extra(spec) if callable(extra) else extra)}
    for key in spec:
        if key not in table:
            raise ValueError(f"{where}: unknown key {key!r}; expected one of {', '.join(table)}")
    values = {}
    for key, (check, default) in table.items():
        value = spec.get(key)
        if value is not None:
            values[key] = value if check is None else check(key, value)
        elif default is _REQUIRED:
            raise ValueError(f"{where}: missing required key {key!r}")
        else:
            values[key] = default
    return values


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


@dataclass(frozen=True, eq=False)
class HybridPoint:
    """An immutable point w = (x, y); all entries finite float64."""

    layout: BlockLayout
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _check_array("values", self.values, (self.layout.d,))
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


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
        self.seed = _check_u64("seed", self.seed)
        self.stream_id = _check_u64("stream_id", self.stream_id)
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
        index = _check_u64("index", index)
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
    """values as row 0, then one copy per row of shifts with that row added to values[sl].

    Row 0 is a plain copy (``values + 0.0`` would turn -0.0 into +0.0); row
    k + 1 is bit for bit ``values.copy()`` after ``[sl] += shifts[k]``.
    """
    rows = np.empty((len(shifts) + 1, len(values)))
    rows[:] = values
    rows[1:, sl] += shifts
    return rows


def shuffle_permutation(rng: RngStream, n: int) -> np.ndarray:
    """Draw a uniformly random permutation of range(n)."""
    n = _check_int("n", n)
    return rng.generator.permutation(n)
