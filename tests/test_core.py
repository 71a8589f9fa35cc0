"""Block layouts, points, deterministic streams, and sampling primitives."""
import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hybridsgd
from hybridsgd import (
    Block,
    BlockLayout,
    HybridPoint,
    RngStream,
    fmt17,
    sample_gaussian,
)
from hybridsgd.core import (_REQUIRED, _check_array, _check_member, _mean_stderr, _norm, _read_section,
                            _signature_keys, _unit_sphere_rows, sample_unit_sphere, shuffle_permutation)


def test_layout_dimensions():
    layout = BlockLayout(3, 2)
    assert layout.d == 5
    assert layout.slice_of(Block.X) == slice(0, 3)
    assert layout.slice_of(Block.Y) == slice(3, 5)
    assert layout.slice_of(Block.FULL) == slice(0, 5)


@pytest.mark.parametrize("d_x,d_y", [(0, 1), (1, 0), (-2, 3), (1, -1)])
def test_layout_rejects_nonpositive_dims(d_x, d_y):
    with pytest.raises(ValueError):
        BlockLayout(d_x, d_y)


def test_point_copies_input_and_is_readonly():
    layout = BlockLayout(2, 1)
    source = np.array([1.0, 2.0, 3.0])
    p = HybridPoint(layout, source)
    source[0] = 99.0
    assert p.values[0] == 1.0
    with pytest.raises(ValueError):
        p.values[0] = 0.0


@pytest.mark.parametrize("values", [
    [1.0], [1.0, 2.0, 3.0], [1.0, np.nan], [np.inf, 0.0],
    # entries that are not real numbers are never coerced
    [True, False], [1.0, True], ["1", "2"], [0.5, None], [1, 10**400], np.array([True, False]),
])
def test_point_rejects_bad_values(values):
    with pytest.raises(ValueError):
        HybridPoint(BlockLayout(1, 1), values)


def test_fmt17_roundtrips_known_values():
    for x in (0.1, 1.0 / 3.0, -2.5e-300, 6.5104166666666666e-05, 1e308, -0.0, 12345.6789):
        assert float(fmt17(x)) == x


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt17_roundtrip_property(x):
    assert float(fmt17(x)) == x


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(np.inf)
@example(-np.inf)
@example(np.nan)
@example(np.float64(-0.0))
def test_percent_17g_is_fmt17(x):
    # the CSV writers format a row with one "%" format, whose "%.17g" must give fmt17's text
    assert "%.17g" % x == fmt17(x)
    assert "%.17g,%d\n" % (x, 3) == f"{fmt17(x)},3\n"


def test_check_array_rejects_a_numpy_array_holding_nan():
    # a float array is not walked entry by entry; its finite check comes after the shape check
    with pytest.raises(ValueError, match="^every entry of values must be a finite real number$"):
        _check_array("values", np.array([1.0, np.nan]), (2,))
    with pytest.raises(ValueError, match="^every entry of values must be a finite real number$"):
        HybridPoint(BlockLayout(1, 1), np.array([-np.inf, 0.0]))


def test_rng_replay_is_bit_identical():
    a = sample_gaussian(RngStream(42, 7), 16)
    b = sample_gaussian(RngStream(42, 7), 16)
    assert np.array_equal(a, b)


def test_rng_streams_and_seeds_differ():
    base = sample_gaussian(RngStream(42, 7), 16)
    assert not np.array_equal(base, sample_gaussian(RngStream(42, 8), 16))
    assert not np.array_equal(base, sample_gaussian(RngStream(43, 7), 16))


def test_rng_sequential_draws_advance_state():
    rng = RngStream(0, 0)
    first = sample_gaussian(rng, 4)
    second = sample_gaussian(rng, 4)
    assert not np.array_equal(first, second)


def test_rng_child_streams():
    rng = RngStream(5, 9)
    c0 = sample_gaussian(rng.child(0), 8)
    assert np.array_equal(c0, sample_gaussian(RngStream(5, 9).child(0), 8))
    assert not np.array_equal(c0, sample_gaussian(rng.child(1), 8))
    assert not np.array_equal(c0, sample_gaussian(RngStream(5, 9), 8))


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64)])
def test_rng_rejects_out_of_range_ids(seed, stream):
    with pytest.raises(ValueError):
        RngStream(seed, stream)


def test_gaussian_shape_and_dim_validation():
    v = sample_gaussian(RngStream(1, 1), 3)
    assert v.shape == (3,) and v.dtype == np.float64
    with pytest.raises(ValueError):
        sample_gaussian(RngStream(1, 1), 0)


def test_gaussian_moments_scalar_stream():
    # K scalar draws: mean within 4/sqrt(K) of 0, variance within 5% of 1.
    rng = RngStream(2024, 1)
    draws = 100_000
    xs = np.array([sample_gaussian(rng, 1)[0] for _ in range(draws)])
    assert abs(xs.mean()) <= 4.0 / np.sqrt(draws)
    assert abs(xs.var() - 1.0) <= 0.05


def test_unit_sphere_norm_and_dim1():
    rng = RngStream(3, 3)
    for _ in range(200):
        v = sample_unit_sphere(rng, 5)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    for _ in range(20):
        assert sample_unit_sphere(rng, 1)[0] in (1.0, -1.0)


def test_unit_sphere_mean_is_centered():
    rng = RngStream(11, 4)
    draws = 100_000
    total = np.zeros(2)
    for _ in range(draws):
        total += sample_unit_sphere(rng, 2)
    assert np.all(np.abs(total / draws) <= 4.0 / np.sqrt(draws))


def _sequential_unit_sphere(rng, dim):
    """One direction at a time: redraw while the Gaussian draw is zero."""
    while True:
        v = rng.generator.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            return v / norm


class _ReplayStream:
    """Stands in for an RngStream: replays fixed Gaussian values in order."""

    def __init__(self, values):
        self.generator = self
        self._values = np.asarray(values, dtype=np.float64).ravel()
        self.position = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        out = self._values[self.position : self.position + count]
        self.position += count
        return out.reshape(size)


@pytest.mark.parametrize("k,dim", [(1, 1), (7, 3), (100, 5), (40, 10)])
def test_batched_unit_sphere_equals_sequential_draws(k, dim):
    batched_rng, sequential_rng, public_rng = (RngStream(61, 7) for _ in range(3))
    batched = _unit_sphere_rows(batched_rng, k, dim)
    assert batched.shape == (k, dim)
    sequential = np.stack([_sequential_unit_sphere(sequential_rng, dim) for _ in range(k)])
    public = np.stack([sample_unit_sphere(public_rng, dim) for _ in range(k)])
    assert np.array_equal(batched, sequential) and np.array_equal(batched, public)
    # the stream is left at the same position
    after = [rng.generator.standard_normal(3) for rng in (batched_rng, sequential_rng, public_rng)]
    assert np.array_equal(after[0], after[1]) and np.array_equal(after[0], after[2])


def test_batched_unit_sphere_rejects_zero_rows_like_sequential_draws():
    # rows 1, 3 and 4 are zero: the first block keeps rows 0 and 2, the
    # top-up of two rows keeps row 5, the next top-up takes row 6
    rows = [[3.0, 4.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0],
            [0.0, 0.0], [0.0, 2.0], [1.0, 1.0], [7.0, 7.0]]
    batched, sequential = _ReplayStream(rows), _ReplayStream(rows)
    out = _unit_sphere_rows(batched, 4, 2)
    expected = np.stack([_sequential_unit_sphere(sequential, 2) for _ in range(4)])
    assert np.array_equal(out, expected)
    assert np.array_equal(out[:3], [[0.6, 0.8], [-1.0, 0.0], [0.0, 1.0]])
    assert batched.position == sequential.position == 14
    public = _ReplayStream(rows)
    assert np.array_equal(np.stack([sample_unit_sphere(public, 2) for _ in range(4)]), out)


@pytest.mark.parametrize("m", [1, 2, 3, 17, 500, 5000])
def test_norm_and_mean_stderr_are_the_bits_of_numpy(m):
    samples = 3.0 + 1e3 * sample_gaussian(RngStream(62, m), m) ** 2
    assert _norm(samples) == float(np.linalg.norm(samples))
    # a block's rows, the rows of its column slices and an offset vector keep the bits too
    block = sample_gaussian(RngStream(63, m), 3 * m).reshape(3, m)
    for rows in (block, block[:, : m // 2], block[:, m // 2 :]):
        assert _norm(rows).tolist() == [float(np.linalg.norm(row)) for row in rows]
    assert _norm(samples[1:]) == float(np.linalg.norm(samples[1:]))
    mean, stderr = _mean_stderr(samples)
    assert mean == float(np.mean(samples))
    assert stderr == (float(np.std(samples, ddof=1)) / np.sqrt(m) if m > 1 else 0.0)


def test_shuffle_single_and_bijection():
    assert shuffle_permutation(RngStream(0, 0), 1).tolist() == [0]
    perm = shuffle_permutation(RngStream(17, 0), 5)
    assert sorted(perm.tolist()) == [0, 1, 2, 3, 4]


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**32))
def test_shuffle_is_always_a_bijection(n, seed):
    perm = shuffle_permutation(RngStream(seed, 6), n)
    assert sorted(perm.tolist()) == list(range(n))


def test_shuffle_replay():
    a = shuffle_permutation(RngStream(8, 2), 12)
    b = shuffle_permutation(RngStream(8, 2), 12)
    assert np.array_equal(a, b)


def test_shuffle_frequencies_n3():
    # 6e4 draws: each of the 6 permutations appears with frequency 1/6 +- 0.01.
    rng = RngStream(99, 5)
    draws = 60_000
    counts: dict[tuple, int] = {}
    for _ in range(draws):
        key = tuple(shuffle_permutation(rng, 3).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for count in counts.values():
        assert abs(count / draws - 1.0 / 6.0) <= 0.01


def test_signature_keys_read_a_table_off_the_parameters():
    def feed(a, b=2.0, *, target=Block.FULL, c=None):
        return a, b, target, c

    table = _signature_keys(feed)
    assert list(table) == ["a", "b", "target", "c"]
    assert table["a"] == (None, _REQUIRED) and table["b"] == (None, 2.0) and table["c"] == (None, None)
    assert table["target"][1] is Block.FULL
    assert list(_signature_keys(feed, "c", "a")) == ["a", "c"]  # in the signature's order
    assert list(_signature_keys(feed, skip=("a", "c"))) == ["b", "target"]
    # an enum key is read into its member; the rest go to fn as given
    assert _read_section("s", {"a": "v", "target": "x"}, table) == {
        "a": "v", "b": 2.0, "target": Block.X, "c": None}
    with pytest.raises(ValueError, match=r"^s: missing required key 'a'$"):
        _read_section("s", {}, table)


@pytest.mark.parametrize("value", ["z", "X", "Block.X", 1, 0.5, True, None, ["x"], {"x": 1}])
def test_check_member_names_the_members_it_accepts(value):
    with pytest.raises(ValueError) as info:
        _check_member("target", value, Block)
    assert str(info.value) == f"target must be one of x, y, full, got {value!r}"
    assert [_check_member("target", v, Block) for v in ("x", "y", "full")] == [Block.X, Block.Y, Block.FULL]


def test_validation_idioms_live_only_in_core():
    # "An integer >= k, not a bool" and "a finite real > 0 (or >= 0)" have one
    # home, core._check_int and core._check_real, and sample indices use it too.
    idioms = re.compile(
        r"isinstance\([^()]*,\s*\(int,\s*np\.integer\)\)"
        r"|not np\.isfinite\(([\w.]+)\) or \1 <=? 0"
    )
    assert idioms.search("if not isinstance(q, (int, np.integer)) or q < 1:")
    assert idioms.search("if not np.isfinite(self.h) or self.h <= 0:")
    assert idioms.search("if not np.isfinite(lam) or lam < 0:")
    # Reading a config value (a required key, a JSON object section, a number,
    # an array) has one home too, core._read_section with the checks above and
    # core._check_array, so the CLI and the objective specs hold key tables
    # and no reading code of their own.
    config_idioms = re.compile(
        r"def _require\("
        r"|isinstance\([^()]*,\s*dict\)"
        r"|\b(?:float|int)\(\s*(?:_require\(|spec|cfg)"
        r"|np\.(?:as)?array\((?!\[)[^()]*dtype=np\.float64"
    )
    assert config_idioms.search("def _require(cfg: dict, key: str, where: str):")
    assert config_idioms.search("    if not isinstance(spec, dict):")
    assert config_idioms.search('scale = float(spec.get("scale", 1.0))')
    assert config_idioms.search('horizon = int(cfg_for_T["T"])')
    assert config_idioms.search('n = int(_require(spec, "n", "constants"))')
    assert config_idioms.search("labels = np.array(labels, dtype=np.float64, copy=True)")
    assert config_idioms.search('HybridPoint(layout, np.asarray(init["values"], dtype=np.float64))')
    assert not config_idioms.search("np.array([self.value_at(p, k) for p, k in pairs], dtype=np.float64)")
    # Reading an enum value has one home, core._check_member, which _signature_keys
    # puts on every enum key: the CLI catches no ValueError to re-raise it with a prefix.
    # The sample mean is np.add.reduce(., 0) / n, one spelling: no .mean( and no np.std(.
    mean_idioms = re.compile(r"\.mean\(|np\.std\(")
    assert mean_idioms.search("self._mean_center = centers.mean(axis=0)")
    assert mean_idioms.search("spread = float(np.std(sq, ddof=1))")
    assert not mean_idioms.search("mean = np.add.reduce(grads, 0) / self._n")
    # The 2-norm has one home, core._norm: no linalg.norm, sqrt of a vecdot or v.dot(v) elsewhere.
    norm_idioms = re.compile(r"np\.linalg\.norm|np\.sqrt\(np\.vecdot\(|\b([\w.\[\]:]+)\.dot\(\1\)")
    assert norm_idioms.search("return math.sqrt(v.dot(v))")
    assert norm_idioms.search("norm = values[sl].dot(values[sl])")
    assert norm_idioms.search("return [np.sqrt(np.vecdot(g, g)).tolist() for g in rows]")
    assert norm_idioms.search("scale = max(float(np.linalg.norm(exact)), 1e-12)")
    assert not norm_idioms.search("margin = self.labels[i] * float(np.dot(self.features[i], values))")
    # "value is an instance of cls" has one home too, core._check_type.  Outside
    # core an isinstance test may guard a raise only in the rule that a ZO block
    # needs a zo config, which is not a type check of one value.
    # Every CSV goes through core._write_csv, one "%" row format per writer: no
    # module imports csv, and no other function joins fields with ",".
    found = []
    for path in sorted(Path(hybridsgd.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found += [f"{path.name}:{lineno}: {line.strip()}"
                  for lineno, line in enumerate(source.splitlines(), 1) if mean_idioms.search(line)]
        tree = ast.parse(source)
        norm_lines = {n for node in tree.body if getattr(node, "name", None) == "_norm" and path.name == "core.py"
                      for n in range(node.lineno, node.end_lineno + 1)}
        found += [f"{path.name}:{lineno}: {line.strip()}" for lineno, line in enumerate(source.splitlines(), 1)
                  if norm_idioms.search(line) and lineno not in norm_lines]
        for node in ast.walk(tree):
            imported = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in imported:
                found.append(f"{path.name}:{node.lineno}: imports csv")
        if path.name == "core.py":
            writers = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                       and '",".join' in ast.get_source_segment(source, node)]
            assert writers == ["_write_csv"]
            continue
        if path.name == "cli.py":
            for node in ast.walk(tree):
                if (isinstance(node, ast.ExceptHandler) and "ValueError" in ast.unparse(node.type)
                        and any(isinstance(s, ast.Raise) for s in ast.walk(node))):
                    found.append(f"{path.name}:{node.lineno}: re-raises a ValueError")
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and "Mode.ZO in" in ast.get_source_segment(source, node.test):
                allowed.add(node.lineno)
        for node in ast.walk(tree):
            if (isinstance(node, ast.If) and node.lineno not in allowed
                    and any(isinstance(s, ast.Raise) for s in node.body)
                    and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "isinstance"
                            for c in ast.walk(node.test))):
                found.append(f"{path.name}:{node.lineno}: isinstance check raises outside core._check_type")
        for lineno, line in enumerate(source.splitlines(), 1):
            if idioms.search(line) and lineno not in allowed:
                found.append(f"{path.name}:{lineno}: {line.strip()}")
            if path.name in ("cli.py", "objectives.py") and config_idioms.search(line):
                found.append(f"{path.name}:{lineno}: {line.strip()}")
            if '",".join' in line or "def _write_csv" in line:
                found.append(f"{path.name}:{lineno}: {line.strip()}")
    assert found == []


def _type_check_sites():
    from conftest import IndexRecordingObjective
    from hybridsgd import (BlockQuadratic, CoshObjective, DenseQuadratic, LinearObjective,
                           LogisticObjective, Mode, OptimizerConfig, ProbeConfig, RngStream,
                           check_estimator_bounds, estimate_block_lipschitz, estimate_constants,
                           plan_rates, run, trajectory_scan)
    from hybridsgd.cli import _rate_grid

    obj = IndexRecordingObjective(BlockLayout(1, 1), 2)
    w = HybridPoint(obj.layout, [0.0, 0.0])
    cfg = OptimizerConfig(0.1, 0.1, Mode.FO, Mode.FO)
    return {
        "objective layout": ("layout", "BlockLayout", lambda: IndexRecordingObjective((1, 1), 2)),
        "BlockQuadratic layout": (
            "layout", "BlockLayout", lambda: BlockQuadratic((1, 1), [[0.0, 0.0]], 1.0, 1.0)),
        "CoshObjective layout": ("layout", "BlockLayout", lambda: CoshObjective((1, 1), [[0.0, 0.0]])),
        "LogisticObjective layout": (
            "layout", "BlockLayout", lambda: LogisticObjective((1, 1), [[1.0, 0.0]], [1.0])),
        "LinearObjective layout": ("layout", "BlockLayout", lambda: LinearObjective((1, 1), [[0.0, 0.0]])),
        "DenseQuadratic layout": ("layout", "BlockLayout", lambda: DenseQuadratic((1, 1), np.eye(2))),
        "HybridPoint layout": ("layout", "BlockLayout", lambda: HybridPoint((1, 1), [0.0, 0.0])),
        "check_point": ("point", "HybridPoint", lambda: obj.check_point(np.zeros(2))),
        "OptimizerConfig x_mode": ("x_mode", "Mode", lambda: OptimizerConfig(0.1, 0.1, "zo", Mode.FO)),
        "OptimizerConfig y_mode": ("y_mode", "Mode", lambda: OptimizerConfig(0.1, 0.1, Mode.ZO, "fo")),
        "OptimizerConfig zo": (
            "zo", "ZoConfig", lambda: OptimizerConfig(0.1, 0.1, Mode.FO, Mode.FO, zo={"mu": True})),
        "run cfg": ("cfg", "OptimizerConfig", lambda: run(obj, w, {"epochs": 1}, RngStream(0, 1))),
        "run rng": ("rng", "RngStream", lambda: run(obj, w, cfg, "rng")),
        "ProbeConfig target": ("target", "Block", lambda: ProbeConfig(target="x")),
        "estimate_block_lipschitz cfg": (
            "cfg", "ProbeConfig", lambda: estimate_block_lipschitz(obj, w, {"probes": 3}, RngStream(0, 3))),
        "estimate_block_lipschitz rng": (
            "rng", "RngStream", lambda: estimate_block_lipschitz(obj, w, ProbeConfig(), "rng")),
        "trajectory_scan cfg": (
            "cfg", "ProbeConfig", lambda: trajectory_scan(obj, [w], {"probes": 3}, RngStream(0, 3))),
        "estimate_constants cfg": ("cfg", "ProbeConfig", lambda: estimate_constants(
            obj, {"probes": 3}, [w], RngStream(0, 3), f_star=0.0)),
        "check_estimator_bounds rng": (
            "rng", "RngStream", lambda: check_estimator_bounds(obj, w, 0, 1e-3, 2, "rng")),
        "plan_rates constants": ("constants", "SmoothnessConstants", lambda: plan_rates({}, 2, 10, 1)),
        "rate grid": ("eta_x_grid", "list", lambda: _rate_grid("eta_x_grid", 0.1)),
    }


@pytest.mark.parametrize("site", list(_type_check_sites()))
def test_type_checks_share_one_rule_and_message(site):
    name, cls, build = _type_check_sites()[site]
    with pytest.raises(ValueError, match=f"^{name} must be a {cls}, got "):
        build()


def test_package_exports_each_library_module_list_once():
    # The package API is stated once, in each module's __all__; the command
    # line front end is not a library module.
    package = Path(hybridsgd.__file__).parent
    modules = [importlib.import_module(f"hybridsgd.{path.stem}")
               for path in sorted(package.glob("*.py")) if path.stem not in ("__init__", "cli")]
    joined = [name for module in modules for name in module.__all__]
    assert hybridsgd.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(hybridsgd, name) is getattr(module, name), name
    assert len(joined) <= 35
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom) and node.module == "hybridsgd"
                for alias in node.names}
    assert imported and imported <= set(joined)


def _real_fields():
    from hybridsgd import (BlockQuadratic, LogisticObjective, OptimizerConfig,
                           ProbeConfig, SmoothnessConstants, ZoConfig)

    layout = BlockLayout(1, 1)
    return {
        "eta_x": lambda v: OptimizerConfig(v, 0.1, zo=ZoConfig(1e-3)),
        "mu": lambda v: ZoConfig(mu=v),
        "h": lambda v: ProbeConfig(h=v),
        "sigma": lambda v: SmoothnessConstants(1.0, 1.0, 1.0, 1.0, 1.0, v, 1.0),
        "a_x": lambda v: BlockQuadratic(layout, [[0.0, 0.0]], v, 1.0),
        "lam": lambda v: LogisticObjective(layout, [[1.0, 0.0]], [1.0], v),
        "divergence_threshold": lambda v: OptimizerConfig(
            0.1, 0.1, zo=ZoConfig(1e-3), divergence_threshold=v
        ),
    }


@pytest.mark.parametrize("value", [True, False, "0.1", np.nan, -np.inf, 10**400])
def test_real_fields_reject_bools_strings_and_non_finite(value):
    for field, build in _real_fields().items():
        with pytest.raises(ValueError, match=f"^{field} must be "):
            build(value)
        stored = getattr(build(1), field)  # an int is a real number, stored as a float
        assert stored == 1.0 and type(stored) is float, field
    _real_fields()["divergence_threshold"](np.inf)  # +inf switches the guard off
