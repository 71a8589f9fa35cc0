"""Batched kernels against the per-sample loop, end to end.

Each workload is run twice: with the objective as built, and with the same
objective built as a subclass whose batched kernels (``values_all``/
``grads_all``, ``values_at_points``/``grads_at_points``) and fused
``full_value_and_grad_at`` are reset to the :class:`FiniteSumObjective` loops
over ``value_at``/``grad_at``.  Traces, final iterates, run results and
output files must agree bit for bit, so the check holds on any BLAS build
without hard-coded hashes.
"""
import contextlib
import inspect
import json

import numpy as np
import pytest

from hybridsgd import (
    BlockMode,
    FiniteSumObjective,
    HybridPoint,
    LearningRates,
    Mode,
    OptimizerConfig,
    ProbeConfig,
    RngStream,
    ZoConfig,
    estimate_constants,
    objective_from_dict,
    run,
    sample_gaussian,
)
from hybridsgd import objectives
from hybridsgd.cli import main

FAMILIES = (
    objectives.BlockQuadratic,
    objectives.CoshObjective,
    objectives.LogisticObjective,
    objectives.LinearObjective,
    objectives.DenseQuadratic,
)

LOGISTIC = {"kind": "logistic", "d_x": 4, "d_y": 3, "n": 25, "lam": 0.01, "seed": 11}
COSH = {"kind": "cosh", "d_x": 2, "d_y": 2, "n": 4, "seed": 12, "shift_spread": 0.3}
DENSE = {"kind": "dense_quadratic", "d_x": 3, "d_y": 2, "n": 3, "seed": 13,
         "center_scale": 1.0}
HYBRID = {"modes": {"x": "zo", "y": "fo"}, "zo": {"mu": 1e-3, "directions_per_step": 2},
          "init": {"kind": "gaussian", "scale": 1.0}, "seed": 5}


BATCHED_KERNELS = ("values_all", "grads_all", "values_at_points", "grads_at_points")


def _looped(cls):
    reset = BATCHED_KERNELS + ("full_value_and_grad_at",)
    return type(f"Looped{cls.__name__}", (cls,),
                {name: getattr(FiniteSumObjective, name) for name in reset})


def test_every_family_overrides_all_batched_kernels_or_none():
    families = [
        cls for _, cls in inspect.getmembers(objectives, inspect.isclass)
        if issubclass(cls, FiniteSumObjective) and cls is not FiniteSumObjective
    ]
    assert set(families) == set(FAMILIES)
    for cls in families:
        overridden = {name for name in BATCHED_KERNELS
                      if getattr(cls, name) is not getattr(FiniteSumObjective, name)}
        assert overridden in (set(), set(BATCHED_KERNELS)), (cls.__name__, overridden)


@pytest.fixture
def per_sample_loop(monkeypatch):
    """A context in which objective_from_dict builds every family with the base loop."""

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as patch:
            for cls in FAMILIES:
                patch.setattr(objectives, cls.__name__, _looped(cls))
            yield

    return context


def _both(spec, per_sample_loop):
    batched = objective_from_dict(spec)
    with per_sample_loop():
        looped = objective_from_dict(spec)
    for name in BATCHED_KERNELS:
        assert getattr(type(batched), name) is not getattr(FiniteSumObjective, name)
        assert getattr(type(looped), name) is getattr(FiniteSumObjective, name)
    return batched, looped


def _assert_same_run(a, b):
    # repr keeps every bit of a float and compares nan equal to nan
    assert repr(a.trace) == repr(b.trace)
    assert np.array_equal(a.point.values, b.point.values)
    assert (a.epochs_completed, a.diverged, repr(a.divergence), repr(a.min_grad_sq)) == (
        b.epochs_completed, b.diverged, repr(b.divergence), repr(b.min_grad_sq)
    )
    assert [k for k, _ in a.snapshots] == [k for k, _ in b.snapshots]
    for (_, p), (_, q) in zip(a.snapshots, b.snapshots):
        assert np.array_equal(p.values, q.values)


def _cli(tmp_path, name, command, cfg, capsys):
    folder = tmp_path / name
    folder.mkdir()
    cfg_path = folder / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = main([*command, "--config", str(cfg_path), "--out", str(folder / "out")])
    stdout = capsys.readouterr().out.replace(str(folder), "<dir>")
    files = {p.name: p.read_bytes() for p in sorted(folder.iterdir()) if p.name != "config.json"}
    return code, stdout, files


def _assert_same_cli(tmp_path, command, cfg, capsys, per_sample_loop):
    batched = _cli(tmp_path, "batched", command, cfg, capsys)
    with per_sample_loop():
        looped = _cli(tmp_path, "looped", command, cfg, capsys)
    assert batched == looped
    return batched


def _hybrid_config(eta_x, eta_y, epochs):
    return OptimizerConfig(
        rates=LearningRates(eta_x, eta_y),
        modes=BlockMode(Mode.ZO, Mode.FO),
        zo=ZoConfig(mu=1e-3, directions_per_step=2),
        epochs=epochs,
    )


def test_logistic_run_matches_per_sample_loop(tmp_path, capsys, per_sample_loop):
    batched, looped = _both(LOGISTIC, per_sample_loop)
    w0 = HybridPoint(batched.layout, sample_gaussian(RngStream(5, 1), batched.layout.d))
    results = [
        run(obj, w0, _hybrid_config(0.05, 0.1, 2), RngStream(5, 7), snapshot_every=10)
        for obj in (batched, looped)
    ]
    assert len(results[0].trace) == 2 * 25 and not results[0].diverged
    _assert_same_run(*results)

    cfg = {"objective": LOGISTIC, "rates": {"eta_x": 0.05, "eta_y": 0.1}, "epochs": 2, **HYBRID}
    code, stdout, files = _assert_same_cli(tmp_path, ["run"], cfg, capsys, per_sample_loop)
    assert code == 0 and "final_f=" in stdout
    assert set(files) == {"out", "out.meta.json"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cosh_sweep_with_diverging_cell_matches_per_sample_loop(
    tmp_path, capsys, per_sample_loop
):
    batched, looped = _both(COSH, per_sample_loop)
    w0 = HybridPoint(batched.layout, sample_gaussian(RngStream(5, 1), batched.layout.d))
    diverged = []
    for eta_y in (0.1, 2.5):
        results = [run(obj, w0, _hybrid_config(0.05, eta_y, 5), RngStream(5, 7))
                   for obj in (batched, looped)]
        _assert_same_run(*results)
        diverged.append(results[0].diverged)
    assert diverged == [False, True]

    cfg = {"objective": COSH, "eta_x_grid": [0.05, 0.4], "eta_y_grid": [0.1, 2.5],
           "epochs": 5, "f_target": 4.5, **HYBRID}
    code, _, files = _assert_same_cli(tmp_path, ["sweep"], cfg, capsys, per_sample_loop)
    assert code == 0
    rows = files["out"].decode("utf-8").splitlines()[1:]
    assert [row.split(",")[3] for row in rows].count("true") >= 1


def test_dense_quadratic_plan_estimate_matches_per_sample_loop(
    tmp_path, capsys, per_sample_loop
):
    batched, looped = _both(DENSE, per_sample_loop)
    rng = RngStream(6, 1)
    points = [HybridPoint(batched.layout, sample_gaussian(rng, batched.layout.d))
              for _ in range(2)]
    constants = [
        estimate_constants(obj, ProbeConfig(h=1e-5, probes=20), points, RngStream(6, 3),
                           f_star=0.0)
        for obj in (batched, looped)
    ]
    assert repr(constants[0]) == repr(constants[1])

    cfg = {"objective": DENSE, "probe": {"probes": 20},
           "points": {"kind": "gaussian", "count": 2, "scale": 1.0},
           "f_star": 0.0, "T": 100, "seed": 6}
    code, stdout, files = _assert_same_cli(
        tmp_path, ["plan", "--estimate"], cfg, capsys, per_sample_loop
    )
    assert code == 0 and "constants:" in stdout
