"""Acceptance suite: one test per headline property, each printing a verdict.

Every test exercises the public API end to end and asserts the quantitative
thresholds stated in the module docstrings; where a wall-clock budget is part
of the property it is asserted too.
"""
import json
import math
import time

import numpy as np

from hybridsgd import (
    Block,
    BlockLayout,
    BlockQuadratic,
    CoshObjective,
    DenseQuadratic,
    HybridPoint,
    LinearObjective,
    LogisticObjective,
    Mode,
    OptimizerConfig,
    ProbeConfig,
    RngStream,
    SmoothnessConstants,
    ZoConfig,
    check_estimator_bounds,
    check_hybrid_smoothness,
    dense_hessian,
    epoch_budget,
    estimate_block_lipschitz,
    fd_gradient,
    fmt17,
    plan_rates,
    run,
)
from hybridsgd.cli import EXIT_DIVERGED, EXIT_OK, main
from hybridsgd.estimator import estimate_block_gradient
from conftest import IndexRecordingObjective

FO = (Mode.FO, Mode.FO)


def _verdict(number: int, label: str) -> None:
    # reaching this line means every assertion above held
    print(f"criterion {number:2d} PASS  {label}")


def test_criterion_01_estimator_unbiasedness():
    start = time.perf_counter()
    layout = BlockLayout(5, 2)
    slopes = np.array([[0.8, -0.5, 0.3, 1.2, -1.0, 0.4, -0.7]])
    obj = LinearObjective(layout, slopes)
    w = HybridPoint(layout, np.zeros(7))
    cfg = ZoConfig(mu=1e-3)
    rng = RngStream(1001, 2)
    draws = 100000
    estimates = np.empty((draws, 5))
    for k in range(draws):
        estimates[k] = estimate_block_gradient(obj, w.values, 0, cfg, rng, Block.X)
    mean = estimates.mean(axis=0)
    stderr = estimates.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(mean - slopes[0, :5]) <= 4.0 * stderr)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _verdict(1, f"mean of 1e5 x-estimates matches the slope within 4 se ({elapsed:.2f}s)")


def test_criterion_02_estimator_error_bounds():
    start = time.perf_counter()
    for d_x in (2, 8):
        layout = BlockLayout(d_x, 2)
        objectives = {
            "linear": LinearObjective.random(layout, 3, RngStream(1002 + d_x, 0xDA7A)),
            "block_quadratic": BlockQuadratic.random(
                layout, 3, 4.0, 1.0, RngStream(1012 + d_x, 0xDA7A), center_spread=0.5
            ),
        }
        for name, obj in objectives.items():
            w = HybridPoint(layout, 0.7 * np.ones(layout.d))
            for mu in (1e-2, 1e-3, 1e-4):
                bias, sq = check_estimator_bounds(
                    obj, w, 0, mu, trials=10000, rng=RngStream(1022 + d_x, 2)
                )
                assert bias.passed, f"{name} d_x={d_x} mu={mu}: bias bound failed"
                assert sq.passed, f"{name} d_x={d_x} mu={mu}: squared-error bound failed"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _verdict(2, f"bias and squared-error bounds hold for 12 (family, d_x, mu) cells ({elapsed:.2f}s)")


def test_criterion_03_reshuffling_coverage():
    obj = IndexRecordingObjective(BlockLayout(1, 1), 7)
    w0 = HybridPoint(obj.layout, [0.0, 0.0])
    cfg = OptimizerConfig(1e-4, 1e-4, *FO, epochs=1000)
    run(obj, w0, cfg, RngStream(1031, 2))
    assert len(obj.seen) == 7000
    expected = list(range(7))
    for k in range(1000):
        assert sorted(obj.seen[7 * k : 7 * (k + 1)]) == expected

    obj3 = IndexRecordingObjective(BlockLayout(1, 1), 3)
    cfg = OptimizerConfig(0.0, 0.0, *FO, epochs=60000)
    run(obj3, w0, cfg, RngStream(1032, 2))
    counts = {}
    for k in range(60000):
        key = tuple(obj3.seen[3 * k : 3 * (k + 1)])
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for key, count in counts.items():
        assert abs(count / 60000 - 1.0 / 6.0) <= 0.01, f"permutation {key}: {count}"
    _verdict(3, "1000 epochs cover {0..6} exactly; 6e4 permutations uniform within 0.01")


def test_criterion_04_rate_regime_separation(tmp_path):
    start = time.perf_counter()
    layout = BlockLayout(10, 10)
    n = 20
    a_x, a_y = 100.0, 1.0
    obj = BlockQuadratic(layout, np.zeros((n, 20)), a_x, a_y)
    w0 = HybridPoint(layout, np.ones(20))
    f0 = obj.eval_full(w0)  # 505 = 0.5 (100*10 + 1*10)
    f_target = obj.f_star + 0.01 * (f0 - obj.f_star)

    def predicted_steps(eta_x, eta_y, limit):
        # identical samples make every step exact gradient descent, so
        # f(k) = f_x0 (1-eta_x a_x)^(2k) + f_y0 (1-eta_y a_y)^(2k)
        rho_x = (1.0 - eta_x * a_x) ** 2
        rho_y = (1.0 - eta_y * a_y) ** 2
        fx, fy = 500.0, 5.0
        for k in range(1, limit):
            fx *= rho_x
            fy *= rho_y
            if fx + fy <= f_target:
                return k
        return None

    def measured_steps(eta_x, eta_y, epochs):
        cfg = OptimizerConfig(eta_x, eta_y, *FO, epochs=epochs)
        result = run(obj, w0, cfg, RngStream(1041, 2))
        assert not result.diverged
        for record in result.trace:
            if record.f_value <= f_target:
                return record.step + 1
        return None

    # (iii) split rates tuned per block
    hybrid = measured_steps(0.015, 0.5, epochs=1)
    assert hybrid == predicted_steps(0.015, 0.5, 100) == 4
    # (ii) the largest grid rate that is uniform and stable is far slower
    uniform = measured_steps(0.001, 0.001, epochs=3)
    assert uniform == predicted_steps(0.001, 0.001, 1000) == 35
    assert uniform > 5 * hybrid

    # (i) a uniform rate above 2/a_x blows up and the CLI reports exit 3
    config = {
        "objective": {
            "kind": "block_quadratic", "d_x": 10, "d_y": 10,
            "a_x": 100.0, "a_y": 1.0, "centers": [[0.0] * 20 for _ in range(n)],
        },
        "rates": {"eta_x": 0.021, "eta_y": 0.021},
        "modes": {"x": "fo", "y": "fo"},
        "epochs": 10,
        "init": {"kind": "explicit", "values": [1.0] * 20},
        "seed": 0,
    }
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_DIVERGED
    # growth factor 1.21 per step from f ~ 500 crosses the 1e6 f0 guard at step 72
    guard = 1e6 * f0
    fx, k = 500.0, 0
    rho = (1.0 - 0.021 * a_x) ** 2
    while fx <= guard:
        fx *= rho
        k += 1
    last = out.read_text(encoding="utf-8").strip().splitlines()[-1]
    assert int(last.split(",")[1]) == k - 1 == 72

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _verdict(4, f"uniform 35 steps vs split 4 steps; 0.021 diverges at step 72 ({elapsed:.2f}s)")


def test_criterion_05_hybrid_convergence_with_planned_rates():
    start = time.perf_counter()
    layout = BlockLayout(4, 4)
    n, horizon = 10, 200
    obj = BlockQuadratic.random(layout, n, 10.0, 1.0, RngStream(1051, 0xDA7A),
                                center_spread=0.05)
    w0_values = obj.centers.mean(axis=0).copy()
    w0_values[:4] += 0.05
    w0_values[4:] += 2.0
    w0 = HybridPoint(layout, w0_values)

    constants = SmoothnessConstants(
        L_x=10.0, L_y=1.0, L_x_max=10.0, L_y_max=1.0,
        G=float(np.linalg.norm(obj.grad_full(w0))),
        sigma=math.sqrt(obj.sample_variance(w0)),
        f_gap=obj.eval_full(w0) - obj.f_star,
    )
    plan = plan_rates(constants, n=n, T=horizon, d_x=4)
    cfg = OptimizerConfig(
        plan.eta_x, plan.eta_y, Mode.ZO, Mode.FO,
        zo=ZoConfig(mu=plan.mu),
        epochs=horizon,
    )
    ratios = []
    for s in range(5):
        result = run(obj, w0, cfg, RngStream(1060 + s, 2))
        assert not result.diverged
        sq = np.array([record.grad_norm**2 for record in result.trace])
        ratios.append(float(sq.mean() / sq[0]))
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio < 0.10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _verdict(5, f"running mean of ||grad||^2 fell to {mean_ratio:.3f} of start ({elapsed:.2f}s)")


def test_criterion_06_probe_exactness():
    layout = BlockLayout(3, 3)
    iso = BlockQuadratic(layout, np.zeros((2, 6)), 100.0, 1.0)
    origin = HybridPoint(layout, np.zeros(6))
    rng = RngStream(1061, 3)
    rep_x = estimate_block_lipschitz(iso, origin, ProbeConfig(probes=25, target=Block.X), rng)
    rep_y = estimate_block_lipschitz(iso, origin, ProbeConfig(probes=25, target=Block.Y), rng)
    assert abs(rep_x.operator_lb - 100.0) <= 1e-9
    assert abs(rep_y.operator_lb - 1.0) <= 1e-9

    dense = DenseQuadratic.random(layout, 1, RngStream(1062, 0xDA7A))
    w = HybridPoint(layout, np.zeros(6))
    rep = estimate_block_lipschitz(dense, w, ProbeConfig(probes=1000), RngStream(1063, 3))
    frob_oracle = float(np.linalg.norm(dense_hessian(dense, w)))
    rel = abs(rep.frobenius_scaled - frob_oracle) / frob_oracle
    assert rel <= 0.10
    _verdict(6, f"block probes exact to 1e-9; Frobenius estimate off by {rel:.3f} at K=1000")


def test_criterion_07_smoothness_envelope_witness():
    layout = BlockLayout(2, 2)
    obj = CoshObjective(layout, np.zeros((5, 4)))
    w0 = HybridPoint(layout, [2.0, -1.5, 1.0, 0.5])
    cfg = OptimizerConfig(0.05, 0.05, *FO, epochs=20)
    result = run(obj, w0, cfg, RngStream(1071, 2), snapshot_every=1)
    points = [point for _, point in result.snapshots][:100]
    assert len(points) == 100

    report = check_hybrid_smoothness(obj, points, lambda u: 1.0 + u, lambda u: 1.0 + u)
    assert report.passed
    assert report.trials == 100

    control = check_hybrid_smoothness(obj, points, lambda u: 0.5, lambda u: 0.5)
    assert not control.passed
    _verdict(7, "lambda_max <= 1 + ||grad|| at 100 trajectory points; flat 0.5 envelope fails")


def test_criterion_08_planner_arithmetic_and_monotonicity():
    plan = plan_rates(SmoothnessConstants(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), n=10, T=100, d_x=4)
    assert plan.eta_x == 1.0 / 15360.0
    assert fmt17(plan.eta_x) == "6.5104166666666666e-05"
    assert epoch_budget(0.1, 0.5, 1.0, 1.0, 10) == 4413

    gen = np.random.default_rng(1081)
    scale_fields = ("L_x", "L_y", "L_x_max", "L_y_max", "sigma")
    count_fields = ("n", "T", "d_x")
    mu_monotone = {"L_x", "n", "T", "d_x"}  # G raises one mu term, so it is excluded
    for _ in range(100):
        values = {name: float(10.0 ** gen.uniform(-2, 2)) for name in scale_fields}
        values.update(G=1.0, f_gap=1.0)
        dims = {name: int(gen.integers(1, 200)) for name in count_fields}
        base = plan_rates(SmoothnessConstants(**values), **dims)
        for field in scale_fields + count_fields:
            grown_vals, grown_dims = dict(values), dict(dims)
            if field in values:
                grown_vals[field] = values[field] * 2.0
            else:
                grown_dims[field] = dims[field] * 2
            grown = plan_rates(SmoothnessConstants(**grown_vals), **grown_dims)
            assert grown.eta_x <= base.eta_x, f"eta_x rose when {field} doubled"
            assert grown.eta_y <= base.eta_y, f"eta_y rose when {field} doubled"
            if field in mu_monotone:
                assert grown.mu <= base.mu, f"mu rose when {field} doubled"
    _verdict(8, "reference rates and budget exact; rates monotone over a 100-point grid")


def test_criterion_09_cli_outputs_byte_identical(tmp_path):
    objective = {
        "kind": "block_quadratic", "d_x": 2, "d_y": 2,
        "a_x": 4.0, "a_y": 1.0, "n": 3, "seed": 21, "center_spread": 0.5,
    }
    configs = {
        "run": {
            "objective": objective,
            "rates": {"eta_x": 0.01, "eta_y": 0.05},
            "zo": {"mu": 1e-3},
            "epochs": 4,
            "init": {"kind": "gaussian"},
            "seed": 9,
        },
        "sweep": {
            "objective": objective,
            "modes": {"x": "fo", "y": "fo"},
            "eta_x_grid": [0.01, 0.1],
            "eta_y_grid": [0.05],
            "epochs": 4,
            "f_target": 0.5,
            "seed": 9,
        },
        "probe": {
            "objective": objective,
            "probe": {"probes": 30},
            "trajectory": {"kind": "points", "points": [[0.0] * 4, [0.5] * 4]},
            "seed": 9,
        },
    }
    for command, payload in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        first, second = tmp_path / f"{command}_a.csv", tmp_path / f"{command}_b.csv"
        assert main([command, "--config", str(cfg_path), "--out", str(first)]) == EXIT_OK
        assert main([command, "--config", str(cfg_path), "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes(), f"{command} outputs differ"
        assert first.read_bytes(), f"{command} wrote an empty file"
    _verdict(9, "repeated run, sweep, and probe invocations are byte-identical")


def test_criterion_10_gradient_agreement_everywhere():
    layout = BlockLayout(3, 2)
    families = {
        "block_quadratic": BlockQuadratic.random(
            layout, 3, 5.0, 0.5, RngStream(1101, 0xDA7A), center_spread=1.0
        ),
        "cosh": CoshObjective.random(layout, 3, RngStream(1102, 0xDA7A), shift_spread=0.3),
        "logistic": LogisticObjective.random(layout, 4, RngStream(1103, 0xDA7A), lam=0.1),
        "linear": LinearObjective.random(layout, 3, RngStream(1104, 0xDA7A)),
        "dense_quadratic": DenseQuadratic.random(layout, 2, RngStream(1105, 0xDA7A)),
    }
    gen = RngStream(1106, 3).generator
    worst = 0.0
    for name, obj in families.items():
        for _ in range(10):
            w = HybridPoint(layout, gen.uniform(-0.8, 0.8, size=5))
            for i in [None] + list(range(obj.n)):
                exact = obj.grad_full(w) if i is None else obj.grad_at(w.values, i)
                approx = fd_gradient(obj, w, i)
                rel = float(np.linalg.norm(approx - exact)) / max(
                    float(np.linalg.norm(exact)), 1e-12
                )
                assert rel <= 1e-6, f"{name} sample={i}: relative error {rel:.2e}"
                worst = max(worst, rel)
    _verdict(10, f"all five families match central differences; worst rel err {worst:.1e}")
