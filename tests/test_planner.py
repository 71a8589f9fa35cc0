"""Rate planning arithmetic, budget formula, and probe-based constants."""
import math

import numpy as np
import pytest

from hybridsgd import (
    BlockLayout,
    BlockQuadratic,
    CoshObjective,
    HybridPoint,
    LogisticObjective,
    ProbeConfig,
    RngStream,
    SmoothnessConstants,
    epoch_budget,
    estimate_constants,
    fmt17,
    plan_rates,
)
from hybridsgd import planner


def _constants(L_x=1.0, L_y=1.0, L_x_max=1.0, L_y_max=1.0, G=1.0, sigma=1.0, f_gap=1.0):
    return SmoothnessConstants(L_x, L_y, L_x_max, L_y_max, G, sigma, f_gap)


REFERENCE = dict(n=10, T=100, d_x=4)


def test_reference_rates_exact():
    plan = plan_rates(_constants(), **REFERENCE)
    # min{1/20, 1/15360, sqrt(0.02)/10} = 1/15360
    assert plan.eta_x == 1.0 / 15360.0
    assert fmt17(plan.eta_x) == "6.5104166666666666e-05"
    assert min(plan.eta_x_terms, key=plan.eta_x_terms.get) == "zo_dimension_penalty"
    # min{1/20, sqrt(0.02)/10} = sqrt(0.02)/10
    assert plan.eta_y == np.sqrt(0.02) / 10.0
    assert plan.eta_y == 0.014142135623730951
    assert min(plan.eta_y_terms, key=plan.eta_y_terms.get) == "variance_horizon"
    # min{6/8, 1/12000} = 1/12000
    assert plan.mu == 1.0 / 12000.0
    assert min(plan.mu_terms, key=plan.mu_terms.get) == "horizon_bias"


def test_rate_terms_recompute():
    plan = plan_rates(_constants(), **REFERENCE)
    assert plan.eta_x_terms["per_sample_curvature"] == 1.0 / 20.0
    assert plan.eta_x_terms["zo_dimension_penalty"] == 1.0 / 15360.0
    assert plan.eta_x_terms["variance_horizon"] == math.sqrt(2.0 / 100.0) / 10.0
    assert plan.mu_terms["smoothing_radius"] == 0.75
    assert set(plan.eta_y_terms) == {"per_sample_curvature", "variance_horizon"}


def test_zero_sigma_drops_variance_terms():
    plan = plan_rates(_constants(sigma=0.0), n=10, T=100, d_x=4)
    assert "variance_horizon" not in plan.eta_x_terms
    assert "variance_horizon" not in plan.eta_y_terms
    assert plan.eta_y == 1.0 / 20.0  # per-sample curvature cap alone


def test_eta_x_nonincreasing_in_horizon():
    c = _constants(L_x=0.001, L_x_max=0.001, sigma=100.0)
    etas = [
        plan_rates(c, n=2, T=T, d_x=2).eta_x
        for T in (1, 4, 16, 256, 4096)
    ]
    assert all(b <= a for a, b in zip(etas, etas[1:]))
    assert etas[-1] < etas[0]  # variance term binds for small constants


def test_eta_x_never_exceeds_eta_y_for_shared_constants():
    # the x-rate minimizes over a superset of the y-rate's terms
    rng = np.random.default_rng(7)
    for _ in range(30):
        L, L_max, sigma = 10.0 ** rng.uniform(-2, 2, size=3)
        c = _constants(L_x=L, L_y=L, L_x_max=L_max, L_y_max=L_max, sigma=sigma)
        plan = plan_rates(c, n=int(rng.integers(1, 50)), T=int(rng.integers(1, 1000)),
                          d_x=int(rng.integers(1, 30)))
        assert plan.eta_x <= plan.eta_y


def test_rates_monotone_in_constants():
    rng = np.random.default_rng(8)
    for _ in range(30):
        base = dict(
            L_x=float(10.0 ** rng.uniform(-1, 2)),
            L_y=float(10.0 ** rng.uniform(-1, 2)),
            L_x_max=float(10.0 ** rng.uniform(-1, 2)),
            L_y_max=float(10.0 ** rng.uniform(-1, 2)),
            sigma=float(10.0 ** rng.uniform(-1, 1)),
        )
        dims = dict(n=int(rng.integers(1, 40)), T=int(rng.integers(1, 500)),
                    d_x=int(rng.integers(1, 20)))
        plan = plan_rates(_constants(**base), **dims)
        for key in base:
            grown = dict(base)
            grown[key] = base[key] * 2.0
            bigger = plan_rates(_constants(**grown), **dims)
            assert bigger.eta_x <= plan.eta_x
            assert bigger.eta_y <= plan.eta_y
        for key in dims:
            grown = dict(dims)
            grown[key] = dims[key] * 2
            bigger = plan_rates(_constants(**base), **grown)
            assert bigger.eta_x <= plan.eta_x
            assert bigger.eta_y <= plan.eta_y


def test_budget_reference_value():
    assert epoch_budget(0.1, 0.5, 1.0, 1.0, 10) == 4413


def test_budget_back_substitution():
    eps, delta, G, f_gap, n = 0.05, 0.25, 2.0, 3.0, 7
    term1 = eps**-2 * (2.0 / delta + G * G / 8.0)
    term2 = eps**-4 * ((f_gap + 3.0) / n)
    assert epoch_budget(eps, delta, G, f_gap, n) == math.ceil(term1 + term2)
    # the gap term scales as eps^-4
    half = (eps / 2) ** -4 * ((f_gap + 3.0) / n)
    assert half == 16.0 * term2


def test_budget_monotone_in_failure_probability():
    budgets = [epoch_budget(0.1, d, 1.0, 1.0, 10) for d in (0.01, 0.1, 0.5, 0.9)]
    assert all(b <= a for a, b in zip(budgets, budgets[1:]))


def test_constants_validation():
    with pytest.raises(ValueError):
        _constants(L_x=0.0)
    with pytest.raises(ValueError):
        _constants(G=0.0)
    with pytest.raises(ValueError):
        _constants(sigma=-1.0)
    with pytest.raises(ValueError):
        _constants(f_gap=-0.1)
    for name in ("n", "T", "d_x"):
        for bad in (0, True):
            dims = {"n": 2, "T": 10, "d_x": 2, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {bad!r}$"):
                plan_rates(_constants(), **dims)
    with pytest.raises(ValueError):
        epoch_budget(0.1, 0.0, 1.0, 1.0, 10)
    with pytest.raises(ValueError):
        epoch_budget(0.1, 1.0, 1.0, 1.0, 10)
    for bad in ("0.5", None, True, np.nan):
        with pytest.raises(ValueError, match=f"^delta must be a finite real number, got {bad!r}$"):
            epoch_budget(0.1, bad, 1.0, 1.0, 10)


def test_estimated_constants_match_diagonal_quadratic():
    layout = BlockLayout(2, 2)
    # two samples: the gradient mean is bit-exact, so sigma comes out 0.0
    obj = BlockQuadratic(layout, np.full((2, 4), 0.1), 4.0, 1.0)
    w0 = HybridPoint(layout, 0.1 + np.array([0.3, -0.2, 0.4, 0.1]))
    c = estimate_constants(obj, ProbeConfig(probes=40), [w0], RngStream(120, 1))
    # diag blocks 4 I and I: every unit probe returns exactly the block scale
    assert c.L_x == pytest.approx(4.0, abs=1e-8)
    assert c.L_x_max == pytest.approx(4.0, abs=1e-8)
    assert c.L_y == pytest.approx(1.0, abs=1e-8)
    assert c.L_y_max == pytest.approx(1.0, abs=1e-8)
    assert c.sigma == 0.0  # identical centers, zero gradient spread
    assert c.G == pytest.approx(float(np.linalg.norm(obj.grad_full(w0))), rel=1e-12)
    assert c.f_gap == pytest.approx(obj.eval_full(w0), rel=1e-12)


def test_estimated_max_constants_dominate_mean_constants():
    layout = BlockLayout(2, 2)
    obj = LogisticObjective.random(layout, 5, RngStream(121, 0xDA7A))
    rng = RngStream(122, 1)
    pts = [HybridPoint(layout, np.array([0.4, -0.2, 0.3, 0.5])),
           HybridPoint(layout, np.zeros(4))]
    c = estimate_constants(obj, ProbeConfig(probes=30), pts, rng, f_star=0.0)
    assert c.L_x_max >= c.L_x
    assert c.L_y_max >= c.L_y
    assert c.sigma > 0.0


def test_estimated_cosh_curvature_respects_gradient_envelope():
    layout = BlockLayout(2, 2)
    obj = CoshObjective(layout, np.zeros((3, 4)))
    pts = [HybridPoint(layout, np.array([1.5, -0.5, 0.8, -2.0])),
           HybridPoint(layout, np.array([0.2, 0.1, -0.3, 0.4]))]
    c = estimate_constants(obj, ProbeConfig(probes=60), pts, RngStream(123, 1))
    assert max(c.L_x_max, c.L_y_max) <= 1.0 + c.G + 1e-6


def test_estimate_requires_f_star():
    layout = BlockLayout(1, 1)
    obj = CoshObjective.random(layout, 2, RngStream(124, 0xDA7A), shift_spread=1.0)
    w0 = HybridPoint(layout, [0.5, -0.5])
    with pytest.raises(ValueError, match="f_star"):
        estimate_constants(obj, ProbeConfig(probes=5), [w0], RngStream(125, 1))
    c = estimate_constants(obj, ProbeConfig(probes=5), [w0], RngStream(125, 1), f_star=2.0)
    assert c.f_gap >= 0.0


def test_estimate_without_f_star_runs_no_probe():
    # logistic has no analytic minimum: the missing f_star is reported before
    # any probe draws from the stream
    obj = LogisticObjective.random(BlockLayout(4, 4), 50, RngStream(128, 0xDA7A))
    pts = [HybridPoint(obj.layout, np.full(8, 0.1 * k)) for k in range(3)]
    rng = RngStream(129, 1)
    before = repr(rng.generator.bit_generator.state)
    with pytest.raises(ValueError, match="^f_star is required"):
        estimate_constants(obj, ProbeConfig(probes=20), pts, rng)
    assert repr(rng.generator.bit_generator.state) == before


@pytest.mark.parametrize("f_star", [True, "0", np.nan, -np.inf])
def test_estimate_checks_f_star_before_any_probe(monkeypatch, f_star):
    # a bool or a string is not coerced, and a non-finite value is not taken
    # for a zero or an infinite gap
    def probe(*args, **kwargs):
        raise AssertionError("probed before f_star was checked")

    monkeypatch.setattr(planner, "estimate_block_lipschitz", probe)
    obj = BlockQuadratic(BlockLayout(1, 1), np.zeros((1, 2)), 1.0, 1.0)
    w0 = HybridPoint(obj.layout, [0.5, -0.5])
    with pytest.raises(ValueError, match=f"^f_star must be a finite real number, got {f_star!r}$"):
        estimate_constants(obj, ProbeConfig(probes=5), [w0], RngStream(127, 1), f_star=f_star)


def test_estimate_rejects_empty_points():
    layout = BlockLayout(1, 1)
    obj = BlockQuadratic(layout, np.zeros((1, 2)), 1.0, 1.0)
    with pytest.raises(ValueError):
        estimate_constants(obj, ProbeConfig(probes=5), [], RngStream(126, 1))
