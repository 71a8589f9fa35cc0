"""Command-line front end: run, sweep, probe, plan, check.

Experiments are described by JSON config files.  Every command is
deterministic given (config, seed): streams for data generation, the initial
point, the run itself, probes, and the check suite are derived from the seed
with distinct fixed stream ids, and CSV floats carry 17 significant digits,
so repeated invocations produce byte-identical outputs.

Exit codes (stable contract): 0 success, 1 check failure, 2 config error,
3 divergence, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .core import Block, BlockLayout, HybridPoint, NumericError, RngStream, _check_int, _gaussian_point, fmt17
from .estimator import ZoConfig
from .objectives import FiniteSumObjective, load_objective, objective_from_dict
from .optimizer import BlockMode, LearningRates, Mode, OptimizerConfig, run, write_trace_csv
from .oracle import _check_suite
from .planner import PlanInputs, SmoothnessConstants, binding_term, epoch_budget, estimate_constants, plan_rates
from .probe import ProbeConfig, trajectory_scan, write_probe_csv

__all__ = ["main", "ConfigError", "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_CONFIG", "EXIT_DIVERGED", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_NUMERIC = 4

# Stream ids per purpose; objective data uses objectives.DATA_STREAM_ID.
INIT_STREAM_ID = 1
RUN_STREAM_ID = 2
PROBE_STREAM_ID = 3
CHECK_STREAM_ID = 4


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _load_json(path) -> dict:
    try:
        with open(Path(path), "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return data


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _objective(cfg: dict, config_path) -> FiniteSumObjective:
    spec = _require(cfg, "objective", "config")
    if isinstance(spec, str):
        path = Path(spec)
        if not path.is_absolute():
            path = Path(config_path).parent / path
        return load_objective(path)
    if isinstance(spec, dict):
        return objective_from_dict(spec)
    raise ConfigError("config: 'objective' must be an object or a file path string")


def _initial_point(cfg: dict, layout: BlockLayout, seed: int) -> HybridPoint:
    spec = cfg.get("init", {"kind": "zeros"})
    if not isinstance(spec, dict):
        raise ConfigError("config: 'init' must be an object")
    kind = spec.get("kind", "zeros")
    if kind == "zeros":
        return HybridPoint(layout, np.zeros(layout.d))
    if kind == "explicit":
        values = np.asarray(_require(spec, "values", "init"), dtype=np.float64)
        return HybridPoint(layout, values)
    if kind == "gaussian":
        scale = float(spec.get("scale", 1.0))
        return _gaussian_point(layout, RngStream(seed, INIT_STREAM_ID), scale)
    raise ConfigError(f"init: unknown kind {kind!r}; expected zeros, explicit, or gaussian")


def _modes(cfg: dict) -> BlockMode:
    spec = cfg.get("modes", {"x": "zo", "y": "fo"})
    if not isinstance(spec, dict):
        raise ConfigError("config: 'modes' must be an object")
    try:
        return BlockMode(Mode(spec.get("x", "zo")), Mode(spec.get("y", "fo")))
    except ValueError as exc:
        raise ConfigError(f"modes: {exc}") from exc


def _zo_config(cfg: dict, modes: BlockMode) -> ZoConfig | None:
    spec = cfg.get("zo")
    if spec is None:
        if modes.uses_zo():
            raise ConfigError("config: 'zo' (mu, directions_per_step) is required for ZO modes")
        return None
    if not isinstance(spec, dict):
        raise ConfigError("config: 'zo' must be an object")
    return ZoConfig(
        mu=float(_require(spec, "mu", "zo")),
        directions_per_step=spec.get("directions_per_step", 1),
    )


def _rates(cfg: dict) -> LearningRates:
    spec = _require(cfg, "rates", "config")
    if not isinstance(spec, dict):
        raise ConfigError("config: 'rates' must be an object")
    return LearningRates(
        eta_x=float(_require(spec, "eta_x", "rates")),
        eta_y=float(_require(spec, "eta_y", "rates")),
    )


def _optimizer_config(cfg: dict, rates: LearningRates) -> OptimizerConfig:
    modes = _modes(cfg)
    threshold = cfg.get("divergence_threshold")
    return OptimizerConfig(
        rates=rates,
        modes=modes,
        zo=_zo_config(cfg, modes),
        epochs=cfg.get("epochs", 1),
        divergence_threshold=None if threshold is None else float(threshold),
    )


def _resolved_run_meta(cfg: dict, opt: OptimizerConfig, seed: int, guard: float) -> dict:
    return {
        "objective": cfg.get("objective"),
        "init": cfg.get("init", {"kind": "zeros"}),
        "rates": asdict(opt.rates),
        "modes": {"x": opt.modes.x_mode.value, "y": opt.modes.y_mode.value},
        "zo": None if opt.zo is None else asdict(opt.zo),
        "epochs": opt.epochs,
        "divergence_threshold": opt.divergence_threshold,
        "divergence_threshold_resolved": guard,
        "seed": seed,
        "snapshot_every": cfg.get("snapshot_every", 0),
    }


def _write_meta(out_path, payload: dict) -> None:
    meta_path = Path(str(out_path) + ".meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", 0))


# -- run -------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _load_json(args.config)
    seed = _seed(args, cfg)
    obj = _objective(cfg, args.config)
    opt = _optimizer_config(cfg, _rates(cfg))
    w0 = _initial_point(cfg, obj.layout, seed)
    # Same stream as sweep cell 0, so a 1x1 sweep reproduces a plain run.
    # run validates snapshot_every (an integer >= 0) before any compute.
    result = run(
        obj,
        w0,
        opt,
        RngStream(seed, RUN_STREAM_ID).child(0),
        snapshot_every=cfg.get("snapshot_every", 0),
    )
    write_trace_csv(result.trace, args.out)
    guard = result.divergence_threshold
    meta = _resolved_run_meta(cfg, opt, seed, guard)
    meta["command"] = "run"
    _write_meta(args.out, meta)
    print(
        f"final_f={fmt17(result.trace[-1].f_value)} min_grad_sq={fmt17(result.min_grad_sq)} "
        f"epochs_completed={result.epochs_completed} diverged={str(result.diverged).lower()}"
    )
    if result.diverged:
        rep = result.divergence
        print(
            f"diverged at epoch={rep.epoch} step={rep.step} f={fmt17(rep.f_value)} "
            f"(threshold {fmt17(guard)})",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


def _steps_to_threshold(trace, f_target) -> int | None:
    if f_target is None:
        return None
    for record in trace:
        if record.f_value <= f_target:
            return record.step + 1
    return None


def cmd_sweep(args) -> int:
    cfg = _load_json(args.config)
    seed = _seed(args, cfg)
    obj = _objective(cfg, args.config)
    eta_x_grid = [float(v) for v in _require(cfg, "eta_x_grid", "config")]
    eta_y_grid = [float(v) for v in _require(cfg, "eta_y_grid", "config")]
    if not eta_x_grid or not eta_y_grid:
        raise ConfigError("config: eta grids must be non-empty")
    f_target = cfg.get("f_target")
    f_target = None if f_target is None else float(f_target)
    w0 = _initial_point(cfg, obj.layout, seed)
    f0 = obj.eval_full(w0)
    base_rng = RngStream(seed, RUN_STREAM_ID)

    lines = ["eta_x,eta_y,final_f,diverged,steps_to_threshold"]
    cell = 0
    for eta_x in eta_x_grid:
        for eta_y in eta_y_grid:
            opt = _optimizer_config(cfg, LearningRates(eta_x, eta_y))
            diverged = False
            try:
                result = run(obj, w0, opt, base_rng.child(cell))
                trace = result.trace
                diverged = result.diverged
            except NumericError:
                trace = []
                diverged = True
            final_f = trace[-1].f_value if trace else f0
            steps = _steps_to_threshold(trace, f_target)
            lines.append(
                f"{fmt17(eta_x)},{fmt17(eta_y)},{fmt17(final_f)},"
                f"{str(diverged).lower()},{'' if steps is None else steps}"
            )
            cell += 1
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {
        "command": "sweep",
        "objective": cfg.get("objective"),
        "init": cfg.get("init", {"kind": "zeros"}),
        "modes": cfg.get("modes", {"x": "zo", "y": "fo"}),
        "zo": cfg.get("zo"),
        "epochs": cfg.get("epochs", 1),
        "divergence_threshold": cfg.get("divergence_threshold"),
        "eta_x_grid": eta_x_grid,
        "eta_y_grid": eta_y_grid,
        "f_target": f_target,
        "seed": seed,
    }
    _write_meta(args.out, meta)
    print(f"cells={cell} out={args.out}")
    return EXIT_OK


# -- probe -------------------------------------------------------------------


def _probe_config(cfg: dict) -> ProbeConfig:
    spec = cfg.get("probe", {})
    if not isinstance(spec, dict):
        raise ConfigError("config: 'probe' must be an object")
    try:
        target = Block(spec.get("target", "full"))
    except ValueError as exc:
        raise ConfigError(f"probe: {exc}") from exc
    return ProbeConfig(
        h=float(spec.get("h", 1e-5)),
        probes=int(spec.get("probes", 100)),
        target=target,
    )


def _trajectory(cfg: dict, obj: FiniteSumObjective, seed: int) -> list:
    spec = _require(cfg, "trajectory", "config")
    if not isinstance(spec, dict):
        raise ConfigError("config: 'trajectory' must be an object")
    kind = spec.get("kind")
    if kind == "points":
        raw = _require(spec, "points", "trajectory")
        points = [HybridPoint(obj.layout, np.asarray(p, dtype=np.float64)) for p in raw]
        if not points:
            raise ConfigError("trajectory: points list is empty")
        return points
    if kind == "run":
        opt = _optimizer_config(spec, _rates(spec))
        every = _check_int("snapshot_every", spec.get("snapshot_every", obj.n))
        w0 = _initial_point(spec, obj.layout, seed)
        result = run(
            obj, w0, opt, RngStream(seed, RUN_STREAM_ID).child(0), snapshot_every=every
        )
        return [point for _, point in result.snapshots]
    raise ConfigError(f"trajectory: unknown kind {kind!r}; expected points or run")


def cmd_probe(args) -> int:
    cfg = _load_json(args.config)
    seed = _seed(args, cfg)
    obj = _objective(cfg, args.config)
    pcfg = _probe_config(cfg)
    points = _trajectory(cfg, obj, seed)
    rows = trajectory_scan(obj, points, pcfg, RngStream(seed, PROBE_STREAM_ID))
    write_probe_csv(rows, args.out)
    meta = {
        "command": "probe",
        "objective": cfg.get("objective"),
        "probe": {"h": pcfg.h, "probes": pcfg.probes, "target": pcfg.target.value},
        "trajectory": cfg.get("trajectory"),
        "points_probed": len(rows),
        "seed": seed,
    }
    _write_meta(args.out, meta)
    print(f"points={len(rows)} out={args.out}")
    return EXIT_OK


# -- plan -------------------------------------------------------------------

_CONSTANT_FIELDS = tuple(f.name for f in fields(SmoothnessConstants))


def _plan_report(constants: SmoothnessConstants, n: int, horizon: int, d_x: int,
                 epsilon: float | None, delta: float | None, budget: int | None) -> str:
    plan = plan_rates(PlanInputs(constants, n, horizon, d_x))
    lines = [
        "constants: "
        + " ".join(f"{name}={fmt17(getattr(constants, name))}" for name in _CONSTANT_FIELDS),
        f"inputs: n={n} T={horizon} d_x={d_x}",
    ]
    for label, terms, value in (
        ("eta_x", plan.eta_x_terms, plan.eta_x),
        ("eta_y", plan.eta_y_terms, plan.eta_y),
        ("mu", plan.mu_terms, plan.mu),
    ):
        lines.append(f"{label} candidates:")
        bind = binding_term(terms)
        for name, term in terms.items():
            marker = "  [binding]" if name == bind else ""
            lines.append(f"  {name:<22} {fmt17(term)}{marker}")
        lines.append(f"{label} = {fmt17(value)}")
    if budget is not None:
        lines.append(
            f"epoch_budget = {budget}  (epsilon={fmt17(epsilon)} delta={fmt17(delta)})"
        )
    return "\n".join(lines)


def cmd_plan(args) -> int:
    if args.constants is None and not args.estimate:
        raise ConfigError("plan: pass --constants FILE, or --config FILE with --estimate")

    if args.constants is not None:
        spec = _load_json(args.constants)
        constants = SmoothnessConstants(
            **{name: float(_require(spec, name, "constants")) for name in _CONSTANT_FIELDS}
        )
        n = int(_require(spec, "n", "constants"))
        d_x = int(_require(spec, "d_x", "constants"))
        epsilon = spec.get("epsilon")
        delta = spec.get("delta")
        cfg_for_T = spec
    else:
        if args.config is None:
            raise ConfigError("plan: --estimate requires --config")
        cfg = _load_json(args.config)
        seed = _seed(args, cfg)
        obj = _objective(cfg, args.config)
        pcfg = _probe_config(cfg)
        points = _plan_points(cfg, obj, seed)
        f_star = cfg.get("f_star")
        constants = estimate_constants(
            obj,
            pcfg,
            points,
            RngStream(seed, PROBE_STREAM_ID),
            f_star=None if f_star is None else float(f_star),
        )
        n = obj.n
        d_x = obj.layout.d_x
        epsilon = cfg.get("epsilon")
        delta = cfg.get("delta")
        cfg_for_T = cfg

    epsilon = None if epsilon is None else float(epsilon)
    delta = None if delta is None else float(delta)
    budget = None
    if epsilon is not None and delta is not None:
        budget = epoch_budget(epsilon, delta, constants.G, constants.f_gap, n)
    if "T" in cfg_for_T:
        horizon = int(cfg_for_T["T"])
    elif budget is not None:
        horizon = budget
    else:
        raise ConfigError("plan: provide T, or epsilon and delta to derive it")

    report = _plan_report(constants, n, horizon, d_x, epsilon, delta, budget)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    return EXIT_OK


def _plan_points(cfg: dict, obj: FiniteSumObjective, seed: int) -> list:
    spec = cfg.get("points", {"kind": "gaussian", "count": 3, "scale": 1.0})
    if not isinstance(spec, dict):
        raise ConfigError("config: 'points' must be an object")
    kind = spec.get("kind", "gaussian")
    if kind == "explicit":
        raw = _require(spec, "points", "points")
        pts = [HybridPoint(obj.layout, np.asarray(p, dtype=np.float64)) for p in raw]
        if not pts:
            raise ConfigError("points: list is empty")
        return pts
    if kind == "gaussian":
        count = int(spec.get("count", 3))
        if count < 1:
            raise ConfigError("points: count must be >= 1")
        scale = float(spec.get("scale", 1.0))
        rng = RngStream(seed, INIT_STREAM_ID)
        return [_gaussian_point(obj.layout, rng, scale) for _ in range(count)]
    raise ConfigError(f"points: unknown kind {kind!r}; expected explicit or gaussian")


# -- check -------------------------------------------------------------------


def cmd_check(args) -> int:
    trials = args.trials
    if trials < 2:
        raise ConfigError("check: --trials must be >= 2")
    root = RngStream(args.seed if args.seed is not None else 0, CHECK_STREAM_ID)
    reports = _check_suite(root, trials, args.negative_control)
    width = max(len(r.bound_name) for r in reports) + 2
    lines = [f"{'check':<{width}} {'lhs':>24} {'rhs':>24} result"]
    failed = [r for r in reports if not r.passed]
    for r in reports:
        lines.append(
            f"{r.bound_name:<{width}} {fmt17(r.empirical_lhs):>24} "
            f"{fmt17(r.theoretical_rhs):>24} {'ok' if r.passed else 'FAIL'}"
        )
    lines.append(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    if failed:
        lines.append("failing: " + ", ".join(r.bound_name for r in failed))
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsgd",
        description="Reshuffled SGD with per-block zeroth-/first-order updates: "
        "run experiments, sweep rates, probe curvature, plan rates, self-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, out_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument(
            "--out", required=out_required, default=None, help="output file path"
        )

    p_run = sub.add_parser("run", help="one optimization run; writes the trace CSV")
    common(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs over (eta_x, eta_y); writes a summary CSV")
    common(p_sweep)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_probe = sub.add_parser("probe", help="curvature probes along a trajectory; writes a probe CSV")
    common(p_probe)
    p_probe.set_defaults(handler=cmd_probe)

    p_plan = sub.add_parser("plan", help="plan rates and epoch budget from constants")
    p_plan.add_argument("--constants", default=None, help="JSON file of smoothness constants")
    p_plan.add_argument("--config", default=None, help="JSON config for --estimate")
    p_plan.add_argument("--estimate", action="store_true", help="measure constants with probes")
    p_plan.add_argument("--seed", type=int, default=None)
    p_plan.add_argument("--out", default=None, help="also write the report to a file")
    p_plan.set_defaults(handler=cmd_plan)

    p_check = sub.add_parser("check", help="run the oracle suite; non-zero exit on failure")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--trials", type=int, default=2000, help="Monte Carlo trials per bound")
    p_check.add_argument(
        "--negative-control",
        action="store_true",
        help="include a deliberately failing envelope check",
    )
    p_check.add_argument("--out", default=None, help="also write the table to a file")
    p_check.set_defaults(handler=cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
