"""Command-line front end: run, sweep, probe, plan, check.

Experiments are described by JSON config files.  Every command is
deterministic given (config, seed): streams for data generation, the initial
point, the run itself, probes, and the check suite are derived from the seed
with distinct fixed stream ids, and CSV floats carry 17 significant digits,
so repeated invocations produce byte-identical outputs.

Each config section is read through one key table by ``core._read_section``;
a key the table does not list is an error and null counts as absent.  Tables
of sections that feed a library type (``modes``, ``rates``, ``zo``, ``probe``,
the constants file, a run's ``epochs``/``divergence_threshold``) are read once
off its signature (``core._signature_keys``); it alone checks them.  A count
must be a JSON integer, a real a finite JSON number (an int becomes a float, a
bool or a string is an error).  ``--out``'s directory is checked before any compute.

Exit codes (stable contract): 0 success, 1 check failure, 2 config error (an
unallocatable size included), 3 divergence, 4 numeric failure, 5 internal
error (a bug: the traceback is printed).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import (_REQUIRED, BlockLayout, HybridPoint, NumericError, RngStream, _check_array,
                   _check_finite, _check_int, _check_type, _check_u64, _gaussian_point, _load_json,
                   _read_section, _signature_keys, _write_csv, fmt17, sample_gaussian)
from .estimator import ZoConfig
from .objectives import FiniteSumObjective, objective_from_dict
from .optimizer import OptimizerConfig, RunResult, run, write_trace_csv
from .oracle import _check_suite
from .planner import SmoothnessConstants, epoch_budget, estimate_constants, plan_rates
from .probe import ProbeConfig, trajectory_scan, write_probe_csv

__all__ = ["main", "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_CONFIG", "EXIT_DIVERGED", "EXIT_NUMERIC",
           "EXIT_INTERNAL"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5

# Stream ids per purpose; objective data uses objectives.DATA_STREAM_ID.
INIT_STREAM_ID = 1
RUN_STREAM_ID = 2
PROBE_STREAM_ID = 3
CHECK_STREAM_ID = 4


def _rate_grid(key: str, value) -> list[float]:
    if not _check_type(key, value, list):
        raise ValueError(f"config: {key} must be a non-empty list")
    return [_check_finite(key, v) for v in value]


# Key tables: key -> (check, default); see core._read_section.
_MODES_KEYS = dict(zip("xy", _signature_keys(OptimizerConfig, "x_mode", "y_mode").values()))
_INIT_KINDS = {
    "zeros": {},
    "explicit": {"values": (None, _REQUIRED)},
    "gaussian": {"scale": (_check_finite, 1.0)},
}
_POINTS_KINDS = {
    "explicit": {"points": (None, _REQUIRED)},
    "gaussian": {"count": (_check_int, 3), "scale": (_check_finite, 1.0)},
}
# The keys of one optimization run, shared by run, sweep and a run trajectory.
_RUN_KEYS = {"modes": (None, {}), "zo": (None, None),
             **_signature_keys(OptimizerConfig, "epochs", "divergence_threshold"), "init": (None, {"kind": "zeros"})}
_TRAJECTORY_KINDS = {
    "points": {"points": (None, _REQUIRED)},
    "run": {"rates": (None, _REQUIRED), **_RUN_KEYS, "snapshot_every": (_check_int, None)},
}
_HORIZON_KEYS = {"T": (_check_int, None), "epsilon": (_check_finite, None), "delta": (_check_finite, None)}
_COMMAND_KEYS = {
    "run": {"objective": (None, _REQUIRED), "rates": (None, _REQUIRED), **_RUN_KEYS,
            "seed": (_check_u64, 0)},
    "sweep": {"objective": (None, _REQUIRED), "eta_x_grid": (_rate_grid, _REQUIRED),
              "eta_y_grid": (_rate_grid, _REQUIRED), "f_target": (_check_finite, None),
              **_RUN_KEYS, "seed": (_check_u64, 0)},
    "probe": {"objective": (None, _REQUIRED), "probe": (None, {}),
              "trajectory": (None, _REQUIRED), "seed": (_check_u64, 0)},
    "plan": {"objective": (None, _REQUIRED), "probe": (None, {}), "points": (None, {}),
             "f_star": (_check_finite, None), **_HORIZON_KEYS, "seed": (_check_u64, 0)},
    "constants": {**_signature_keys(SmoothnessConstants), "n": (_check_int, _REQUIRED),
                  "d_x": (_check_int, _REQUIRED), **_HORIZON_KEYS},
}


def _config(args) -> dict:
    """The top-level values of the command's config file, with the seed resolved."""
    cfg = _read_section("config", _load_json(args.config), _COMMAND_KEYS[args.command])
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _objective(spec, config_path) -> FiniteSumObjective:
    if isinstance(spec, str):  # a JSON file; a relative path is read from the config's directory
        spec = _load_json(Path(config_path).parent / spec)
    return objective_from_dict(spec)


def _point_list(raw, obj: FiniteSumObjective) -> list:
    d = obj.layout.d
    return obj.check_points(HybridPoint(obj.layout, _check_array("points", p, (d,)))
                            for p in _check_type("points", raw, list))


def _initial_point(spec, layout: BlockLayout, seed: int) -> HybridPoint:
    init = _read_section("init", spec, {"kind": (None, "zeros")}, _INIT_KINDS)
    if init["kind"] == "explicit":
        return HybridPoint(layout, init["values"])
    if init["kind"] == "gaussian":
        return _gaussian_point(layout, RngStream(seed, INIT_STREAM_ID), init["scale"])
    return HybridPoint(layout, np.zeros(layout.d))


def _optimizer_config(cfg: dict, rates) -> OptimizerConfig:
    """The optimizer config of a run, sweep or run trajectory section, with a rates section."""
    modes = _read_section("modes", cfg["modes"], _MODES_KEYS)
    rates = _read_section("rates", rates, _signature_keys(OptimizerConfig, "eta_x", "eta_y"))
    zo = None if cfg["zo"] is None else ZoConfig(**_read_section("zo", cfg["zo"], _signature_keys(ZoConfig)))
    return OptimizerConfig(**rates, x_mode=modes["x"], y_mode=modes["y"], zo=zo, epochs=cfg["epochs"],
                           divergence_threshold=cfg["divergence_threshold"])


def _run_meta(command: str, cfg: dict, opt: OptimizerConfig, **extra) -> dict:
    """Run and sweep meta: the resolved optimizer config; objective, init and seed as given."""
    return {
        "command": command,
        "objective": cfg["objective"],
        "init": cfg["init"],
        "modes": {"x": opt.x_mode.value, "y": opt.y_mode.value},
        "zo": None if opt.zo is None else asdict(opt.zo),
        "epochs": opt.epochs,
        "divergence_threshold": opt.divergence_threshold,
        "seed": cfg["seed"],
        **extra,
    }


def _write_meta(out_path, payload: dict) -> None:
    with open(Path(str(out_path) + ".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_exit(result: RunResult) -> int:
    """EXIT_OK, or for a run that tripped the guard its divergence line on stderr and EXIT_DIVERGED."""
    if not result.diverged:
        return EXIT_OK
    rep = result.trace[-1]
    print(f"diverged at epoch={rep.epoch} step={rep.step} f={fmt17(rep.f_value)} "
          f"(threshold {fmt17(result.divergence_threshold)})", file=sys.stderr)
    return EXIT_DIVERGED


def _report(text: str, out) -> None:
    """Print a text report, and write it to out when given."""
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


# -- run -------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _config(args)
    obj = _objective(cfg["objective"], args.config)
    opt = _optimizer_config(cfg, cfg["rates"])
    w0 = _initial_point(cfg["init"], obj.layout, cfg["seed"])
    # Same stream as sweep cell 0, so a 1x1 sweep reproduces a plain run.
    rng = RngStream(cfg["seed"], RUN_STREAM_ID).child(0)
    result = run(obj, w0, opt, rng)
    write_trace_csv(result.trace, args.out)
    _write_meta(args.out, _run_meta("run", cfg, opt, rates={"eta_x": opt.eta_x, "eta_y": opt.eta_y},
                                     divergence_threshold_resolved=result.divergence_threshold))
    print(
        f"final_f={fmt17(result.trace[-1].f_value)} min_grad_sq={fmt17(result.min_grad_sq)} "
        f"epochs_completed={result.epochs_completed} diverged={str(result.diverged).lower()}"
    )
    return _run_exit(result)


# -- sweep -------------------------------------------------------------------


def cmd_sweep(args) -> int:
    cfg = _config(args)
    obj = _objective(cfg["objective"], args.config)
    eta_x_grid, eta_y_grid = cfg["eta_x_grid"], cfg["eta_y_grid"]
    # every cell's rates are checked before the first cell runs
    cells = [_optimizer_config(cfg, {"eta_x": eta_x, "eta_y": eta_y})
             for eta_x in eta_x_grid for eta_y in eta_y_grid]
    f_target = cfg["f_target"]
    w0 = _initial_point(cfg["init"], obj.layout, cfg["seed"])
    f0 = obj.eval_full(w0)
    if not math.isfinite(f0):  # as run, before any cell; NumericError below is mid-run only
        raise NumericError("objective is non-finite at the start point")
    base_rng = RngStream(cfg["seed"], RUN_STREAM_ID)

    rows = []
    for cell, opt in enumerate(cells):
        try:
            result = run(obj, w0, opt, base_rng.child(cell))
            trace, diverged = result.trace, result.diverged
        except NumericError:
            trace, diverged = [], True
        final_f = trace[-1].f_value if trace else f0
        # steps until f <= f_target, empty if never (or without a target)
        steps = next((r.step + 1 for r in trace if f_target is not None and r.f_value <= f_target), "")
        rows.append((opt.eta_x, opt.eta_y, final_f, str(diverged).lower(), steps))
    _write_csv(args.out, ("eta_x", "eta_y", "final_f", "diverged", "steps_to_threshold"),
               "%.17g,%.17g,%.17g,%s,%s\n", rows)
    # cells differ only in their rates, so the first stands for all
    _write_meta(args.out, _run_meta("sweep", cfg, cells[0], eta_x_grid=eta_x_grid,
                                     eta_y_grid=eta_y_grid, f_target=f_target))
    print(f"cells={len(cells)} out={args.out}")
    return EXIT_OK


# -- probe -------------------------------------------------------------------


def _trajectory(spec, obj: FiniteSumObjective, seed: int) -> tuple[list, RunResult | None]:
    traj = _read_section("trajectory", spec, {"kind": (None, _REQUIRED)}, _TRAJECTORY_KINDS)
    if traj["kind"] == "points":
        return _point_list(traj["points"], obj), None
    opt = _optimizer_config(traj, traj["rates"])
    every = obj.n if traj["snapshot_every"] is None else traj["snapshot_every"]
    w0 = _initial_point(traj["init"], obj.layout, seed)
    result = run(obj, w0, opt, RngStream(seed, RUN_STREAM_ID).child(0), snapshot_every=every)
    return [point for _, point in result.snapshots], result


def cmd_probe(args) -> int:
    cfg = _config(args)
    obj = _objective(cfg["objective"], args.config)
    pcfg = ProbeConfig(**_read_section("probe", cfg["probe"], _signature_keys(ProbeConfig)))
    points, result = _trajectory(cfg["trajectory"], obj, cfg["seed"])
    rows = trajectory_scan(obj, points, pcfg, RngStream(cfg["seed"], PROBE_STREAM_ID))
    write_probe_csv(rows, args.out)
    meta = {
        "command": "probe",
        "objective": cfg["objective"],
        "probe": {**asdict(pcfg), "target": pcfg.target.value},
        "trajectory": cfg["trajectory"],
        "points_probed": len(rows),
        "seed": cfg["seed"],
    }
    _write_meta(args.out, meta)
    print(f"points={len(rows)} out={args.out}")
    return EXIT_OK if result is None else _run_exit(result)


# -- plan -------------------------------------------------------------------


def _plan_report(constants: SmoothnessConstants, n: int, horizon: int, d_x: int,
                 epsilon: float | None, delta: float | None, budget: int | None) -> str:
    plan = plan_rates(constants, n, horizon, d_x)
    lines = [
        "constants: " + " ".join(f"{name}={fmt17(value)}" for name, value in asdict(constants).items()),
        f"inputs: n={n} T={horizon} d_x={d_x}",
    ]
    for label, terms, value in (
        ("eta_x", plan.eta_x_terms, plan.eta_x),
        ("eta_y", plan.eta_y_terms, plan.eta_y),
        ("mu", plan.mu_terms, plan.mu),
    ):
        lines.append(f"{label} candidates:")
        bind = min(terms, key=terms.get)
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
    from_file = args.constants is not None
    if from_file == args.estimate or from_file == (args.config is not None):
        raise ValueError("plan: pass --constants FILE, or --config FILE with --estimate")
    if from_file and args.seed is not None:  # a constants file draws nothing
        raise ValueError("plan: --seed applies only to --estimate")

    if from_file:
        cfg = _read_section("constants", _load_json(args.constants), _COMMAND_KEYS["constants"])
        constants = SmoothnessConstants(**{key: cfg[key] for key in _signature_keys(SmoothnessConstants)})
        n, d_x = cfg["n"], cfg["d_x"]
    else:
        cfg = _config(args)
        obj = _objective(cfg["objective"], args.config)
        # estimate_constants probes each block itself, so plan's probe section has no target
        pcfg = ProbeConfig(**_read_section("probe", cfg["probe"], _signature_keys(ProbeConfig, "h", "probes")))
        points = _plan_points(cfg["points"], obj, cfg["seed"])
        n, d_x = obj.n, obj.layout.d_x

    epsilon, delta, horizon = cfg["epsilon"], cfg["delta"], cfg["T"]
    derive = epsilon is not None and delta is not None
    if horizon is None and not derive:  # checked before any probe runs
        raise ValueError("plan: provide T, or epsilon and delta to derive it")
    if derive != (epsilon is not None or delta is not None):
        raise ValueError("plan: give epsilon and delta together, or neither")
    if not from_file:
        constants = estimate_constants(
            obj, pcfg, points, RngStream(cfg["seed"], PROBE_STREAM_ID), f_star=cfg["f_star"]
        )
    budget = epoch_budget(epsilon, delta, constants.G, constants.f_gap, n) if derive else None
    horizon = budget if horizon is None else horizon
    _report(_plan_report(constants, n, horizon, d_x, epsilon, delta, budget), args.out)
    return EXIT_OK


def _plan_points(spec, obj: FiniteSumObjective, seed: int) -> list:
    points = _read_section("points", spec, {"kind": (None, "gaussian")}, _POINTS_KINDS)
    if points["kind"] == "explicit":
        return _point_list(points["points"], obj)
    # one (count, d) sample_gaussian draw, so a count too large fails at once
    rows = sample_gaussian(RngStream(seed, INIT_STREAM_ID), points["count"], obj.layout.d)
    return [HybridPoint(obj.layout, points["scale"] * row) for row in rows]


# -- check -------------------------------------------------------------------


def cmd_check(args) -> int:
    root = RngStream(args.seed if args.seed is not None else 0, CHECK_STREAM_ID)
    reports = _check_suite(root, args.trials, args.negative_control)
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
    _report("\n".join(lines), args.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsgd",
        description="Reshuffled SGD with per-block zeroth-/first-order updates: "
        "run experiments, sweep rates, probe curvature, plan rates, self-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("run", cmd_run, "one optimization run; writes the trace CSV"),
        ("sweep", cmd_sweep, "grid of runs over (eta_x, eta_y); writes a summary CSV"),
        ("probe", cmd_probe, "curvature probes along a trajectory; writes a probe CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", required=True, help="output file path")
        p.set_defaults(handler=handler)

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
    p_check.add_argument("--negative-control", action="store_true",
                         help="include a deliberately failing envelope check")
    p_check.add_argument("--out", default=None, help="also write the table to a file")
    p_check.set_defaults(handler=cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out = None if args.out is None else Path(args.out)
        if out is not None and (out.is_dir() or not out.parent.is_dir()):
            raise ValueError(f"--out {args.out}: not a file in an existing directory")
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # Python's own MemoryError has no message
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception:  # any other exception is a bug in the package, not in the input
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
