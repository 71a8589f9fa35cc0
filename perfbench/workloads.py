"""The benchmark's four workloads and the correctness gate on their outputs.

Each workload is one `hybridsgd` CLI command on a config generated here from
an instance number.  `--seed` picks the instance (seed mod INSTANCES); the
objective data seed and the run seed both derive from it, so the program only
ever sees the generated config.  Instance HELD_OUT is never picked by a seed:
it is checked through the gate alone (`run.py --holdout`), so a later claim can
be re-checked on data nobody tuned against.

Summary values are compared with `reference.json`, written by
`run.py --make-reference`: integers, booleans and missing values exactly,
floats to a relative tolerance of RTOL, loose enough for a deliberate one-ulp
change and tight enough for anything else.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INSTANCES = 64
HELD_OUT = INSTANCES
SMOKE = "smoke"
RTOL = 1e-9


def _run_logistic(instance: int, smoke: bool) -> dict:
    # After every step the trace evaluates the full objective through 2n
    # per-sample calls: this workload is dominated by `objectives`.
    return {
        "objective": {"kind": "logistic", "d_x": 10, "d_y": 10, "n": 20 if smoke else 200,
                      "lam": 0.01, "seed": 1000 + instance},
        "rates": {"eta_x": 0.01, "eta_y": 0.1},
        "modes": {"x": "zo", "y": "fo"},
        "zo": {"mu": 1e-3, "directions_per_step": 2},
        "epochs": 1,
        "init": {"kind": "gaussian", "scale": 1.0},
        "seed": instance,
    }


def _sweep_quadratic(instance: int, smoke: bool) -> dict:
    # n=4 keeps the trace cheap, so the two-point estimator (q=8) and the RNG
    # dominate; the eta_y=2.5 column trips the divergence guard and f_target
    # is reached by some cells, so the guard and steps_to_threshold paths run.
    return {
        "objective": {"kind": "block_quadratic", "d_x": 8, "d_y": 4, "n": 4, "a_x": 10.0,
                      "a_y": 1.0, "center_spread": 0.1, "seed": 2000 + instance},
        "eta_x_grid": [5e-4, 2e-3, 1e-2],
        "eta_y_grid": [0.05, 0.2, 2.5],
        "f_target": 1.35,
        "modes": {"x": "zo", "y": "fo"},
        "zo": {"mu": 1e-3, "directions_per_step": 8},
        "epochs": 5 if smoke else 50,
        "init": {"kind": "gaussian", "scale": 1.0},
        "seed": instance,
    }


def _plan_logistic(instance: int, smoke: bool) -> dict:
    # Probes do the work: K HVPs per (point, block, sample or full average),
    # almost all through per-sample gradients, plus one unit-sphere draw each.
    return {
        "objective": {"kind": "logistic", "d_x": 5, "d_y": 5, "n": 10 if smoke else 50,
                      "lam": 0.1, "seed": 3000 + instance},
        "probe": {"probes": 5 if smoke else 100},
        "points": {"kind": "gaussian", "count": 1, "scale": 1.0},
        "f_star": 0.0,
        "T": 1000,
        "seed": instance,
    }


def _key_values(stdout: str) -> dict:
    out = {}
    for token in stdout.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def _run_summary(stdout: str, out: Path) -> dict:
    kv = _key_values(stdout)
    return {
        "final_f": float(kv["final_f"]),
        "min_grad_sq": float(kv["min_grad_sq"]),
        "epochs_completed": int(kv["epochs_completed"]),
        "diverged": {"true": True, "false": False}[kv["diverged"]],
    }


def _sweep_summary(stdout: str, out: Path) -> dict:
    summary = {}
    with open(out, newline="", encoding="utf-8") as fh:
        for k, row in enumerate(csv.DictReader(fh)):
            steps = row["steps_to_threshold"]
            summary[f"cell{k}.eta_x"] = float(row["eta_x"])
            summary[f"cell{k}.eta_y"] = float(row["eta_y"])
            summary[f"cell{k}.final_f"] = float(row["final_f"])
            summary[f"cell{k}.diverged"] = {"true": True, "false": False}[row["diverged"]]
            summary[f"cell{k}.steps_to_threshold"] = int(steps) if steps else None
    return summary


_PLAN_LINE = re.compile(r"^(eta_x|eta_y|mu) = (\S+)$", re.MULTILINE)


def _plan_summary(stdout: str, out: Path) -> dict:
    found = {name: float(value) for name, value in _PLAN_LINE.findall(out.read_text("utf-8"))}
    return {name: found[name] for name in ("eta_x", "eta_y", "mu")}


_CHECK_LINE = re.compile(r"^(\d+)/(\d+) checks passed$", re.MULTILINE)


def _check_summary(stdout: str, out: Path) -> dict:
    passed, total = _CHECK_LINE.search(out.read_text("utf-8")).groups()
    return {"checks_passed": int(passed), "checks_total": int(total)}


@dataclass(frozen=True)
class Workload:
    name: str
    command: list[str]                               # CLI words before the common flags
    unit: str                                        # work unit behind us_per_unit
    config: Callable[[int, bool], dict] | None       # (instance, smoke) -> config
    summary: Callable[[str, Path], dict]             # (stdout, out path) -> values

    def argv(self, instance: int, smoke: bool, cfg_path: Path, out: Path) -> list[str]:
        if self.config is None:  # the check suite takes its seed and size as flags
            trials = 100 if smoke else 2000
            return [*self.command, "--trials", str(trials), "--seed", str(instance),
                    "--out", str(out)]
        return [*self.command, "--config", str(cfg_path), "--out", str(out)]

    def outputs(self, out: Path) -> list[Path]:
        """Files whose bytes must repeat exactly; the meta sidecar where one is written."""
        meta = Path(str(out) + ".meta.json")
        return [out, meta] if self.command[0] in ("run", "sweep") else [out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-logistic", ["run"], "step", _run_logistic, _run_summary),
        Workload("sweep-quadratic", ["sweep"], "step", _sweep_quadratic, _sweep_summary),
        Workload("plan-logistic", ["plan", "--estimate"], "hvp", _plan_logistic, _plan_summary),
        Workload("check-suite", ["check"], "check", None, _check_summary),
    )
}


def closed_form_calls(cfg: dict) -> dict:
    """Oracle calls per step implied by the config for the hybrid (x ZO, y FO) pairing:
    2q ZO values, one FO gradient, and 2n per-sample trace evaluations."""
    return {
        "zo_values_per_step": 2 * cfg["zo"]["directions_per_step"],
        "fo_grads_per_step": 1,
        "trace_sample_evals_per_step": 2 * cfg["objective"]["n"],
    }


def compare(summary: dict, reference: dict) -> list[str]:
    """Differences between a parsed summary and its reference, as messages."""
    problems = []
    for key in sorted(set(summary) | set(reference)):
        if key not in summary or key not in reference:
            problems.append(f"{key}: present in only one of output and reference")
            continue
        got, want = summary[key], reference[key]
        if isinstance(want, float) and isinstance(got, float):
            if not math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
                problems.append(f"{key}: {got!r} != reference {want!r}")
        elif type(got) is not type(want) or got != want:
            problems.append(f"{key}: {got!r} != reference {want!r}")
    return problems
