"""The golden corpus of ``tests/test_golden.py`` and the one writer of its manifest.

    python tools/cli_replay.py golden --write    # rewrite tests/golden/manifest.json

``golden --write`` runs each entry of :func:`golden_corpus` (a name, an argv and its input files) in this
process, on the ``src`` next to this file, through :func:`golden_replay`, the function that
``tests/test_golden.py`` replays the manifest with, and records each entry's exit code, warning count and
digests.  It prints each entry that moved from the manifest it replaces, with the fields that moved, and
``pytest tests/test_golden.py`` names the entries that moved.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WS = "{ws}"  # stands for the replay workspace in an argv
GOLDEN = ROOT / "tests" / "golden" / "manifest.json"
CONFIG, OUT = f"{WS}/config.json", f"{WS}/out"

# One hybrid run (x ZO, y FO) per objective family, and the run trajectory of the probe entry
_OPT = {"modes": {"x": "zo", "y": "fo"}, "zo": {"mu": 1e-3, "directions_per_step": 2}, "epochs": 3,
        "init": {"kind": "gaussian", "scale": 1.0}}
_RUN = {"rates": {"eta_x": 0.01, "eta_y": 0.05}, **_OPT}
_FAMILIES = {"block_quadratic": {"a_x": 4.0, "a_y": 1.0, "center_spread": 0.3}, "cosh": {"shift_spread": 0.2},
             "logistic": {"lam": 0.05}, "linear": {}, "dense_quadratic": {"center_scale": 1.0}}
_QUAD = {"kind": "block_quadratic", "d_x": 2, "d_y": 1, "n": 3, "a_x": 4.0, "a_y": 1.0, "seed": 7}
_COSH, _FO = {"kind": "cosh", "d_x": 1, "d_y": 1, "shifts": [[0.0, 0.0]]}, {"modes": {"x": "fo", "y": "fo"}, "zo": None}
_AT, _POINTS = {"kind": "explicit", "values": [700.0, 0.0]}, {"kind": "points", "points": [[700.0, 0.0]]}
_BASE = {  # a valid config per command, which each case below changes
    "run": {"objective": _QUAD, **_RUN, "seed": 5},
    "sweep": {"objective": _QUAD, "eta_x_grid": [0.01], "eta_y_grid": [0.05, 0.1], **_OPT},
    "probe": {"objective": _QUAD, "probe": {"probes": 4}, "trajectory": {**_POINTS, "points": [[1, 2, 3]]}},
    "plan --estimate": {"objective": _QUAD, "probe": {"probes": 4}, "points": {"count": 1}, "T": 10},
    "plan --constants": {"L_x": 2.0, "L_y": 1.0, "L_x_max": 4.0, "L_y_max": 2.0, "G": 3.0, "sigma": 0.5,
                         "f_gap": 1.0, "n": 50, "d_x": 5, "epsilon": 0.1, "delta": 0.1},
}
# name: (command, changes, *flags): the base config with top-level changes (None: key absent), or a verbatim string
_CASES = {
    "plan-constants": ("plan --constants", {}),
    "probe-run-trajectory": ("probe", {"objective": {"kind": "logistic", "d_x": 3, "d_y": 2, "n": 6, "lam": 0.1,
        "seed": 40}, "probe": {"probes": 20}, "trajectory": {"kind": "run", **_RUN, "snapshot_every": 6}, "seed": 4}),
    # y steps of 5 on a_y = 1 trip the guard in epoch 1: the snapshots up to the trip are probed, then exit 3
    "probe-run-trajectory-diverges": ("probe", {"trajectory": {"kind": "run", **_RUN, "rates": {"eta_x": 0.01,
        "eta_y": 5.0}, "epochs": 400}}),
    **{f"hybrid-run-{kind}": ("run", {"objective": {"kind": kind, "d_x": 3, "d_y": 2, "n": 4, "seed": 50 + k, **data}})
       for k, (kind, data) in enumerate(_FAMILIES.items())},
    **{f"modes-{x}-{y}": ("run", {"objective": {"kind": "cosh", "d_x": 2, "d_y": 2, "n": 4, "shift_spread": 0.5,
        "seed": 60}, "rates": {"eta_x": 0.3, "eta_y": 0.3}, "modes": {"x": x, "y": y}, "epochs": 4, "seed": 6})
       for x in ("zo", "fo", "frozen") for y in ("zo", "fo", "frozen")},
    # margins 2000, 3000, 5000 and -3000 at the start, far past where exp(-|m|) underflows (745)
    "run-logistic-saturated-margins": ("run", {"objective": {"kind": "logistic", "d_x": 2, "d_y": 1, "labels":
        [1, -1, 1, -1], "features": [[2000, 0, 0], [0, -3000, 0], [0, 0, 5000], [1500, 1500, 0]]},
        "init": {**_AT, "values": [1, 1, 1]}, "rates": {"eta_x": 1e-4, "eta_y": 1e-4}}),
    "guard-trip-mid-block": ("run", {"objective": {**_COSH, "shifts": [[0.0, 0.0]] * 8}, **_FO, "init": {**_AT,
        "values": [1.0, 0.0]}, "rates": {"eta_x": 2.0, "eta_y": 2.0}, "divergence_threshold": 100.0}),
    "underflow-over-many-blocks": ("run", {"objective": {**_QUAD, "d_y": 2, "n": 200}, "zo": {"mu": 1e-30}}),
    # the estimator's x block norm and the trace's y norm overflow: one vecdot warning, then the underflow one
    "run-norm-overflow": ("run", {"objective": {"kind": "linear", "d_x": 1, "d_y": 1, "slopes": [[0, 1e200]]},
        "init": {**_AT, "values": [1e160, 0.5]}, "zo": {"mu": 1e-3, "directions_per_step": 1},
        "rates": {"eta_x": 0, "eta_y": 0}}),
    "run-non-finite-start": ("run", {"objective": _COSH, **_FO, "init": {**_AT, "values": [800.0, 0.0]}}),
    "sweep-non-finite-start": ("sweep", {"objective": _COSH, **_FO, "init": {**_AT, "values": [800.0, 0.0]}}),
    "run-mid-run-numeric-failure": ("run", {"objective": _COSH, **_FO, "rates": {"eta_x": 1e10, "eta_y": 0},
                                            "init": _AT}),
    "sweep-cell-numeric-failure": ("sweep", {"objective": _COSH, **_FO, "eta_x_grid": [0.0, 1e10], "init": _AT}),
    "probe-non-finite-curvature": ("probe", {"objective": {**_COSH, "shifts": [[0.0, 0.0]] * 2}, "probe": {"h": 1.0},
                                             "trajectory": {**_POINTS, "points": [[709.0, 0.0]]}}),
    "probe-curvature-overflow": ("probe", {"objective": _COSH, "trajectory": _POINTS}),
    "plan-curvature-overflow": ("plan --estimate", {"objective": _COSH, "f_star": 2.0,
                                                    "points": {**_POINTS, "kind": "explicit"}}),
    "plan-out-of-float-range": ("plan --constants", {"n": 10**400}),
    "run-seed-override": ("run", {}, "--seed", "9"), "run-zeros-init": ("run", {"init": None}),
    "run-explicit-init": ("run", {"init": {**_AT, "values": [1, -2, 0.5]}}),
    "probe-explicit-points": ("probe", {}), "plan-estimate-gaussian-points": ("plan --estimate", {}),
    "plan-estimate-explicit-points": ("plan --estimate", {"points": {"kind": "explicit", "points": [[1, 0], [0, 2]]},
        "objective": {"kind": "dense_quadratic", "d_x": 1, "d_y": 1, "hessian": [[2, 1], [1, 3]]}}),
}
_ERRORS = {  # as _CASES: one config error (exit 2) each, named config-error-<name>
    "not-an-object": ("run", {"modes": []}), "unknown-key": ("run", {"epoch": 3}),
    "missing-key": ("run", {"rates": None}), "missing-kind": ("probe", {"trajectory": {"points": [[1, 2, 3]]}}),
    "unknown-kind": ("run", {"init": {"kind": "uniform"}}), "bad-mode": ("run", {"modes": {"x": "q"}}),
    "count-not-an-integer": ("run", {"epochs": 1.5}), "seed-out-of-range": ("run", {"seed": -1}),
    "real-not-a-number": ("run", {"init": {"kind": "gaussian", "scale": "1"}}), "zo-missing": ("run", {"zo": None}),
    "rate-negative": ("run", {"rates": {"eta_x": -1.0, "eta_y": 0.1}}), "init-shape": ("run", {"init": _AT}),
    "init-nested-too-deep": ("run", {"init": {**_AT, "values": json.loads("[" * 70 + "1" + "]" * 70)}}),
    "grid-not-a-list": ("sweep", {"eta_x_grid": 0.1}), "grid-empty": ("sweep", {"eta_y_grid": []}),
    "points-not-a-list": ("probe", {"trajectory": {**_POINTS, "points": {}}}),
    "points-empty": ("probe", {"trajectory": {**_POINTS, "points": []}}),
    "points-ragged": ("probe", {"trajectory": {**_POINTS, "points": [[[1, 2], 3, 4]]}}),
    "points-entry-a-bool": ("probe", {"trajectory": {**_POINTS, "points": [[True, 2, 3]]}}),
    "constants-negative": ("plan --constants", {"sigma": -1.0}), "plan-no-horizon": ("plan --estimate", {"T": None}),
    "constants-no-n": ("plan --constants", {"n": None}), "plan-arguments": ("plan --constants", {}, "--config", CONFIG),
    "plan-lone-epsilon": ("plan --constants", {"T": 10, "delta": None}),
    "plan-seed-with-constants": ("plan --constants", {}, "--seed", "3"),
    "plan-f-star-required": ("plan --estimate", {"objective": {"kind": "linear", "d_x": 1, "d_y": 1, "n": 1,
                                                               "seed": 1}}),
    "duplicate-key": ("run", '{"seed": 1, "seed": 2}\n'), "invalid-json": ("run", '{"seed": 1,}\n'),
    "json-nested-too-deep": ("run", "[" * 5000 + "\n"), "out-not-a-file": ("run", {}, "--out", WS),
}


def _entry(name: str, command: str, config, *flags, **inputs) -> dict:
    """An entry running command on WS/config.json (given by --config unless command names --constants)."""
    argv = [*command.split(), *["--config"] * ("--constants" not in command), CONFIG, "--out", OUT, *flags]
    return {"name": name, "argv": argv, "inputs": {"config.json": config, **inputs}}


def golden_corpus() -> list:
    """The golden entries {name, argv, inputs}: the four perfbench workloads on instances 0-7 and 64, check on
    seeds 0-11 and 64 with and without --negative-control, an objective given as a file, _CASES and _ERRORS."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    entries = [{"name": f"{name}-{k}", "argv": work.argv(k, False, Path(CONFIG), Path(OUT)),
                "inputs": {} if work.config is None else {"config.json": work.config(k, False)}}
               for name, work in WORKLOADS.items() for k in [*range(8), 64]]
    entries += [{"name": f"check-{seed}" + "-negative-control" * control, "inputs": {},
                 "argv": ["check", "--trials", "100", "--seed", str(seed), *["--negative-control"] * control]}
                for seed in (*range(12), 64) for control in (False, True)]
    entries.append(_entry("run-objective-file", "run", {**_BASE["run"], "objective": "objective.json"},
                          **{"objective.json": _QUAD}))
    cases = {**_CASES, **{f"config-error-{name}": case for name, case in _ERRORS.items()}}
    return entries + [_entry(name, command, changes if isinstance(changes, str) else {**_BASE[command], **changes},
                             *flags) for name, (command, changes, *flags) in cases.items()]


def _write_inputs(entry: dict, ws: Path) -> list:
    """The entry's argv with ws for WS, after its inputs are written into ws."""
    for name, data in entry["inputs"].items():
        (ws / name).write_text(data if isinstance(data, str) else json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return [a.replace(WS, str(ws)) for a in entry["argv"]]


def golden_run(entry: dict, ws: Path) -> tuple:
    """(exit code, stdout, stderr, warning count) of an entry run through ``hybridsgd.cli.main`` in this
    process, in the empty directory ws, with ws written as WS.  Each warning prints as ``Category: message``
    under the filter ``default`` and a fresh once-per-location registry, as in a new interpreter."""
    from hybridsgd.cli import main

    argv, stdout, stderr, shown = _write_inputs(entry, ws), io.StringIO(), io.StringIO(), []

    def show(message, category, *location, **where) -> None:
        shown.append(category)
        print(f"{category.__name__}: {message}", file=sys.stderr)

    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = show
        code = main(argv)
    return code, *(s.getvalue().replace(str(ws), WS) for s in (stdout, stderr)), len(shown)


def golden_replay(entry: dict, ws: Path) -> dict:
    """A golden entry's exit code, the sha256 of its stdout and stderr (see :func:`golden_run`), its
    warning count and the sha256 of every file it writes."""
    code, stdout, stderr, shown = golden_run(entry, ws)
    files = {p.name: p.read_bytes() for p in sorted(ws.iterdir()) if p.name not in entry["inputs"]}
    stdout, stderr, *digests = (hashlib.sha256(data).hexdigest() for data in (stdout.encode(), stderr.encode(),
                                                                              *files.values()))
    return {"exit": code, "stdout": stdout, "stderr": stderr, "warnings": shown, "files": dict(zip(files, digests))}


def moved(old: list, new: list) -> list:
    """One line per entry of new that differs from old's entry of that name, naming the fields that moved
    (exit, stdout, stderr, warnings, files, or the argv and inputs; "new" for an entry old lacks), then one
    per entry of old that new lacks."""
    before = {entry["name"]: entry for entry in old}
    lines = []
    for entry in new:
        was = before.pop(entry["name"], None)
        fields = ["new"] if was is None else [key for key in entry if was.get(key) != entry[key]]
        if fields:
            lines.append(f"{entry['name']}: {', '.join(fields)}")
    return lines + [f"{name}: gone" for name in before]


def main(argv: list) -> int:
    if argv != ["golden", "--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        entries = [{**entry, **golden_replay(entry, Path(tempfile.mkdtemp(dir=tmp)))} for entry in golden_corpus()]
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["entries"] if GOLDEN.exists() else []
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "entries": entries}, indent=1) + "\n", encoding="utf-8")
    lines = moved(old, entries)
    for line in lines:
        print(line)
    print(f"{len(entries)} entries written to {GOLDEN.relative_to(ROOT)}, {len(lines)} moved, new or gone")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
