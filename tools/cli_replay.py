"""Replay the CLI calls of the test suite on two source trees and compare their bytes, and keep the
golden corpus of ``tests/test_golden.py``.

    python tools/cli_replay.py record DIR                 # run the tests, save every cli.main call
    python tools/cli_replay.py compare DIR TREE_A TREE_B  # replay the calls on both trees
    python tools/cli_replay.py golden --write             # rewrite tests/golden/manifest.json

``record`` runs pytest with this file as a plugin and saves each call's test id, argv and
``--config``/``--constants`` files (and a config's objective file), then adds the four
``perfbench/workloads.py`` workloads on instances 0-7 and 64.  It records the in-process
``cli.main`` calls and the child interpreters a test starts with
``subprocess.run([sys.executable, "-c", code, *argv])``, where ``code`` imports ``hybridsgd.cli``;
such a call keeps its ``code`` (a memory cap, say).  ``compare`` runs each call in a
fresh interpreter per tree (``PYTHONPATH=<tree>/src``) in the workspace DIR/ws, prints each call
whose exit code, stdout, stderr (tree path normalised) or output-file sha256 differs, and exits 1
if any does.  A stderr difference that vanishes once every Python warning's file and line number
are masked and the source line printed after it dropped is labelled ``stderr (warning location
only)``, and calls whose only difference is that are counted separately.

``golden --write``, the only writer of ``tests/golden/manifest.json``, runs the corpus of
:func:`golden_corpus` in this process, on the ``src`` next to this file, through
:func:`golden_replay`, the function ``tests/test_golden.py`` replays the manifest with, and records
each entry's exit code and digests.  ``pytest tests/test_golden.py`` names the entries that moved.
"""
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHILD = "import sys; from hybridsgd.cli import main; sys.exit(main(sys.argv[1:]))"
WS = "{ws}"  # stands for the replay workspace in a recorded argv
GOLDEN = ROOT / "tests" / "golden" / "manifest.json"
# "<file>.py:<n>: <Category>: <message>" and the indented source line Python prints after it
WARNING = re.compile(r"^.*\.py:\d+: (\w+: .*\n)(?:[ \t]+.*\n)?", re.M)


def _anchor(path: Path) -> Path:
    """The path if it is a directory, else its nearest existing ancestor."""
    return path if path.is_dir() else _anchor(path.parent)


def _capture(argv: list, files: Path) -> list:
    """argv with its path values moved under WS; their input files copied to files."""
    at = {i + 1: Path(argv[i + 1]).absolute() for i, a in enumerate(argv[:-1])
          if a in ("--config", "--constants", "--out")}
    inputs = [p for i, p in at.items() if argv[i - 1] != "--out" and p.is_file()]
    for path in list(inputs):
        try:  # a config's objective may be a path relative to the config
            spec = json.loads(path.read_text(encoding="utf-8")).get("objective")
        except (OSError, ValueError, AttributeError, RecursionError):
            continue
        if isinstance(spec, str) and (path.parent / spec).is_file():
            inputs.append((path.parent / spec).absolute())
    base = Path(os.path.commonpath([_anchor(p) for p in [*at.values(), *inputs]])) if at else None
    for path in inputs:
        (files / path.relative_to(base)).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, files / path.relative_to(base))
    return [f"{WS}/{os.path.relpath(at[i], base)}" if i in at else a for i, a in enumerate(argv)]


def pytest_configure(config):
    import hybridsgd.cli as cli

    out, original, calls = Path(os.environ["CLI_REPLAY_DIR"]), cli.main, []

    def record(argv: list, **code) -> None:
        test = os.environ.get("PYTEST_CURRENT_TEST", "?").rsplit(" ", 1)[0]
        calls.append({"test": test, **code, "argv": _capture(argv, out / "files" / str(len(calls)))})

    def main(argv=None):
        argv = list(sys.argv[1:] if argv is None else argv)
        record(argv)
        return original(argv)

    def run(args, *rest, **kwargs):  # a child interpreter that runs the CLI is recorded too
        if isinstance(args, list) and args[:2] == [sys.executable, "-c"] and "hybridsgd.cli" in args[2]:
            record([str(a) for a in args[3:]], code=args[2])
        return spawn(args, *rest, **kwargs)

    cli.main, spawn, subprocess.run = main, subprocess.run, run
    config.cli_replay_calls = calls


def _workloads():
    """(name, instance, config or None, argv) of the four perfbench workloads on instances 0-7 and 64;
    the argv reads WS/config.json and writes WS/out."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for instance in [*range(8), 64]:
            config = None if workload.config is None else workload.config(instance, False)
            yield name, instance, config, workload.argv(instance, False, Path(WS, "config.json"), Path(WS, "out"))


def pytest_unconfigure(config):
    calls, out = config.cli_replay_calls, Path(os.environ["CLI_REPLAY_DIR"])
    for name, instance, cfg, argv in _workloads():
        files = out / "files" / str(len(calls))
        if cfg is not None:
            files.mkdir(parents=True)
            (files / "config.json").write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        calls.append({"test": f"perfbench {name} instance {instance}", "argv": argv})
    (out / "calls.json").write_text(json.dumps(calls, indent=1) + "\n", encoding="utf-8")


# One hybrid run (x ZO, y FO) per objective family, and the run trajectory of the probe entry
_RUN = {"rates": {"eta_x": 0.01, "eta_y": 0.05}, "modes": {"x": "zo", "y": "fo"},
        "zo": {"mu": 1e-3, "directions_per_step": 2}, "epochs": 3, "init": {"kind": "gaussian", "scale": 1.0}}
_FAMILIES = {"block_quadratic": {"a_x": 4.0, "a_y": 1.0, "center_spread": 0.3}, "cosh": {"shift_spread": 0.2},
             "logistic": {"lam": 0.05}, "linear": {}, "dense_quadratic": {"center_scale": 1.0}}
_CONSTANTS = {"L_x": 2.0, "L_y": 1.0, "L_x_max": 4.0, "L_y_max": 2.0, "G": 3.0, "sigma": 0.5, "f_gap": 1.0,
              "n": 50, "d_x": 5, "epsilon": 0.1, "delta": 0.1}


def golden_corpus() -> list:
    """The golden entries {name, argv, config}: the perfbench workloads on instances 0-7 and 64, check on
    seeds 0-3 and 64 with and without --negative-control (100 trials, where check-suite runs 2000), plan
    --constants with epsilon and delta, a probe along a run trajectory, and one hybrid run per family.
    A config is written to WS/config.json."""
    config, out = f"{WS}/config.json", f"{WS}/out"
    entries = [{"name": f"{name}-{instance}", "argv": argv, "config": cfg}
               for name, instance, cfg, argv in _workloads()]
    entries += [{"name": f"check-{seed}" + "-negative-control" * control,
                 "argv": ["check", "--trials", "100", "--seed", str(seed), *["--negative-control"] * control],
                 "config": None}
                for seed in (0, 1, 2, 3, 64) for control in (False, True)]
    entries.append({"name": "plan-constants", "argv": ["plan", "--constants", config, "--out", out],
                    "config": _CONSTANTS})
    logistic = {"kind": "logistic", "d_x": 3, "d_y": 2, "n": 6, "lam": 0.1, "seed": 40}
    entries.append({"name": "probe-run-trajectory", "argv": ["probe", "--config", config, "--out", out],
                    "config": {"objective": logistic, "probe": {"probes": 20},
                               "trajectory": {"kind": "run", **_RUN, "snapshot_every": 6}, "seed": 4}})
    for k, (kind, data) in enumerate(_FAMILIES.items()):
        objective = {"kind": kind, "d_x": 3, "d_y": 2, "n": 4, "seed": 50 + k, **data}
        entries.append({"name": f"hybrid-run-{kind}", "argv": ["run", "--config", config, "--out", out],
                        "config": {"objective": objective, **_RUN, "seed": 5}})
    return entries


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_replay(entry: dict, ws: Path) -> dict:
    """A golden entry run through ``hybridsgd.cli.main`` in this process, in the empty directory ws: its
    exit code, the sha256 of its stdout with ws written as WS, and the sha256 of every file it writes."""
    from hybridsgd.cli import main

    if entry["config"] is not None:
        (ws / "config.json").write_text(json.dumps(entry["config"], indent=1) + "\n", encoding="utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([a.replace(WS, str(ws)) for a in entry["argv"]])
    return {"exit": code, "stdout": _sha256(stdout.getvalue().replace(str(ws), WS).encode()),
            "files": {p.name: _sha256(p.read_bytes()) for p in sorted(ws.iterdir()) if p.name != "config.json"}}


def _golden_write() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, entry in enumerate(golden_corpus()):
            (Path(tmp) / str(k)).mkdir()
            entries.append({**entry, **golden_replay(entry, Path(tmp) / str(k))})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "entries": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {GOLDEN.relative_to(ROOT)}")
    return 0


def _replay(call: dict, files: Path, tree: Path, ws: Path) -> dict:
    shutil.rmtree(ws, ignore_errors=True)
    shutil.copytree(files, ws) if files.is_dir() else ws.mkdir(parents=True)
    argv = [a.replace(WS, str(ws)) for a in call["argv"]]
    proc = subprocess.run([sys.executable, "-c", call.get("code", CHILD), *argv], cwd=ws, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr.replace(str(tree), "<tree>"),
            **{f"file {p.relative_to(ws)}": _sha256(p.read_bytes()) for p in sorted(ws.rglob("*")) if p.is_file()}}


def main(argv: list) -> int:
    if argv == ["golden", "--write"]:
        return _golden_write()
    if argv[:1] == ["record"] and len(argv) == 2:
        out = Path(argv[1]).resolve()
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        env = {**os.environ, "CLI_REPLAY_DIR": str(out),
               "PYTHONPATH": os.pathsep.join([str(ROOT / "tools"), str(ROOT / "src")])}
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "cli_replay",
                               "-p", "no:cacheprovider"], cwd=ROOT, env=env).returncode
    if argv[:1] != ["compare"] or len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    out, trees = Path(argv[1]).resolve(), [Path(t).resolve() for t in argv[2:]]
    if not (out / "calls.json").is_file():
        print(f"{argv[1]} holds no recording; run record {argv[1]} first", file=sys.stderr)
        return 2
    calls = json.loads((out / "calls.json").read_text(encoding="utf-8"))
    differ = located = 0
    for k, call in enumerate(calls):
        a, b = (_replay(call, out / "files" / str(k), tree, out / "ws") for tree in trees)
        fields = [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]
        if "stderr" in fields and len({WARNING.sub(r"<file>:<n>: \1", r["stderr"]) for r in (a, b)}) == 1:
            fields[fields.index("stderr")] = "stderr (warning location only)"
            located += fields == ["stderr (warning location only)"]
        differ += bool(fields)
        if fields:
            print(f"{call['test']}: {', '.join(fields)} differ; argv {' '.join(call['argv'])}")
    print(f"{len(calls)} calls replayed, {differ} differ, {located} of them in warning location only")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
