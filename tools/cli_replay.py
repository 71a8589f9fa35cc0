"""Replay the CLI calls of the test suite on two source trees and compare their bytes.

    python tools/cli_replay.py record DIR                 # run the tests, save every cli.main call
    python tools/cli_replay.py compare DIR TREE_A TREE_B  # replay the calls on both trees

``record`` runs pytest with this file as a plugin and saves each call's test id, argv and
``--config``/``--constants`` files (and a config's objective file), then adds the four
``perfbench/workloads.py`` workloads on instances 0-7 and 64.  ``compare`` runs each call in a
fresh interpreter per tree (``PYTHONPATH=<tree>/src``) in the workspace DIR/ws, prints each call
whose exit code, stdout, stderr (tree path normalised) or output-file sha256 differs, and exits 1
if any does.  A stderr difference that vanishes once every Python warning's line number is masked
and the source line printed after it dropped is labelled ``stderr (warning location only)``, and
calls whose only difference is that are counted separately.
"""
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = "import sys; from hybridsgd.cli import main; sys.exit(main(sys.argv[1:]))"
WS = "{ws}"  # stands for the replay workspace in a recorded argv
# "<file>.py:<n>: <Category>: <message>" and the indented source line Python prints after it
WARNING = re.compile(r"^(.*\.py):\d+: (\w+: .*\n)(?:[ \t]+.*\n)?", re.M)


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

    def main(argv=None):
        argv = list(sys.argv[1:] if argv is None else argv)
        test = os.environ.get("PYTEST_CURRENT_TEST", "?").rsplit(" ", 1)[0]
        calls.append({"test": test, "argv": _capture(argv, out / "files" / str(len(calls)))})
        return original(argv)

    cli.main = main
    config.cli_replay_calls = calls


def pytest_unconfigure(config):
    calls, out = config.cli_replay_calls, Path(os.environ["CLI_REPLAY_DIR"])
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        for instance in [*range(8), 64]:
            files = out / "files" / str(len(calls))
            if workload.config is not None:
                files.mkdir(parents=True)
                cfg = json.dumps(workload.config(instance, False), indent=1) + "\n"
                (files / "config.json").write_text(cfg, encoding="utf-8")
            argv = workload.argv(instance, False, Path(WS, "config.json"), Path(WS, "out"))
            calls.append({"test": f"perfbench {name} instance {instance}", "argv": argv})
    (out / "calls.json").write_text(json.dumps(calls, indent=1) + "\n", encoding="utf-8")


def _replay(call: dict, files: Path, tree: Path, ws: Path) -> dict:
    shutil.rmtree(ws, ignore_errors=True)
    shutil.copytree(files, ws) if files.is_dir() else ws.mkdir(parents=True)
    argv = [a.replace(WS, str(ws)) for a in call["argv"]]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=ws, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr.replace(str(tree), "<tree>"),
            **{f"file {p.relative_to(ws)}": hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(ws.rglob("*")) if p.is_file()}}


def main(argv: list) -> int:
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
    calls = json.loads((out / "calls.json").read_text(encoding="utf-8"))
    differ = located = 0
    for k, call in enumerate(calls):
        a, b = (_replay(call, out / "files" / str(k), tree, out / "ws") for tree in trees)
        fields = [key for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]
        if "stderr" in fields and len({WARNING.sub(r"\1:<n>: \2", r["stderr"]) for r in (a, b)}) == 1:
            fields[fields.index("stderr")] = "stderr (warning location only)"
            located += fields == ["stderr (warning location only)"]
        differ += bool(fields)
        if fields:
            print(f"{call['test']}: {', '.join(fields)} differ; argv {' '.join(call['argv'])}")
    print(f"{len(calls)} calls replayed, {differ} differ, {located} of them in warning location only")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
