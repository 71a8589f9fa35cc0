"""The byte contract across commits: every golden entry replays to the bytes its manifest records.

``tests/golden/manifest.json`` holds, for each entry of ``tools/cli_replay.py``'s golden corpus, its
argv and input files inline, its exit code, its warning count, the sha256 of its stdout and stderr
(workspace path normalised) and the sha256 of every file it writes, meta sidecars included.  stderr is
pinned without locations: each warning as ``Category: message``, with no file, line or source line,
since those move with source lines.  Only ``python tools/cli_replay.py golden --write`` writes the
manifest; a change that moves bytes on purpose rewrites it and lists each moved entry, which this
test names by its id.  Digests depend on numpy's kernels, so a mismatch names both numpy versions.
"""
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridsgd import objectives

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = json.loads((ROOT / "tests" / "golden" / "manifest.json").read_text(encoding="utf-8"))
_SPEC = importlib.util.spec_from_file_location("cli_replay", ROOT / "tools" / "cli_replay.py")
cli_replay = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_replay)
WARNED = [entry for entry in MANIFEST["entries"] if entry["warnings"]]
CHILD = "import sys; from hybridsgd.cli import main; sys.exit(main(sys.argv[1:]))"
# "<file>.py:<n>: <Category>: <message>" and the indented source line Python prints after it
LOCATION = re.compile(r"^.*\.py:\d+: (\w+: .*\n)(?:[ \t]+.*\n)?", re.M)


# objectives._ROW_BUDGET sets the rows of every batched call: trace blocks, probe groups, the oracle's
# central differences and a trace block's ZO draws.  1 gives one-row blocks and no speculative trace block,
# 37 blocks cut anywhere, 200 sweep-quadratic trace blocks of up to 12 steps whose draws the cap of 3
# steps, not the epoch end, cuts, and 2^20 one block for most calls; no block boundary may move a byte,
# so every budget replays the one set of digests.  An entry keeps its name as its id at the default budget.
BUDGETS = (1, 37, 200, objectives._ROW_BUDGET, 1 << 20)
REPLAYS = [pytest.param(entry, budget, id=entry["name"] if budget == objectives._ROW_BUDGET
                        else f"{entry['name']}-budget-{budget}")
           for budget in BUDGETS for entry in MANIFEST["entries"]]


@pytest.mark.parametrize(("entry", "budget"), REPLAYS)
def test_golden_entry_replays_to_its_manifest_bytes(entry, budget, tmp_path, monkeypatch):
    monkeypatch.setattr(objectives, "_ROW_BUDGET", budget)
    got = cli_replay.golden_replay(entry, tmp_path)
    assert got == {key: entry[key] for key in got}, (
        f"{entry['name']} moved at _ROW_BUDGET {budget} (manifest numpy {MANIFEST['numpy']}, running numpy "
        f"{np.__version__}); argv {' '.join(entry['argv'])}")


def test_golden_write_names_each_moved_entry_and_its_moved_fields():
    record = {"exit": 0, "stdout": "a", "stderr": "b", "warnings": 0, "files": {"out": "c"}}
    old = [{"name": "same", **record}, {"name": "moved", **record}, {"name": "dropped", **record}]
    new = [{"name": "same", **record}, {"name": "moved", **record, "stderr": "d", "files": {"out": "e"}},
           {"name": "added", **record}]
    assert cli_replay.moved(old, new) == ["moved: stderr, files", "added: new", "dropped: gone"]


def test_the_fidelity_check_below_has_entries():
    assert len(WARNED) >= 4


@pytest.fixture(scope="module")
def children(tmp_path_factory):
    """{name: (workspace, exit code, stderr)} of each warned entry run in a new interpreter with Python's
    default filters, all started at once."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    started = {}
    for entry in WARNED:
        ws = tmp_path_factory.mktemp("child")
        started[entry["name"]] = ws, subprocess.Popen([sys.executable, "-c", CHILD, *cli_replay._write_inputs(
            entry, ws)], cwd=ws, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    done = {}
    for name, (ws, proc) in started.items():
        stderr = proc.communicate(timeout=120)[1]
        done[name] = ws, proc.returncode, stderr
    return done


@pytest.mark.parametrize("entry", WARNED, ids=[e["name"] for e in WARNED])
def test_warnings_print_as_in_a_fresh_interpreter(entry, tmp_path, children):
    # A new interpreter prints each warning once per location, with its file, line and source line;
    # without those its stderr must read as the in-process replay's.
    ws, code, stderr = children[entry["name"]]
    in_process_code, _, in_process_stderr, _ = cli_replay.golden_run(entry, tmp_path)
    assert code == in_process_code
    assert LOCATION.sub(r"\1", stderr).replace(str(ws), cli_replay.WS) == in_process_stderr
