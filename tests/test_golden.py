"""The byte contract across commits: every golden entry replays to the bytes its manifest records.

``tests/golden/manifest.json`` holds, for each entry of ``tools/cli_replay.py``'s golden corpus, its
argv and config inline, its exit code, the sha256 of its stdout (workspace path normalised) and the
sha256 of every file it writes, meta sidecars included.  stderr is not pinned: warning locations move
with source lines.  Only ``python tools/cli_replay.py golden --write`` writes the manifest; a change
that moves bytes on purpose rewrites it and lists each moved entry, which this test names by its id.
Digests depend on numpy's kernels, so a mismatch names both numpy versions.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = json.loads((ROOT / "tests" / "golden" / "manifest.json").read_text(encoding="utf-8"))
_SPEC = importlib.util.spec_from_file_location("cli_replay", ROOT / "tools" / "cli_replay.py")
cli_replay = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_replay)


@pytest.mark.parametrize("entry", MANIFEST["entries"], ids=[e["name"] for e in MANIFEST["entries"]])
def test_golden_entry_replays_to_its_manifest_bytes(entry, tmp_path):
    got = cli_replay.golden_replay(entry, tmp_path)
    assert got == {key: entry[key] for key in got}, (
        f"{entry['name']} moved (manifest numpy {MANIFEST['numpy']}, running numpy {np.__version__}); "
        f"argv {' '.join(entry['argv'])}")
