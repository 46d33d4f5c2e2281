import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "move_digest.py"
PINNED = ROOT / "tests" / "fixtures" / "move_digests.json"


def _digest():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "clustered-drift"],
        check=True, capture_output=True, text=True, timeout=300).stdout
    (line,) = out.splitlines()
    return json.loads(line)


def test_move_digest_is_reproducible():
    first, second = _digest(), _digest()
    assert first["workload"] == "clustered-drift" and first["seed"] == 7
    assert first["moves"] > 0
    assert len(first["digest"]) == len(first["shape"]) == 64
    assert first["shape"] != first["digest"]
    assert first == second
    # the pinned digest, written by scripts/make_goldens.py: a change to
    # any move's edge map, diff log or report fails here
    assert first == json.loads(PINNED.read_text())["clustered-drift"]
