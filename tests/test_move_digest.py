import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "move_digest.py"
PINNED = ROOT / "tests" / "fixtures" / "move_digests.json"


@pytest.mark.parametrize(
    "workload", ["uniform-moves", "clustered-drift", "sketch-serve"])
def test_move_digest_is_reproducible(workload):
    # the pinned digest, written by scripts/make_goldens.py: a change to
    # any move's edge map, diff log or report fails here, and a run that
    # matches it is reproducible
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload],
        check=True, capture_output=True, text=True, timeout=300).stdout
    (line,) = out.splitlines()
    run = json.loads(line)
    assert run["workload"] == workload and run["seed"] == 7
    assert run["moves"] > 0
    assert len(run["digest"]) == len(run["shape"]) == len(run["maps"]) == 64
    assert len({run["digest"], run["shape"], run["maps"]}) == 3
    pinned = json.loads(PINNED.read_text())["7"][workload]
    # the edge maps and logs alone, apart from the report's pair counters
    assert run["maps"] == pinned["maps"]
    assert run == pinned
