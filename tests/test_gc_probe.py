import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "scripts" / "gc_probe.py"


def test_gc_probe_smoke():
    out = subprocess.run(
        [sys.executable, str(PROBE), "--n", "64", "--moves", "5"],
        check=True, capture_output=True, text=True, timeout=120).stdout
    rep = json.loads(out)
    assert rep["n"] == 64 and rep["moves"] == 5
    assert rep["edges"] == 64 * 63 // 2
    assert rep["tracked_after_setup"] > 0
    assert set(rep["collections"]) == {"gen0", "gen1", "gen2"}
    assert all(c >= 0 for c in rep["collections"].values())
    assert 0.0 <= rep["gc_ms_per_move"] <= rep["move_ms_mean"]
    # null where /proc/self/statm is missing
    assert isinstance(rep["setup_rss_kb_per_edge"], (float, int, type(None)))
