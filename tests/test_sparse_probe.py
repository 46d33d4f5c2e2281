import json
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "scripts" / "sparse_probe.py"


def _probe(*args):
    out = subprocess.run([sys.executable, str(PROBE), *map(str, args)],
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return json.loads(out)


def test_sparse_probe_smoke():
    rep = _probe("--n", 128, "--c-s", 0.05, "--hops", 5, "--spectral")
    assert (rep["n"], rep["c_s"], rep["hops"]) == (128, 0.05, 5)
    assert rep["setup_s"] > 0.0 and rep["hop_p50_ms"] > 0.0
    assert rep["churn_per_n"] > 0.0
    # at this c_s the cluster pairs are sampled, none past three quarters
    # of its biclique, so H is sparse
    assert rep["sampled_pairs"] > 0
    assert 0.0 < rep["fill_min"] <= rep["fill_max"] <= 0.75
    assert 0.0 < rep["edge_ratio"] < 1.0
    assert rep["fold_exact"] is True
    assert rep["spectral"]["passed"] is True


def test_sparse_probe_dense_without_spectral():
    # at the default c_s every pair's sample would exceed half its
    # biclique, so every pair is whole and H is the kernel graph
    rep = _probe("--n", 64, "--hops", 2)
    assert rep["c_s"] == 0.25 and rep["spectral"] is None
    assert rep["sampled_pairs"] == 0
    assert rep["fill_min"] is None and rep["fill_max"] is None
    assert rep["edge_ratio"] == 1.0 and rep["fold_exact"] is True
