import importlib.util
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
    assert rep["fold_exact"] is True and rep["replay_exact"] is True
    assert rep["spectral"]["passed"] is True
    assert 0.0 < rep["setup_rss_mb"] <= rep["peak_rss_mb"]


def test_sparse_probe_dense_without_spectral():
    # at the default c_s every pair's sample would exceed half its
    # biclique, so every pair is whole and H is the kernel graph
    rep = _probe("--n", 64, "--hops", 2)
    assert rep["c_s"] == 0.25 and rep["spectral"] is None
    assert rep["sampled_pairs"] == 0
    assert rep["fill_min"] is None and rep["fill_max"] is None
    assert rep["edge_ratio"] == 1.0 and rep["fold_exact"] is True
    assert rep["replay_exact"] is True
    assert 0.0 < rep["setup_rss_mb"] <= rep["peak_rss_mb"]


def _module():
    spec = importlib.util.spec_from_file_location("sparse_probe", PROBE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sparse_probe_exits_1_when_fold_differs(monkeypatch, capsys):
    mod = _module()
    rep = {"fold_exact": False, "replay_exact": True}
    monkeypatch.setattr(mod, "probe", lambda *args: rep)
    assert mod.main(["--n", "64"]) == 1
    assert json.loads(capsys.readouterr().out) == rep


def test_sparse_probe_exits_1_when_replay_differs(monkeypatch, capsys):
    mod = _module()
    rep = {"fold_exact": True, "replay_exact": False}
    monkeypatch.setattr(mod, "probe", lambda *args: rep)
    assert mod.main(["--n", "64"]) == 1
    assert json.loads(capsys.readouterr().out) == rep


def test_replay_adds_each_entry_and_drops_zeros():
    mod = _module()
    edges = {(0, 1): 0.5, (1, 2): 0.25}
    logs = [[(0, 1, -0.5), (0, 2, 0.75)], [(1, 2, -0.25), (1, 2, 0.125)]]
    assert mod.replay(edges, logs) == {(0, 2): 0.75, (1, 2): 0.125}


def test_sparse_probe_exits_1_past_three_quarters_fill(monkeypatch):
    mod = _module()
    for fill_max, code in ((None, 0), (0.75, 0), (0.7501, 1)):
        monkeypatch.setattr(mod, "probe", lambda *args: {
            "fold_exact": True, "replay_exact": True, "fill_max": fill_max})
        assert mod.main(["--n", "64"]) == code
