import json
import time

import numpy as np
import pytest

from geospar.cli import main, read_points_csv, write_points_csv
from geospar.errors import TraceError

CFG = """eps = 0.5
allow_large_eps = true
delta = 0.05
k = 3
kernel = gaussian
seed = 7
checkpoint = 10
"""


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.random((32, 4)) * 10.0
    write_points_csv(tmp_path / "pts.csv", pts)
    (tmp_path / "cfg.txt").write_text(CFG)
    return tmp_path, pts


def run(args):
    return main([str(a) for a in args])


class TestPointsIo:
    def test_roundtrip(self, tmp_path):
        pts = np.array([[1.25, -3.5], [0.0, 2.0]])
        write_points_csv(tmp_path / "p.csv", pts)
        back = read_points_csv(tmp_path / "p.csv")
        assert np.array_equal(back, pts)

    def test_malformed_row_names_line(self, tmp_path):
        (tmp_path / "bad.csv").write_text("# dim=2 n=2\n1.0,2.0\nfoo,3.0\n")
        with pytest.raises(TraceError, match=":3"):
            read_points_csv(tmp_path / "bad.csv")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_line(self, tmp_path, value):
        (tmp_path / "bad.csv").write_text(f"# dim=2 n=2\n1.0,2.0\n{value},3.0\n")
        with pytest.raises(TraceError, match="bad.csv:3"):
            read_points_csv(tmp_path / "bad.csv")

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_non_finite_coordinate_is_usage_error(self, tmp_path, capsys,
                                                   command):
        (tmp_path / "bad.csv").write_text("1.0,2.0\n3.0,nan\n0.5,0.5\n")
        assert run([command, "--points", tmp_path / "bad.csv"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TraceError" and "bad.csv:2" in err["message"]

    def test_header_count_mismatch(self, tmp_path):
        (tmp_path / "bad.csv").write_text("# dim=2 n=3\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(TraceError, match="n=3"):
            read_points_csv(tmp_path / "bad.csv")


class TestBuild:
    def test_two_point_file_single_edge(self, tmp_path):
        write_points_csv(tmp_path / "two.csv", np.array([[0.0, 0.0], [1.0, 1.0]]))
        (tmp_path / "cfg.txt").write_text("eps = 0.5\nallow_large_eps = true\nk = 1\n")
        rc = run(["build", "--points", tmp_path / "two.csv",
                  "--config", tmp_path / "cfg.txt",
                  "--out", tmp_path / "r.json"])
        assert rc == 0
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["golden"]["edges"] == 1

    def test_build_matches_golden(self, fixtures_dir, tmp_path):
        rc = run(["build", "--points", fixtures_dir / "points_n128.csv",
                  "--config", fixtures_dir / "config_desk.txt",
                  "--out", tmp_path / "r.json"])
        assert rc == 0
        got = json.loads((tmp_path / "r.json").read_text())["golden"]
        want = json.loads((fixtures_dir / "golden_build.json").read_text())
        assert got == want

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["build", "--points", tmp_path / "nope.csv"]) == 2


class TestReplay:
    def test_empty_trace_matches_build_state(self, workdir):
        tmp_path, _ = workdir
        (tmp_path / "empty.jsonl").write_text("")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "empty.jsonl",
                  "--config", tmp_path / "cfg.txt",
                  "--out", tmp_path / "rep.json"])
        assert rc == 0
        rep = json.loads((tmp_path / "rep.json").read_text())["golden"]
        build_rc = run(["build", "--points", tmp_path / "pts.csv",
                        "--config", tmp_path / "cfg.txt",
                        "--out", tmp_path / "b.json"])
        build = json.loads((tmp_path / "b.json").read_text())["golden"]
        assert rep["final_edges"] == build["edges"]
        assert rep["ops"] == 0 and rep["churn_total"] == 0

    def test_move_away_and_back_passes_spectral(self, workdir):
        tmp_path, pts = workdir
        home = pts[3].tolist()
        nearby = (pts[3] + 0.05).tolist()
        lines = [json.dumps({"op": "move", "i": 3, "z": nearby}),
                 json.dumps({"op": "move", "i": 3, "z": home})]
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "t.jsonl",
                  "--config", tmp_path / "cfg.txt", "--checkpoint", "1",
                  "--out", tmp_path / "rep.json"])
        assert rc == 0
        rep = json.loads((tmp_path / "rep.json").read_text())["golden"]
        assert rep["all_checkpoints_pass"]
        assert all(c["spectral_pass"] for c in rep["checkpoints"])

    def test_unknown_index_errors_with_line(self, workdir, capsys):
        tmp_path, _ = workdir
        (tmp_path / "t.jsonl").write_text(
            json.dumps({"op": "move", "i": 500, "z": [1, 1, 1, 1]}) + "\n")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "t.jsonl",
                  "--config", tmp_path / "cfg.txt"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "line 1" in err["message"]

    @pytest.mark.parametrize("op", ["mulv", "solveb"])
    @pytest.mark.parametrize("index", [-1, 32])
    def test_sparse_vector_index_preflight(self, workdir, capsys, op, index):
        tmp_path, _ = workdir
        lines = [json.dumps({"op": op, "nz": [[0, 1.0]]}),
                 json.dumps({"op": op, "nz": [[1, 1.0], [index, 1.0]]})]
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "t.jsonl",
                  "--config", tmp_path / "cfg.txt"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "line 2" in err["message"]

    @pytest.mark.parametrize("op", ["mulv", "solveb"])
    @pytest.mark.parametrize("entry", [
        [1], [1, "x"], [1, 2.0, 3.0], 5, [1, None], [1, True], [1, "1.0"]],
        ids=["short", "string", "long", "scalar", "null", "bool", "text"])
    def test_sparse_vector_entry_preflight(self, workdir, capsys, op, entry):
        tmp_path, _ = workdir
        lines = [json.dumps({"op": op, "nz": [[0, 1.0]]}),
                 json.dumps({"op": op, "nz": [[1, 1.0], entry]})]
        (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "t.jsonl",
                  "--config", tmp_path / "cfg.txt"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TraceError" and "line 2" in err["message"]

    @pytest.mark.parametrize("nz", [5, {"0": 1.0}])
    def test_sparse_vector_not_a_list_preflight(self, workdir, capsys, nz):
        tmp_path, _ = workdir
        (tmp_path / "t.jsonl").write_text(
            json.dumps({"op": "mulv", "nz": nz}) + "\n")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "t.jsonl",
                  "--config", tmp_path / "cfg.txt"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "line 1" in err["message"]

    @pytest.mark.parametrize("z", [
        ["a", 1.0, 1.0, 1.0], [[1.0], 1.0, 1.0, 1.0], [1.0, 1.0, 1.0],
        [float("nan"), 1.0, 1.0, 1.0], "1,1,1,1"],
        ids=["string", "nested", "short", "nan", "text"])
    def test_move_target_preflight(self, workdir, capsys, z):
        tmp_path, _ = workdir
        (tmp_path / "t.jsonl").write_text(
            json.dumps({"op": "move", "i": 0, "z": z}) + "\n")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "t.jsonl",
                  "--config", tmp_path / "cfg.txt"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TraceError" and "line 1" in err["message"]

    def test_out_of_region_preflight(self, workdir, capsys):
        tmp_path, _ = workdir
        (tmp_path / "t.jsonl").write_text(
            json.dumps({"op": "move", "i": 0, "z": [999.0, 0, 0, 0]}) + "\n")
        rc = run(["replay", "--points", tmp_path / "pts.csv",
                  "--trace", tmp_path / "t.jsonl",
                  "--config", tmp_path / "cfg.txt"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "bounding region" in err["message"]

    def test_replay_matches_golden(self, fixtures_dir, tmp_path):
        rc = run(["replay", "--points", fixtures_dir / "points_n128.csv",
                  "--trace", fixtures_dir / "trace_n128.jsonl",
                  "--config", fixtures_dir / "config_desk.txt",
                  "--out", tmp_path / "r.json"])
        assert rc == 0
        got = json.loads((tmp_path / "r.json").read_text())["golden"]
        want = json.loads((fixtures_dir / "golden_replay.json").read_text())
        assert got == want

    def test_replay_reports_paths(self, fixtures_dir, tmp_path):
        run(["replay", "--points", fixtures_dir / "points_n128.csv",
             "--trace", fixtures_dir / "trace_n128.jsonl",
             "--config", fixtures_dir / "config_desk.txt",
             "--out", tmp_path / "r.json"])
        rep = json.loads((tmp_path / "r.json").read_text())
        paths = rep["detail"]["update_totals"]
        touched = paths.pop("pairs_touched")
        changed = paths.pop("edges_changed")
        assert set(paths) == {"pairs_added", "pairs_removed",
                              "pairs_reweighted", "pairs_resampled",
                              "pairs_extended", "pairs_rematerialized"}
        # every touched pair takes exactly one path
        assert touched > 0 and sum(paths.values()) == touched
        # a changed edge logs -old, +new or both
        churn = rep["golden"]["churn_total"]
        assert churn <= changed <= 2 * churn


class TestBenchAndUjl:
    def test_bench_counts_match_golden(self, fixtures_dir, tmp_path):
        rc = run(["bench", "--sizes", "48,96", "--moves", "15",
                  "--repeats", "1",
                  "--config", fixtures_dir / "config_desk.txt",
                  "--out", tmp_path / "b.json"])
        rep = json.loads((tmp_path / "b.json").read_text())
        want = json.loads((fixtures_dir / "golden_bench.json").read_text())
        assert rep["golden"] == want
        assert len(rep["detail"]["rows"]) == 2

    def test_bench_exit_code_ignores_the_timing_trend(self, workdir,
                                                      monkeypatch):
        # four clock reads per size: the set-up's start and end, then the
        # moves' start and end; the second size's moves take twice as long
        # for the same set-up time, so the ratio rises
        tmp_path, _ = workdir
        ticks = iter([0.0, 1.0, 1.0, 2.0, 10.0, 11.0, 11.0, 13.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        rc = run(["bench", "--sizes", "48,96", "--moves", "3",
                  "--repeats", "1", "--config", tmp_path / "cfg.txt",
                  "--out", tmp_path / "b.json"])
        detail = json.loads((tmp_path / "b.json").read_text())["detail"]
        ratios = [row["ratio"] for row in detail["rows"]]
        assert ratios[1] > ratios[0]
        assert detail["trend_ok"] is False
        assert rc == 0

    def test_ujl_outputs_one_row_per_query(self, workdir):
        tmp_path, pts = workdir
        write_points_csv(tmp_path / "q.csv", pts[:5])
        rc = run(["ujl", "--points", tmp_path / "pts.csv",
                  "--queries", tmp_path / "q.csv", "--seed", "4",
                  "--out", tmp_path / "u.csv"])
        assert rc == 0
        rows = (tmp_path / "u.csv").read_text().splitlines()
        assert len(rows) == 5
        first = [float(v) for v in rows[0].split(",")]
        assert len(first) == 32
        assert first[0] == 0.0  # query equals point 0

    def test_verify_exit_code(self, workdir):
        tmp_path, _ = workdir
        rc = run(["verify", "--points", tmp_path / "pts.csv",
                  "--config", tmp_path / "cfg.txt",
                  "--out", tmp_path / "v.json"])
        assert rc == 0
        assert json.loads((tmp_path / "v.json").read_text())["golden"]["verified"]
