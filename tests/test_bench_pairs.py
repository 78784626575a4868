"""The pure helpers of tools/bench_pairs.py."""

import argparse
import json
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


class TestWins:
    def test_ties_count_for_neither_side(self):
        assert bench_pairs.wins([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "lower") == 0
        assert bench_pairs.wins([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "higher") == 0

    def test_better_direction(self):
        parent, change = [1.0, 2.0, 3.0], [0.5, 2.0, 4.0]
        assert bench_pairs.wins(parent, change, "lower") == 1
        assert bench_pairs.wins(parent, change, "higher") == 1
        assert bench_pairs.wins([2.0, 2.0], [1.0, 1.5], "lower") == 2
        assert bench_pairs.wins([2.0, 2.0], [1.0, 1.5], "higher") == 0


class TestSummary:
    def test_one_run(self):
        assert bench_pairs.summary([0.25]) == {"runs": [0.25], "median": 0.25, "q1": 0.25, "q3": 0.25}

    def test_quartiles_inclusive(self):
        out = bench_pairs.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (out["q1"], out["median"], out["q3"]) == (2.0, 3.0, 4.0)


class TestSeedRange:
    def test_ranges(self):
        assert bench_pairs.seed_range("7") == [7]
        assert bench_pairs.seed_range("3-5") == [3, 4, 5]

    def test_empty_range_refused(self):
        with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
            bench_pairs.seed_range("10-9")


class TestWorkloadList:
    def test_names(self):
        assert bench_pairs.workload_list("simulate_file") == ["simulate_file"]
        assert bench_pairs.workload_list("simulate_file,calibrate_file") == ["simulate_file", "calibrate_file"]

    @pytest.mark.parametrize("text", ["", ",", "a,a"])
    def test_empty_or_repeated_refused(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="distinct workload names"):
            bench_pairs.workload_list(text)


class TestSrcLines:
    def test_counts_the_package_lines_as_wc_does(self, tmp_path):
        package = tmp_path / "src" / "pdcalib"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\ny = 2\n")
        (package / "b.py").write_text("z = 3")  # no final newline: wc -l counts 0
        (package / "notes.txt").write_text("\n\n")
        assert bench_pairs.src_lines(tmp_path) == 2


class TestMain:
    def test_every_workload_lands_in_the_one_file(self, tmp_path, monkeypatch):
        spec = {"run_seconds": 1, "end_to_end": [
            {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.25}]}
        trees = {}
        for side in ("parent", "change"):
            trees[side] = tmp_path / side
            trees[side].mkdir()
            (trees[side] / "BENCHMARK.json").write_text(json.dumps(spec))
        runs = []

        def fake_run(tree, workload, seed, seconds, trace):
            runs.append((tree.name, workload, seed, trace))
            value = 0.2 if tree.name == "change" else 0.3
            return {"failed": 0, "metrics": {"op_s_p50": {"value": value},
                                              "x.calls": {"value": float(seed)}}}

        monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
        monkeypatch.setattr(bench_pairs, "first_op_seconds", lambda tree, workload, seed: 0.5)
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"workloads": {"older": {"seeds": [1]}}}))
        assert bench_pairs.main([
            "--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--workload", "w1,w2", "--seeds", "4-7", "--out", str(out), "--layers", "x.calls",
        ]) == 0

        doc = json.loads(out.read_text())
        assert doc["src_lines"] == {"parent": 0, "change": 0}  # trees without a src/pdcalib
        assert list(doc["workloads"]) == ["older", "w1", "w2"]
        for name in ("w1", "w2"):
            entry = doc["workloads"][name]
            assert entry["seeds"] == [4, 5, 6, 7]
            assert entry["first"] == ["parent", "change", "parent", "change"]
            op = entry["end_to_end"]["op_s_p50"]
            assert (op["change_wins"], op["pairs"]) == (4, 4)
            # the first three seeds are traced, each side once per seed
            layer = {"x.calls": {"runs": [4.0, 5.0, 6.0], "median": 5.0}}
            assert entry["trace"] == {"seeds": [4, 5, 6], "parent": layer, "change": layer}
        traced = [r for r in runs if r[3] == 1]
        assert traced[:6] == [
            ("parent", "w1", 4, 1), ("change", "w1", 4, 1),
            ("change", "w1", 5, 1), ("parent", "w1", 5, 1),
            ("parent", "w1", 6, 1), ("change", "w1", 6, 1),
        ]
        assert [r[1] for r in traced[6:]] == ["w2"] * 6
        untraced = [r for r in runs if r[3] == 0]
        assert untraced[:8] == [
            ("parent", "w1", 4, 0), ("change", "w1", 4, 0),
            ("change", "w1", 5, 0), ("parent", "w1", 5, 0),
            ("parent", "w1", 6, 0), ("change", "w1", 6, 0),
            ("change", "w1", 7, 0), ("parent", "w1", 7, 0),
        ]
        assert [r[1] for r in untraced[8:]] == ["w2"] * 8
