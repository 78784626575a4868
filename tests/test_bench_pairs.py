"""The pure helpers of tools/bench_pairs.py."""

import argparse
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
