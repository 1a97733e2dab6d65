"""The scripts under tools/ run on a small case."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDtFrontier:
    def test_rows_and_table(self):
        frontier = load("dt_frontier")
        rows = frontier.frontier(sides=(7,), dts=(0.02, 0.04), seeds={7: 3})
        assert [(side, seeds, dt) for side, seeds, dt, *_ in rows] == [(7, 3, 0.02), (7, 3, 0.04)]
        for *_, (col, col_se), (cut, cut_se), cpu in rows:
            assert 0.0 <= col <= 1.0 and cut >= 0.0  # the row stripe is best-known only
            assert col_se >= 0.0 and cut_se >= 0.0 and cpu >= 0.0
        lines = frontier.table(rows).splitlines()
        assert len(lines) == 4 and lines[2].startswith("| 7 | 3 | 0.02 | ")

    def test_mean_se(self):
        frontier = load("dt_frontier")
        assert frontier.mean_se([1.0, 3.0]) == (2.0, 1.0)
        assert frontier.mean_se([0.5]) == (0.5, 0.0)
