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


class TestWindowTimes:
    def test_kings3_windows(self):
        tool = load("window_times")
        rows = tool.window_times(3, 2, repeat=1)
        assert [(stage, kind, steps) for stage, kind, steps, *_ in rows] == [
            (1, "free", 500), (1, "anneal", 2000), (1, "lock", 500),
            (2, "free", 500), (2, "anneal", 2000), (2, "lock", 500)]
        gated = [gated for *_, gated, _ in rows]
        # stage 1 gates all 20 edges of both rows on; stage 2 only same-group ones
        assert gated[:3] == [0, 40, 40] and gated[3] == 0 and gated[4] == gated[5] < 40
        assert all(us >= 0.0 for *_, us in rows)

    def test_drift_column(self):
        tool = load("window_times")
        # each window less its own stage's free window
        lines = tool.table([(1, "free", 500, 0, 1.25), (1, "anneal", 2000, 40, 5.0),
                            (2, "free", 500, 0, 2.0), (2, "lock", 500, 14, 6.5)]).splitlines()
        assert lines[0].endswith("| CPU us/step | drift us/step |")
        assert lines[2:] == ["| 1 | free | 500 | 0 | 1.2 | 0.0 |",
                             "| 1 | anneal | 2000 | 40 | 5.0 | 3.8 |",
                             "| 2 | free | 500 | 0 | 2.0 | 0.0 |",
                             "| 2 | lock | 500 | 14 | 6.5 | 4.5 |"]

    def test_main(self, capsys):
        tool = load("window_times")
        assert tool.main(["--side", "3", "--batch", "2", "--repeat", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kings 3, B = 2, best of 1"
        assert len(out) == 1 + 8
