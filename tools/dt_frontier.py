"""Accuracy and CPU time against the Euler-Maruyama step dt.

Runs cli.run_batch (4 colors, master seed 0, every other setting at its
default) at each dt on King's graphs of side 7 and 20 with 40 seeds and of
side 46 with 6 seeds. Prints one Markdown row per (side, dt): the mean
coloring and cut accuracy, each +- its standard error over the seeds, and
the CPU seconds of the batch. Cut accuracy is against oracle.cut_baseline,
the best-known row-stripe cut at all three sides.

    PYTHONPATH=src python tools/dt_frontier.py

All cases take under a CPU minute; dt 0.005 costs twice dt 0.01.
"""

import time

import numpy as np

from pottsim.cli import RunConfig, run_batch
from pottsim.dynamics import DynamicsParams
from pottsim.graph import kings_graph

SEEDS = {7: 40, 20: 40, 46: 6}
DTS = (0.005, 0.01, 0.02, 0.04)


def mean_se(values) -> tuple[float, float]:
    """Mean and standard error of the mean (0 for a single value)."""
    values = np.asarray(values, dtype=np.float64)
    se = values.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(se)


def frontier(sides=tuple(SEEDS), dts=DTS, seeds=SEEDS) -> list[tuple]:
    """(side, seeds, dt, coloring (mean, SE), cut (mean, SE), CPU s) per case."""
    rows = []
    for side in sides:
        graph = kings_graph(side)
        for dt in dts:
            config = RunConfig(dynamics=DynamicsParams(dt=dt), iterations=seeds[side])
            t0 = time.process_time()
            results, _ = run_batch(graph, config)
            cpu = time.process_time() - t0
            rows.append((side, seeds[side], dt,
                         mean_se([r.coloring_accuracy for r in results]),
                         mean_se([r.cut_accuracy for r in results]), cpu))
    return rows


def table(rows) -> str:
    lines = ["| side | seeds | dt | mean coloring ± SE | mean cut ± SE | CPU s |",
             "|---|---|---|---|---|---|"]
    for side, seeds, dt, (col, col_se), (cut, cut_se), cpu in rows:
        lines.append(f"| {side} | {seeds} | {dt:g} | {col:.4f} ± {col_se:.4f} "
                     f"| {cut:.4f} ± {cut_se:.4f} | {cpu:.2f} |")
    return "\n".join(lines)


def main() -> int:
    print(table(frontier()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
