"""CPU time per step of each window of one solve_batch on a King's graph.

Runs scheduler.solve_batch (4 colors, seeds 0 .. B-1, default parameters)
on kings_graph(side), reads the WindowEvent that solve_batch hands its
on_window callback after each window, and prints one Markdown row per
window: stage, kind, steps, gated edges over all B rows, CPU microseconds
per step (the event's cpu_s), the least of --repeat solves, and the drift
microseconds per step: the window's CPU time per step less that of its
stage's free window, which draws the same B * n normals per step and has
no drift.

    PYTHONPATH=src python tools/window_times.py --side 7 --batch 40

The times are those of the pottsim that PYTHONPATH points to, so two trees
compare by running the script once on each.
"""

import argparse

from pottsim import scheduler
from pottsim.graph import kings_graph


def window_times(side: int, batch: int, repeat: int = 3) -> list[tuple]:
    """(stage, kind, steps, gated edges, CPU us per step) per window of one
    solve_batch, the least of repeat solves."""
    graph = kings_graph(side)
    best = None
    for _ in range(repeat):
        events = []
        scheduler.solve_batch(graph, 2, seeds=range(batch), on_window=events.append)
        best = events if best is None else [
            min(old, new, key=lambda event: event.cpu_s) for old, new in zip(best, events)]
    return [(event.stage, event.kind, event.n_steps, int(event.gated_edges.sum()),
             1e6 * event.cpu_s / max(event.n_steps, 1)) for event in best]


def table(windows) -> str:
    free = {stage: us for stage, kind, *_, us in windows if kind == "free"}
    lines = ["| stage | window | steps | gated edges | CPU us/step | drift us/step |",
             "|---|---|---|---|---|---|"]
    lines += [f"| {stage} | {kind} | {steps} | {gated} | {us:.1f} | {us - free[stage]:.1f} |"
              for stage, kind, steps, gated, us in windows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", type=int, default=7)
    parser.add_argument("--batch", type=int, default=40)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"kings {args.side}, B = {args.batch}, best of {args.repeat}")
    print(table(window_times(args.side, args.batch, args.repeat)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
