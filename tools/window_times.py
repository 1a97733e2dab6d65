"""CPU time per step of each window of one solve_batch, and of each coupling
layout's closure, on a King's graph.

Windows: runs scheduler.solve_batch (4 colors, seeds 0 .. B-1, default
parameters) on kings_graph(side), reads the WindowEvent that solve_batch
hands its on_window callback after each window, and prints one Markdown
row per window: stage, kind, steps, gated edges over all B rows, and CPU
microseconds per step (the event's cpu_s), the least of --repeat solves.

Closures: builds the coupling term of the stage-1 window (every edge gated
on, B rows) in both edge layouts from the buffers integrate makes for it,
and prints the CPU microseconds of one call, one step's coupling term, the
least over --repeat runs of --calls calls. The lattice row reads "not
taken" where dynamics' layout rule declines the slices.

    PYTHONPATH=src python tools/window_times.py --side 7 --batch 40

The times are those of the pottsim that PYTHONPATH points to, so two trees
compare by running the script once on each.
"""

import argparse
import math
import time

import numpy as np

from pottsim import dynamics, scheduler
from pottsim.dynamics import CouplingGate, DynamicsParams, ShilConfig, integrate
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


def closure_times(side: int, batch: int, calls: int = 200, repeat: int = 3) -> list[tuple]:
    """(layout, CPU us per call or None) for the lattice and the compacted
    coupling closure of the all-on gate on B rows of kings_graph(side)."""
    graph = kings_graph(side)
    phases = np.random.default_rng(0).uniform(0.0, 2 * math.pi, (batch, graph.n))
    lattice, built = dynamics._lattice_coupling, []

    def spy(*args):
        built.append(args)
        return lattice(*args)

    # a window of no steps builds its coupling term and runs none of it
    dynamics._lattice_coupling = spy
    try:
        integrate(phases, 0, graph, CouplingGate.all_on(graph), ShilConfig.off(graph.n),
                  DynamicsParams(noise=0.0))
    finally:
        dynamics._lattice_coupling = lattice
    half, ei, offset, edge_w, lock = built[0]
    closures = (("lattice", lattice(half, ei, offset, edge_w, lock)),
                ("compacted", dynamics._compacted_coupling(half, ei, ei + offset, edge_w, lock)))
    rows = []
    for layout, coupling in closures:
        per_call = None
        if coupling is not None:
            runs = []
            for _ in range(repeat):
                t0 = time.process_time()
                for _ in range(calls):
                    coupling()
                runs.append((time.process_time() - t0) / calls)
            per_call = 1e6 * min(runs)
        rows.append((layout, per_call))
    return rows


def tables(windows, closures) -> str:
    lines = ["| stage | window | steps | gated edges | CPU us/step |", "|---|---|---|---|---|"]
    lines += [f"| {stage} | {kind} | {steps} | {gated} | {us:.1f} |"
              for stage, kind, steps, gated, us in windows]
    lines += ["", "| coupling layout | CPU us/call |", "|---|---|"]
    lines += [f"| {layout} | {'not taken' if us is None else f'{us:.1f}'} |"
              for layout, us in closures]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", type=int, default=7)
    parser.add_argument("--batch", type=int, default=40)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    print(f"kings {args.side}, B = {args.batch}, best of {args.repeat}")
    print(tables(window_times(args.side, args.batch, args.repeat),
                 closure_times(args.side, args.batch, args.calls, args.repeat)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
