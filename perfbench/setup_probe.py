"""Time what one `pottsim solve` pays before its first step, in this fresh
interpreter: importing pottsim, load_graph on the workload's DIMACS files
and building the RunConfig. Prints the parts, at the reference host speed
(see hostspeed.py), as one JSON line.

Usage: python3 perfbench/setup_probe.py SPEC_JSON
"""

import json
import sys
import time
from pathlib import Path

from hostspeed import PYTHON_KERNEL_REFERENCE_S, SpeedSampler, python_kernel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
spec = json.loads(Path(sys.argv[1]).read_text())

marks = []  # (wall clock, sampler time spent so far)
with SpeedSampler(python_kernel, PYTHON_KERNEL_REFERENCE_S) as speed:
    marks.append((time.perf_counter(), speed.spent))
    from pottsim.cli import RunConfig
    from pottsim.graph import load_graph

    marks.append((time.perf_counter(), speed.spent))
    graphs = [load_graph(g["path"]) for g in spec["graphs"]]
    marks.append((time.perf_counter(), speed.spent))
    config = RunConfig.from_sources(
        None, iterations=spec["iterations"], seed=spec["seed"], colors=spec["colors"])
    marks.append((time.perf_counter(), speed.spent))


def part(a, b):
    (t0, spent0), (t1, spent1) = marks[a], marks[b]
    return speed.at_reference(t1 - t0 - (spent1 - spent0))


print(json.dumps({"import_s": part(0, 1), "load_graph_s": part(1, 2), "total_s": part(0, 3)}))
