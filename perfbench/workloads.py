"""Workload inputs and the reference values the checks compare against.

Everything here is computed without pottsim: the King's graphs, the planar
graphs, the DIMACS writer and the exact max-cut are the benchmark's own, so
a fault in the program cannot hide in its own reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

COLORS = 4

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# "kernel" is the host-speed calibration kernel (hostspeed.make_kernel) on
# the workload's last graph, with the mix of the workload's own work;
# "kernel_reference_s" is its time on a quiet host of the reference machine.
WORKLOADS = {
    "kings7-batch": {"kings_sides": [7], "iterations": 40, "require_proper": True,
                     "kernel": {"steps": 60}, "kernel_reference_s": 0.0011},
    "kings46-batch": {"kings_sides": [46], "iterations": 3,
                      "kernel": {"steps": 5}, "kernel_reference_s": 0.0020},
    # brute-force max-cut takes about half of this workload's time
    "desk-planar": {"planar_sizes": [16, 18, 20, 22, 24], "iterations": 4,
                    "kernel": {"steps": 40, "mask_edges": 6}, "kernel_reference_s": 0.0016},
}


def kings_edges(side: int) -> list[tuple[int, int]]:
    """Edges of the side x side King's graph, node = row * side + col."""
    edges = []
    for r in range(side):
        for c in range(side):
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if rr < side and 0 <= cc < side:
                    edges.append((r * side + c, rr * side + cc))
    return edges


def kings_stripe_cut(side: int) -> int:
    """Row-stripe cut value s(s-1) + 2(s-1)^2, the King's-graph baseline."""
    return side * (side - 1) + 2 * (side - 1) ** 2


def planar_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Delaunay triangulation of the unit square's corners plus n - 4 random
    interior points.

    The hull is always the four corners, so every graph of n nodes has
    exactly 3n - 7 edges and the max-cut cost depends on n alone.
    """
    from scipy.spatial import Delaunay

    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    while True:
        points = np.vstack([corners, rng.uniform(0.05, 0.95, size=(n - 4, 2))])
        edges = set()
        for tri in Delaunay(points).simplices:
            a, b, c = sorted(int(v) for v in tri)
            edges.update({(a, b), (a, c), (b, c)})
        # a degenerate draw (cocircular points) may drop an edge; draw again
        if len(edges) == 3 * n - 7:
            return sorted(edges)


def exhaustive_maxcut(n: int, edges) -> int:
    """Exact unit-weight max-cut by enumerating all 2^n labelings.

    The nodes are split into a low and a high half. For labelings a of the
    low half and b of the high half, the cut is
    cut_low(a) + cut_high(b) + a.d_low + b.d_high - 2 a^T M b,
    where M is the adjacency between the halves and d its degrees, so the
    whole table comes from one matrix product per block of rows.
    """
    if n == 0 or not edges:
        return 0
    lo = n // 2
    ei = np.array([e[0] for e in edges])
    ej = np.array([e[1] for e in edges])

    def bits(width):
        return ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1).astype(np.float64)

    def inner_cut(table, offset, width):
        keep = (ei >= offset) & (ei < offset + width) & (ej >= offset) & (ej < offset + width)
        cols_i, cols_j = ei[keep] - offset, ej[keep] - offset
        return (table[:, cols_i] != table[:, cols_j]).sum(axis=1)

    a_bits, b_bits = bits(lo), bits(n - lo)
    m = np.zeros((lo, n - lo))
    for i, j in edges:
        if i < lo <= j:
            m[i, j - lo] += 1.0
    a_part = inner_cut(a_bits, 0, lo) + a_bits @ m.sum(axis=1)
    b_part = inner_cut(b_bits, lo, n - lo) + b_bits @ m.sum(axis=0)
    am = a_bits @ m
    best = 0.0
    for start in range(0, len(a_bits), 512):
        block = (a_part[start:start + 512, None] + b_part[None, :]
                 - 2.0 * (am[start:start + 512] @ b_bits.T))
        best = max(best, float(block.max()))
    return int(round(best))


def write_dimacs(path: Path, n: int, edges) -> None:
    lines = [f"p edge {n} {len(edges)}"] + [f"e {i + 1} {j + 1}" for i, j in edges]
    path.write_text("\n".join(lines) + "\n")


def build(name: str, seed: int, outdir: Path) -> dict:
    """Write the workload's DIMACS files under outdir and return its spec.

    The spec carries each graph's own edge list and exact or closed-form
    cut baseline, for the checks.
    """
    workload = WORKLOADS[name]
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    graphs = []
    for side in workload.get("kings_sides", []):
        graphs.append({"n": side * side, "edges": kings_edges(side),
                       "baseline_cut": kings_stripe_cut(side), "exact_baseline": False,
                       "oracle": False})
    for n in workload.get("planar_sizes", []):
        edges = planar_edges(n, rng)
        graphs.append({"n": n, "edges": edges, "baseline_cut": exhaustive_maxcut(n, edges),
                       "exact_baseline": True, "oracle": True})
    for idx, g in enumerate(graphs):
        g["path"] = str(outdir / f"graph{idx}.col")
        write_dimacs(Path(g["path"]), g["n"], g["edges"])
    spec = {"workload": name, "seed": seed, "iterations": workload["iterations"],
            "colors": COLORS, "require_proper": workload.get("require_proper", False),
            "kernel": workload["kernel"], "kernel_reference_s": workload["kernel_reference_s"],
            "graphs": graphs}
    spec_path = outdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spec["spec_path"] = str(spec_path)
    return spec
