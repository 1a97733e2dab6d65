"""Exact and constructive baselines for coloring and max-cut.

exact_coloring is a DSATUR-ordered backtracking search: exact for the
K-colorability decision, fast on the benchmark family, and the reference
everything else is checked against. Its state is per-node color counts:
how many colored neighbors hold each color, and how many distinct colors
each node sees. Its node order and witnesses match those of the
list-and-set search that tests/test_oracle.py keeps as a reference.

brute_force_maxcut searches all partitions (n <= 24) by meet in the
middle, one matrix product per block of masks, and returns bit for bit
what a plain enumeration of Graph.cut_sums returns: one rounding-error
margin (0 for integer weights) screens the scores, and the masks it keeps
are re-summed by Graph.cut_sums. The King's-graph closed forms give a
constructive proper 4-coloring and the best-known (row-stripe) cut value.
cut_baseline picks the max-cut normalizer that cut accuracies are
reported against; it sums in the same edge order, so the optimum scores
exactly 1.0 against an exact or upper-bound normalizer.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import graph as _graph
from .graph import Graph
from .validate import count, real

__all__ = [
    "OracleTimeout",
    "exact_coloring",
    "constructive_kings_coloring",
    "brute_force_maxcut",
    "stripe_cut_value",
    "cut_baseline_kind",
    "cut_baseline",
]


BRUTE_FORCE_MAX_NODES = 24  # brute_force_maxcut's cap, and the largest exact baseline


class OracleTimeout(Exception):
    """Raised when the backtracking search exceeds its time budget."""


def exact_coloring(
    graph: Graph,
    k: int,
    node_limit: int = 10_000,
    time_budget: float | None = None,
) -> list[int] | None:
    """Return a proper k-coloring if one exists, else None.

    Backtracking over a DSATUR order (most saturated, then highest degree,
    then lowest index) on per-node color counts. Exact but potentially slow,
    hence the node limit and optional time budget (seconds; None or inf: none).
    """
    count("k", k, 1)
    count("node_limit", node_limit, 0)
    if time_budget is not None:
        real("time_budget", time_budget, finite=False)
    n = graph.n
    if n > node_limit:
        raise ValueError(f"graph has {n} nodes, above node_limit={node_limit}")
    degree = graph.degrees()
    src, dst = np.r_[graph.ei, graph.ej], np.r_[graph.ej, graph.ei]
    adj = np.split(dst[np.argsort(src, kind="stable")], np.cumsum(degree)[:-1])
    # with max degree + 1 colors nothing backtracks, and more change no choice
    width = min(k, graph.max_degree() + 1)
    colors = np.full(n, -1)
    seen = np.zeros((n, width), dtype=np.int64)  # colored neighbors of v with color c
    saturation = np.zeros(n, dtype=np.int64)  # distinct colors among v's neighbors
    deadline = math.inf if time_budget is None else time.monotonic() + time_budget
    # depth-first search on an explicit stack of [node, next color to try] frames
    frames = []
    while len(frames) < n:
        if time.monotonic() > deadline:
            raise OracleTimeout(f"exceeded {time_budget}s searching for a {k}-coloring")
        key = np.where(colors < 0, saturation * (n + 1) + degree, -1)
        frames.append([int(np.argmax(key)), 0])
        while frames:
            v, c = frames[-1]
            nbrs = adj[v]
            if colors[v] >= 0:  # undo the color tried last
                seen[nbrs, c - 1] -= 1
                saturation[nbrs] -= seen[nbrs, c - 1] == 0
                colors[v] = -1
            # symmetry breaking: at most one brand-new color is worth trying
            limit = min(colors.max() + 2, width)
            while c < limit and seen[v, c]:
                c += 1
            if c < limit:
                frames[-1][1], colors[v] = c + 1, c
                seen[nbrs, c] += 1
                saturation[nbrs] += seen[nbrs, c] == 1
                break
            frames.pop()
        else:
            return None
    return colors.tolist()


def constructive_kings_coloring(side: int) -> list[int]:
    """Proper 4-coloring of the King's graph: color = 2*(row % 2) + (col % 2)."""
    count("side", side, 1)
    return [2 * (r % 2) + (c % 2) for r in range(side) for c in range(side)]


def _bit_table(width: int) -> np.ndarray:
    """Row r holds the width low bits of r as 0.0/1.0."""
    return ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1).astype(np.float64)


def _score_blocks(graph: Graph):
    """Yield (first mask, product scores of the next 2^16 masks), each block
    in the buffer that the next one overwrites.

    Mask bit b puts node b+1 on side 1; node 0 stays on side 0. The free
    nodes split into a low half (mask bits below `lo`) and a high half.
    With x the 0/1 labels the cut is sum_e w_e (x_i + x_j - 2 x_i x_j), so
    with A and B the bit tables of the halves and Q the weights between
    them, the masks of high-half rows h.. score as
    b_part[:, None] + a_part[None, :] - (B Q) @ A.T. That is one matrix
    product, left[h:] @ right, with left = [-(B Q), 1, b_part] and
    right = [A.T; a_part; 1]. Row r, column c is mask first + r * 2^lo + c,
    so in the flattened block a score's index is its offset from first.
    """
    free = graph.n - 1
    lo = free // 2
    a_bits, b_bits = _bit_table(lo), _bit_table(free - lo)
    # node v >= 1 has mask bit v - 1; node 0 contributes no term
    si, sj, w = graph.ei - 1, graph.ej - 1, graph.w
    inner = si >= 0
    linear = np.zeros(free)
    np.add.at(linear, si[inner], w[inner])
    np.add.at(linear, sj, w)
    quad = np.zeros((free, free))
    quad[si[inner], sj[inner]] = 2.0 * w[inner]
    a_part = a_bits @ linear[:lo] - ((a_bits @ quad[:lo, :lo]) * a_bits).sum(axis=1)
    b_part = b_bits @ linear[lo:] - ((b_bits @ quad[lo:, lo:]) * b_bits).sum(axis=1)
    left = np.column_stack([-(b_bits @ quad[:lo, lo:].T), np.ones(len(b_bits)), b_part])
    right = np.vstack([a_bits.T, a_part, np.ones(len(a_bits))])
    rows = min(max(1, (1 << 16) >> lo), len(b_bits))  # both powers of 2: whole blocks
    # one buffer for every block: a new array of 2^16 scores per block costs
    # a page fault per 4 KiB, and K24's blocks took 29 ms that way against
    # 9 ms (2-core AVX-512 Xeon VM)
    scores = np.empty((rows, len(a_bits)))
    for h in range(0, len(b_bits), rows):
        yield h << lo, np.matmul(left[h:h + rows], right, out=scores).reshape(-1)


def _gamma(terms: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for float64, u = 2^-53."""
    ku = terms * 2.0**-53
    return ku / (1.0 - ku)


def brute_force_maxcut(graph: Graph) -> tuple[float, np.ndarray]:
    """Exhaustive weighted max-cut for n <= BRUTE_FORCE_MAX_NODES (24).

    Fixes node 0 on side 0: node v is bit v of 2 * mask, and 2^(n-1)
    masks cover every cut. Returns (best cut weight, the 0/1 labels of the
    smallest mask that reaches it): the largest Graph.cut_sums of any mask,
    so cut_value(graph, labels) equals it bit for bit, and every value
    returned for a nonempty graph is one of those sums.

    Every block of 2^16 masks is scored by one matrix product
    (_score_blocks). A score p is the floating-point sum, in some order, of
    the terms w_e x_i, w_e x_j and -2 w_e x_i x_j of the cut, each exact.
    One rule reads every block: skip it if its top score plus half the
    margin does not beat the best sum so far, else re-sum by Graph.cut_sums
    every mask whose score is within the margin of the top. With S the sum
    of |w_e|, the weights set only the margin:

    - 0.0 for integer weights with 4 S < 2^53: every partial sum is an
      integer below 2^53, so p is exact in any order. Every top mask of a
      block then has the same exact cut, so only the first is re-summed.
    - Higham's bound for other finite weights: a sum of L terms in any
      order has |fl(sum x) - sum x| <= gamma_(L-1) sum |x|, with
      gamma_k = k u / (1 - k u). A score sums at most n^2 + 2E exact terms,
      counting every product with a zero bit: lo*hi in B Q, lo^2 + hi^2 in
      the in-half quadratic parts, and in the linear parts one 0.0 start
      per free node and one weight per edge endpoint. Their absolute values
      add up to at most 4 S, so |p - v| <= eps_g = gamma_(n^2 + 2E) 4 S
      against the exact cut v. The edge-order sum s adds E terms to 0.0
      with absolute sum at most S, so |s - v| <= eps_v = gamma_E S. The
      margin is 2 (eps_g + eps_v) with both gammas at twice their term
      counts, which covers the rounding of S and of the margin; the
      smallest subnormal added to it covers its underflow.
    - inf where 16 S overflows: a score may overflow and the bound says
      nothing, so every mask is re-summed, which is the enumeration.

    This is still the enumeration's answer:

    - a score p and an edge-order sum s of one mask differ by at most
      margin / 2;
    - so the skip test never drops a block that holds a larger sum;
    - the keep test never drops that block's best mask, whose score is at
      least its sum - margin / 2 >= the top mask's sum - margin / 2 >= the
      top score - margin;
    - the first argmax of the re-sums is the smallest mask, and the strict
      > keeps an earlier block's tie;
    - the doubled term counts already cover the one rounding in each of the
      two tests, since rounding is monotone. A NaN score or an inf margin
      fails both tests, so its block is re-summed whole.
    """
    if graph.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes, got {graph.n}")
    if graph.n == 0:
        return 0.0, np.zeros(0, dtype=np.int64)
    # weights near the float limit overflow S and the scores; every mask is
    # then re-summed, and its sum overflows just as the enumeration's does
    with np.errstate(over="ignore", invalid="ignore"):
        w = graph.w
        total = float(np.abs(w).sum())
        margin = math.inf
        if math.isfinite(16.0 * total):
            eps = 4.0 * _gamma(2 * (graph.n**2 + 2 * len(w))) + _gamma(2 * len(w))
            margin = 2.0 * eps * total + 5e-324
        if 4.0 * total < 2.0**53 and np.all(w == np.round(w)):
            margin = 0.0
        best_cut, best_mask = -1.0, 0
        for first, scores in _score_blocks(graph):
            high = float(scores.max())
            if high + margin / 2 <= best_cut:  # no mask here beats the best sum so far
                continue
            keep = np.flatnonzero(~(high - scores > margin))
            if margin == 0.0:  # exact scores: the first top mask is the smallest best
                keep = keep[:1]
            cuts = graph.cut_sums(((first + keep[:, None]) << 1 >> np.arange(graph.n)) & 1)
            k = int(np.argmax(cuts))
            if cuts[k] > best_cut:
                best_cut, best_mask = float(cuts[k]), first + int(keep[k])
    return best_cut, ((best_mask << 1) >> np.arange(graph.n)) & 1


def stripe_cut_value(side: int) -> int:
    """Row-parity cut of the King's graph: all vertical plus both diagonal
    edge families, side*(side-1) + 2*(side-1)^2. Best-known, not proven
    optimal beyond the exhaustively checked small sides."""
    count("side", side, 2)
    return side * (side - 1) + 2 * (side - 1) ** 2


def cut_baseline_kind(graph: Graph) -> str:
    """Which max-cut normalizer cut_baseline uses for this graph.

    "exact" (enumeration up to 24 nodes, or no edges), "best-known" (the
    row-stripe value on King's graphs, not proven optimal) or "upper-bound"
    (the total positive edge weight, so accuracies are conservative).
    """
    if graph.edge_count == 0 or graph.n <= BRUTE_FORCE_MAX_NODES:
        return "exact"
    # looked up on the module at call time, so a replacement of
    # pottsim.graph.kings_side (a tracer's timing wrapper, say) is the one called
    if _graph.kings_side(graph) is not None:
        return "best-known"
    return "upper-bound"


def cut_baseline(graph: Graph) -> tuple[float, str]:
    """Best available max-cut normalizer and its kind (see cut_baseline_kind)."""
    kind = cut_baseline_kind(graph)
    if graph.edge_count == 0:
        return 0.0, kind
    if kind == "exact":
        return brute_force_maxcut(graph)[0], kind
    if kind == "best-known":
        return float(stripe_cut_value(math.isqrt(graph.n))), kind
    # termwise no cut weighs more than all positive edges, summed in the same order
    return float(graph.cut_sums(weights=np.maximum(graph.w, 0.0))), kind
