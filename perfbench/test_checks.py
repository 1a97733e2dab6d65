"""Self-test of the benchmark's checks: each one accepts a correct output and
rejects a corrupted one. Runs in about a second, without pottsim.

    python3 -m pytest perfbench/test_checks.py -q
"""

import itertools
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, GraphRef  # noqa: E402

SIDE = 3


def kings_ref(baseline=None, exact=False):
    edges = workloads.kings_edges(SIDE)
    if baseline is None:
        baseline = workloads.kings_stripe_cut(SIDE)
    return GraphRef(SIDE * SIDE, edges, baseline, exact)


def solve(coloring, partition=None, ref=None, unlocked=(), **override):
    """A result whose accuracies are computed correctly unless overridden."""
    ref = ref or kings_ref()
    coloring = np.array(coloring)
    partition = coloring % 2 if partition is None else np.array(partition)
    fields = {
        "coloring": coloring,
        "partition": partition,
        "coloring_accuracy": np.count_nonzero(ref.differ(coloring)) / len(ref.ei),
        "cut_accuracy": np.count_nonzero(ref.differ(partition)) / ref.baseline_cut,
        "unlocked_stages": list(unlocked),
    }
    fields.update(override)
    return types.SimpleNamespace(**fields)


def proper():
    return np.array([2 * (r % 2) + (c % 2) for r in range(SIDE) for c in range(SIDE)])


def row_parity():
    return np.array([r % 2 for r in range(SIDE) for c in range(SIDE)])


def test_correct_outputs_pass():
    ref = kings_ref()
    good = solve(proper())
    assert good.coloring_accuracy == 1.0 and good.cut_accuracy == 1.0
    checks.check_solve(good, ref, 4)
    checks.check_some_proper([good], ref)
    checks.check_witness(list(proper()), ref, 4)
    stats = types.SimpleNamespace(per_iteration=[()], best_accuracy=1.0, mean_accuracy=1.0)
    checks.check_stats(stats, [good])
    # stage 2 unlocked: the parity rule does not apply
    checks.check_solve(solve(proper(), row_parity(), unlocked=[2]), ref, 4)


def test_recolored_endpoint_rejected():
    bad = proper()
    bad[0] = bad[1]
    with pytest.raises(CheckError, match="coloring_accuracy"):
        checks.check_solve(solve(bad, proper() % 2, coloring_accuracy=1.0), kings_ref(), 4)


def test_flipped_partition_bit_rejected():
    part = proper() % 2
    part[4] ^= 1
    with pytest.raises(CheckError, match="cut_accuracy"):
        checks.check_solve(solve(proper(), part, cut_accuracy=1.0), kings_ref(), 4)


@pytest.mark.parametrize("field", ["coloring_accuracy", "cut_accuracy"])
def test_wrong_accuracy_rejected(field):
    with pytest.raises(CheckError, match=field):
        checks.check_solve(solve(proper(), **{field: 0.5}), kings_ref(), 4)


@pytest.mark.parametrize("coloring", [
    [0, 1, 0, 1, 2, 3, 2, 3, 4],     # color out of range
    [0, 1, 0, 2, 3, 2, 0, 1],        # one entry short
    [0.0, 1, 0, 2, 3, 2, 0, 1, 0],   # not integers
])
def test_bad_coloring_labels_rejected(coloring):
    result = solve(proper())
    result.coloring = np.array(coloring)
    with pytest.raises(CheckError, match="coloring"):
        checks.check_solve(result, kings_ref(), 4)


def test_bad_partition_labels_rejected():
    part = proper() % 2
    part[0] = 2
    with pytest.raises(CheckError, match="partition"):
        checks.check_solve(solve(proper(), partition=part), kings_ref(), 4)


def test_parity_rule_rejected_when_all_locked():
    # row parity cuts as many edges as column parity, so only the rule fails
    with pytest.raises(CheckError, match="coloring % 2"):
        checks.check_solve(solve(proper(), row_parity()), kings_ref(), 4)


def test_cut_above_exact_maxcut_rejected():
    ref = kings_ref(baseline=13, exact=True)
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_solve(solve(proper(), ref=ref), ref, 4)


@pytest.mark.parametrize("witness", [None, [0] * SIDE * SIDE, list(proper())[:-1],
                                     [c + 1 for c in proper()]])
def test_bad_witness_rejected(witness):
    with pytest.raises(CheckError):
        checks.check_witness(witness, kings_ref(), 4)


def test_batch_without_proper_coloring_rejected():
    bad = proper()
    bad[0] = bad[1]
    with pytest.raises(CheckError, match="proper"):
        checks.check_some_proper([solve(bad)], kings_ref())


def test_wrong_stats_rejected():
    stats = types.SimpleNamespace(per_iteration=[(), ()], best_accuracy=1.0, mean_accuracy=1.0)
    half = proper()
    half[0] = half[1]
    with pytest.raises(CheckError, match="mean"):
        checks.check_stats(stats, [solve(proper()), solve(half)])


def test_changed_coloring_between_rounds_rejected():
    def out(coloring):
        return checks.GraphOutput(results=[solve(coloring)])

    first = [checks.fingerprint(out(proper()))]
    other = proper()
    other[[0, 3]] = other[[3, 0]]
    checks.check_identical(first, [checks.fingerprint(out(proper()))], "x")
    with pytest.raises(CheckError):
        checks.check_identical(first, [checks.fingerprint(out(other))], "x")


# a one-graph workload of SIDE x SIDE, two iterations, with an oracle query
SPEC = {"graphs": [{"oracle": 1}], "colors": 4}
CONFIG = types.SimpleNamespace(iterations=2)


def good_batch(_graph, config):
    results = [solve(proper()) for _ in range(config.iterations)]
    return results, types.SimpleNamespace(
        per_iteration=[()] * len(results), best_accuracy=1.0, mean_accuracy=1.0)


def check_round(run_batch, exact_coloring):
    secs, outputs, failed = worker.run_round([None], SPEC, CONFIG, run_batch, exact_coloring,
                                             log_errors=False)
    checks.check_outputs(outputs, [kings_ref()], 4, CONFIG.iterations, require_proper=True)
    return outputs, failed


def test_round_of_correct_outputs_passes():
    outputs, failed = check_round(good_batch, lambda _g, _k: list(proper()))
    assert failed == 0
    assert worker.accuracy_metrics(outputs, 2)["mean_coloring_accuracy"] == (1.0, "frac")


def test_oracle_answering_none_rejected():
    # the oracle returned (it did not raise), so its None is checked and fails
    with pytest.raises(CheckError, match="no 4-coloring"):
        check_round(good_batch, lambda _g, _k: None)


def test_short_batch_rejected():
    def short(graph, config):
        results, stats = good_batch(graph, config)
        return results[:1], stats
    with pytest.raises(CheckError, match="1 solves, not 2"):
        check_round(short, lambda _g, _k: list(proper()))


def test_round_where_every_operation_raises():
    def boom(*_):
        raise RuntimeError("boom")

    outputs, failed = check_round(boom, boom)  # nothing returned, nothing to check
    assert failed == CONFIG.iterations + 1
    assert outputs[0].oracle_raised and outputs[0].results is None
    # failed solves score 0: failing cannot raise an accuracy mean
    assert worker.accuracy_metrics(outputs, 2) == {
        "mean_coloring_accuracy": (0.0, "frac"), "best_coloring_accuracy": (0.0, "frac"),
        "mean_cut_accuracy": (0.0, "ratio")}
    # a raising oracle fingerprints apart from one answering None
    none = checks.GraphOutput(results=None, oracle_asked=True, witness=None)
    assert checks.fingerprint(outputs[0]) != checks.fingerprint(none)


def test_wrong_loaded_graph_rejected():
    ref = kings_ref()
    graph = types.SimpleNamespace(n=ref.n, ei=ref.ei, ej=ref.ej, w=np.ones(len(ref.ei)))
    checks.check_graph(graph, ref)
    graph.ej = np.roll(ref.ej, 1)
    with pytest.raises(CheckError):
        checks.check_graph(graph, ref)


def test_exhaustive_maxcut_matches_enumeration():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        edges = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        best = max(sum(lab[i] != lab[j] for i, j in edges)
                   for lab in itertools.product((0, 1), repeat=n))
        assert workloads.exhaustive_maxcut(n, edges) == best
    for side in (2, 3, 4):
        edges = workloads.kings_edges(side)
        assert workloads.exhaustive_maxcut(side * side, edges) == workloads.kings_stripe_cut(side)


def test_planar_graphs_are_seeded_and_sized():
    a = workloads.planar_edges(16, np.random.default_rng(5))
    assert a == workloads.planar_edges(16, np.random.default_rng(5))
    assert len(a) == 3 * 16 - 7 and all(0 <= i < j < 16 for i, j in a)


def test_tracer_spans_self_time_and_missing_layer(monkeypatch):
    for mod in {m for m, _, _ in tracing.WRAPPED}:
        monkeypatch.setitem(sys.modules, mod, types.ModuleType(mod))
    leaf = sys.modules["pottsim.dynamics"].wrap_phases = lambda x: x
    t = tracing.Tracer()
    t.install()
    wrapped = sys.modules["pottsim.dynamics"].wrap_phases
    assert wrapped is not leaf
    t.call("cli.run_batch", lambda: [wrapped(1) for _ in range(3)])
    t.uninstall()
    assert sys.modules["pottsim.dynamics"].wrap_phases is leaf
    assert "scheduler.solve_kcoloring" in t.not_observed
    names, dur, self_time = t.arrays()
    assert list(names) == ["cli.run_batch"] + ["dynamics.wrap_phases"] * 3
    assert self_time[0] == pytest.approx(dur[0] - dur[1:].sum())
    metrics = t.layer_metrics(rounds=1)
    assert metrics["dynamics.wrap_phases.calls"]["value"] == 3
    assert metrics["scheduler.solve_kcoloring.calls"]["value"] == 0


def test_window_kind_counts_work():
    ns = types.SimpleNamespace
    graph, params = ns(n=10), ns(dt=0.01)
    off = ns(enabled=np.zeros(10, bool))
    gate = ns(active=np.array([True, False, True]))
    assert tracing.window_kind((None, 5.0, graph, ns(active=np.zeros(3, bool)), off, params),
                               {}) == ("free", 5000, 0)
    assert tracing.window_kind((None, 20.0, graph, gate, off, params), {}) == \
        ("anneal", 20000, 4000)
    on = ns(enabled=np.ones(10, bool))
    assert tracing.window_kind((None, 5.0, graph, gate, on, params), {})[0] == "lock"
