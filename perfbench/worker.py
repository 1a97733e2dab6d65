"""Measure one workload in this process and write the figures as JSON.

Started by run.py in a fresh single-threaded interpreter, with the spec that
run.py wrote. A round runs the workload's operations once: one run_batch per
graph and, on graphs marked for it, one exact_coloring query. Rounds repeat
until the next one would end after --seconds (at least one round; in traced
mode at least one untraced and one traced round, alternating). Every round
must give the same colorings as the first, traced or not.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_pottsim() -> None:
    """Import pottsim from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import pottsim

    if Path(pottsim.__file__).resolve().parent != SRC / "pottsim":
        raise SystemExit(f"imported pottsim from {pottsim.__file__}, not from {SRC}")


def steps_per_solve(config) -> int:
    """Euler-Maruyama steps of one 4-coloring solve, by evolve's ceil rule."""
    p = config.plan
    windows = [p.t_init, p.t_anneal1, p.t_lock1, p.t_relax, p.t_anneal2, p.t_lock2]
    return sum(math.ceil(t / config.dynamics.dt - 1e-12) for t in windows)


def run_round(graphs, spec, config, run_batch, exact_coloring, call=None, log_errors=True):
    """Run every graph's operations once: one run_batch each and, where the
    spec asks, one exact_coloring query. Returns (seconds, outputs, failed),
    where failed counts the operations that raised."""
    call = call or (lambda _name, fn, *a: fn(*a))
    outputs, failed = [], 0
    t0 = time.perf_counter()
    for graph, g in zip(graphs, spec["graphs"]):
        out = checks.GraphOutput(oracle_asked=bool(g["oracle"]))
        try:
            out.results, out.stats = call("cli.run_batch", run_batch, graph, config)
        except Exception:
            if log_errors:
                traceback.print_exc()
            failed += config.iterations
        if out.oracle_asked:
            try:
                out.witness = call("oracle.exact_coloring", exact_coloring, graph, spec["colors"])
            except Exception:
                if log_errors:
                    traceback.print_exc()
                out.oracle_raised = True
                failed += 1
        outputs.append(out)
    return time.perf_counter() - t0, outputs, failed


def accuracy_metrics(outputs, iterations: int) -> dict:
    """The three accuracies over every attempted solve; a solve that raised
    scores 0, so failing cannot raise a mean."""
    coloring, cut, best = [], [], []
    for out in outputs:
        results = out.results
        if results is None:
            coloring += [0.0] * iterations
            cut += [0.0] * iterations
            best.append(0.0)
        else:
            coloring += [r.coloring_accuracy for r in results]
            cut += [r.cut_accuracy for r in results]
            best.append(max((r.coloring_accuracy for r in results), default=0.0))

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    return {"mean_coloring_accuracy": (mean(coloring), "frac"),
            "best_coloring_accuracy": (mean(best), "frac"),
            "mean_cut_accuracy": (mean(cut), "ratio")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="where to write the result JSON")
    ap.add_argument("--trace-file", help="where to write the spans (traced mode)")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())

    import_pottsim()
    from pottsim import cli
    from pottsim.graph import load_graph
    from pottsim.oracle import exact_coloring

    from hostspeed import SpeedSampler, make_kernel
    from tracing import Tracer

    colors = spec["colors"]
    refs = [checks.GraphRef.from_spec(g) for g in spec["graphs"]]
    graphs = [load_graph(g["path"]) for g in spec["graphs"]]
    for graph, ref in zip(graphs, refs):
        checks.check_graph(graph, ref)
    # as `pottsim solve --colors 4 --iters N --seed S` builds it
    config = cli.RunConfig.from_sources(
        None, iterations=spec["iterations"], seed=spec["seed"], colors=colors)
    ops_per_round = sum(config.iterations + g["oracle"] for g in spec["graphs"])
    last = spec["graphs"][-1]
    kernel = make_kernel(last["n"], last["edges"], **spec["kernel"])
    failed = 0

    def timed_round(call):
        nonlocal failed
        secs, outputs, round_failed = run_round(
            graphs, spec, config, cli.run_batch, exact_coloring, call, log_errors=not rounds)
        failed += round_failed
        return secs, outputs

    tracer = Tracer() if args.trace else None
    reference_s = spec["kernel_reference_s"]
    rounds = []  # (traced, seconds, outputs, SpeedSampler)
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            try:
                with SpeedSampler(tracer.sampled(kernel), reference_s) as speed:
                    secs, outputs = timed_round(tracer.call)
            finally:
                tracer.uninstall()
        else:
            with SpeedSampler(kernel, reference_s) as speed:
                secs, outputs = timed_round(None)
        rounds.append((traced, secs, outputs, speed))
        want_more = bool(tracer) and len(rounds) < 2
        if not want_more and time.perf_counter() - start + secs > args.seconds:
            break

    correct = True
    try:
        first = rounds[0][2]
        checks.check_outputs(first, refs, colors, config.iterations, spec["require_proper"])
        prints = [checks.fingerprint(out) for out in first]
        for traced, _, outputs, _ in rounds[1:]:
            checks.check_identical(prints, [checks.fingerprint(out) for out in outputs],
                                   "a traced round" if traced else "a repeated round")
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    at_reference = {}  # traced -> round times at the reference speed
    for i, (traced, secs, _, speed) in enumerate(rounds):
        ref_s = speed.at_reference(secs - speed.spent)
        at_reference.setdefault(traced, []).append(ref_s)
        print(f"round {i}: {'traced' if traced else 'untraced'} {secs:.3f} s, kernel"
              f" {speed.kernel_s * 1e3:.2f} ms, {ref_s:.3f} s at reference speed",
              file=sys.stderr)
    batch_s = statistics.median(at_reference[False])
    solves = [r for out in first if out.results for r in out.results]
    if tracer:
        # one scale for all traced rounds, from all their samples (see SpeedSampler.kernel_s)
        samples = [k for traced, _, _, speed in rounds if traced for k in speed.samples]
        metrics = tracer.layer_metrics(len(at_reference[True]),
                                       scale=reference_s / statistics.harmonic_mean(samples))
        metrics["trace.overhead_s"] = {
            "value": statistics.median(at_reference[True]) - batch_s, "unit": "s"}
        metrics["host.kernel_ms"] = {"value": statistics.median(
            speed.kernel_s for traced, _, _, speed in rounds if not traced) * 1e3, "unit": "ms"}
        stages = 2 * len(solves)
        unlocked = sum(len(r.unlocked_stages) for r in solves)
        metrics["scheduler.locked_stage_frac"] = {
            "value": (stages - unlocked) / stages if stages else 0.0, "unit": "frac"}
        if args.trace_file:
            tracer.save(args.trace_file)
        for name in tracer.not_observed:
            print(f"layer not observed: {name} is missing from pottsim", file=sys.stderr)
    else:
        node_steps = steps_per_solve(config) * config.iterations * sum(g.n for g in graphs)
        metrics = {
            "batch_s": (batch_s, "s"),
            "node_steps_per_s": (node_steps / batch_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            **accuracy_metrics(first, config.iterations),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    doc = {"correct": correct, "attempted": ops_per_round * len(rounds),
           "failed": failed, "metrics": metrics}
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
