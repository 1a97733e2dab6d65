"""Command-line front end: instance generation, batch solving, oracle
queries, benchmark sweeps, and statistics export.

Subcommands: gen, solve, oracle, bench, stats. Defaults follow the
5/20/5/5/20/5 stage schedule with 40 iterations. A flat key=value config
file can override defaults; its keys, RunConfig.CONFIG_KEYS, are the fields
of DynamicsParams and StagePlan plus iterations, seed and colors. CLI flags
override the file. POTTSIM_CONFIG names a default config path. Bad input
exits with status 1 and an "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

from .dynamics import DynamicsParams
from .graph import FORMATS, kings_graph, load_graph, save_graph
from .metrics import RunStats, SolveResult, aggregate, coloring_accuracy, cut_accuracy
from .oracle import OracleTimeout, cut_baseline, exact_coloring
from .scheduler import StagePlan, solve_batch
from .seeds import mix_seed
from .validate import count

CONFIG_ENV_VAR = "POTTSIM_CONFIG"

COLOR_CHOICES = (2, 4, 8, 16)  # 2^m colors from m = 1..4 stages

__all__ = ["RunConfig", "run_batch", "main"]


@dataclass
class RunConfig:
    """Everything a batch run needs: physics, schedule, and batch shape."""

    dynamics: DynamicsParams = field(default_factory=DynamicsParams)
    plan: StagePlan = field(default_factory=StagePlan)
    iterations: int = 40
    master_seed: int = 0
    colors: int = 4

    INT_KEYS = ("iterations", "seed", "colors")
    CONFIG_KEYS = tuple(
        f.name for f in fields(DynamicsParams) + fields(StagePlan)
    ) + INT_KEYS

    def __post_init__(self):
        count("iterations", self.iterations, 1)
        count("master_seed", self.master_seed)
        count("colors", self.colors)
        if self.colors not in COLOR_CHOICES:
            raise ValueError(f"colors must be one of {', '.join(map(str, COLOR_CHOICES))}")

    @property
    def stages(self) -> int:
        return int(math.log2(self.colors))

    @classmethod
    def from_sources(cls, config_path: str | None = None, **overrides) -> "RunConfig":
        """Build from defaults <- config file <- explicit overrides."""
        values: dict = {}
        path = config_path or os.environ.get(CONFIG_ENV_VAR)
        if path:
            values.update(_parse_config_file(path))
        values.update({k: v for k, v in overrides.items() if v is not None})

        def given(kind):  # values as parsed or passed, never coerced
            return kind(**{f.name: values[f.name] for f in fields(kind) if f.name in values})

        return cls(
            dynamics=given(DynamicsParams),
            plan=given(StagePlan),
            iterations=values.get("iterations", cls.iterations),
            master_seed=values.get("seed", cls.master_seed),
            colors=values.get("colors", cls.colors),
        )


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in RunConfig.CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = int if key in RunConfig.INT_KEYS else float
            try:
                values[key] = kind(val)
            except ValueError:
                expected = "an integer" if kind is int else "a number"
                raise ValueError(
                    f"{path}:{lineno}: config key {key!r} needs {expected}, got {val!r}"
                ) from None
    return values


def run_batch(graph, config: RunConfig, on_window=None) -> tuple[list[SolveResult], RunStats]:
    """Run config.iterations independent solves; returns (results, RunStats).

    Iteration i uses seed mix_seed(master_seed, i), so results are ordered
    and reproducible however the iterations are batched. on_window is passed
    to solve_batch, which calls it with each window's WindowEvent.
    """
    seeds = [mix_seed(config.master_seed, i) for i in range(config.iterations)]
    results = solve_batch(graph, config.stages, config.dynamics, config.plan, seeds,
                          on_window=on_window)
    return results, aggregate(results, graph)


def _config(args) -> RunConfig:
    """RunConfig from args.config, overridden by every config key args holds."""
    return RunConfig.from_sources(
        args.config, **{k: v for k, v in vars(args).items() if k in RunConfig.CONFIG_KEYS})


def _write_results(outdir: str, results, stats) -> None:
    os.makedirs(outdir, exist_ok=True)
    for i, res in enumerate(results):
        with open(os.path.join(outdir, f"result_{i:04d}.json"), "w") as fh:
            json.dump(res.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    stats.to_json(os.path.join(outdir, "stats.json"))
    stats.to_csv(os.path.join(outdir, "stats.csv"))


def cmd_gen(args) -> int:
    graph = kings_graph(args.kings)
    save_graph(graph, args.output, args.format)
    print(f"wrote {args.output}: {graph.n} nodes, {graph.edge_count} edges")
    return 0


def cmd_solve(args) -> int:
    graph = load_graph(args.graph)
    config = _config(args)
    t0 = time.perf_counter()
    results, stats = run_batch(graph, config)
    elapsed = time.perf_counter() - t0
    if args.output_dir:
        _write_results(args.output_dir, results, stats)
    print(
        f"{graph.n} nodes, {config.colors} colors, {config.iterations} iterations: "
        f"best accuracy {stats.best_accuracy:.4f}, mean {stats.mean_accuracy:.4f}"
    )
    mean_cut = sum(cut for cut, _, _ in stats.per_iteration) / len(stats.per_iteration)
    print(f"mean cut accuracy {mean_cut:.4f} (against the {stats.cut_baseline_note} baseline)")
    print(
        f"stage correlation (pearson): {stats.stage_correlation:.4f}"
        + (" [degenerate]" if stats.correlation_degenerate else "")
    )
    print(f"wall time: {elapsed:.2f}s")
    return 0


def cmd_oracle(args) -> int:
    graph = load_graph(args.graph)
    witness = exact_coloring(graph, args.colors, time_budget=args.time_budget)
    if witness is None:
        print(f"not colorable with {args.colors} colors")
    else:
        print(f"colorable with {args.colors} colors")
        print("coloring:", " ".join(map(str, witness)))
    return 0


def cmd_bench(args) -> int:
    config = _config(args)
    lines = ["size,search_space,iterations,best_accuracy,mean_accuracy,wall_time_s"]
    for side in sorted(args.sides):
        graph = kings_graph(side)
        t0 = time.perf_counter()
        _, stats = run_batch(graph, config)
        elapsed = time.perf_counter() - t0
        lines.append(
            f"{graph.n},{config.colors}^{graph.n},{config.iterations},"
            f"{stats.best_accuracy:.6f},{stats.mean_accuracy:.6f},{elapsed:.3f}"
        )
        print(
            f"side {side} ({graph.n} nodes): best {stats.best_accuracy:.4f}, "
            f"mean {stats.mean_accuracy:.4f}, {elapsed:.1f}s"
        )
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_stats(args) -> int:
    graph = load_graph(args.graph)
    paths = sorted(glob.glob(os.path.join(args.results_dir, "result_*.json")))
    if not paths:
        raise ValueError(f"no result_*.json files in {args.results_dir}")
    baseline = cut_baseline(graph)[0]
    results, mismatches = [], []
    for path in paths:
        with open(path) as fh:
            try:
                result = SolveResult.from_dict(json.load(fh))
                # a result solved on another graph scores differently on this one
                recomputed = {
                    "coloring_accuracy": coloring_accuracy(graph, result.coloring),
                    "cut_accuracy": cut_accuracy(graph, result.partition, baseline),
                }
            except ValueError as exc:  # JSONDecodeError is a ValueError too
                raise ValueError(f"{path}: {exc}") from exc
        wrong = [key for key, value in recomputed.items()
                 if abs(value - getattr(result, key)) > 1e-12]
        if wrong:
            mismatches.append(f"{path}: stored values do not match the graph: {', '.join(wrong)}")
        results.append(result)
    if mismatches:
        raise ValueError("\n".join(mismatches))
    stats = aggregate(results, graph)
    _write_results(args.results_dir, [], stats)  # the result files stay as they are
    print(
        f"{len(results)} results: best accuracy {stats.best_accuracy:.4f}, "
        f"mean {stats.mean_accuracy:.4f}, "
        f"stage correlation {stats.stage_correlation:.4f}"
    )
    return 0


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


def _side_list(value: str) -> list[int]:
    sides = [_positive_int(part) for part in value.split(",") if part]
    if not sides:
        raise argparse.ArgumentTypeError(f"expected at least one side, got {value!r}")
    return sides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pottsim",
        description="Phase-dynamics Potts machine: staged max-cut graph coloring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    batch = argparse.ArgumentParser(add_help=False)  # the flags solve and bench share
    batch.add_argument("--colors", type=int, choices=COLOR_CHOICES)
    batch.add_argument("--iters", type=_positive_int, dest="iterations", metavar="ITERS")
    batch.add_argument("--seed", type=int)
    batch.add_argument("--config", help="key=value config file")

    p_gen = sub.add_parser("gen", help="generate a King's-graph instance")
    p_gen.add_argument("--kings", type=_positive_int, required=True, metavar="SIDE")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument("--format", choices=tuple(FORMATS))
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run a batch of staged solves", parents=[batch])
    p_solve.add_argument("-g", "--graph", required=True)
    for physics in fields(DynamicsParams):
        p_solve.add_argument(f"--{physics.name}", type=float)
    p_solve.add_argument("-o", "--output-dir")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact colorability check")
    p_oracle.add_argument("-g", "--graph", required=True)
    p_oracle.add_argument("--colors", type=_positive_int, required=True)
    p_oracle.add_argument("--time-budget", type=float, default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="King's-graph benchmark sweep", parents=[batch])
    p_bench.add_argument("--sides", type=_side_list, required=True)
    p_bench.add_argument("-o", "--output")
    p_bench.set_defaults(func=cmd_bench)

    p_stats = sub.add_parser("stats", help="re-aggregate saved result files")
    p_stats.add_argument("-g", "--graph", required=True)
    p_stats.add_argument("results_dir")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, OracleTimeout) as exc:
        # ValueError covers GraphFormatError, JSON decode and config errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
