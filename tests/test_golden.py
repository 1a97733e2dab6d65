"""Golden outputs: the integrator's results are pinned bit for bit.

The hashes below were recorded from `pottsim solve --colors 4 --seed 42`
before iterations were batched into one phase array. A kernel change that
alters floating-point rounding changes them; such a change must update the
hashes on purpose and say why.
"""

import hashlib

import pytest

from pottsim.cli import RunConfig, main, run_batch
from pottsim.dynamics import DynamicsParams
from pottsim.graph import Graph, kings_graph, save_graph
from pottsim.scheduler import solve_kcoloring
from pottsim.seeds import mix_seed

GOLDEN = {
    (3, 5): [
        "b548e351e13164b5eebbaccd755af1a1bb8453566421465b30b0182bc43ce769",
        "1cbfabbca71343c4666d41b735ba982f327e9d5cd103efe48512413e39c9ba91",
        "1158894c2209bdac8dd0c4627a3813a18f8812ce455f844b857f18d3ea2ee5e2",
        "8f6624f2a046e89e2c000c3f786682238b1acda4b383f3158a027c9a791fc037",
        "4ce3e899a53788ffa49901331c75289467dfbabe3b3c4b0d4a890eede042accf",
    ],
    (7, 8): [
        "bfc445b27efbecad9ceeb5d1e167195587e66ed25047c78581f9159333a4ecaa",
        "0f25c3015dd9e659b468b2a2b9094ecc9c58381c93510a501421b3ff16b5181a",
        "1a9d631e66ed16b9a7063aed032a8272d8f9d6391ee21c9654e6df7ea2b8a4ad",
        "9a0da1f3b2f9a5b6c5c04f01426e1a092bc1e0881ac1a61bc6b16d038e7092b4",
        "27bc16014bf7494f6ab4f9e324c05057ef0e01c4c2846b7932389b6a8aff5125",
        "6c54cad3f86991cbdba31fabb00e115a67ae48084efd744573c647e0e06266ac",
        "2eecf45824f16b76085af25580470121ec7bb9d87d3d06fbe20c42d62467813d",
        "3c5dc812fbbb6001e4c170216064124c4e373aeba10d87f4153ac8ebd1d70287",
    ],
}


@pytest.mark.parametrize("side,iters", sorted(GOLDEN))
def test_result_files_match_golden_hashes(side, iters, tmp_path):
    graph_path = tmp_path / "g.col"
    save_graph(kings_graph(side), str(graph_path))
    outdir = tmp_path / "out"
    rc = main([
        "solve", "-g", str(graph_path), "--colors", "4", "--iters", str(iters),
        "--seed", "42", "-o", str(outdir),
    ])
    assert rc == 0
    hashes = [
        hashlib.sha256((outdir / f"result_{i:04d}.json").read_bytes()).hexdigest()
        for i in range(iters)
    ]
    assert hashes == GOLDEN[(side, iters)]


WEIGHTED = Graph(30, [
    (i, (i * 7 + k) % 30, 0.5 + 0.1 * k)
    for i in range(30) for k in (1, 3, 8)
    if i != (i * 7 + k) % 30 and i < (i * 7 + k) % 30
])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("graph", [kings_graph(4), WEIGHTED, Graph(5, [])],
                         ids=["kings4", "weighted", "edgeless"])
def test_run_batch_equals_per_seed_solves(graph, m):
    config = RunConfig(iterations=3, master_seed=11, colors=2**m)
    results, _ = run_batch(graph, config)
    assert len(results) == config.iterations
    for i, res in enumerate(results):
        single = solve_kcoloring(graph, m, config.dynamics, config.plan,
                                 seed=mix_seed(config.master_seed, i))
        assert res.to_dict() == single.to_dict()
        if graph.edge_count == 0:
            assert res.cut_accuracy == 1.0


def test_weighted_graph_passes_the_weighted_stability_guard():
    # the guard counts sum_j |w_ij|: at most 6 edges of weight at most 1.3 here
    assert WEIGHTED.max_weighted_degree() <= 6 * 1.3
    DynamicsParams().check_stability(WEIGHTED)
