import json
import os
import re

import numpy as np
import pytest

from pottsim.cli import RunConfig, main
from pottsim.graph import FORMATS, Graph, kings_graph, load_graph, save_graph
from pottsim.oracle import cut_baseline
from pottsim.seeds import mix_seed


@pytest.fixture()
def k4_path(tmp_path):
    path = tmp_path / "k4.json"
    save_graph(kings_graph(2), path)
    return str(path)


class TestGen:
    def test_kings7_col(self, tmp_path, capsys):
        out = tmp_path / "g.col"
        assert main(["gen", "--kings", "7", "-o", str(out)]) == 0
        g = load_graph(out)
        assert g.n == 49
        assert g.edge_count == 156
        assert "49 nodes, 156 edges" in capsys.readouterr().out

    def test_kings1_json(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["gen", "--kings", "1", "-o", str(out)]) == 0
        g = load_graph(out)
        assert g.n == 1
        assert g.edge_count == 0

    @pytest.mark.parametrize("fmt", list(FORMATS))
    def test_format_flag_writes_that_format(self, fmt, tmp_path):
        out = tmp_path / "g.out"
        assert main(["gen", "--kings", "3", "-o", str(out), "--format", fmt]) == 0
        assert load_graph(out, fmt) == kings_graph(3)

    def test_format_choices_are_the_format_table(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--kings", "3", "-o", str(tmp_path / "g.col"), "--format", "csv"])
        assert f"(choose from {', '.join(map(repr, FORMATS))})" in capsys.readouterr().err

    def test_side_zero_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kings", "0", "-o", str(tmp_path / "g.json")])
        assert exc.value.code != 0

    def test_unwritable_output(self, tmp_path):
        rc = main(["gen", "--kings", "2", "-o", str(tmp_path / "no" / "g.json")])
        assert rc != 0


class TestSolve:
    def test_k4_batch(self, k4_path, tmp_path, capsys):
        outdir = tmp_path / "results"
        rc = main([
            "solve", "-g", k4_path, "--colors", "4", "--iters", "20",
            "--seed", "1", "-o", str(outdir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best accuracy 1.0000" in out
        files = sorted(os.listdir(outdir))
        assert "stats.json" in files and "stats.csv" in files
        assert sum(f.startswith("result_") for f in files) == 20
        doc = json.loads((outdir / "stats.json").read_text())
        assert doc["best_accuracy"] == 1.0

    def test_result_files_reparse(self, k4_path, tmp_path):
        outdir = tmp_path / "r"
        main(["solve", "-g", k4_path, "--iters", "2", "--seed", "3", "-o", str(outdir)])
        doc = json.loads((outdir / "result_0000.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["seed"] == mix_seed(3, 0)
        assert len(doc["coloring"]) == 4
        assert len(doc["partition"]) == 4
        assert "wall_time" not in doc

    def test_byte_identical_reruns(self, k4_path, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            main(["solve", "-g", k4_path, "--iters", "3", "--seed", "7", "-o", str(d)])
        for name in os.listdir(dirs[0]):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_missing_graph(self, capsys):
        assert main(["solve", "-g", "missing.json"]) != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("side,kind", [(7, "best-known"), (4, "exact")])
    def test_prints_mean_cut_accuracy_with_its_baseline(self, side, kind, tmp_path, capsys):
        path, outdir = str(tmp_path / "g.col"), tmp_path / "r"
        save_graph(kings_graph(side), path)
        capsys.readouterr()
        assert main(["solve", "-g", path, "--iters", "3", "--seed", "2", "-o", str(outdir)]) == 0
        cuts = [row["cut_accuracy"]
                for row in json.loads((outdir / "stats.json").read_text())["per_iteration"]]
        want = f"mean cut accuracy {sum(cuts) / len(cuts):.4f} (against the {kind} baseline)"
        assert want in capsys.readouterr().out.splitlines()

    def test_maxcut_mode(self, k4_path, capsys):
        rc = main(["solve", "-g", k4_path, "--colors", "2", "--iters", "5", "--seed", "2"])
        assert rc == 0


class TestOracle:
    def test_kings7_colorable(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        save_graph(kings_graph(7), path)
        assert main(["oracle", "-g", str(path), "--colors", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("colorable")
        witness = [int(x) for x in out.splitlines()[1].split()[1:]]
        assert len(witness) == 49

    def test_k5_not_colorable(self, tmp_path, capsys):
        from pottsim.graph import Graph

        path = tmp_path / "k5.json"
        save_graph(Graph(5, [(i, j, 1.0) for i in range(5) for j in range(i + 1, 5)]), path)
        assert main(["oracle", "-g", str(path), "--colors", "4"]) == 0
        assert "not colorable" in capsys.readouterr().out

    def test_k4_one_color(self, k4_path, capsys):
        assert main(["oracle", "-g", k4_path, "--colors", "1"]) == 0
        assert "not colorable" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_bad_time_budget_is_an_error(self, k4_path, capsys, budget):
        assert main(["oracle", "-g", k4_path, "--colors", "4", "--time-budget", budget]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: time_budget")


class TestBench:
    def test_single_side(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--sides", "7", "--iters", "4", "--seed", "1", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("size,search_space")
        assert lines[1].startswith("49,4^49,4,")

    def test_small_best_accuracy(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--sides", "2", "--iters", "5", "--seed", "0", "-o", str(out)])
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[3]) == 1.0

    def test_sides_sorted(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--sides", "3,2", "--iters", "2", "--seed", "0", "-o", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[1].startswith("4,")
        assert lines[2].startswith("9,")

    def test_csv_goes_to_stdout_without_output(self, capsys):
        assert main(["bench", "--sides", "2", "--iters", "2", "--seed", "0"]) == 0
        printed = capsys.readouterr().out.splitlines()
        # the progress line, then the CSV that -o would write
        assert printed[0].startswith("side 2 (4 nodes): best ")
        assert printed[1] == "size,search_space,iterations,best_accuracy,mean_accuracy,wall_time_s"
        assert printed[2].startswith("4,4^4,2,") and len(printed) == 3

    @pytest.mark.parametrize("sides", ["", ",,"])
    def test_no_side_is_a_usage_error(self, sides, capsys):
        # used to print the CSV header alone and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sides", sides, "--iters", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected at least one side, got {sides!r}" in captured.err


@pytest.mark.parametrize("command,options", [
    ("solve", "-h --help --colors --iters --seed --config -g --graph --coupling --locking "
              "--noise --dt -o --output-dir"),
    ("bench", "-h --help --colors --iters --seed --config --sides -o --output"),
])
def test_help_lists_the_options(command, options, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = capsys.readouterr().out.split("options:")[1]
    assert set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", listed)) == set(options.split())
    assert "{2,4,8,16}" in listed


class TestStats:
    def test_reaggregate(self, k4_path, tmp_path, capsys):
        outdir = tmp_path / "r"
        main(["solve", "-g", k4_path, "--iters", "4", "--seed", "5", "-o", str(outdir)])
        original = (outdir / "stats.json").read_text()
        (outdir / "stats.json").unlink()
        rc = main(["stats", "-g", k4_path, str(outdir)])
        assert rc == 0
        assert (outdir / "stats.json").read_text() == original

    @pytest.mark.parametrize("side,kind", [(2, "exact"), (5, "best-known")])
    def test_baseline_kind_in_stats(self, side, kind, tmp_path):
        path = str(tmp_path / "g.col")
        save_graph(kings_graph(side), path)
        outdir = tmp_path / "r"
        main(["solve", "-g", path, "--iters", "2", "--seed", "1", "-o", str(outdir)])
        doc = json.loads((outdir / "stats.json").read_text())
        assert doc["cut_baseline_note"] == kind
        main(["stats", "-g", path, str(outdir)])
        doc = json.loads((outdir / "stats.json").read_text())
        assert doc["cut_baseline_note"] == kind

    @pytest.mark.parametrize("graph,rc", [
        (kings_graph(3), 0),
        (Graph(9, [(i, i + 1, 1.0) for i in range(8)]), 1),
    ], ids=["same-graph", "path-of-same-size"])
    def test_results_checked_against_graph(self, graph, rc, tmp_path, capsys):
        solved_on = str(tmp_path / "k3.json")
        save_graph(kings_graph(3), solved_on)
        outdir = tmp_path / "r"
        # seed 3: result 0 is proper on both graphs, result 1 scores 0.9 on
        # kings(3) and 0.75 on the path
        assert main(["solve", "-g", solved_on, "--iters", "3", "--seed", "3",
                     "-o", str(outdir)]) == 0
        path = str(tmp_path / "g.json")
        save_graph(graph, path)
        capsys.readouterr()
        assert main(["stats", "-g", path, str(outdir)]) == rc
        if rc:
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "result_0001.json" in err

    @pytest.mark.parametrize("n,kind", [(18, "exact"), (40, "upper-bound")])
    def test_real_weight_results_from_the_pairwise_sum(self, n, kind, tmp_path):
        # result files written while cut_value and the upper bound summed
        # with np.sum's pairwise tree still pass the 1e-12 check
        rng = np.random.default_rng(n)
        graph = Graph(n, [(i, j, float(rng.uniform(-0.5, 1.0)))
                          for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3])
        path = str(tmp_path / "g.json")
        save_graph(graph, path)
        outdir = tmp_path / "r"
        assert main(["solve", "-g", path, "--iters", "3", "--seed", "2", "-o", str(outdir)]) == 0
        baseline, got_kind = cut_baseline(graph)
        assert got_kind == kind
        if kind == "upper-bound":
            baseline = float(np.maximum(graph.w, 0.0).sum())
        moved = 0
        for result in sorted(outdir.glob("result_*.json")):
            doc = json.loads(result.read_text())
            part = np.array(doc["partition"])
            legacy = float(np.sum(graph.w[part[graph.ei] != part[graph.ej]])) / baseline
            moved += legacy != doc["cut_accuracy"]
            doc["cut_accuracy"] = legacy
            result.write_text(json.dumps(doc))
        assert moved  # the last bits differ, within the tolerance
        assert main(["stats", "-g", path, str(outdir)]) == 0

    def test_empty_dir(self, k4_path, tmp_path):
        assert main(["stats", "-g", k4_path, str(tmp_path)]) != 0


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.iterations == 40
        assert config.colors == 4
        assert config.stages == 2
        assert config.plan.t_anneal1 == 20.0

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# physics\ncoupling = 2.0\nnoise = 0.1\niterations = 10\ncolors = 8\n"
        )
        config = RunConfig.from_sources(str(path), iterations=5)
        assert config.dynamics.coupling == 2.0
        assert config.dynamics.noise == 0.1
        assert config.iterations == 5  # flag wins over file
        assert config.colors == 8
        assert config.stages == 3

    def test_env_var_default_path(self, tmp_path, monkeypatch):
        path = tmp_path / "env.cfg"
        path.write_text("seed = 99\n")
        monkeypatch.setenv("POTTSIM_CONFIG", str(path))
        assert RunConfig.from_sources().master_seed == 99

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError):
            RunConfig.from_sources(str(path))

    def test_invalid_colors(self):
        with pytest.raises(ValueError):
            RunConfig(colors=3)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            RunConfig(iterations=0)

    @pytest.mark.parametrize("field,value,message", [
        ("iterations", 2.5, "iterations must be an integer >= 1 (not bool), got 2.5"),
        ("iterations", True, "iterations must be an integer >= 1 (not bool), got True"),
        ("iterations", "3", "iterations must be an integer >= 1 (not bool), got '3'"),
        ("master_seed", 1.5, "master_seed must be an integer (not bool), got 1.5"),
        ("master_seed", True, "master_seed must be an integer (not bool), got True"),
        ("colors", 4.0, "colors must be an integer (not bool), got 4.0"),
        ("colors", True, "colors must be an integer (not bool), got True"),
    ], ids=repr)
    def test_rejects_a_field_that_is_not_an_integer(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(**{field: value})

    def test_accepts_any_integer_seed_and_numpy_integers(self):
        config = RunConfig(iterations=np.int64(2), master_seed=-1, colors=np.int64(8))
        assert (config.iterations, config.master_seed, config.stages) == (2, -1, 3)

    @pytest.mark.parametrize("overrides,name", [
        (dict(iterations=2.5), "iterations"),
        (dict(seed=1.9), "seed"),
        (dict(colors=4.0), "colors"),
        (dict(dt=True), "dt"),
        (dict(t_init=True), "t_init"),
    ], ids=repr)
    def test_overrides_are_checked_not_truncated(self, overrides, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            RunConfig.from_sources(None, **overrides)

    def test_overrides_are_stored_as_given(self):
        config = RunConfig.from_sources(None, iterations=3, seed=-2, colors=2, coupling=2)
        assert (config.iterations, config.master_seed, config.colors) == (3, -2, 2)
        assert type(config.dynamics.coupling) is int


class TestBadInput:
    """Bad input exits 1 with an error line, never a traceback."""

    def _solve(self, graph_path, outdir):
        assert main(["solve", "-g", graph_path, "--iters", "2", "--seed", "1",
                     "-o", str(outdir)]) == 0

    def _fails(self, argv, capsys, *needles):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for needle in needles:
            assert needle in err

    def test_gen_unknown_extension(self, tmp_path, capsys):
        self._fails(["gen", "--kings", "3", "-o", str(tmp_path / "g.txt")], capsys, "g.txt")

    def test_stats_for_another_graph(self, k4_path, tmp_path, capsys):
        outdir = tmp_path / "r"
        self._solve(k4_path, outdir)
        other = str(tmp_path / "k3.json")
        save_graph(kings_graph(3), other)
        self._fails(["stats", "-g", other, str(outdir)], capsys)

    def test_stats_truncated_result(self, k4_path, tmp_path, capsys):
        outdir = tmp_path / "r"
        self._solve(k4_path, outdir)
        path = outdir / "result_0000.json"
        path.write_text(path.read_text()[:40])
        self._fails(["stats", "-g", k4_path, str(outdir)], capsys, str(path))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(schema_version=99),
        lambda doc: doc.pop("partition"),
    ], ids=["schema_version", "missing_key"])
    def test_stats_invalid_result_names_file(self, edit, k4_path, tmp_path, capsys):
        outdir = tmp_path / "r"
        self._solve(k4_path, outdir)
        path = outdir / "result_0001.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        self._fails(["stats", "-g", k4_path, str(outdir)], capsys, str(path))

    @pytest.mark.parametrize("key,value", [
        ("partition", None), ("coloring", [0, "1", 2, 3]), ("coloring", [0, 1.5, 2, 3]),
        ("coloring", [0, 2**70, 2, 3]),
        ("seed", "7"), ("cut_accuracy", None), ("coloring_accuracy", "1.0"),
        ("coloring_accuracy", float("nan")), ("cut_accuracy", float("inf")),
        pytest.param("coloring_accuracy", 10**400, id="coloring_accuracy-int-beyond-float"),
        ("unlocked_stages", 2),
    ])
    def test_stats_result_value_of_wrong_type(self, key, value, k4_path, tmp_path, capsys):
        outdir = tmp_path / "r"
        self._solve(k4_path, outdir)
        path = outdir / "result_0001.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        self._fails(["stats", "-g", k4_path, str(outdir)], capsys, str(path), repr(key))

    def test_stats_edited_cut_accuracy(self, k4_path, tmp_path, capsys):
        outdir = tmp_path / "r"
        self._solve(k4_path, outdir)
        path = outdir / "result_0001.json"
        doc = json.loads(path.read_text())
        doc["cut_accuracy"] = 0.123
        path.write_text(json.dumps(doc))
        self._fails(["stats", "-g", k4_path, str(outdir)], capsys, str(path), "cut_accuracy")

    def test_stats_non_binary_partition(self, k4_path, tmp_path, capsys):
        # labels 0..3 cut all six edges of K4: 1.5 against the exact max cut 4,
        # which stats used to accept
        outdir = tmp_path / "r"
        self._solve(k4_path, outdir)
        path = outdir / "result_0000.json"
        doc = json.loads(path.read_text())
        doc.update(partition=[0, 1, 2, 3], cut_accuracy=6 / cut_baseline(kings_graph(2))[0])
        path.write_text(json.dumps(doc))
        self._fails(["stats", "-g", k4_path, str(outdir)], capsys, str(path), "partition")

    @pytest.mark.parametrize("line,name", [("t_init = inf", "t_init"),
                                           ("t_anneal1 = nan", "t_anneal1")])
    def test_nonfinite_duration_in_config(self, line, name, k4_path, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        self._fails(["solve", "-g", k4_path, "--iters", "1", "--config", str(path)],
                    capsys, name)

    @pytest.mark.parametrize("line,name", [
        ("iterations = 1.5", "iterations"), ("seed = x", "seed"),
        ("noise = fast", "noise"), ("t_lock1 = 5ns", "t_lock1"),
    ])
    def test_unparsable_config_value(self, line, name, k4_path, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("coupling = 1.0\n" + line + "\n")
        self._fails(["solve", "-g", k4_path, "--config", str(path)],
                    capsys, f"{path}:2:", repr(name))

    def test_config_line_without_equals(self, k4_path, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("# a comment\nnoise 0.1\n")
        self._fails(["solve", "-g", k4_path, "--config", str(path)],
                    capsys, f"{path}:2: expected key = value")

    def test_bench_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        self._fails(["bench", "--sides", "2", "--iters", "1", "--config", str(path)],
                    capsys, "bogus")
