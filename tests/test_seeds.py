import json
import re

import numpy as np
import pytest

from pottsim.cli import RunConfig, run_batch
from pottsim.graph import kings_graph
from pottsim.scheduler import solve_batch
from pottsim.seeds import mix_seed, rng_for


class TestMixSeed:
    # values of the splitmix mix over Python ints, which the result files hold
    @pytest.mark.parametrize("master,index,want", [
        (0, 0, 16294208416658607535),
        (-1, 3, 7862637804313477842),
        (2**70, 1, 7960286522194355700),
        (5, 39, 31002999674627787),
    ])
    def test_known_values(self, master, index, want):
        assert mix_seed(master, index) == want

    @pytest.mark.parametrize("master", [np.int64(5), np.int64(-1), np.uint64(2**64 - 1)],
                             ids=repr)
    def test_numpy_integers_mix_as_python_ints(self, master):
        got = mix_seed(master, np.int32(3))
        assert type(got) is int and got == mix_seed(int(master), 3)

    @pytest.mark.parametrize("master", [1.5, True, "1", None], ids=repr)
    def test_rejects_a_master_seed_that_is_not_an_integer(self, master):
        with pytest.raises(ValueError, match=re.escape(
                f"master_seed must be an integer (not bool), got {master!r}")):
            mix_seed(master, 0)

    @pytest.mark.parametrize("index", [-1, 0.5, True], ids=repr)
    def test_rejects_an_index_that_is_not_a_nonnegative_integer(self, index):
        with pytest.raises(ValueError, match=re.escape(
                f"index must be an integer >= 0 (not bool), got {index!r}")):
            mix_seed(0, index)


class TestRngFor:
    @pytest.mark.parametrize("seed", [True, False, -1, 1.0, "1", None], ids=repr)
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer >= 0 (not bool), got {seed!r}")):
            rng_for(seed)

    def test_numpy_and_python_seeds_draw_alike(self):
        assert rng_for(np.uint64(2**64 - 1)).random() == rng_for(2**64 - 1).random()


class TestSeedsOfASolve:
    def test_solve_batch_rejects_a_bool_seed(self):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            solve_batch(kings_graph(2), 1, seeds=[True])

    def test_numpy_seeds_give_json_result_files(self):
        got = solve_batch(kings_graph(3), 1, seeds=np.arange(2))
        want = solve_batch(kings_graph(3), 1, seeds=[0, 1])
        docs = [json.dumps(res.to_dict(), sort_keys=True) for res in got]
        assert docs == [json.dumps(res.to_dict(), sort_keys=True) for res in want]

    def test_numpy_master_seed_runs_as_python_int(self):
        config = RunConfig(iterations=2, master_seed=np.int64(5))
        got = run_batch(kings_graph(3), config)[0]
        want = run_batch(kings_graph(3), RunConfig(iterations=2, master_seed=5))[0]
        assert [res.to_dict() for res in got] == [res.to_dict() for res in want]
