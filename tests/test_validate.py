import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pottsim.validate import (broadcast, count, finite, integers, is_integer, is_real,
                              real, shaped)


class TestCount:
    @pytest.mark.parametrize("value", [3, 0, -5, 2**70, np.int64(3), np.uint8(3), np.int32(-1)],
                             ids=repr)
    def test_accepts_any_integer_without_a_minimum(self, value):
        assert count("x", value) is None

    @pytest.mark.parametrize("value", [1, 7, np.int64(1), np.uint64(2**64 - 1)], ids=repr)
    def test_accepts_an_integer_at_the_minimum_or_above(self, value):
        count("x", value, 1)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.5, 2.0, np.float64(2.0),
                                       "2", None, Fraction(2)], ids=repr)
    def test_rejects_what_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"x must be an integer >= 0 (not bool), got {value!r}")):
            count("x", value, 0)

    @pytest.mark.parametrize("value", [0, -1, np.int64(0)], ids=repr)
    def test_rejects_an_integer_below_the_minimum(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"k must be an integer >= 1 (not bool), got {value!r}")):
            count("k", value, 1)

    def test_message_without_a_minimum(self):
        with pytest.raises(ValueError, match=re.escape(
                "master_seed must be an integer (not bool), got 1.5")):
            count("master_seed", 1.5)


class TestReal:
    @pytest.mark.parametrize("value", [0, 0.0, 2.5, 1e308, np.float64(0.1), np.float32(0.5),
                                       np.int64(3), Fraction(1, 3)], ids=repr)
    def test_accepts_a_nonnegative_real(self, value):
        assert real("x", value) is None

    @pytest.mark.parametrize("value", [True, False, np.bool_(False), "0.1", None, 1j,
                                       math.nan, math.inf, -math.inf, -1e-300, -1],
                             ids=repr)
    def test_rejects_what_is_not_a_nonnegative_finite_real(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"x must be nonnegative and finite (a real number, not bool), got {value!r}")):
            real("x", value)

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, np.float64(0.0), -1.0, True], ids=repr)
    def test_positive_rejects_zero_negatives_and_bool(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"dt must be positive and finite (a real number, not bool), got {value!r}")):
            real("dt", value, positive=True)

    def test_positive_accepts_the_smallest_positive_float(self):
        real("dt", 5e-324, positive=True)

    @pytest.mark.parametrize("value", [math.inf, np.float64(np.inf), 0.0, 3])
    def test_infinity_allowed_when_not_finite(self, value):
        real("time_budget", value, finite=False)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, -1.0, True, "1"], ids=repr)
    def test_not_finite_still_rejects_nan_negatives_and_bool(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"time_budget must be nonnegative (a real number, not bool), got {value!r}")):
            real("time_budget", value, finite=False)


class TestTypePredicates:
    @pytest.mark.parametrize("kind", [int, np.int64, np.uint8])
    def test_integer_types(self, kind):
        assert is_integer(kind) and is_real(kind)

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32, Fraction])
    def test_real_types_that_are_not_integers(self, kind):
        assert is_real(kind) and not is_integer(kind)

    @pytest.mark.parametrize("kind", [bool, np.bool_, str, complex, type(None)])
    def test_neither(self, kind):
        assert not is_real(kind) and not is_integer(kind)


class TestShaped:
    def test_returns_the_array_itself(self):
        array = np.zeros(3)
        assert shaped("x", array, (3,)) is array

    def test_converts_what_is_not_an_array(self):
        assert shaped("x", [[1, 2]], (1, 2)).tolist() == [[1, 2]]

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (1, 3), ()])
    def test_rejects_another_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"x has shape {shape}, need (3,)")):
            shaped("x", np.zeros(shape), (3,))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3), (0, 3)])
    def test_leading_axes_match_anything(self, shape):
        assert shaped("labels", np.zeros(shape), (..., 3)).shape == shape

    @pytest.mark.parametrize("shape", [(), (2,), (3, 2), (3, 3, 1)])
    def test_leading_axes_keep_the_trailing_ones(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"labels has shape {shape}, need (..., 3)")):
            shaped("labels", np.zeros(shape), (..., 3))

    def test_leading_axes_before_several_trailing_ones(self):
        assert shaped("x", np.zeros((5, 2, 3)), (..., 2, 3)).shape == (5, 2, 3)
        with pytest.raises(ValueError, match=re.escape("x has shape (3,), need (..., 2, 3)")):
            shaped("x", np.zeros(3), (..., 2, 3))


class TestFinite:
    @pytest.mark.parametrize("value", [[0.0, 1e308], np.zeros((2, 3)), 2.5, [1, 2], [True], []],
                             ids=repr)
    def test_returns_a_finite_array(self, value):
        assert np.array_equal(finite("x", value), np.asarray(value))

    def test_returns_the_array_itself(self):
        array = np.zeros(3)
        assert finite("x", array) is array

    @pytest.mark.parametrize("value,dtype", [([0.5, 1j], "complex128"), (["a", "b"], "<U1"),
                                             ([0.5, None], "object")], ids=repr)
    def test_rejects_what_is_not_a_real_array(self, value, dtype):
        # numpy's isfinite raised a bare TypeError on strings and objects and
        # passed complex numbers, whose float64 cast drops the imaginary part
        with pytest.raises(ValueError, match=re.escape(f"x must be a real array, got dtype {dtype}")):
            finite("x", value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_nan_and_inf(self, bad):
        with pytest.raises(ValueError, match=re.escape("xi must be finite, got NaN or inf")):
            finite("xi", [[0.0, 1.0], [bad, 2.0]])


class TestBroadcast:
    def test_broadcasts_a_row(self):
        view = broadcast("gate.active", [True, False], (3, 2))
        assert view.shape == (3, 2) and not view.flags.writeable

    def test_rejects_what_does_not_broadcast(self):
        with pytest.raises(ValueError, match=re.escape(
                "shil.select has shape (3,), which does not broadcast to (2, 4)")):
            broadcast("shil.select", np.zeros(3), (2, 4))


class TestIntegers:
    @pytest.mark.parametrize("value", [[0, 3], np.array([1, 2], dtype=np.uint8),
                                       np.int32([-1, 5])], ids=repr)
    def test_accepts_integers(self, value):
        assert integers("c", value, (2,)).tolist() == np.asarray(value).tolist()

    @pytest.mark.parametrize("value", [[], np.zeros(0, dtype=bool), np.zeros((0, 3))], ids=repr)
    def test_accepts_an_empty_array_of_any_dtype(self, value):
        assert integers("c", value, np.shape(value)).size == 0

    @pytest.mark.parametrize("value", [[0.0, 1.0], [0, math.nan], [True, False]],
                             ids=["float", "nan", "bool"])
    def test_rejects_a_nonempty_array_that_is_not_integer(self, value):
        with pytest.raises(ValueError, match=re.escape(
                f"c must be an integer array, got dtype {np.asarray(value).dtype}")):
            integers("c", value, (2,))

    def test_checks_the_shape_first(self):
        with pytest.raises(ValueError, match=re.escape("c has shape (3,), need (2,)")):
            integers("c", [0.5, 1.5, 2.5], (2,))
