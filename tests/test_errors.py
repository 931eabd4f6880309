"""The two probability checks every rate and law of the package goes through."""

import math

import numpy as np
import pytest

from decoybb84.errors import check_law, check_probability


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.5, 0, 1])
    def test_accepts_unit_interval(self, value):
        check_probability("p", value)

    @pytest.mark.parametrize("value", [-1e-300, 1.0 + 1e-15, math.nan, math.inf, -math.inf])
    def test_rejects_outside_and_nan(self, value):
        with pytest.raises(ValueError, match=r"^p_dark=.* outside \[0, 1\]$"):
            check_probability("p_dark", value)

    def test_non_numeric_is_type_error(self):
        # A bool is not a probability of 0 or 1.
        for value in ("0.5", None, True, np.False_):
            with pytest.raises(TypeError, match="^p must be a real number"):
                check_probability("p", value)


class TestCheckLaw:
    def test_returns_float_array(self):
        out = check_law("law", (1, 0, 0))
        assert out.dtype == np.float64 and out.tolist() == [1.0, 0.0, 0.0]

    def test_keeps_shape(self):
        assert check_law("law", np.full((2, 2), 0.25)).shape == (2, 2)

    @pytest.mark.parametrize("probs", [
        [0.5, 0.5 + 2e-9], [1.5, -0.5], [math.nan, 1.0], [math.inf, -math.inf], [], [0.0],
    ], ids=["sum-off", "negative", "nan", "inf", "empty", "zero-mass"])
    def test_rejects(self, probs):
        with pytest.raises(ValueError, match="^nus must be nonnegative and sum to 1$"):
            check_law("nus", probs)

    def test_tolerance(self):
        check_law("law", [0.5, 0.5 + 5e-10])
        with pytest.raises(ValueError):
            check_law("law", [0.5, 0.5 + 5e-10], 1e-12)

    @pytest.mark.parametrize("probs", [["0.5", "0.5"], [0.5, None], [True, False],
                                       np.array([1, 0], dtype=bool), [0.0, True],
                                       ((0.0, 0.0), (np.True_, 0.0))],
                             ids=["str", "none", "bool", "bool-array", "bool-among-numbers",
                                  "numpy-bool-nested"])
    def test_non_numeric_is_type_error(self, probs):
        with pytest.raises(TypeError, match="^law must hold real numbers only$"):
            check_law("law", probs)
