import math
from fractions import Fraction

import numpy as np
import pytest

from despeckle.errors import REAL_RANGE, ParameterError, check_real, nearest_real

LOW, HIGH = REAL_RANGE
PAST = "(finite values lie in [1e-100, 1e+100])"


@pytest.mark.parametrize("value", [LOW, 1.0, HIGH, 1, np.float64(HIGH), Fraction(1, 3)])
def test_values_in_the_range_pass_as_floats(value):
    got = check_real(value, "p")
    assert type(got) is float and got == float(value)


@pytest.mark.parametrize("value", [9.9e-101, 1.01e100, 5e-324, 1.7e308, Fraction(10**400)])
def test_values_past_the_ends_name_the_range(value):
    with pytest.raises(ParameterError) as info:
        check_real(value, "p", nonnegative=True, allow_inf=True)
    assert str(info.value) == f"p must be a non-negative real, got {value!r} {PAST}"


@pytest.mark.parametrize("value", [math.nan, -math.inf, -LOW, True, False, "1", None])
def test_non_reals_and_negatives_are_refused_without_the_range(value):
    with pytest.raises(ParameterError) as info:
        check_real(value, "p", nonnegative=True, allow_inf=True)
    assert str(info.value) == f"p must be a non-negative real, got {value!r}"


def test_zero_and_inf_pass_only_where_allowed():
    assert check_real(0, "p", nonnegative=True) == 0.0
    assert check_real(math.inf, "p", allow_inf=True) == math.inf
    with pytest.raises(ParameterError, match=r"^p must be a positive finite real, got 0\.0$"):
        check_real(0.0, "p")
    with pytest.raises(ParameterError, match="^p must be a non-negative finite real, got inf$"):
        check_real(math.inf, "p", nonnegative=True)


def test_an_upper_bound_keeps_its_wording():
    assert check_real(0.25, "dt", at_most=0.25) == 0.25
    with pytest.raises(ParameterError, match=r"^dt must be a positive finite real <= 0\.25, got 0\.3$"):
        check_real(0.3, "dt", at_most=0.25)
    with pytest.raises(ParameterError) as info:
        check_real(9.9e-101, "dt", at_most=0.25)
    assert str(info.value) == f"dt must be a positive finite real <= 0.25, got 9.9e-101 {PAST}"


@pytest.mark.parametrize("value, nonnegative, nearest", [
    (1.0, False, 1.0), (LOW, True, LOW), (HIGH, False, HIGH), (math.inf, False, math.inf),
    (9e100, False, HIGH), (1.7e308, True, HIGH), (5e-324, False, LOW), (0.0, False, LOW),
    (1.1e-102, True, 0.0), (0.0, True, 0.0), (4.9e-101, True, 0.0), (5e-101, True, LOW),
])
def test_nearest_real_is_the_nearest_value_check_real_takes(value, nonnegative, nearest):
    got = nearest_real(value, nonnegative=nonnegative)
    assert got == nearest
    assert check_real(got, "p", nonnegative=nonnegative, allow_inf=True) == got
