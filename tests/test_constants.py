import math

import pytest
from hypothesis import given, strategies as st

from magnoncavity import CONSTANTS, DomainError, tesla_to_field
from magnoncavity.constants import Constants
from oracles import field_to_tesla


def test_defaults():
    assert CONSTANTS.gamma_over_2pi_GHz_per_T == 28.0
    assert CONSTANTS.gamma == pytest.approx(2 * math.pi * 28e9)
    assert CONSTANTS.mu0 == pytest.approx(1.2566370614e-6)


def test_constants_immutable():
    with pytest.raises(Exception):
        CONSTANTS.muB = 0.0


def test_gamma_must_be_positive():
    with pytest.raises(DomainError):
        Constants(gamma_over_2pi_GHz_per_T=-28.0)


def test_tesla_to_field_zero():
    assert tesla_to_field(0.0) == 0.0


def test_tesla_to_field_hand_value():
    # 0.178 T / mu0 with mu0 = 4*pi*1e-7.
    assert tesla_to_field(0.178) == pytest.approx(1.41648e5, rel=1e-4)


def test_round_trip_half_tesla():
    assert field_to_tesla(tesla_to_field(0.5)) == pytest.approx(0.5, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e3))
def test_round_trip_identity(muH):
    assert field_to_tesla(tesla_to_field(muH)) == pytest.approx(muH, rel=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_rejected(bad):
    with pytest.raises(DomainError):
        tesla_to_field(bad)
