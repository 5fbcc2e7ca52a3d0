import math

import pytest
from hypothesis import given, strategies as st

from magnoncavity import DomainError, MaterialParams, tesla_to_field
from magnoncavity.constants import GAMMA, HBAR, MU0, MU_B
from oracles import field_to_tesla


def test_defaults():
    assert GAMMA == pytest.approx(2 * math.pi * 28e9)
    assert MU0 == pytest.approx(1.2566370614e-6)


def test_constants_are_the_literals_bitwise():
    # Each constant is exactly the double of its defining expression; GAMMA
    # is TWO_PI * 28 GHz/T * GHZ, multiplied left to right.
    expected = (4e-7 * math.pi, 9.2740100783e-24, 1.054571817e-34, 2.0 * math.pi * 28.0 * 1e9)
    for value, literal in zip((MU0, MU_B, HBAR, GAMMA), expected):
        assert type(value) is float and value.hex() == literal.hex()


def test_gamma_must_be_positive():
    # GAMMA is positive, and the record that carries it as its default
    # refuses the negated ratio (-28 GHz/T).
    assert GAMMA > 0
    with pytest.raises(DomainError, match="gamma must be positive"):
        MaterialParams(Ms=1.0, gamma=-GAMMA)


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
