"""Unit-convention helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units


def test_kb_is_thousand_bytes():
    assert units.kb(1) == 1000.0
    assert units.kb(760) == 760_000.0


def test_as_kb_inverts_kb():
    assert units.as_kb(units.kb(123.4)) == pytest.approx(123.4)


def test_ms_minutes_hours():
    assert units.ms(250) == 0.25
    assert units.minutes(2) == 120.0
    assert units.hours(4) == 14400.0


@given(st.floats(min_value=0, max_value=1e12))
def test_require_non_negative_accepts_valid(value):
    assert units.require_non_negative("x", value) == value


@pytest.mark.parametrize("bad", [-1.0, -1e-9, float("nan"), float("inf")])
def test_require_non_negative_rejects(bad):
    with pytest.raises(ValueError):
        units.require_non_negative("x", bad)


@pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf")])
def test_require_positive_rejects(bad):
    with pytest.raises(ValueError):
        units.require_positive("x", bad)


def test_require_positive_accepts():
    assert units.require_positive("x", 1e-9) == 1e-9



def test_error_messages_name_the_parameter():
    with pytest.raises(ValueError, match="bandwidth"):
        units.require_positive("bandwidth", 0)
    assert not math.isnan(units.require_non_negative("t", 0.0))
