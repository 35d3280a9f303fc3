"""RRC state and mode definitions."""

import pytest

from repro.rrc.states import LEGAL_TRANSITIONS, RadioMode, RrcState
from tests.oracles.readouts import is_legal_transition


def test_mode_maps_to_protocol_state():
    assert RadioMode.IDLE.state is RrcState.IDLE
    assert RadioMode.FACH.state is RrcState.FACH
    assert RadioMode.DCH.state is RrcState.DCH
    assert RadioMode.DCH_TX.state is RrcState.DCH


def test_promotions_count_as_destination_state():
    assert RadioMode.PROMO_IDLE_DCH.state is RrcState.DCH
    assert RadioMode.PROMO_FACH_DCH.state is RrcState.DCH


@pytest.mark.parametrize("src,dst,legal", [
    (RrcState.IDLE, RrcState.DCH, True),
    (RrcState.IDLE, RrcState.FACH, False),
    (RrcState.DCH, RrcState.FACH, True),
    (RrcState.DCH, RrcState.IDLE, False),
    (RrcState.FACH, RrcState.DCH, True),
    (RrcState.FACH, RrcState.IDLE, True),
])
def test_transition_legality(src, dst, legal):
    assert is_legal_transition(src, dst) is legal


def test_no_self_transitions_listed():
    for src, dsts in LEGAL_TRANSITIONS.items():
        assert src not in dsts


def test_state_str():
    assert str(RrcState.DCH) == "DCH"
