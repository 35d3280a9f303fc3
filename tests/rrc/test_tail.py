"""Analytic tail math: the array forms against their scalar twins
(``tests/oracles/tail.py``, bit for bit) and against the state
machine."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rrc.config import RrcConfig
from repro.rrc.machine import RrcMachine
from repro.rrc.states import RrcState
from repro.rrc.tail import (
    STATE_DCH,
    STATE_FACH,
    STATE_IDLE,
    promotion_energy_grid,
    promotion_latency_grid,
    reading_phase_grid,
    tail_energy_grid,
    tail_state_grid,
)
from repro.sim.kernel import Simulator
from tests.oracles import tail as oracle
from tests.oracles.ablation import _reading_phase

#: State code of each protocol state.
CODE = {RrcState.DCH: STATE_DCH, RrcState.FACH: STATE_FACH,
        RrcState.IDLE: STATE_IDLE}


def _tx(config):
    """``(b1, b2)`` after the last transmission."""
    return config.t1, config.t1 + config.t2


def _release(config):
    """``(b1, b2)`` after a channel release."""
    return 0.0, config.t2


def _state(offset, bounds):
    return int(tail_state_grid(np.asarray(offset), *bounds))


def _energy(start, end, bounds, config=None):
    return float(tail_energy_grid(np.asarray(start), np.asarray(end),
                                  *bounds, config))


def test_tail_states_after_tx():
    config = RrcConfig()
    tx = _tx(config)
    assert _state(0.0, tx) == STATE_DCH
    assert _state(3.99, tx) == STATE_DCH
    assert _state(4.0, tx) == STATE_FACH
    assert _state(18.99, tx) == STATE_FACH
    assert _state(19.0, tx) == STATE_IDLE


def test_tail_states_after_release():
    release = _release(RrcConfig())
    assert _state(0.0, release) == STATE_FACH
    assert _state(14.99, release) == STATE_FACH
    assert _state(15.0, release) == STATE_IDLE


def test_tail_energy_pieces():
    config = RrcConfig()
    power = config.power
    tx = _tx(config)
    assert _energy(0, 4, tx, config) == pytest.approx(4 * power.dch)
    assert _energy(4, 19, tx, config) == pytest.approx(15 * power.fach)
    assert _energy(19, 29, tx, config) == pytest.approx(10 * power.idle)
    assert _energy(0, 29, tx, config) == pytest.approx(
        4 * power.dch + 15 * power.fach + 10 * power.idle)


def test_tail_energy_zero_window():
    assert _energy(5.0, 5.0, _tx(RrcConfig())) == 0.0


def test_tail_energy_reversed_window_rejected():
    with pytest.raises(ValueError, match="ends before it starts"):
        _energy(5.0, 4.0, _tx(RrcConfig()))


@pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
def test_offsets_must_be_finite_and_non_negative(bad):
    tx = _tx(RrcConfig())
    with pytest.raises(ValueError, match="tail offset"):
        tail_state_grid(np.array([1.0, bad]), *tx)
    with pytest.raises(ValueError, match="tail window start"):
        tail_energy_grid(np.array([bad]), np.array([30.0]), *tx)


def test_promotion_latency_and_energy_by_state():
    config = RrcConfig()
    codes = np.array([STATE_DCH, STATE_FACH, STATE_IDLE])
    dch, fach, idle = promotion_latency_grid(codes, config).tolist()
    assert dch == 0.0
    assert fach == config.promo_fach_latency
    assert idle == config.promo_idle_latency
    dch, fach, idle = promotion_energy_grid(codes, config).tolist()
    assert dch == 0.0
    assert idle > fach


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=30.0))
def test_property_analytic_tail_matches_machine(offset):
    """Property: the analytic tail state/energy equals what the real
    state machine produces for the same window after a transfer."""
    config = RrcConfig()
    sim = Simulator()
    machine = RrcMachine(sim, config)
    machine.acquire_channel(lambda: None)
    sim.run()
    machine.tx_begin()
    machine.tx_end()
    anchor = sim.now
    sim.run(until=anchor + offset + 1.0)
    machine.finalize()

    # State agreement.
    expected_state = _state(offset, _tx(config))
    segment_state = next(
        s.mode.state for s in machine.segments
        if s.start <= anchor + offset < s.end)
    assert CODE[segment_state] == expected_state

    # Energy agreement over [anchor, anchor+offset).
    measured = sum(
        config.power.for_mode(s.mode)
        * max(0.0, min(s.end, anchor + offset) - max(s.start, anchor))
        for s in machine.segments)
    assert measured == pytest.approx(
        _energy(0.0, offset, _tx(config), config), abs=1e-6)


# ----------------------------------------------------------------------
# Bitwise agreement with the scalar twins.
# ----------------------------------------------------------------------

#: Where a drawn offset lands: on an anchor boundary, at zero, or free.
_OFFSET = st.one_of(st.sampled_from(["zero", "b1", "b2"]),
                    st.floats(min_value=0.0, max_value=60.0))
#: A window: its start and its length (``"zero"`` for an empty window,
#: ``"b1"``/``"b2"`` to end exactly on a boundary).
_WINDOW = st.tuples(st.sampled_from(["tx", "release"]), _OFFSET,
                    st.one_of(st.sampled_from(["zero", "b1", "b2"]),
                              st.floats(min_value=0.0, max_value=60.0)))
_TIMER = st.floats(min_value=0.5, max_value=20.0)


def _bits(value) -> str:
    return float(value).hex()


def _place(where, bounds) -> float:
    return {"zero": 0.0, "b1": bounds[0], "b2": bounds[1]}.get(where, where)


@settings(max_examples=60, deadline=None)
@given(_TIMER, _TIMER, st.lists(_WINDOW, min_size=1, max_size=12))
@example(4.0, 15.0, [("tx", "b1", "b2"), ("release", "b2", "zero"),
                     ("tx", "zero", "zero"), ("release", "zero", "b2")])
def test_array_forms_match_scalar_twins_bitwise(t1, t2, windows):
    """One call over windows of both anchors gives, element by
    element, the scalar twin's float to the last bit."""
    config = RrcConfig(t1=t1, t2=t2)
    starts, ends, b1, b2, twins = [], [], [], [], []
    for anchor, start, end in windows:
        bounds = _tx(config) if anchor == "tx" else _release(config)
        start = _place(start, bounds)
        # An end placed on a boundary before the start degenerates to
        # the empty window [start, start).
        end = max(start, _place(end, bounds)) if isinstance(end, str) \
            else start + end
        starts.append(start)
        ends.append(end)
        b1.append(bounds[0])
        b2.append(bounds[1])
        twins.append(anchor)
    start, end = np.array(starts), np.array(ends)
    b1, b2 = np.array(b1), np.array(b2)

    energies = tail_energy_grid(start, end, b1, b2, config)
    states = tail_state_grid(end, b1, b2)
    for k, anchor in enumerate(twins):
        if anchor == "tx":
            energy_fn, state_fn = (oracle.tail_energy_after_tx,
                                   oracle.tail_state_after_tx)
        else:
            energy_fn, state_fn = (oracle.tail_energy_after_release,
                                   oracle.tail_state_after_release)
        assert _bits(energies[k]) == _bits(
            energy_fn(starts[k], ends[k], config))
        assert states[k] == CODE[state_fn(ends[k], config)]

    for state, code in CODE.items():
        codes = np.full(2, code)
        assert _bits(promotion_latency_grid(codes, config)[1]) == _bits(
            oracle.promotion_latency(state, config))
        assert _bits(promotion_energy_grid(codes, config)[1]) == _bits(
            oracle.promotion_energy(state, config))


@settings(max_examples=60, deadline=None)
@given(_TIMER, _TIMER,
       st.lists(st.tuples(st.booleans(), _OFFSET,
                          st.floats(min_value=0.0, max_value=60.0),
                          st.booleans()),
                min_size=1, max_size=12),
       st.sampled_from([0.0, 2.0, 5.5]))
def test_reading_phase_matches_scalar_twin_bitwise(t1, t2, units, alpha):
    """The reading phase — full tail, or the tail cut at α plus idle
    for the rest — against the scalar per-unit reading phase."""
    config = RrcConfig(t1=t1, t2=t2)
    starts, readings, b1, b2, switch = [], [], [], [], []
    for released, start, reading, wants in units:
        bounds = _release(config) if released else _tx(config)
        starts.append(_place(start, bounds))
        readings.append(reading)
        b1.append(bounds[0])
        b2.append(bounds[1])
        switch.append(wants and reading > alpha)
    energy, states = reading_phase_grid(
        np.array(starts), np.array(readings), alpha, np.array(switch),
        np.array(b1), np.array(b2), config)
    for k, (released, _, reading, wants) in enumerate(units):
        setup = SimpleNamespace(reorganisation=released,
                                fast_dormancy=released, alpha=alpha)
        load = SimpleNamespace(release_offset=starts[k],
                               tail_offset=starts[k])
        twin_energy, twin_state = _reading_phase(setup, load, reading,
                                                 wants, config)
        assert _bits(energy[k]) == _bits(twin_energy)
        assert states[k] == CODE[twin_state]
