"""Analytic radio-tail math.

Closed-form versions of what the state machine does after activity stops:
which state the radio is in ``offset`` seconds after an anchor event, and
how much energy the tail consumes over a window.  Two anchors exist:

- ``after last transmission`` (the original browser): DCH for T1, then
  FACH for T2, then IDLE;
- ``after channel release`` (the energy-aware browser, Section 4.1):
  FACH for T2, then IDLE.

The Fig. 16 policy evaluation uses these to score thousands of trace
pageviews without running a discrete-event simulation per view; tests
cross-check them against the :class:`repro.rrc.machine.RrcMachine`.

The ``*_grid`` forms at the bottom are NumPy versions of the same
closed forms, used by the batched ablation evaluator to score a whole
(trials × pages × readings) unit grid in one call.  They take
per-element boundary arrays ``b1``/``b2`` so one call can mix anchors:
after-tx units carry ``(t1, t1 + t2)``, after-release units carry
``(0.0, t2)`` — the first segment is then empty because offsets
are non-negative, which reduces the three-segment integral to the
two-segment release form exactly.  Each grid form performs the same
IEEE operations in the same order as its scalar twin (the only extra
terms are exact ``+ 0.0`` additions for empty segments), so results
are bitwise identical — the golden tests in
``tests/ablation/test_batched_golden.py`` rely on that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.rrc.config import RrcConfig
from repro.rrc.states import RrcState
from repro.units import require_non_negative


def tail_state_after_tx(offset: float,
                        config: Optional[RrcConfig] = None) -> RrcState:
    """Radio state ``offset`` seconds after the last transmission ended."""
    require_non_negative("offset", offset)
    config = config or RrcConfig()
    if offset < config.t1:
        return RrcState.DCH
    if offset < config.t1 + config.t2:
        return RrcState.FACH
    return RrcState.IDLE


def tail_state_after_release(offset: float,
                             config: Optional[RrcConfig] = None) -> RrcState:
    """Radio state ``offset`` seconds after the dedicated channels were
    released by the application (energy-aware browser)."""
    require_non_negative("offset", offset)
    config = config or RrcConfig()
    if offset < config.t2:
        return RrcState.FACH
    return RrcState.IDLE


def _integrate(boundaries, powers, start: float, end: float) -> float:
    """Integrate a piecewise-constant power profile over [start, end)."""
    if end < start:
        raise ValueError("window end before start")
    energy = 0.0
    previous = 0.0
    for boundary, power in zip(boundaries, powers[:-1]):
        lo = max(start, previous)
        hi = min(end, boundary)
        if hi > lo:
            energy += power * (hi - lo)
        previous = boundary
    lo = max(start, previous)
    if end > lo:
        energy += powers[-1] * (end - lo)
    return energy


def tail_energy_after_tx(start: float, end: float,
                         config: Optional[RrcConfig] = None) -> float:
    """Radio energy over offsets [start, end) after the last transmission
    (DCH tail → FACH tail → IDLE)."""
    config = config or RrcConfig()
    power = config.power
    return _integrate(
        (config.t1, config.t1 + config.t2),
        (power.dch, power.fach, power.idle),
        start, end)


def tail_energy_after_release(start: float, end: float,
                              config: Optional[RrcConfig] = None) -> float:
    """Radio energy over offsets [start, end) after a channel release
    (FACH tail → IDLE)."""
    config = config or RrcConfig()
    power = config.power
    return _integrate((config.t2,), (power.fach, power.idle), start, end)


def promotion_latency(state: RrcState,
                      config: Optional[RrcConfig] = None) -> float:
    """Latency added to the next transmission when it starts from
    ``state`` (Section 2.1 / Table 2)."""
    config = config or RrcConfig()
    if state is RrcState.DCH:
        return 0.0
    if state is RrcState.FACH:
        return config.promo_fach_latency
    return config.promo_idle_latency


def promotion_energy(state: RrcState,
                     config: Optional[RrcConfig] = None) -> float:
    """Signalling energy of the next promotion when starting from
    ``state`` (the Fig. 3 trade-off: promoting from IDLE is expensive)."""
    config = config or RrcConfig()
    power = config.power
    if state is RrcState.DCH:
        return 0.0
    if state is RrcState.FACH:
        return power.promotion * config.promo_fach_latency
    return (power.promotion * config.promo_idle_latency
            + config.promo_idle_signalling_energy)


# ----------------------------------------------------------------------
# Array forms — the batched ablation evaluator's unit-grid scoring.
# Arrays cannot hold RrcState members, so states travel as small
# integer codes.
# ----------------------------------------------------------------------

#: Integer state codes used by the grid forms.
STATE_DCH, STATE_FACH, STATE_IDLE = 0, 1, 2


def tail_energy_grid(start: np.ndarray, end: np.ndarray, b1: np.ndarray,
                     b2: np.ndarray,
                     config: Optional[RrcConfig] = None) -> np.ndarray:
    """Radio tail energy over ``[start, end)`` per grid element.

    ``start``/``end``/``b1``/``b2`` are same-shape float arrays; power
    levels come from ``config`` (the batched evaluator never varies
    powers across trials — only the timers, which ride in
    ``b1``/``b2``).  Bitwise identical to
    :func:`_integrate` with boundaries ``(b1, b2)`` and powers
    ``(dch, fach, idle)``: each segment duration is the same
    ``min(...) - max(...)`` subtraction, empty segments contribute an
    exact ``+ 0.0``, and the three products accumulate left to right.
    """
    config = config or RrcConfig()
    power = config.power
    zero = np.zeros(start.shape, dtype=start.dtype)
    d1 = np.maximum(np.minimum(end, b1) - np.maximum(start, zero), zero)
    d2 = np.maximum(np.minimum(end, b2) - np.maximum(start, b1), zero)
    d3 = np.maximum(end - np.maximum(start, b2), zero)
    return (power.dch * d1 + power.fach * d2) + power.idle * d3


def tail_state_grid(offset: np.ndarray, b1: np.ndarray,
                    b2: np.ndarray) -> np.ndarray:
    """State code per grid element ``offset`` seconds after the anchor
    (DCH below ``b1``, FACH below ``b2``, IDLE beyond)."""
    return np.where(offset < b1, STATE_DCH,
                    np.where(offset < b2, STATE_FACH, STATE_IDLE))


def promotion_latency_grid(states: np.ndarray,
                           config: Optional[RrcConfig] = None
                           ) -> np.ndarray:
    """:func:`promotion_latency` over an array of state codes."""
    config = config or RrcConfig()
    return np.where(states == STATE_DCH, 0.0,
                    np.where(states == STATE_FACH,
                             config.promo_fach_latency,
                             config.promo_idle_latency))


def promotion_energy_grid(states: np.ndarray,
                          config: Optional[RrcConfig] = None
                          ) -> np.ndarray:
    """:func:`promotion_energy` over an array of state codes."""
    config = config or RrcConfig()
    power = config.power
    return np.where(states == STATE_DCH, 0.0,
                    np.where(states == STATE_FACH,
                             power.promotion * config.promo_fach_latency,
                             power.promotion * config.promo_idle_latency
                             + config.promo_idle_signalling_energy))
