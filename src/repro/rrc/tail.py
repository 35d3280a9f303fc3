"""Analytic radio-tail math, as NumPy array forms.

Closed forms of what the state machine does after activity stops, one
array element per pageview: which state the radio is in ``offset``
seconds after an anchor event, how much energy the tail consumes over
a window, what the next promotion costs from a state, and — built from
those — the reading phase between a page opening and the next click.
Two anchors exist, and every form takes per-element boundary arrays
``b1``/``b2`` so one call can mix them:

- ``after last transmission`` (the original browser): DCH until
  ``b1 = T1``, FACH until ``b2 = T1 + T2``, then IDLE;
- ``after channel release`` (the energy-aware browser, Section 4.1):
  ``b1 = 0``, ``b2 = T2`` — the DCH segment is then empty because
  offsets are non-negative, which reduces the three-segment integral
  to the two-segment release form exactly.

The Table 6 / Fig. 16 policy evaluation, the ablation objective's unit
grid, Fig. 3 and the timer ablation all score through these forms, so
thousands of trace pageviews need no discrete-event simulation each;
tests cross-check them against :class:`repro.rrc.machine.RrcMachine`.
Arrays cannot hold :class:`~repro.rrc.states.RrcState` members, so
states travel as small integer codes.

The scalar twins these replaced live in ``tests/oracles/tail.py``, and
each form is bitwise identical to its twin: each segment duration is
the same ``min(...) - max(...)`` subtraction, empty segments contribute
an exact ``+ 0.0``, and the three products accumulate left to right.
Inputs are checked here once: offsets must be finite and non-negative,
and a window must not end before it starts.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.rrc.config import RrcConfig

#: Integer state codes used by the array forms.
STATE_DCH, STATE_FACH, STATE_IDLE = 0, 1, 2


def _offsets(name: str, values) -> np.ndarray:
    """``values`` as a float array, rejecting negative or non-finite
    offsets with a one-line ``ValueError``."""
    values = np.asarray(values, dtype=float)
    bad = ~(np.isfinite(values) & (values >= 0.0))
    if bad.any():
        raise ValueError(f"{name} must be finite and non-negative, got "
                         f"{float(values[bad].flat[0])!r}")
    return values


def tail_energy_grid(start: np.ndarray, end: np.ndarray, b1: np.ndarray,
                     b2: np.ndarray,
                     config: Optional[RrcConfig] = None) -> np.ndarray:
    """Radio tail energy over offsets ``[start, end)`` per element.

    ``start``/``end``/``b1``/``b2`` broadcast together; power levels
    come from ``config`` (callers never vary powers across elements —
    only the timers, which ride in ``b1``/``b2``).
    """
    config = config or RrcConfig()
    start = _offsets("tail window start", start)
    end = np.asarray(end, dtype=float)
    if not np.all(end >= start):
        raise ValueError("tail window ends before it starts")
    power = config.power
    zero = np.zeros(start.shape, dtype=start.dtype)
    d1 = np.maximum(np.minimum(end, b1) - np.maximum(start, zero), zero)
    d2 = np.maximum(np.minimum(end, b2) - np.maximum(start, b1), zero)
    d3 = np.maximum(end - np.maximum(start, b2), zero)
    return (power.dch * d1 + power.fach * d2) + power.idle * d3


def tail_state_grid(offset: np.ndarray, b1: np.ndarray,
                    b2: np.ndarray) -> np.ndarray:
    """State code per element ``offset`` seconds after the anchor
    (DCH below ``b1``, FACH below ``b2``, IDLE beyond)."""
    offset = _offsets("tail offset", offset)
    return np.where(offset < b1, STATE_DCH,
                    np.where(offset < b2, STATE_FACH, STATE_IDLE))


def promotion_latency_grid(states: np.ndarray,
                           config: Optional[RrcConfig] = None
                           ) -> np.ndarray:
    """Latency added to the next transmission when it starts from each
    state code (Section 2.1 / Table 2)."""
    config = config or RrcConfig()
    return np.where(states == STATE_DCH, 0.0,
                    np.where(states == STATE_FACH,
                             config.promo_fach_latency,
                             config.promo_idle_latency))


def promotion_energy_grid(states: np.ndarray,
                          config: Optional[RrcConfig] = None
                          ) -> np.ndarray:
    """Signalling energy of the next promotion from each state code
    (the Fig. 3 trade-off: promoting from IDLE is expensive)."""
    config = config or RrcConfig()
    power = config.power
    return np.where(states == STATE_DCH, 0.0,
                    np.where(states == STATE_FACH,
                             power.promotion * config.promo_fach_latency,
                             power.promotion * config.promo_idle_latency
                             + config.promo_idle_signalling_energy))


def reading_phase_grid(start: np.ndarray, reading: np.ndarray, alpha,
                       switch: np.ndarray, b1: np.ndarray, b2: np.ndarray,
                       config: Optional[RrcConfig] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Reading-phase energy and next-click state code per element.

    The page opens ``start`` seconds after its anchor and the user
    reads for ``reading`` seconds.  Without a switch the radio rides
    the tail over ``[start, start + reading)`` and the click finds it
    in whatever state the tail reached.  Where ``switch`` holds,
    Algorithm 2 cuts the tail at ``alpha`` and the radio idles for the
    rest (``idle × (reading − alpha)``), so the click finds it in IDLE;
    callers set ``switch`` only where ``reading > alpha``, since a user
    who left before the decision point cannot be helped.
    """
    config = config or RrcConfig()
    end = start + reading
    full = tail_energy_grid(start, end, b1, b2, config)
    cut = (tail_energy_grid(start, start + alpha, b1, b2, config)
           + config.power.idle * (reading - alpha))
    energy = np.where(switch, cut, full)
    states = np.where(switch, STATE_IDLE, tail_state_grid(end, b1, b2))
    return energy, states
