"""Scalar twins of the :mod:`repro.rrc.tail` array forms.

The closed forms as first written, one pageview at a time: which state
the radio is in ``offset`` seconds after an anchor event, how much
energy the tail consumes over a window, and what the next promotion
costs from a state.  ``tests/rrc/test_tail.py`` requires the array
forms to match them bit for bit.
"""

from typing import Optional

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
