"""Radio configuration: timers, promotion costs, and the power profile.

All defaults come straight from the paper:

- Table 5 gives the per-state device power (display + system included):
  IDLE 0.15 W, FACH 0.63 W, DCH 1.15 W without transmission, 1.25 W with,
  and 0.60 W for a fully busy CPU in IDLE (i.e. +0.45 W of compute power
  over the IDLE baseline).
- Section 2.1: T1 = 4 s (DCH→FACH), T2 = 15 s (FACH→IDLE); IDLE→DCH
  promotion takes "more than one second" of signalling.
- Section 3.1: switching to IDLE after a transmission adds ~1.75 s of
  extra latency to the next transmission, and only pays off when the
  inter-transmission gap exceeds 9 s.  We honour both: the promotion
  latency difference is 1.75 s, and ``promo_idle_signalling_energy`` is
  calibrated so that the break-even interval of the intuitive scheme
  (Fig. 3) lands at 9 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rrc.states import RadioMode
from repro.units import require_non_negative, require_positive


@dataclass(frozen=True)
class PowerProfile:
    """Device power (watts) per radio mode, Table 5 of the paper."""

    idle: float = 0.15
    fach: float = 0.63
    dch: float = 1.15
    dch_tx: float = 1.25
    #: Power drawn during a promotion signalling burst.  Promotion keeps the
    #: transceiver lit at transmission level.
    promotion: float = 1.25
    #: Extra power drawn by a fully busy CPU (Table 5 lists 0.60 W for a
    #: fully running CPU in IDLE, i.e. 0.45 W above the 0.15 W baseline).
    cpu_active: float = 0.45

    def __post_init__(self) -> None:
        for name in ("idle", "fach", "dch", "dch_tx", "promotion",
                     "cpu_active"):
            require_non_negative(name, getattr(self, name))
        if not self.idle <= self.fach <= self.dch <= self.dch_tx:
            raise ValueError(
                "power profile must be ordered idle <= fach <= dch <= dch_tx")

    def for_mode(self, mode: RadioMode) -> float:
        """Radio power for a :class:`RadioMode` (excluding CPU power)."""
        return {
            RadioMode.IDLE: self.idle,
            RadioMode.FACH: self.fach,
            RadioMode.DCH: self.dch,
            RadioMode.DCH_TX: self.dch_tx,
            RadioMode.PROMO_IDLE_DCH: self.promotion,
            RadioMode.PROMO_FACH_DCH: self.promotion,
        }[mode]


@dataclass(frozen=True)
class RrcConfig:
    """Timer and promotion parameters of the RRC state machine."""

    #: DCH inactivity timer (seconds); release dedicated channels on expiry.
    t1: float = 4.0
    #: FACH inactivity timer (seconds); release signalling connection.
    t2: float = 15.0
    #: Latency of the IDLE→DCH promotion (signalling-connection
    #: establishment plus dedicated-channel allocation).
    promo_idle_latency: float = 2.0
    #: Latency of the FACH→DCH promotion (signalling connection already
    #: exists, only channels must be allocated).
    promo_fach_latency: float = 0.25
    #: Extra signalling energy (joules) charged for an IDLE→DCH promotion
    #: on top of the promotion-mode power draw.  Calibrated so that the
    #: intuitive immediate-IDLE scheme of Fig. 3 breaks even at a 9 s
    #: inter-transmission interval.
    promo_idle_signalling_energy: float = 4.2
    #: Control messages exchanged for an IDLE→DCH promotion (Section 2.1:
    #: "requires ten of control message exchanges").
    promo_idle_messages: int = 10
    #: Control messages for the cheaper FACH→DCH promotion (channel
    #: allocation only — the signalling connection already exists).
    promo_fach_messages: int = 4
    power: PowerProfile = field(default_factory=PowerProfile)

    def __post_init__(self) -> None:
        require_positive("t1", self.t1)
        require_positive("t2", self.t2)
        require_positive("promo_idle_latency", self.promo_idle_latency)
        require_positive("promo_fach_latency", self.promo_fach_latency)
        require_non_negative("promo_idle_signalling_energy",
                             self.promo_idle_signalling_energy)
        if self.promo_idle_messages < 0 or self.promo_fach_messages < 0:
            raise ValueError("promotion message counts must be "
                             "non-negative")
        if self.promo_fach_latency > self.promo_idle_latency:
            raise ValueError("FACH→DCH promotion cannot be slower than "
                             "IDLE→DCH promotion")

    @property
    def tail_time(self) -> float:
        """Total tail (T1 + T2) before an inactive radio reaches IDLE."""
        return self.t1 + self.t2
