"""RRC state and radio-mode definitions.

:class:`RrcState` is the protocol-level state (Section 2.1 of the paper).
:class:`RadioMode` refines it for power accounting: DCH with and without an
active transmission draw different power (Table 5), and promotions are
modelled as explicit modes because the signalling burst has its own power
level and duration.
"""

from __future__ import annotations

import enum


class RrcState(enum.Enum):
    """The three RRC protocol states of a UMTS handset."""

    IDLE = "IDLE"
    FACH = "FACH"
    DCH = "DCH"

    def __str__(self) -> str:
        return self.value


class RadioMode(enum.Enum):
    """Power-accounting refinement of :class:`RrcState`."""

    IDLE = "idle"
    FACH = "fach"
    DCH = "dch"                       #: DCH, no bytes in flight
    DCH_TX = "dch_tx"                 #: DCH with an active transmission
    PROMO_IDLE_DCH = "promo_idle_dch"  #: signalling burst, IDLE → DCH
    PROMO_FACH_DCH = "promo_fach_dch"  #: signalling burst, FACH → DCH

    @property
    def state(self) -> RrcState:
        """The protocol state this mode belongs to (promotions count as
        the *destination* state for dwell-time accounting)."""
        if self in (RadioMode.IDLE,):
            return RrcState.IDLE
        if self in (RadioMode.FACH,):
            return RrcState.FACH
        return RrcState.DCH


#: Legal protocol-state transitions (Section 2.1).  DCH→IDLE directly is not
#: part of the standard demotion path; fast dormancy releases the signalling
#: connection from FACH.  The intuitive scheme of Section 3.1 drops straight
#: from DCH, which we model as DCH→FACH→IDLE executed back-to-back.
LEGAL_TRANSITIONS = {
    RrcState.IDLE: {RrcState.DCH},
    RrcState.FACH: {RrcState.DCH, RrcState.IDLE},
    RrcState.DCH: {RrcState.FACH},
}
