"""The RRC state machine with inactivity timers and fast dormancy.

The machine tracks the handset's radio mode over simulated time as a list
of :class:`StateSegment` records, which the power meter later integrates.
Data transfers drive it through three calls:

1. :meth:`RrcMachine.acquire_channel` — make sure the handset is in DCH,
   paying the promotion latency/energy if it is not, then invoke the
   caller's continuation;
2. :meth:`RrcMachine.tx_begin` / :meth:`RrcMachine.tx_end` — bracket the
   actual byte transfer (reference counted, since HTTP transfers overlap).

When the last transfer ends, timer T1 is armed; its expiry demotes to
FACH and arms T2, whose expiry demotes to IDLE — exactly the tail
behaviour of Section 2.1.  :meth:`RrcMachine.fast_dormancy` implements the
application-initiated release of Section 4.4 (reached through
:class:`repro.rrc.ril.RilLink`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.rrc.config import RrcConfig
from repro.rrc.states import RadioMode, RrcState
from repro.sim.kernel import Simulator


class RrcError(RuntimeError):
    """Raised on illegal radio operations (e.g. dormancy mid-transfer)."""


@dataclass(frozen=True)
class StateSegment:
    """A half-open interval [start, end) spent in one radio mode."""

    start: float
    end: float
    mode: RadioMode

    @property
    def duration(self) -> float:
        return self.end - self.start


class RrcMachine:
    """Simulated UMTS RRC state machine for one handset."""

    def __init__(self, sim: Simulator, config: Optional[RrcConfig] = None,
                 on_mode_change: Optional[
                     Callable[[float, RadioMode, RadioMode], None]] = None):
        self._sim = sim
        self.config = config or RrcConfig()
        self._on_mode_change = on_mode_change

        self._mode = RadioMode.IDLE
        self._segment_start = sim.now
        self.segments: List[StateSegment] = []

        self._tx_count = 0
        self._t1_event = None
        self._t2_event = None
        self._promoting = False
        self._waiters: List[Callable[[], None]] = []

        #: Discrete signalling energy events (time, joules) not covered by
        #: mode power (IDLE→DCH connection establishment).
        self.extra_energy_events: List[tuple] = []
        #: Promotion counters, keyed by source state name.
        self.promotions = {"IDLE": 0, "FACH": 0}
        #: Control messages exchanged with the backbone (Section 2.1).
        self.signalling_messages = 0
        #: Number of fast-dormancy releases executed.
        self.fast_dormancy_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> RadioMode:
        """Current radio mode (power-accounting granularity)."""
        return self._mode

    @property
    def state(self) -> RrcState:
        """Current RRC protocol state."""
        return self._mode.state

    @property
    def transmitting(self) -> bool:
        """True while at least one transfer is in flight."""
        return self._tx_count > 0

    # ------------------------------------------------------------------
    # Mode bookkeeping
    # ------------------------------------------------------------------
    def _set_mode(self, new_mode: RadioMode) -> None:
        if new_mode is self._mode:
            return
        now = self._sim.now
        if now > self._segment_start:
            self.segments.append(
                StateSegment(self._segment_start, now, self._mode))
        old = self._mode
        self._mode = new_mode
        self._segment_start = now
        if self._on_mode_change is not None:
            self._on_mode_change(now, old, new_mode)

    def finalize(self) -> None:
        """Close the open segment at the current simulation time.

        Call once measurement ends; afterwards :attr:`segments` covers the
        whole timeline.  Idempotent if the clock has not advanced.
        """
        now = self._sim.now
        if now > self._segment_start:
            self.segments.append(
                StateSegment(self._segment_start, now, self._mode))
            self._segment_start = now

    # ------------------------------------------------------------------
    # Timer management
    # ------------------------------------------------------------------
    def _cancel_timers(self) -> None:
        self._sim.cancel(self._t1_event)
        self._sim.cancel(self._t2_event)
        self._t1_event = None
        self._t2_event = None

    def _arm_t1(self) -> None:
        self._sim.cancel(self._t1_event)
        self._t1_event = self._sim.schedule(self.config.t1, self._t1_expired)

    def _t1_expired(self) -> None:
        self._t1_event = None
        if self.state is not RrcState.DCH or self.transmitting:
            return
        self._set_mode(RadioMode.FACH)
        self._arm_t2()

    def _arm_t2(self) -> None:
        self._sim.cancel(self._t2_event)
        self._t2_event = self._sim.schedule(self.config.t2, self._t2_expired)

    def _t2_expired(self) -> None:
        self._t2_event = None
        if self.state is RrcState.FACH:
            self._set_mode(RadioMode.IDLE)

    # ------------------------------------------------------------------
    # Channel acquisition (promotion)
    # ------------------------------------------------------------------
    def acquire_channel(self, on_granted: Callable[[], None]) -> None:
        """Ensure dedicated channels (DCH); run ``on_granted`` once there.

        Promotion latency depends on the source state; concurrent requests
        during a promotion are queued and granted together.
        """
        if self._promoting:
            self._waiters.append(on_granted)
            return
        if self.state is RrcState.DCH:
            self._cancel_timers()
            on_granted()
            return

        self._waiters.append(on_granted)
        self._promoting = True
        self._cancel_timers()
        if self.state is RrcState.IDLE:
            self.promotions["IDLE"] += 1
            self.signalling_messages += self.config.promo_idle_messages
            self.extra_energy_events.append(
                (self._sim.now, self.config.promo_idle_signalling_energy))
            self._set_mode(RadioMode.PROMO_IDLE_DCH)
            self._sim.schedule(self.config.promo_idle_latency,
                               self._promotion_done)
        else:  # FACH
            self.promotions["FACH"] += 1
            self.signalling_messages += self.config.promo_fach_messages
            self._set_mode(RadioMode.PROMO_FACH_DCH)
            self._sim.schedule(self.config.promo_fach_latency,
                               self._promotion_done)

    def _promotion_done(self) -> None:
        self._promoting = False
        self._set_mode(RadioMode.DCH)
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback()

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def tx_begin(self) -> None:
        """Mark the start of a byte transfer (handset must be in DCH)."""
        if self.state is not RrcState.DCH or self._promoting:
            raise RrcError(f"tx_begin in state {self.state} "
                           f"(promoting={self._promoting})")
        self._cancel_timers()
        self._tx_count += 1
        self._set_mode(RadioMode.DCH_TX)

    def tx_end(self) -> None:
        """Mark the end of a byte transfer; arms T1 when the last ends."""
        if self._tx_count <= 0:
            raise RrcError("tx_end without matching tx_begin")
        self._tx_count -= 1
        if self._tx_count == 0:
            self._set_mode(RadioMode.DCH)
            self._arm_t1()

    # ------------------------------------------------------------------
    # Application-initiated releases (Sections 4.1, 4.4)
    # ------------------------------------------------------------------
    def release_channels(self) -> None:
        """Release the dedicated channels now (DCH → FACH).

        The energy-aware browser calls this the moment its transmission
        phase completes, instead of burning T1 in DCH; the signalling
        connection stays up (T2 armed), so Algorithm 2 can still decide
        later whether to drop to IDLE.  No-op below DCH.
        """
        if self.transmitting:
            raise RrcError("channel release requested during a transfer")
        if self._promoting:
            raise RrcError("channel release requested during a promotion")
        if self.state is not RrcState.DCH:
            return
        self._cancel_timers()
        self._set_mode(RadioMode.FACH)
        self._arm_t2()

    # ------------------------------------------------------------------
    def fast_dormancy(self) -> None:
        """Release the radio resource and signalling connection now.

        Drops DCH or FACH straight to IDLE; illegal while a transfer is in
        flight or a promotion is being executed.
        """
        if self.transmitting:
            raise RrcError("fast dormancy requested during a transfer")
        if self._promoting:
            raise RrcError("fast dormancy requested during a promotion")
        if self.state is RrcState.IDLE:
            return
        self._cancel_timers()
        self._set_mode(RadioMode.IDLE)
        self.fast_dormancy_count += 1
