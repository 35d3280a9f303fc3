"""Radio Interface Layer (RIL) message path, Section 4.4 of the paper.

On Android the radio firmware is closed; applications reach it through a
message chain: application → framework (``RIL.java``) → Unix socket →
firmware.  The paper implements its state switch at the application layer
through exactly this chain.  We model the chain explicitly — each hop adds
a small latency and every message is logged — so that the control path the
paper describes is exercised, and so tests can assert on it.

Errors are first-class: a request that the radio cannot honour (dormancy
mid-transfer, a message lost in the chain, firmware that ignores fast
dormancy) comes back with :attr:`RilMessage.error` set, is appended to
:attr:`RilLink.errors`, and is routed to the caller's ``on_error``
callback when one is given (falling back to ``on_complete`` otherwise,
so legacy callers that inspect ``message.error`` keep working).  An
optional :class:`repro.faults.injector.FaultInjector` makes the chain
itself unreliable: messages can be dropped before reaching the firmware,
delayed in the socket hop, or — for dormancy/release requests —
delivered to a firmware that simply does not act, leaving the radio in
DCH/FACH with the tail timers burning energy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.rrc.machine import RrcError, RrcMachine
from repro.sim.kernel import Simulator
from repro.units import require_non_negative

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.faults.injector import FaultInjector


class RilMessageType(enum.Enum):
    """Operations an application can request from the radio firmware."""

    FAST_DORMANCY = "FAST_DORMANCY"
    RELEASE_CHANNELS = "RELEASE_CHANNELS"
    QUERY_STATE = "QUERY_STATE"


@dataclass
class RilMessage:
    """One message travelling down (and its reply back up) the RIL chain."""

    message_type: RilMessageType
    sent_at: float
    delivered_at: Optional[float] = None
    reply: Optional[str] = None
    error: Optional[str] = None
    hops: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True once the firmware acknowledged the request."""
        return self.reply == "OK" and self.error is None


#: Callback signature shared by the completion and error paths.
RilCallback = Callable[[RilMessage], None]


class RilLink:
    """The framework-to-firmware message chain for one handset."""

    #: Latency of the framework hop (application → RIL.java).
    FRAMEWORK_HOP_LATENCY = 0.005
    #: Latency of the socket hop (RIL.java → rild → firmware).
    SOCKET_HOP_LATENCY = 0.015

    def __init__(self, sim: Simulator, machine: RrcMachine,
                 framework_latency: Optional[float] = None,
                 socket_latency: Optional[float] = None,
                 injector: Optional["FaultInjector"] = None):
        self._sim = sim
        self._machine = machine
        self._injector = injector
        self._framework_latency = (self.FRAMEWORK_HOP_LATENCY
                                   if framework_latency is None
                                   else framework_latency)
        self._socket_latency = (self.SOCKET_HOP_LATENCY
                                if socket_latency is None
                                else socket_latency)
        require_non_negative("framework_latency", self._framework_latency)
        require_non_negative("socket_latency", self._socket_latency)
        self.log: List[RilMessage] = []
        #: Every message that came back with an error, in arrival order.
        self.errors: List[RilMessage] = []

    def request_fast_dormancy(
            self,
            on_complete: Optional[RilCallback] = None,
            on_error: Optional[RilCallback] = None,
    ) -> RilMessage:
        """Send FAST_DORMANCY down the chain; the firmware releases the
        signalling connection (→ IDLE) when the message arrives.

        Returns the in-flight :class:`RilMessage`.  ``on_complete`` fires
        when the firmware has acted; a request that fails (illegal radio
        state, message lost, firmware ignoring the command) goes to
        ``on_error`` instead, with :attr:`RilMessage.error` describing
        why.  Without an ``on_error``, failures fall back to
        ``on_complete`` so callers can check ``message.error``.
        """
        return self._send(RilMessageType.FAST_DORMANCY, on_complete,
                          on_error)

    def request_channel_release(
            self,
            on_complete: Optional[RilCallback] = None,
            on_error: Optional[RilCallback] = None,
    ) -> RilMessage:
        """Send RELEASE_CHANNELS: drop the dedicated channels (→ FACH)
        while keeping the signalling connection (Section 4.1)."""
        return self._send(RilMessageType.RELEASE_CHANNELS, on_complete,
                          on_error)

    def _send(self, message_type: RilMessageType,
              on_complete: Optional[RilCallback],
              on_error: Optional[RilCallback]) -> RilMessage:
        message = RilMessage(message_type, self._sim.now)
        self.log.append(message)
        self._sim.schedule(self._framework_latency,
                           self._framework_hop, message, on_complete,
                           on_error)
        return message

    def _framework_hop(self, message: RilMessage,
                       on_complete: Optional[RilCallback],
                       on_error: Optional[RilCallback]) -> None:
        message.hops.append("RIL.java")
        socket_latency = self._socket_latency
        if self._injector is not None:
            if self._injector.ril_dropped():
                # The socket write never reaches rild; the framework
                # notices the broken pipe one socket timeout later.
                message.error = "message lost in RIL chain"
                self._sim.schedule(socket_latency, self._deliver, message,
                                   on_complete, on_error)
                return
            socket_latency += self._injector.ril_delay()
        self._sim.schedule(socket_latency,
                           self._firmware_hop, message, on_complete,
                           on_error)

    def _firmware_hop(self, message: RilMessage,
                      on_complete: Optional[RilCallback],
                      on_error: Optional[RilCallback]) -> None:
        message.hops.append("firmware")
        message.delivered_at = self._sim.now
        dormancy_request = message.message_type in (
            RilMessageType.FAST_DORMANCY, RilMessageType.RELEASE_CHANNELS)
        if (dormancy_request and self._injector is not None
                and self._injector.dormancy_fails()):
            # Failed fast dormancy (Section 4.4's risk): the firmware
            # acknowledges nothing and the radio stays where it is; the
            # inactivity timers demote it eventually, burning the tail.
            message.error = ("fast dormancy ignored by firmware; "
                            "radio stays in " + str(self._machine.state))
            self._deliver(message, on_complete, on_error)
            return
        try:
            if message.message_type is RilMessageType.FAST_DORMANCY:
                self._machine.fast_dormancy()
            elif message.message_type is RilMessageType.RELEASE_CHANNELS:
                self._machine.release_channels()
            message.reply = "OK"
        except RrcError as exc:
            message.error = str(exc)
        self._deliver(message, on_complete, on_error)

    def _deliver(self, message: RilMessage,
                 on_complete: Optional[RilCallback],
                 on_error: Optional[RilCallback]) -> None:
        """Route the finished message up: errors to ``on_error`` (falling
        back to ``on_complete``), successes to ``on_complete``."""
        if message.error is not None:
            self.errors.append(message)
            if on_error is not None:
                on_error(message)
                return
        if on_complete is not None:
            on_complete(message)
