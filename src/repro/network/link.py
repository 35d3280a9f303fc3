"""The 3G link: a bandwidth/RTT pipe gated by the RRC state machine.

Transfers are serialised.  On a 3G downlink the handset's parallel
HTTP connections share one dedicated channel, so aggregate throughput —
which is what the energy accounting depends on — is the same whether the
byte streams interleave or queue; serialising keeps the simulation
deterministic.  Within the serial order, documents/stylesheets/scripts
take priority over media, and a request whose round trip has already
elapsed (response bytes ready to stream) goes out before one that would
stall the downlink for its remaining RTT — the serial stand-in for the
parallel connections real browsers use.

Every transfer acquires the dedicated channel first (paying the promotion
latency when the radio is in FACH or IDLE) and brackets its wire time with
``tx_begin``/``tx_end`` so the radio draws transmission-level power for
exactly the bytes-in-flight interval.

Default calibration follows Fig. 4 of the paper: a bulk socket download
of 760 KB completes in ~11 s wire time (~70 KB/s effective downlink
goodput on the 2012-era T-Mobile UMTS network) with a 400 ms round trip,
and the browsing workloads then reproduce the loading-time ratios of
Figs. 8–10.

The constant pipe is the *baseline*.  An optional
:class:`repro.faults.injector.FaultInjector` layers time-varying
impairments on top — bandwidth fades, RTT jitter, Gilbert–Elliott loss,
promotion stalls — and an optional :class:`repro.faults.recovery.
RecoveryPolicy` bounds the damage: an attempt that is lost or outlasts
the timeout is retried after an exponential backoff, and a transfer that
exhausts its attempts is delivered *failed* so the page degrades instead
of hanging.  Both hooks default to ``None``, in which case the code path
is exactly the baseline one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Sequence, Tuple

from repro.network.transfer import Transfer
from repro.rrc.machine import RrcMachine
from repro.rrc.states import RrcState
from repro.sim.kernel import Simulator
from repro.units import require_non_negative, require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.faults.injector import FaultInjector
    from repro.faults.recovery import RecoveryPolicy

#: Outcomes of one wire attempt.
_ATTEMPT_OK = "ok"
_ATTEMPT_LOST = "lost"
_ATTEMPT_TIMEOUT = "timeout"


@dataclass(frozen=True)
class NetworkConfig:
    """Link parameters for the simulated UMTS data path."""

    #: Effective downlink goodput in bytes/second.
    downlink_bandwidth: float = 70_000.0
    #: Effective uplink goodput in bytes/second (requests are small).
    uplink_bandwidth: float = 40_000.0
    #: Round-trip time between handset and server, seconds.
    rtt: float = 0.4
    #: Size of an HTTP request (headers), bytes.
    request_bytes: float = 400.0
    #: Per-request server/HTTP overhead that cannot be pipelined away.
    pipeline_overhead: float = 0.13

    def __post_init__(self) -> None:
        require_positive("downlink_bandwidth", self.downlink_bandwidth)
        require_positive("uplink_bandwidth", self.uplink_bandwidth)
        require_non_negative("rtt", self.rtt)
        require_non_negative("request_bytes", self.request_bytes)
        require_non_negative("pipeline_overhead", self.pipeline_overhead)

    def wire_time(self, size_bytes: float, queue_delay: float = 0.0) -> float:
        """Wire time of one request/response of ``size_bytes`` payload.

        ``queue_delay`` is how long the request has already been queued
        behind other transfers.  Browsers issue queued requests
        immediately on parallel/pipelined connections, so their RTT
        overlaps the ongoing downloads: by the time the downlink frees,
        up to ``queue_delay`` of the round trip has already elapsed.
        A request hitting an idle link pays the full RTT.
        """
        effective_rtt = max(0.0, self.rtt - queue_delay)
        return (effective_rtt + self.pipeline_overhead
                + self.request_bytes / self.uplink_bandwidth
                + size_bytes / self.downlink_bandwidth)


class Link:
    """FIFO transfer scheduler over the RRC-gated 3G pipe."""

    def __init__(self, sim: Simulator, machine: RrcMachine,
                 config: Optional[NetworkConfig] = None,
                 injector: Optional["FaultInjector"] = None,
                 recovery: Optional["RecoveryPolicy"] = None):
        self._sim = sim
        self._machine = machine
        self.config = config or NetworkConfig()
        self._injector = injector
        self._recovery = recovery
        # Two-level priority: documents, stylesheets and scripts jump
        # ahead of images/flash, as real browsers schedule them.
        self._high: Deque[Tuple[Transfer, Callable[[Transfer], None]]] = \
            deque()
        self._low: Deque[Tuple[Transfer, Callable[[Transfer], None]]] = \
            deque()
        self._active = False
        #: When the current DCH busy streak's channel came up; requests
        #: cannot overlap their RTT with anything before this instant.
        self._streak_ready: Optional[float] = None
        self.transfers: List[Transfer] = []

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while bytes are moving or transfers are queued."""
        return self._active or bool(self._high) or bool(self._low)

    def fetch(self, size_bytes: float, on_complete: Callable[[Transfer],
              None], label: str = "", high_priority: bool = True
              ) -> Transfer:
        """Request a download of ``size_bytes``; ``on_complete(transfer)``
        fires when the last byte arrives — or, under fault injection,
        when the recovery policy gives the transfer up for good, with
        ``transfer.failed`` set.  ``high_priority`` transfers (documents,
        stylesheets, scripts) are scheduled before low-priority ones
        (images, flash)."""
        require_non_negative("size_bytes", size_bytes)
        transfer = Transfer(label=label, size_bytes=size_bytes,
                            requested_at=self._sim.now,
                            high_priority=high_priority)
        self.transfers.append(transfer)
        queue = self._high if high_priority else self._low
        queue.append((transfer, on_complete))
        self._dispatch()
        return transfer

    def fetch_many(self, requests: Sequence[Tuple[float,
                   Callable[[Transfer], None], str, bool]]
                   ) -> List[Transfer]:
        """Request a batch of back-to-back downloads in one call.

        ``requests`` holds ``(size_bytes, on_complete, label,
        high_priority)`` tuples.  Event-for-event identical to calling
        :meth:`fetch` once per tuple: the dispatch happens after the
        *first* enqueue (as the first sequential ``fetch`` would do it),
        so a synchronously granted channel sees exactly the queue state
        the sequential calls would have produced; every later ``fetch``'s
        dispatch would have been a no-op anyway because the link is
        already active by then.
        """
        now = self._sim.now
        transfers: List[Transfer] = []
        for size_bytes, on_complete, label, high_priority in requests:
            require_non_negative("size_bytes", size_bytes)
            transfer = Transfer(label=label, size_bytes=size_bytes,
                                requested_at=now,
                                high_priority=high_priority)
            self.transfers.append(transfer)
            queue = self._high if high_priority else self._low
            queue.append((transfer, on_complete))
            transfers.append(transfer)
            if len(transfers) == 1:
                self._dispatch()
        return transfers

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._active or not (self._high or self._low):
            return
        self._active = True
        if (self._injector is not None
                and self._machine.state is not RrcState.DCH):
            # A stalled promotion: the RACH procedure retries before the
            # RRC connection setup even starts, so the spike precedes
            # (and adds to) the usual promotion latency.
            spike = self._injector.promotion_spike()
            if spike > 0.0:
                self._sim.schedule(spike, self._machine.acquire_channel,
                                   self._channel_granted)
                return
        self._machine.acquire_channel(self._channel_granted)

    def _channel_granted(self) -> None:
        if not (self._high or self._low):  # all requests were drained
            self._active = False
            return
        now = self._sim.now
        if self._streak_ready is None:
            self._streak_ready = now
        transfer, on_complete = self._pop_next(now)
        if transfer.started_at is None:
            transfer.started_at = now
        transfer.attempts += 1
        self._machine.tx_begin()
        # The RTT can only overlap time during which the request could
        # actually have been in flight: after it was (re-)issued AND
        # after the channel came up (a promotion wait buys no overlap).
        overlap = now - max(transfer.issued_at, self._streak_ready)
        wire = self.config.wire_time(transfer.size_bytes,
                                     queue_delay=overlap)
        wire, outcome = self._shape_attempt(now, transfer, wire)
        self._sim.schedule(wire, self._attempt_done, transfer, on_complete,
                           outcome)

    def _shape_attempt(self, now: float, transfer: Transfer,
                       wire: float) -> Tuple[float, str]:
        """Apply channel impairments to one attempt's wire time.

        Returns the (possibly stretched) time the attempt occupies the
        radio and its outcome.  A lost attempt occupies the radio for the
        full recovery timeout — the handset waits for a response that
        never comes — which is exactly the energy waste the recovery
        layer exists to bound.
        """
        if self._injector is None:
            return wire, _ATTEMPT_OK
        scale = self._injector.bandwidth_scale(now)
        if scale != 1.0:
            payload_time = transfer.size_bytes / self.config.downlink_bandwidth
            wire += payload_time * (1.0 / scale - 1.0)
        wire += self._injector.attempt_rtt_jitter()
        if self._recovery is None:
            # Loss needs a retry path to be survivable; without a
            # recovery policy the channel only fades and jitters.
            return wire, _ATTEMPT_OK
        if self._injector.attempt_lost():
            return self._recovery.timeout, _ATTEMPT_LOST
        if wire > self._recovery.timeout:
            self._injector.note_timeout()
            return self._recovery.timeout, _ATTEMPT_TIMEOUT
        return wire, _ATTEMPT_OK

    def _pop_next(self, now: float
                  ) -> Tuple[Transfer, Callable[[Transfer], None]]:
        """Pick the next transfer to put on the downlink.

        Prefer a request whose round trip has already elapsed — its
        response bytes are at the handset, ready to stream, so the
        downlink pays no dead air — documents before media as usual.
        Only when *no* queued response is ready does the strict
        priority-FIFO head go out and pay its remaining RTT.  Each queue
        is FIFO in request time, so checking heads is enough: if any
        entry is ready, the head is.  Without this, a freshly issued
        request (a script discovered late in a chain) stalls the pipe
        for a full RTT while long-queued responses sit ready behind it.
        """
        def head_ready(queue) -> bool:
            if not queue:
                return False
            head, _ = queue[0]
            waited = now - max(head.issued_at, self._streak_ready)
            return waited >= self.config.rtt
        if head_ready(self._high):
            return self._high.popleft()
        if head_ready(self._low):
            return self._low.popleft()
        return (self._high.popleft() if self._high
                else self._low.popleft())

    def _attempt_done(self, transfer: Transfer,
                      on_complete: Callable[[Transfer], None],
                      outcome: str) -> None:
        if outcome == _ATTEMPT_OK:
            transfer.completed_at = self._sim.now
        elif outcome == _ATTEMPT_LOST:
            transfer.lost_attempts += 1
        else:
            transfer.timeout_attempts += 1
        self._machine.tx_end()
        self._active = False
        retrying = (outcome != _ATTEMPT_OK and self._recovery is not None
                    and transfer.attempts < self._recovery.max_attempts)
        if retrying:
            if self._injector is not None:
                self._injector.note_retry()
            self._sim.schedule(self._recovery.backoff(transfer.attempts),
                               self._requeue, transfer, on_complete)
        elif outcome != _ATTEMPT_OK:
            transfer.failed = True
            if self._injector is not None:
                self._injector.note_transfer_failed()
        if not (self._high or self._low):
            self._streak_ready = None
        # Start the next queued transfer before user code runs so that
        # back-to-back transfers never arm T1 spuriously for a full tick.
        self._dispatch()
        if not retrying:
            on_complete(transfer)

    def _requeue(self, transfer: Transfer,
                 on_complete: Callable[[Transfer], None]) -> None:
        """Put a lost/timed-out transfer back in its queue after backoff."""
        transfer.retry_issued_at = self._sim.now
        queue = self._high if transfer.high_priority else self._low
        queue.append((transfer, on_complete))
        self._dispatch()
