"""Shared engine machinery and the page-load result record.

A :class:`BrowserEngine` wires together the simulation kernel, the 3G
link, a single-core CPU and a page.  Subclasses decide *what* computation
to run when an object arrives; the base class handles fetch bookkeeping,
task accounting (split into the paper's two categories), display events,
and completion detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.browser.config import BrowserConfig
from repro.browser.costs import BrowserCosts
from repro.browser.dom import DomTree
from repro.network.link import Link
from repro.network.transfer import Transfer
from repro.rrc.ril import RilLink
from repro.sim.kernel import Simulator
from repro.sim.process import CpuProcess, CpuTask
from repro.webpages.objects import WebObject
from repro.webpages.page import Webpage

#: Task category: computation that can generate new data transmissions.
TX_COMPUTE = "tx"
#: Task category: computation that only lays out the page.
LAYOUT_COMPUTE = "layout"


@dataclass(frozen=True)
class DisplayEvent:
    """A display drawn on screen (relative time, seconds since load)."""

    time: float
    kind: str  # "intermediate" | "final"
    node_count: int


@dataclass
class PageLoadResult:
    """Everything measured while loading one page with one engine.

    All times are seconds relative to the start of the load.
    ``data_transmission_time`` follows the paper's accounting (Section
    5.2): for the original engine it equals the loading time, because
    transmissions are spread across the whole load; for the energy-aware
    engine it is the end of the transmission phase, after which the radio
    can be released while layout runs.
    """

    page_url: str
    engine_name: str
    mobile: bool
    started_at: float
    data_transmission_time: float
    load_complete_time: float
    first_display_time: Optional[float]
    final_display_time: float
    tx_compute_time: float
    layout_compute_time: float
    js_exec_time: float
    reflow_count: int
    redraw_count: int
    reflow_time: float
    redraw_time: float
    dom_nodes: int
    bytes_downloaded: float
    object_count: int
    transfers: List[Transfer] = field(default_factory=list)
    display_events: List[DisplayEvent] = field(default_factory=list)
    #: Objects whose transfer exhausted its retries (page degraded).
    failed_objects: List[str] = field(default_factory=list)
    #: RIL errors the engine logged and survived (e.g. failed dormancy).
    ril_errors: List[str] = field(default_factory=list)

    @property
    def layout_phase_time(self) -> float:
        """Loading time spent after the last data transmission."""
        return self.load_complete_time - self.data_transmission_time

    @property
    def degraded(self) -> bool:
        """True when at least one object was abandoned to impairments."""
        return bool(self.failed_objects)

    @property
    def transfer_attempts(self) -> int:
        """Total wire attempts across all transfers (retries included)."""
        return sum(t.attempts for t in self.transfers)


class BrowserEngine:
    """Base class: fetch/task bookkeeping common to both engines."""

    name = "base"

    def __init__(self, sim: Simulator, link: Link, cpu: CpuProcess,
                 page: Webpage, costs: Optional[BrowserCosts] = None,
                 config: Optional[BrowserConfig] = None,
                 ril: Optional[RilLink] = None):
        self._sim = sim
        self._link = link
        self._cpu = cpu
        self.page = page
        self.costs = costs or BrowserCosts()
        self.config = config or BrowserConfig()
        self._ril = ril

        self.dom = DomTree()
        self._pending_fetches = 0
        self._outstanding_tasks = 0
        self._requested: set = set()
        self._start_time: Optional[float] = None
        self._on_complete: Optional[Callable[[PageLoadResult], None]] = None
        self.result: Optional[PageLoadResult] = None

        self.transfers: List[Transfer] = []
        self.display_events: List[DisplayEvent] = []
        self.failed_objects: List[str] = []
        self.ril_errors: List[str] = []
        self._compute_time: Dict[str, float] = {TX_COMPUTE: 0.0,
                                                LAYOUT_COMPUTE: 0.0}
        self.js_exec_time = 0.0
        self.reflow_count = 0
        self.redraw_count = 0
        self.reflow_time = 0.0
        self.redraw_time = 0.0
        self._last_byte_time = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def load(self, on_complete: Optional[
            Callable[[PageLoadResult], None]] = None) -> None:
        """Begin loading the page; ``on_complete(result)`` fires at the
        final display."""
        if self._start_time is not None:
            raise RuntimeError("engine instances are single-use")
        self._start_time = self._sim.now
        self._on_complete = on_complete
        self._fetch(self.page.root_id)

    @property
    def elapsed(self) -> float:
        """Seconds since the load started."""
        return self._sim.now - self._start_time

    # ------------------------------------------------------------------
    # Fetch bookkeeping
    # ------------------------------------------------------------------
    def _fetch(self, object_id: str) -> None:
        if object_id in self._requested:
            return
        self._requested.add(object_id)
        obj = self.page.objects[object_id]
        self._pending_fetches += 1
        transfer = self._link.fetch(obj.size_bytes, self._make_arrival(obj),
                                    label=object_id,
                                    high_priority=not obj.kind.is_multimedia)
        self.transfers.append(transfer)

    def _fetch_references(self, obj: WebObject,
                          include_dynamic: bool = False) -> None:
        refs = list(obj.static_references)
        if include_dynamic:
            refs.extend(obj.dynamic_references)
        requests = []
        for ref in refs:
            if ref in self._requested:
                continue
            self._requested.add(ref)
            child = self.page.objects[ref]
            requests.append((child.size_bytes, self._make_arrival(child),
                             ref, not child.kind.is_multimedia))
        if not requests:
            return
        self._pending_fetches += len(requests)
        self.transfers.extend(self._link.fetch_many(requests))

    def _make_arrival(self, obj: WebObject) -> Callable[[Transfer], None]:
        def arrived(transfer: Transfer) -> None:
            self._pending_fetches -= 1
            if transfer.failed:
                # Recovery gave the object up; render without it rather
                # than hanging the load (its references are never
                # discovered, so the page degrades transitively).
                self.failed_objects.append(obj.object_id)
                self._maybe_advance()
                return
            self._last_byte_time = max(self._last_byte_time,
                                       transfer.completed_at)
            self.on_object_arrived(obj)
            self._maybe_advance()
        return arrived

    def _log_ril_error(self, message) -> None:
        """``on_error`` hook for RIL requests: log and carry on — the
        inactivity timers still demote the radio eventually."""
        self.ril_errors.append(message.error or "unknown RIL error")

    # ------------------------------------------------------------------
    # Task bookkeeping
    # ------------------------------------------------------------------
    def _submit(self, name: str, duration: float, category: str,
                on_done: Optional[Callable[[], None]] = None) -> None:
        """Submit a computation task, tracking category time and phase
        completion."""
        self._outstanding_tasks += 1

        def wrapped() -> None:
            self._compute_time[category] += duration
            if on_done is not None:
                on_done()
            self._outstanding_tasks -= 1
            self._maybe_advance()

        self._cpu.submit(CpuTask(name=name, duration=duration,
                                 category=category, on_done=wrapped))

    def _submit_reflow(self) -> None:
        """Charge one reflow of the current tree (layout category)."""
        nodes = self.dom.node_count
        duration = self.costs.reflow_time(nodes)
        self.reflow_count += 1
        self.reflow_time += duration
        self._submit(f"reflow[{nodes}]", duration, LAYOUT_COMPUTE)

    def _submit_redraw(self) -> None:
        """Charge one redraw of the current tree (layout category)."""
        nodes = self.dom.node_count
        duration = self.costs.redraw_time(nodes)
        self.redraw_count += 1
        self.redraw_time += duration
        self._submit(f"redraw[{nodes}]", duration, LAYOUT_COMPUTE)

    def _record_display(self, kind: str) -> None:
        self.display_events.append(
            DisplayEvent(self.elapsed, kind, self.dom.node_count))

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def on_object_arrived(self, obj: WebObject) -> None:
        raise NotImplementedError

    def _maybe_advance(self) -> None:
        """Called whenever a fetch or task completes; subclasses advance
        their phase machine when both counters reach zero."""
        raise NotImplementedError

    @property
    def quiescent(self) -> bool:
        """No fetches in flight and no tasks queued or running."""
        return self._pending_fetches == 0 and self._outstanding_tasks == 0

    # ------------------------------------------------------------------
    # Result construction
    # ------------------------------------------------------------------
    def _finish(self, data_transmission_time: float) -> None:
        first = None
        final = self.elapsed
        for event in self.display_events:
            if event.kind == "intermediate" and first is None:
                first = event.time
            if event.kind == "final":
                final = event.time
        self.result = PageLoadResult(
            page_url=self.page.url,
            engine_name=self.name,
            mobile=self.page.mobile,
            started_at=self._start_time,
            data_transmission_time=data_transmission_time,
            load_complete_time=self.elapsed,
            first_display_time=first,
            final_display_time=final,
            tx_compute_time=self._compute_time[TX_COMPUTE],
            layout_compute_time=self._compute_time[LAYOUT_COMPUTE],
            js_exec_time=self.js_exec_time,
            reflow_count=self.reflow_count,
            redraw_count=self.redraw_count,
            reflow_time=self.reflow_time,
            redraw_time=self.redraw_time,
            dom_nodes=self.dom.node_count,
            bytes_downloaded=sum(t.size_bytes for t in self.transfers
                                 if t.complete),
            object_count=len(self.transfers),
            transfers=list(self.transfers),
            display_events=list(self.display_events),
            failed_objects=list(self.failed_objects),
            ril_errors=list(self.ril_errors),
        )
        if self._on_complete is not None:
            self._on_complete(self.result)
