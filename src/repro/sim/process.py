"""A single-core CPU executing a queue of sequential tasks.

The browser engines model a smartphone's application processor: one task
runs at a time, tasks queue FIFO, and observers are told when the CPU goes
busy/idle so the power meter can account for compute energy.  Task
durations are already scaled for device speed by the cost model
(:mod:`repro.browser.costs`), so the process itself is device-agnostic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional

from repro.sim.kernel import Simulator
from repro.units import require_non_negative


@dataclass
class CpuTask:
    """One unit of sequential computation.

    ``on_done`` runs when the task finishes (still at simulated time);
    ``category`` is free-form and used by the engines to attribute time to
    data-transmission vs layout computation.
    """

    name: str
    duration: float
    category: str = "generic"
    on_done: Optional[Callable[[], Any]] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_non_negative("duration", self.duration)


@dataclass
class _BusyInterval:
    start: float
    end: float
    category: str
    name: str


class CpuProcess:
    """FIFO single-core task executor on top of the simulation kernel."""

    def __init__(self, sim: Simulator,
                 on_busy_change: Optional[Callable[[bool], None]] = None):
        self._sim = sim
        self._pending: Deque[CpuTask] = deque()
        self._current: Optional[CpuTask] = None
        self._on_busy_change = on_busy_change
        self._busy_since: Optional[float] = None
        self.intervals: List[_BusyInterval] = []
        self.time_by_category: dict = {}

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a task is executing."""
        return self._current is not None

    @property
    def queued(self) -> int:
        """Number of tasks waiting behind the current one."""
        return len(self._pending)

    def submit(self, task: CpuTask) -> None:
        """Enqueue a task; starts immediately if the CPU is idle."""
        self._pending.append(task)
        if not self.busy:
            self._start_next()

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if self.busy or not self._pending:
            return
        task = self._pending.popleft()
        self._current = task
        if self._busy_since is None:
            self._busy_since = self._sim.now
            if self._on_busy_change is not None:
                self._on_busy_change(True)
        self._sim.schedule(task.duration, self._finish, task)

    def _finish(self, task: CpuTask) -> None:
        start = self._sim.now - task.duration
        self.intervals.append(
            _BusyInterval(start, self._sim.now, task.category, task.name))
        self.time_by_category[task.category] = (
            self.time_by_category.get(task.category, 0.0) + task.duration)
        self._current = None
        if task.on_done is not None:
            # on_done may submit follow-up tasks, which restarts the CPU
            # synchronously; re-check busy afterwards.
            task.on_done()
        if not self.busy:
            if self._pending:
                self._start_next()
            elif self._busy_since is not None:
                self._busy_since = None
                if self._on_busy_change is not None:
                    self._on_busy_change(False)

    # ------------------------------------------------------------------
    def busy_time(self, category: Optional[str] = None) -> float:
        """Total executed seconds, optionally restricted to a category."""
        if category is None:
            return sum(self.time_by_category.values())
        return self.time_by_category.get(category, 0.0)
