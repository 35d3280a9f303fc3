"""The event loop as a peek/step loop over the public ``step()``."""

from typing import Optional

from repro.sim.kernel import SimulationError, Simulator


def drain(sim: Simulator, until: Optional[float] = None,
          max_events: Optional[int] = None) -> None:
    """Reference for ``Simulator._drain``: one ``step()`` per event.

    Patch it over ``Simulator._drain`` to run a whole experiment on this
    loop; ``Simulator.run`` keeps its bookkeeping around either one.
    """
    processed = 0
    while True:
        next_time = sim._queue.peek_time()
        if next_time is None:
            break
        if until is not None and next_time > until:
            break
        if max_events is not None and processed >= max_events:
            raise SimulationError(f"exceeded max_events={max_events}")
        sim.step()
        processed += 1
