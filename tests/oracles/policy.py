"""Scalar twins of the Algorithm-2 fleet paths.

``switch`` is the rule as Sec. 4.2 writes it, one pageview at a time;
``switch_decisions`` and ``predict_rows`` apply it (and the on-phone
tree traversal) row by row; ``threshold_fractions`` is the per-anchor
loop the sorted search replaced; ``run_case`` is the per-record Table-6
accounting loop that ``PolicyEvaluator._run_case``'s array pass
replaced, scored with the scalar tail twins of ``tests/oracles/tail.py``.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.rrc.states import RrcState
from tests.oracles import tail


def switch(reading: float, mode: str, power_threshold: float,
           delay_threshold: float) -> bool:
    """Algorithm 2: ``Tr > Td or (mode == power and Tr > Tp)``."""
    return reading > delay_threshold or (mode == "power"
                                         and reading > power_threshold)


def switch_decisions(predicted, mode: str, power_threshold: float,
                     delay_threshold: float) -> np.ndarray:
    """:func:`switch` element by element."""
    return np.array([switch(float(reading), mode, power_threshold,
                            delay_threshold)
                     for reading in np.asarray(predicted, dtype=float)],
                    dtype=bool)


def predict_rows(predictor, x) -> np.ndarray:
    """``ReadingTimePredictor.predict`` as one traversal per row."""
    return np.array([predictor.predict_one(row)
                     for row in np.asarray(x, dtype=float)])


def threshold_fractions(times: np.ndarray,
                        thresholds: Sequence[float]) -> List[float]:
    """``100 * P(time < threshold)`` as one boolean mean per anchor."""
    times = np.asarray(times, dtype=float)
    return [100.0 * float(np.mean(times < threshold))
            for threshold in thresholds]


def _reading_original(evaluator, profile, reading: float,
                      switch_at: Optional[float]
                      ) -> Tuple[float, RrcState]:
    """Reading energy and click-time state, original engine anchor."""
    rrc = evaluator.config.rrc
    start = profile.tail_offset_at_open
    if switch_at is None or reading <= switch_at:
        energy = tail.tail_energy_after_tx(start, start + reading, rrc)
        return energy, tail.tail_state_after_tx(start + reading, rrc)
    energy = tail.tail_energy_after_tx(start, start + switch_at, rrc)
    energy += rrc.power.idle * (reading - switch_at)
    return energy, RrcState.IDLE


def _reading_energy_aware(evaluator, profile, reading: float,
                          switch_at: Optional[float]
                          ) -> Tuple[float, RrcState]:
    """Reading energy and click-time state, channel-release anchor."""
    rrc = evaluator.config.rrc
    start = profile.release_offset_at_open
    if switch_at is None or reading <= switch_at:
        energy = tail.tail_energy_after_release(start, start + reading, rrc)
        return energy, tail.tail_state_after_release(start + reading, rrc)
    energy = tail.tail_energy_after_release(start, start + switch_at, rrc)
    energy += rrc.power.idle * (reading - switch_at)
    return energy, RrcState.IDLE


def run_case(evaluator, engine: str, policy,
             switch_delay: float) -> Tuple[float, float, float]:
    """``PolicyEvaluator._run_case`` as one record at a time: total
    (energy, delay, switch_rate) of one Table-6 case, the radio state
    carried from click to click and reset to IDLE at each session."""
    rrc = evaluator.config.rrc
    total_energy = 0.0
    total_delay = 0.0
    switches = 0
    count = 0
    switch_flags = None
    if policy is not None:
        switch_flags = policy.switches(*evaluator._eval_arrays())
    for session in evaluator.eval_set.sessions():
        state = RrcState.IDLE  # sessions start after a long gap
        for record in session.records:
            profile = evaluator._profile(record.page_name, engine)
            reading = record.reading_time
            count += 1

            switch_at: Optional[float] = None
            # Algorithm 2 waits for the interest threshold before
            # deciding; a user who already left cannot be helped.
            if (switch_flags is not None and switch_flags[count - 1]
                    and reading > switch_delay):
                switch_at = switch_delay
                switches += 1

            if engine == "original":
                read_energy, next_state = _reading_original(
                    evaluator, profile, reading, switch_at)
            else:
                read_energy, next_state = _reading_energy_aware(
                    evaluator, profile, reading, switch_at)

            total_energy += (tail.promotion_energy(state, rrc)
                             + profile.loading_energy + read_energy)
            total_delay += (tail.promotion_latency(state, rrc)
                            + profile.load_time)
            state = next_state
    rate = switches / count if count else 0.0
    return total_energy, total_delay, rate
