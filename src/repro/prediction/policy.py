"""Algorithm 2 and the Table-6 baseline policies.

A policy answers one question per pageview: once the page is opened (and
the reading time has exceeded the interest threshold α), should the
radio be forced to IDLE?  Algorithm 2's rule:

    switch  ⇔  Tr > Td  OR  (Tr > Tp AND mode == power)

where Tr is the predicted reading time, Td = T1 + T2 = 20 s (never any
delay penalty) and Tp = 9 s (energy break-even, Fig. 3).  The rule is
written once, as :func:`repro.fleet.policy.switch_decisions`.  The six
cases of Table 6 map to: :class:`PredictivePolicy` (Predict-9 /
Predict-20), :class:`OraclePolicy` (Accurate-9 / Accurate-20 — the
upper bound using the true reading time from the trace), and
:class:`AlwaysOffPolicy` (the two Always-off rows; the engine choice is
made by the evaluator).

Every policy answers for a whole matrix of pageviews at once
(:meth:`SwitchPolicy.switches`); :meth:`SwitchPolicy.decide` is the
one-row case.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.config import PolicyConfig
from repro.fleet.policy import switch_decisions
from repro.prediction.predictor import ReadingTimePredictor


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of one switching decision."""

    switch_to_idle: bool
    predicted_reading_time: Optional[float]
    reason: str


class SwitchPolicy(abc.ABC):
    """Interface: decide whether to force the radio to IDLE."""

    name = "base"

    @abc.abstractmethod
    def switches(self, features: np.ndarray,
                 readings: np.ndarray) -> np.ndarray:
        """Every pageview's decision: ``True`` where the radio should be
        forced to IDLE.

        ``features`` is an ``(n, k)`` matrix of Table-1 vectors collected
        while opening each page; ``readings`` holds the ``n`` true
        reading times, which only the oracle consults.
        """

    def estimates(self, features: np.ndarray,
                  readings: np.ndarray) -> Optional[np.ndarray]:
        """The reading time each decision compares with its thresholds,
        or ``None`` for a policy that compares none."""
        return None

    def reason(self, estimate: Optional[float]) -> str:
        """One line on why a single decision came out as it did."""
        return self.name

    def decide(self, features: Sequence[float],
               true_reading_time: float) -> PolicyDecision:
        """Decide for one pageview: the one-row case of :meth:`switches`."""
        row = np.asarray(features, dtype=float).reshape(1, -1)
        reading = np.array([true_reading_time], dtype=float)
        estimates = self.estimates(row, reading)
        estimate = None if estimates is None else float(estimates[0])
        return PolicyDecision(
            switch_to_idle=bool(self.switches(row, reading)[0]),
            predicted_reading_time=estimate,
            reason=self.reason(estimate))


class PredictivePolicy(SwitchPolicy):
    """Algorithm 2: predict Tr with GBRT, compare to Td/Tp."""

    def __init__(self, predictor: ReadingTimePredictor,
                 config: Optional[PolicyConfig] = None):
        self._predictor = predictor
        self.config = config or PolicyConfig()
        threshold = (self.config.power_threshold
                     if self.config.mode == "power"
                     else self.config.delay_threshold)
        self.name = f"predict-{int(threshold)}"

    def estimates(self, features: np.ndarray,
                  readings: np.ndarray) -> np.ndarray:
        # One pageview takes the on-phone traversal Table 7 times; a
        # matrix takes one batched pass.  Both give Tr to the last bit.
        if len(features) == 1:
            return np.array([self._predictor.predict_one(features[0])])
        return self._predictor.predict(features)

    def switches(self, features: np.ndarray,
                 readings: np.ndarray) -> np.ndarray:
        config = self.config
        return switch_decisions(self.estimates(features, readings),
                                config.mode, config.power_threshold,
                                config.delay_threshold)

    def reason(self, estimate: Optional[float]) -> str:
        config = self.config
        return (f"Tr={estimate:.1f}s vs "
                f"Td={config.delay_threshold:.0f}/"
                f"Tp={config.power_threshold:.0f} ({config.mode})")


class OraclePolicy(SwitchPolicy):
    """Accurate-9 / Accurate-20: 100 %-accurate prediction upper bound —
    reads the true reading time straight from the trace (Section 5.6.2).
    """

    def __init__(self, threshold: float):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.name = f"accurate-{int(threshold)}"

    def estimates(self, features: np.ndarray,
                  readings: np.ndarray) -> np.ndarray:
        return readings

    def switches(self, features: np.ndarray,
                 readings: np.ndarray) -> np.ndarray:
        # Algorithm 2 in delay mode with Td = the oracle's threshold.
        return switch_decisions(readings, "delay", self.threshold,
                                self.threshold)

    def reason(self, estimate: Optional[float]) -> str:
        return f"oracle R={estimate:.1f}s vs {self.threshold:.0f}s"


class AlwaysOffPolicy(SwitchPolicy):
    """Switch to IDLE after every page open, unconditionally."""

    name = "always-off"

    def switches(self, features: np.ndarray,
                 readings: np.ndarray) -> np.ndarray:
        return np.ones(len(readings), dtype=bool)

    def reason(self, estimate: Optional[float]) -> str:
        return "always off"


class NeverOffPolicy(SwitchPolicy):
    """Never switch; the radio follows its inactivity timers."""

    name = "never-off"

    def switches(self, features: np.ndarray,
                 readings: np.ndarray) -> np.ndarray:
        return np.zeros(len(readings), dtype=bool)

    def reason(self, estimate: Optional[float]) -> str:
        return "timers only"
