"""Recovery policy: per-fetch timeouts and bounded exponential backoff.

Under an impaired channel a transfer attempt can be lost (the response
never arrives) or stretched past any useful deadline by a deep fade.
The recovery layer bounds both: every attempt is abandoned after
``timeout`` seconds on the wire, abandoned attempts are retried after an
exponentially growing backoff, and after ``max_attempts`` the transfer
is marked failed and delivered to the engine anyway — a lost object
degrades the page instead of hanging the load.

The policy is pure configuration; :class:`repro.network.link.Link`
executes it.  A link constructed without a policy schedules no timeout
logic at all, keeping the no-fault path byte-identical to the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import require_non_negative, require_positive


@dataclass(frozen=True)
class RecoveryPolicy:
    """Retry/timeout parameters for fetches over an impaired channel."""

    #: Seconds an attempt may spend on the wire before it is abandoned.
    #: Must exceed the healthy wire time of the largest benchmark object
    #: (~3 s) by a wide margin so only genuine impairments trip it.
    timeout: float = 15.0
    #: Total attempts per transfer (first try included).
    max_attempts: int = 4
    #: Backoff before the first retry, seconds.
    backoff_base: float = 0.5
    #: Multiplier applied to the backoff per further retry.
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        require_positive("timeout", self.timeout)
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        require_non_negative("backoff_base", self.backoff_base)
        require_positive("backoff_factor", self.backoff_factor)

    def backoff(self, attempts_made: int) -> float:
        """Delay before the next attempt, given ``attempts_made`` so far."""
        if attempts_made < 1:
            raise ValueError(
                f"attempts_made must be at least 1, got {attempts_made}")
        return self.backoff_base * self.backoff_factor ** (attempts_made - 1)
