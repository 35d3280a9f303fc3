"""The fault injector: seeded impairment draws for one handset.

One :class:`FaultInjector` serves one simulated handset (one ``Link``
plus one ``RilLink``).  It owns five independent random streams — fades,
jitter, loss, promotions, RIL — all spawned from a single
``SeedSequence`` root, so the impairment history of a session is a pure
function of ``(profile, seed)``: independent of worker count, of which
other sessions run in the process, and of Python hash randomisation.

The injector never schedules events or mutates radio state itself; the
wrapped substrates ask it questions at well-defined points (attempt
start, promotion start, RIL hops) and act on the answers.  With the
``ideal`` profile every answer is the identity — zero extra delay, no
loss — and, because impairment-free answers change no floating-point
value and schedule no extra event, the wrapped session is byte-identical
to an unwrapped one.

Every injected impairment is counted twice: in the injector's own
:class:`FaultStats` (per-session attribution, folded into sweep reports)
and in the process-wide :data:`repro.runtime.observability.KERNEL_STATS`
collector (per-task attribution in run reports).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

import numpy as np

from repro.faults.profiles import ChannelProfile, get_profile
from repro.faults.recovery import RecoveryPolicy
from repro.runtime.observability import KERNEL_STATS


@dataclass
class FaultStats:
    """Counters for every impairment one injector has caused."""

    #: Transfer attempts whose response was lost (Gilbert–Elliott).
    transfers_lost: int = 0
    #: Transfer attempts abandoned because the fade pushed the wire time
    #: past the recovery timeout.
    transfer_timeouts: int = 0
    #: Retries the link issued in response to lost/timed-out attempts.
    transfer_retries: int = 0
    #: Transfers abandoned for good after exhausting their retries.
    transfers_failed: int = 0
    #: Promotions that stalled before the RRC procedure even started.
    promotion_spikes: int = 0
    #: RIL messages lost between framework and firmware.
    ril_drops: int = 0
    #: RIL messages delivered late.
    ril_delays: int = 0
    #: Dormancy/release requests the firmware ignored.
    dormancy_failures: int = 0

    @property
    def faults_injected(self) -> int:
        """Total impairment events (retries are reactions, not faults)."""
        return (self.transfers_lost + self.transfer_timeouts
                + self.promotion_spikes + self.ril_drops + self.ril_delays
                + self.dormancy_failures)

    def to_dict(self) -> Dict[str, int]:
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["faults_injected"] = self.faults_injected
        return row

    def merged(self, other: "FaultStats") -> "FaultStats":
        return FaultStats(**{f.name: getattr(self, f.name)
                             + getattr(other, f.name)
                             for f in fields(self)})


@dataclass(frozen=True)
class FaultPlan:
    """Everything needed to impair one session deterministically."""

    profile: ChannelProfile
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    seed: int = 0

    @classmethod
    def named(cls, profile_name: str, seed: int = 0,
              recovery: Optional[RecoveryPolicy] = None) -> "FaultPlan":
        """Build a plan from a preset name."""
        return cls(profile=get_profile(profile_name),
                   recovery=recovery or RecoveryPolicy(), seed=seed)

    def injector(self) -> "FaultInjector":
        """A fresh injector for one handset under this plan."""
        return FaultInjector(self.profile, seed=self.seed)


class FaultInjector:
    """Seeded impairment oracle for one handset's link and RIL chain."""

    def __init__(self, profile: ChannelProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        root = np.random.SeedSequence(seed)
        fade_ss, jitter_ss, loss_ss, promo_ss, ril_ss = root.spawn(5)
        self._fade_rng = np.random.Generator(np.random.PCG64(fade_ss))
        self._jitter_rng = np.random.Generator(np.random.PCG64(jitter_ss))
        self._loss_rng = np.random.Generator(np.random.PCG64(loss_ss))
        self._promo_rng = np.random.Generator(np.random.PCG64(promo_ss))
        self._ril_rng = np.random.Generator(np.random.PCG64(ril_ss))

        #: Gilbert–Elliott channel state (False = good, True = bad).
        self._bad_state = False
        #: Piecewise-constant fade timeline: segment start times and the
        #: bandwidth multiplier of each segment, extended lazily.
        self._fade_starts: List[float] = [0.0]
        self._fade_scales: List[float] = [self._draw_fade_scale()]
        self._fade_until = (self._fade_rng.exponential(
            profile.fade_interval) if profile.fades else float("inf"))

        self.stats = FaultStats()

    # ------------------------------------------------------------------
    # Bandwidth fades
    # ------------------------------------------------------------------
    def _draw_fade_scale(self) -> float:
        if not self.profile.fades:
            return 1.0
        return float(self._fade_rng.uniform(self.profile.fade_floor,
                                            self.profile.fade_ceiling))

    def bandwidth_scale(self, now: float) -> float:
        """Downlink bandwidth multiplier in effect at time ``now``.

        The fade timeline is generated lazily in time order; queries at
        any time are answered from the materialised segments, so the
        sequence of scales depends only on the profile and seed.
        """
        if not self.profile.fades:
            return 1.0
        while self._fade_until <= now:
            self._fade_starts.append(self._fade_until)
            self._fade_scales.append(self._draw_fade_scale())
            self._fade_until += self._fade_rng.exponential(
                self.profile.fade_interval)
        index = bisect.bisect_right(self._fade_starts, now) - 1
        return self._fade_scales[index]

    # ------------------------------------------------------------------
    # Transfer attempts
    # ------------------------------------------------------------------
    def attempt_rtt_jitter(self) -> float:
        """Extra round-trip latency for one transfer attempt, seconds."""
        if self.profile.rtt_jitter_mean <= 0.0:
            return 0.0
        return float(self._jitter_rng.exponential(
            self.profile.rtt_jitter_mean))

    def attempt_lost(self) -> bool:
        """Step the Gilbert–Elliott chain; True if this attempt's
        response is lost on the way down."""
        profile = self.profile
        if not profile.loses_transfers:
            return False
        if self._bad_state:
            if self._loss_rng.random() < profile.p_bad_to_good:
                self._bad_state = False
        else:
            if self._loss_rng.random() < profile.p_good_to_bad:
                self._bad_state = True
        loss_prob = (profile.loss_bad if self._bad_state
                     else profile.loss_good)
        if loss_prob <= 0.0:
            return False
        lost = bool(self._loss_rng.random() < loss_prob)
        if lost:
            self.stats.transfers_lost += 1
            KERNEL_STATS.add(faults_injected=1)
        return lost

    def note_timeout(self) -> None:
        """The link abandoned an attempt at the recovery timeout."""
        self.stats.transfer_timeouts += 1
        KERNEL_STATS.add(faults_injected=1)

    def note_retry(self) -> None:
        """The link is retrying a lost/timed-out attempt."""
        self.stats.transfer_retries += 1
        KERNEL_STATS.add(transfer_retries=1)

    def note_transfer_failed(self) -> None:
        """The link gave a transfer up after exhausting its retries."""
        self.stats.transfers_failed += 1

    # ------------------------------------------------------------------
    # RRC promotions
    # ------------------------------------------------------------------
    def promotion_spike(self) -> float:
        """Extra stall (seconds) before a promotion; 0.0 almost always."""
        profile = self.profile
        if profile.promo_spike_prob <= 0.0:
            return 0.0
        if self._promo_rng.random() >= profile.promo_spike_prob:
            return 0.0
        self.stats.promotion_spikes += 1
        KERNEL_STATS.add(faults_injected=1)
        return float(self._promo_rng.exponential(profile.promo_spike_mean))

    # ------------------------------------------------------------------
    # RIL chain
    # ------------------------------------------------------------------
    def ril_dropped(self) -> bool:
        """True if a RIL message is lost before reaching the firmware."""
        if self.profile.ril_drop_prob <= 0.0:
            return False
        dropped = bool(self._ril_rng.random() < self.profile.ril_drop_prob)
        if dropped:
            self.stats.ril_drops += 1
            KERNEL_STATS.add(faults_injected=1)
        return dropped

    def ril_delay(self) -> float:
        """Extra socket-hop latency for one RIL message, seconds."""
        profile = self.profile
        if profile.ril_delay_prob <= 0.0:
            return 0.0
        if self._ril_rng.random() >= profile.ril_delay_prob:
            return 0.0
        self.stats.ril_delays += 1
        KERNEL_STATS.add(faults_injected=1)
        return float(self._ril_rng.exponential(profile.ril_delay_mean))

    def dormancy_fails(self) -> bool:
        """True if the firmware ignores a dormancy/release request."""
        if self.profile.dormancy_failure_prob <= 0.0:
            return False
        failed = bool(self._ril_rng.random()
                      < self.profile.dormancy_failure_prob)
        if failed:
            self.stats.dormancy_failures += 1
            KERNEL_STATS.add(faults_injected=1)
        return failed
