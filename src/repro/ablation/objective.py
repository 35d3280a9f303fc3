"""Scenario evaluation: one :class:`VariantSetup` → one metrics dict.

The evaluation unit is a *scenario*: a channel profile, a small page
set, and a grid of reading times.  For each page the variant engine
loads the page once with the full discrete-event simulator (under the
scenario's seeded :class:`~repro.faults.injector.FaultPlan`, common
random numbers across variants so comparisons are fair), and each
(page, reading-time) unit is then scored with the analytic radio-tail
math of :mod:`repro.rrc.tail` — the same closed forms the Fig. 16 policy
evaluation uses — including the next click's promotion latency and
signalling energy, which is what makes eager switching pay a price.

Metrics per run:

- ``energy`` — mean per-unit energy (load + reading tail + next-click
  promotion), joules; the search objective.
- ``energy_saving`` — fractional saving vs the stock browser
  (:data:`~repro.ablation.components.STOCK_SETUP`) under the *same*
  scenario, memoised per process.
- ``delay`` — mean next-click promotion latency, seconds; the constraint
  metric (``repro tune --budget-delay``).
- ``load_time``, ``tx_time`` — mean load / data-transmission times.
- ``switch_rate`` — fraction of units Algorithm 2 switched to IDLE.
- ``drop_probability`` — only with a population: one
  :class:`repro.capacity.simulator.CapacitySimulator` run (seeded by
  :func:`capacity_seed`) whose service pool is the variant's own
  measured channel-hold times, so reorganisation and timer choices
  move the drop curve.

Determinism: fault plans derive from ``(scenario.seed, page index)`` —
identical across runs and variants — while the run's own randomness (the
``gbrt-like`` predictor's error band, the capacity run) draws from the
``eval_seed`` handed in by the engine, which spawns it off the run ID.

Batched evaluation (PR 8): only a *projection* of the setup can change a
discrete-event page load — reorganisation, intermediate display, fast
dormancy, and the T1/T2 timers (:func:`load_projection`).  α/Tp/Td, the
decision mode and the predictor level are scoring-only, so
:func:`_load_page` outcomes are memoised on ``(page, channel,
projection)`` — process-local plus the content-addressed on-disk
:class:`~repro.runtime.cache.ResultCache` — and a tune sweep over
thresholds runs its simulations once, not once per trial.  The channel
is :func:`load_channel`'s ``(profile, page_seed)``; on the fault-free
``ideal`` channel it carries no seed, since there the seed never
reaches the load.  Scoring then runs over the whole (trials × pages ×
readings) unit grid through the ``*_grid`` array forms of
:mod:`repro.rrc.tail`.  The scalar per-unit
evaluator it replaced lives on as ``tests/oracles/ablation.py``; the
two are gated byte-identical (``tests/ablation/test_batched_golden.py``).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ablation.components import STOCK_SETUP, VariantSetup
from repro.browser.energy_aware import EnergyAwareEngine
from repro.browser.original import OriginalEngine
from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.core.session import browse_and_read
from repro.faults.injector import FaultPlan
from repro.faults.profiles import get_profile
from repro.rrc.states import RrcState
from repro.rrc.tail import (
    STATE_IDLE,
    promotion_energy,
    promotion_energy_grid,
    promotion_latency,
    promotion_latency_grid,
    tail_energy_after_release,
    tail_energy_after_tx,
    tail_energy_grid,
    tail_state_after_release,
    tail_state_after_tx,
    tail_state_grid,
)
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.observability import KERNEL_STATS
from repro.runtime.seeding import DEFAULT_ROOT_SEED, spawn_seeds
from repro.runtime.singleflight import (
    SingleFlight,
    locked_counter_add,
    snapshot_counters,
)
from repro.webpages.corpus import find_page

#: Cache kind for memoised page-load outcomes (tentpole: loads are
#: keyed by the load-relevant projection, not the full setup).
KIND_LOAD_PAGE = "ablate-load"

#: Default page set: two mid-size full-version Table 3 pages — big
#: enough that reorganisation matters, small enough for dense matrices.
DEFAULT_PAGES: Tuple[str, ...] = ("espn.go.com/sports",
                                  "www.motors.ebay.com")

#: Default reading-time grid, seconds: spans both sides of the paper's
#: Tp = 9 s break-even and the Td = 20 s delay threshold.
DEFAULT_READING_TIMES: Tuple[float, ...] = (2.0, 5.0, 9.0, 15.0, 30.0,
                                            60.0)

#: Log-scale error of the ``gbrt-like`` predictor level — roughly the
#: trained GBRT's reading-time accuracy band.
GBRT_LIKE_SIGMA = 0.35


@dataclass(frozen=True)
class PopulationSpec:
    """Optional population-scale objective: an M/G/N capacity run."""

    n_users: int = 300
    n_channels: int = 200
    horizon: float = 3600.0
    mean_interval: float = 25.0

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_channels < 1:
            raise ValueError("population needs n_users and n_channels "
                             ">= 1")
        if self.horizon <= 0 or self.mean_interval <= 0:
            raise ValueError("population horizon and mean_interval must "
                             "be positive")

    def fingerprint(self) -> Dict[str, object]:
        return {"n_users": self.n_users, "n_channels": self.n_channels,
                "horizon": self.horizon,
                "mean_interval": self.mean_interval}


@dataclass(frozen=True)
class Scenario:
    """The evaluation context every run of a matrix/search shares."""

    profile: str = "ideal"
    pages: Tuple[str, ...] = DEFAULT_PAGES
    reading_times: Tuple[float, ...] = DEFAULT_READING_TIMES
    seed: int = DEFAULT_ROOT_SEED
    population: Optional[PopulationSpec] = None

    def __post_init__(self) -> None:
        get_profile(self.profile)  # validate the name eagerly
        if not self.pages:
            raise ValueError("scenario needs at least one page")
        if not self.reading_times:
            raise ValueError("scenario needs at least one reading time")
        if any(r < 0 for r in self.reading_times):
            raise ValueError("reading times must be non-negative")

    def fingerprint(self) -> Dict[str, object]:
        """JSON-stable identity for run IDs and cache keys."""
        payload: Dict[str, object] = {
            "profile": self.profile,
            "pages": list(self.pages),
            "reading_times": [float(r) for r in self.reading_times],
            "seed": int(self.seed),
        }
        if self.population is not None:
            payload["population"] = self.population.fingerprint()
        return payload

    def at_fidelity(self, n_readings: int) -> "Scenario":
        """A cheaper scenario using the first ``n_readings`` reading
        times — the successive-halving rung ladder."""
        if n_readings < 1:
            raise ValueError("fidelity must keep at least one reading")
        kept = self.reading_times[:n_readings]
        return replace(self, reading_times=kept)

    @property
    def n_units(self) -> int:
        return len(self.pages) * len(self.reading_times)


@dataclass(frozen=True)
class _PageLoad:
    """The per-page load facts the closed-form reading phase needs."""

    load_time: float
    tx_time: float
    loading_energy: float
    #: Offset of the reading anchor after the last transmission ended.
    tail_offset: float
    #: Offset of the reading anchor after the channel release.
    release_offset: float
    #: Channel-hold time for the capacity pool.
    hold_time: float


def load_channel(profile: str, page_seed: int
                 ) -> Tuple[str, Optional[int]]:
    """The channel half of a page load's identity.

    ``(profile, page_seed)`` when the profile impairs the link: the
    load runs under a :class:`FaultPlan` seeded with ``page_seed``.
    ``(profile, None)`` on the fault-free channel (``ideal``): no plan
    is drawn, the seed cannot reach the load, and every seed shares one
    answer.  :func:`_load_page` draws its plan from this and every load
    key reads it, so a key and its load cannot disagree.
    """
    if get_profile(profile).is_null:
        return profile, None
    return profile, int(page_seed)


def _load_page(page_name: str, setup: VariantSetup, profile: str,
               page_seed: int) -> _PageLoad:
    """One full discrete-event page load under the scenario's plan."""
    page = find_page(page_name)
    engine_cls = (EnergyAwareEngine if setup.reorganisation
                  else OriginalEngine)
    _, plan_seed = load_channel(profile, page_seed)
    plan = (None if plan_seed is None
            else FaultPlan.named(profile, seed=plan_seed))
    session = browse_and_read(page, engine_cls, reading_time=0.0,
                              config=setup.to_config(), faults=plan)
    load = session.load
    # A transfer the fault plan failed never completed; the reading
    # anchor is the last byte that did arrive.
    last_byte = max(t.completed_at - load.started_at
                    for t in load.transfers if t.completed_at is not None)
    released = setup.reorganisation and setup.fast_dormancy
    # Channel-hold time: with fast dormancy the channels go at the last
    # byte; otherwise the DCH inactivity timer T1 keeps them allocated.
    hold = load.data_transmission_time + (0.0 if released else setup.t1)
    return _PageLoad(
        load_time=load.load_complete_time,
        tx_time=load.data_transmission_time,
        loading_energy=session.loading_energy.total,
        tail_offset=load.load_complete_time - last_byte,
        release_offset=load.layout_phase_time,
        hold_time=hold)


# ----------------------------------------------------------------------
# Load-outcome caching: the projection contract.
#
# A discrete-event page load can only depend on the knobs below —
# which engine runs (reorganisation), what it renders early
# (intermediate_display), whether it releases channels
# (fast_dormancy), and the radio timers (t1/t2, which shape promotion
# timing and the hold-time accounting).  α/Tp/Td, the decision mode
# and the predictor level are consulted strictly after the load, so
# two setups differing only in those share one cached load — the
# Hypothesis property in tests/ablation/test_batched_golden.py pins
# this contract.
# ----------------------------------------------------------------------

#: VariantSetup fields that can change a page-load outcome.
LOAD_FIELDS: Tuple[str, ...] = ("reorganisation", "intermediate_display",
                                "fast_dormancy", "t1", "t2")


def load_projection(setup: VariantSetup) -> Dict[str, object]:
    """The load-relevant projection of a setup — the cache key half."""
    return {
        "reorganisation": bool(setup.reorganisation),
        "intermediate_display": bool(setup.intermediate_display),
        "fast_dormancy": bool(setup.fast_dormancy),
        "t1": float(setup.t1),
        "t2": float(setup.t2),
    }


def load_memo_key(page_name: str, profile: str, page_seed: int,
                  setup: VariantSetup) -> Tuple:
    """Process-memo key of one page load: ``(page, channel,
    projection items)``, the channel from :func:`load_channel`."""
    return (page_name, load_channel(profile, page_seed),
            tuple(load_projection(setup).items()))


def load_cache_key(page_name: str, profile: str, page_seed: int,
                   setup: VariantSetup) -> str:
    """On-disk cache key for one page-load outcome (content-addressed:
    the current code-version hash is folded in automatically)."""
    channel_profile, plan_seed = load_channel(profile, page_seed)
    return cache_key(KIND_LOAD_PAGE, page_name, {
        "profile": channel_profile,
        "page_seed": plan_seed,
        "projection": load_projection(setup),
    })


#: Process-local load memo: :func:`load_memo_key` ``-> _PageLoad``.
#: Single-flight: the serving layer calls the evaluator from concurrent
#: request threads, and two threads missing on the same key must share
#: one discrete-event load, not race two.
_LOAD_MEMO = SingleFlight()

#: Process-local memo: the stock browser's metrics per scenario.  The
#: stock setup has no run-level randomness (``never-switch`` predictor,
#: no capacity draw needed), so its pages' loads and the reading grid
#: fully determine it — keyed like the loads, on :func:`load_channel`,
#: so every seed on ``ideal`` shares one entry.  Single-flight for the
#: same reason as the load memo.
_REFERENCE_MEMO = SingleFlight()

#: Load-cache counters (simulated loads, memo hits, disk hits).  ``+=``
#: on a shared dict tears under threads, so every bump goes through the
#: lock.
_LOAD_STATS_LOCK = threading.Lock()
_LOAD_STATS = {"loads": 0, "memo_hits": 0, "disk_hits": 0}


def load_cache_stats() -> Dict[str, int]:
    """Snapshot of the load counters (simulated / memo / disk hits)."""
    return snapshot_counters(_LOAD_STATS_LOCK, _LOAD_STATS)


def reset_load_cache() -> None:
    """Clear the process-local load memo, the stock-reference memo
    derived from it, and the load counters (tests, benchmarks; the
    on-disk cache is the caller's to manage)."""
    _LOAD_MEMO.clear()
    _REFERENCE_MEMO.clear()
    with _LOAD_STATS_LOCK:
        for counter in _LOAD_STATS:
            _LOAD_STATS[counter] = 0


def _load_page_cached(page_name: str, setup: VariantSetup, profile: str,
                      page_seed: int,
                      load_cache: Optional[ResultCache] = None
                      ) -> _PageLoad:
    """:func:`_load_page` through the projection memo and disk cache.

    Safe because the load path draws no global randomness (fault plans
    are seeded per :func:`load_channel`, which the keys read too) and
    ``_PageLoad`` is six floats — JSON round-trips them exactly via
    ``repr``, so a cached load scores byte-identically to a fresh one.
    """
    memo_key = load_memo_key(page_name, profile, page_seed, setup)
    hit = _LOAD_MEMO.peek(memo_key)
    if hit is not None:
        locked_counter_add(_LOAD_STATS_LOCK, _LOAD_STATS, "memo_hits")
        return hit

    def _compute() -> _PageLoad:
        if load_cache is not None:
            key = load_cache_key(page_name, profile, page_seed, setup)
            payload = load_cache.get(key)
            if payload is not None:
                locked_counter_add(_LOAD_STATS_LOCK, _LOAD_STATS,
                                   "disk_hits")
                return _PageLoad(**payload["load"])
        load = _load_page(page_name, setup, profile, page_seed)
        locked_counter_add(_LOAD_STATS_LOCK, _LOAD_STATS, "loads")
        if load_cache is not None:
            load_cache.put(key, {"load": asdict(load)})
        return load

    return _LOAD_MEMO.do(memo_key, _compute)


def _predictions(setup: VariantSetup, readings: np.ndarray,
                 eval_seed: int) -> np.ndarray:
    """The predictor level's reading-time estimates, deterministically.

    ``oracle`` returns the truth; ``gbrt-like`` perturbs it with a
    seeded log-normal error (one draw per unit, fixed unit order);
    ``always-switch``/``never-switch`` saturate the decision.
    """
    if setup.predictor == "oracle":
        return readings.copy()
    if setup.predictor == "always-switch":
        return np.full_like(readings, np.inf)
    if setup.predictor == "never-switch":
        return np.zeros_like(readings)
    rng = np.random.default_rng(np.random.SeedSequence(eval_seed))
    noise = rng.normal(0.0, GBRT_LIKE_SIGMA, size=readings.size)
    return readings * np.exp(noise)


def _reading_phase(setup: VariantSetup, load: _PageLoad, reading: float,
                   switch: bool, rrc) -> Tuple[float, RrcState]:
    """Closed-form reading energy and the radio state at the next click.

    Anchored at the channel release when the variant released (energy-
    aware engine with fast dormancy), at the last transmission otherwise
    — exactly the Fig. 16 evaluator's accounting.  A switching unit cuts
    the tail at α and idles for the rest of the reading period.
    ``rrc`` is the setup's radio config, built once per setup by the
    caller rather than per unit.
    """
    released = setup.reorganisation and setup.fast_dormancy
    if released:
        start = load.release_offset
        energy_fn, state_fn = tail_energy_after_release, \
            tail_state_after_release
    else:
        start = load.tail_offset
        energy_fn, state_fn = tail_energy_after_tx, tail_state_after_tx
    if not switch or reading <= setup.alpha:
        energy = energy_fn(start, start + reading, rrc)
        return energy, state_fn(start + reading, rrc)
    energy = energy_fn(start, start + setup.alpha, rrc)
    energy += rrc.power.idle * (reading - setup.alpha)
    return energy, RrcState.IDLE


def capacity_seed(eval_seed: int) -> int:
    """Seed of the M/G/N run behind ``drop_probability``: the
    ``spawn_key=(1,)`` child of the evaluation seed (the capacity
    config itself is seeded with ``eval_seed``)."""
    return int(np.random.SeedSequence(
        eval_seed, spawn_key=(1,)).generate_state(1)[0])


def _drop_probability(pool: np.ndarray, population: PopulationSpec,
                      eval_seed: int) -> float:
    """One trial's drop probability: a :class:`CapacitySimulator` run
    over the variant's own channel-hold pool."""
    config = CapacityConfig(n_channels=population.n_channels,
                            mean_interval=population.mean_interval,
                            horizon=population.horizon,
                            seed=eval_seed)
    return CapacitySimulator(pool, config).run(
        population.n_users, seed=capacity_seed(eval_seed)
    ).drop_probability


def _evaluate_batch(pairs: Sequence[Tuple[VariantSetup, int]],
                    scenario: Scenario,
                    load_cache: Optional[ResultCache] = None
                    ) -> List[Dict[str, float]]:
    """Score every ``(setup, eval_seed)`` pair in one unit-grid pass."""
    page_seeds = spawn_seeds(scenario.seed, len(scenario.pages))
    n_read = len(scenario.reading_times)
    n_units = len(scenario.pages) * n_read
    readings_np = np.asarray(
        [r for _ in scenario.pages for r in scenario.reading_times],
        dtype=float)

    loads_per_trial = [
        [_load_page_cached(name, setup, scenario.profile, page_seed,
                           load_cache)
         for name, page_seed in zip(scenario.pages, page_seeds)]
        for setup, _ in pairs]

    # Flat (trials × pages × readings) grid, trial-major — slice t is
    # elementwise what the scalar loop computes for trial t.
    total = len(pairs) * n_units
    start = np.empty(total)
    b1 = np.empty(total)
    b2 = np.empty(total)
    loading = np.empty(total)
    alpha = np.empty(total)
    reading = np.empty(total)
    switch = np.zeros(total, dtype=bool)
    for t, (setup, eval_seed) in enumerate(pairs):
        base = t * n_units
        span = slice(base, base + n_units)
        if setup.fast_dormancy:
            predicted = _predictions(setup, readings_np, eval_seed)
            threshold = setup.tp if setup.mode == "power" else setup.td
            switch[span] = ((readings_np > setup.alpha)
                            & (predicted > threshold))
        reading[span] = readings_np
        alpha[span] = setup.alpha
        released = setup.reorganisation and setup.fast_dormancy
        b1[span] = 0.0 if released else setup.t1
        b2[span] = setup.t2 if released else setup.t1 + setup.t2
        for p, load in enumerate(loads_per_trial[t]):
            cell = slice(base + p * n_read, base + (p + 1) * n_read)
            start[cell] = (load.release_offset if released
                           else load.tail_offset)
            loading[cell] = load.loading_energy

    # Power/promotion constants never vary across trials (VariantSetup
    # only moves the timers, which ride in b1/b2), so one config covers
    # the whole grid.
    rrc = pairs[0][0].to_config().rrc

    end_full = start + reading
    e_full = tail_energy_grid(start, end_full, b1, b2, rrc)
    e_cut = (tail_energy_grid(start, start + alpha, b1, b2, rrc)
             + rrc.power.idle * (reading - alpha))
    read_energy = np.where(switch, e_cut, e_full)
    states = np.where(switch, STATE_IDLE, tail_state_grid(end_full, b1, b2))
    energies = (loading + read_energy) + promotion_energy_grid(states, rrc)
    delays = promotion_latency_grid(states, rrc)
    KERNEL_STATS.add(work_units=total)

    drops: Optional[List[float]] = None
    if scenario.population is not None:
        drops = [_drop_probability(
                     np.asarray([load.hold_time for load in loads],
                                dtype=float),
                     scenario.population, eval_seed)
                 for loads, (_, eval_seed) in zip(loads_per_trial, pairs)]

    reference = reference_metrics(scenario, load_cache=load_cache)
    results: List[Dict[str, float]] = []
    for t, (setup, eval_seed) in enumerate(pairs):
        span = slice(t * n_units, (t + 1) * n_units)
        loads = loads_per_trial[t]
        metrics: Dict[str, float] = {
            "energy": float(np.mean(energies[span])),
            "delay": float(np.mean(delays[span])),
            "load_time": float(np.mean([load.load_time
                                        for load in loads])),
            "tx_time": float(np.mean([load.tx_time for load in loads])),
            "switch_rate": int(switch[span].sum()) / n_units,
        }
        if drops is not None:
            metrics["drop_probability"] = drops[t]
        if reference["energy"] > 0:
            metrics["energy_saving"] = (
                (reference["energy"] - metrics["energy"])
                / reference["energy"])
        else:
            metrics["energy_saving"] = 0.0
        results.append(metrics)
    return results


def evaluate_setups(pairs: Sequence[Tuple[VariantSetup, int]],
                    scenario: Scenario,
                    load_cache: Optional[ResultCache] = None
                    ) -> List[Dict[str, float]]:
    """Batched trial evaluation: metrics per ``(setup, eval_seed)``.

    Byte-identical to calling :func:`evaluate_setup` per pair — the
    grid slices are elementwise what the per-trial arrays would be, and
    ``np.mean`` over equal values at equal length is exact.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    return _evaluate_batch(pairs, scenario, load_cache)


def evaluate_setup(setup: VariantSetup, scenario: Scenario,
                   eval_seed: int,
                   load_cache: Optional[ResultCache] = None
                   ) -> Dict[str, float]:
    """Score one variant under one scenario; pure given its inputs."""
    return _evaluate_batch([(setup, eval_seed)], scenario,
                           load_cache)[0]


def reference_metrics(scenario: Scenario,
                      load_cache: Optional[ResultCache] = None
                      ) -> Dict[str, float]:
    """The stock browser's scores under ``scenario`` (memoised)."""
    # Page seeds derive from the scenario seed alone, so the channel of
    # the scenario seed stands for every page's channel.
    key = (scenario.pages, scenario.reading_times,
           load_channel(scenario.profile, scenario.seed))

    def _compute() -> Dict[str, float]:
        reference = replace(scenario, population=None)
        page_seeds = spawn_seeds(reference.seed, len(reference.pages))
        loads = [_load_page_cached(name, STOCK_SETUP, reference.profile,
                                   page_seed, load_cache)
                 for name, page_seed in zip(reference.pages, page_seeds)]
        rrc = STOCK_SETUP.to_config().rrc
        energies: List[float] = []
        delays: List[float] = []
        for load in loads:
            for reading in reference.reading_times:
                read_energy, state = _reading_phase(STOCK_SETUP, load,
                                                    float(reading),
                                                    False, rrc)
                energies.append(load.loading_energy + read_energy
                                + promotion_energy(state, rrc))
                delays.append(promotion_latency(state, rrc))
        return {
            "energy": float(np.mean(energies)),
            "delay": float(np.mean(delays)),
            "load_time": float(np.mean([load.load_time
                                        for load in loads])),
        }

    return _REFERENCE_MEMO.do(key, _compute)


def variant_hold_pool(setup: VariantSetup, scenario: Scenario,
                      load_cache: Optional[ResultCache] = None
                      ) -> np.ndarray:
    """The variant's channel-hold-time pool under ``scenario``.

    One hold time per scenario page, in page order — exactly the
    service pool the evaluator's ``drop_probability`` metric draws from,
    exposed so the serving layer can run a *single* capacity simulation
    that yields both the drop probability and the service-time
    quantiles, instead of paying the M/G/N run twice.
    """
    page_seeds = spawn_seeds(scenario.seed, len(scenario.pages))
    loads = [_load_page_cached(name, setup, scenario.profile, page_seed,
                               load_cache)
             for name, page_seed in zip(scenario.pages, page_seeds)]
    return np.asarray([load.hold_time for load in loads], dtype=float)
