"""Trace-driven evaluation of the six Table-6 policies (Fig. 16).

The evaluation replays the user trace session by session.  Per pageview
it combines

- a *page load profile* — loading time, last-byte time, transmission-
  phase end, and loading energy, measured once per catalog page per
  engine with the full discrete-event simulator, with the initial
  IDLE→DCH promotion stripped (promotions are accounted at click time,
  where the radio state is policy-dependent);
- the *reading period* — analytic radio-tail energy from
  :func:`repro.rrc.tail.reading_phase_grid`, anchored at the last
  transmission (original engine) or at the channel release
  (energy-aware engine), cut short if the policy switches the radio to
  IDLE;
- the *next-click cost* — promotion latency and signalling energy
  determined by the radio state the policy left behind: IDLE at a
  session's first click, else the state the previous reading ended in.

Each case is one array pass over the evaluation records, flattened in
session order; its totals are left folds in record order, bitwise the
per-record loop it replaced (``tests/oracles/policy.py::run_case``).
Power and delay savings are reported relative to the original browser
with no switching, exactly as in Section 5.6.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.browser.energy_aware import EnergyAwareEngine
from repro.browser.original import OriginalEngine
from repro.core.config import ExperimentConfig, PolicyConfig
from repro.core.session import browse_and_read
# Unused here: bench/trace.py wraps policy_eval.switch_decisions by name.
from repro.fleet.policy import switch_decisions  # noqa: F401
from repro.prediction.policy import (
    AlwaysOffPolicy,
    OraclePolicy,
    PredictivePolicy,
    SwitchPolicy,
)
from repro.prediction.predictor import ReadingTimePredictor
from repro.rrc.tail import (
    STATE_IDLE,
    promotion_energy_grid,
    promotion_latency_grid,
    reading_phase_grid,
)
from repro.traces.generator import TraceConfig, build_catalog, generate_trace
from repro.traces.records import TraceDataset
from repro.webpages.generator import generate_page


@dataclass(frozen=True)
class PageProfile:
    """Per-page, per-engine load measurements with the initial promotion
    stripped out."""

    load_time: float
    #: Offset of the last byte *before* the end of the load (original
    #: engine anchor: the reading tail starts load_time − last_byte after
    #: the last transmission).
    tail_offset_at_open: float
    #: Energy-aware engines: layout-phase length (open − channel release).
    release_offset_at_open: float
    loading_energy: float


@dataclass(frozen=True)
class CaseResult:
    """One Table-6 case, aggregated over the evaluation records."""

    name: str
    engine: str
    total_energy: float
    total_delay: float
    power_saving: float
    delay_saving: float
    switch_rate: float


class _SharedPrediction:
    """The predictor as predict-9 and predict-20 see it: both ask about
    the same evaluation matrix, so the one ``predict`` pass over it is
    kept (keyed on the matrix object, which the evaluator never
    mutates)."""

    def __init__(self, predictor: ReadingTimePredictor) -> None:
        self._predictor = predictor
        self._last: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._last is None or self._last[0] is not features:
            self._last = (features, self._predictor.predict(features))
        return self._last[1]

    def predict_one(self, features) -> float:
        return self._predictor.predict_one(features)


class PolicyEvaluator:
    """Replays a trace under the six switching policies."""

    def __init__(self, trace_config: Optional[TraceConfig] = None,
                 experiment_config: Optional[ExperimentConfig] = None,
                 train_fraction: float = 0.7):
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        self.trace_config = trace_config or TraceConfig()
        self.config = experiment_config or ExperimentConfig()
        self.train_fraction = train_fraction

        self._dataset = generate_trace(self.trace_config) \
            .filter_reading_time()
        self._catalog = {page.name: page
                         for page in build_catalog(self.trace_config)}
        self._profiles: Dict[Tuple[str, str], PageProfile] = {}

        n_train = int(round(train_fraction * self.trace_config.n_users))
        self.train_set = TraceDataset(
            [r for r in self._dataset if r.user_id < n_train])
        self.eval_set = TraceDataset(
            [r for r in self._dataset if r.user_id >= n_train])
        # The predictor trains only on the records past α.
        alpha = self.config.policy.interest_threshold
        n_fit = len(self.train_set.exclude_quick_bounces(alpha))
        if n_fit < 2 or not len(self.eval_set):
            n_users = self.trace_config.n_users
            raise ValueError(
                f"n_users={n_users} at train_fraction={train_fraction} "
                f"splits into {n_train} training users "
                f"({len(self.train_set)} records) and "
                f"{n_users - n_train} evaluation users "
                f"({len(self.eval_set)} records); the evaluation split "
                f"must be non-empty and the training split needs at "
                f"least two records past the interest threshold "
                f"alpha={alpha:g} s, it has {n_fit}")

        self._predictor = ReadingTimePredictor(interest_threshold=alpha)
        self._predictor.fit(self.train_set)

        # The evaluation records flattened in session order (filled by
        # _eval_arrays); predict-9 and predict-20 share one prediction
        # pass over the feature matrix.
        self._eval_features: Optional[np.ndarray] = None
        self._eval_readings: Optional[np.ndarray] = None
        self._eval_pages: List[str] = []
        self._session_starts: List[bool] = []
        self._shared_predictor = _SharedPrediction(self._predictor)

    # ------------------------------------------------------------------
    # Page profiles
    # ------------------------------------------------------------------
    def _profile(self, page_name: str, engine: str) -> PageProfile:
        key = (page_name, engine)
        if key in self._profiles:
            return self._profiles[key]
        page = generate_page(self._catalog[page_name].spec)
        engine_cls = (OriginalEngine if engine == "original"
                      else EnergyAwareEngine)
        session = browse_and_read(page, engine_cls, reading_time=0.0,
                                  config=self.config)
        load = session.load
        machine = session.handset.machine
        if machine.promotions["IDLE"] != 1:
            raise RuntimeError(
                f"expected exactly one IDLE promotion loading "
                f"{page_name!r}, saw {machine.promotions}")
        rrc = self.config.rrc
        promo_time = rrc.promo_idle_latency
        promo_energy = float(promotion_energy_grid(STATE_IDLE, rrc))
        last_byte = max(t.completed_at - load.started_at
                        for t in load.transfers)
        profile = PageProfile(
            load_time=load.load_complete_time - promo_time,
            tail_offset_at_open=load.load_complete_time - last_byte,
            release_offset_at_open=load.layout_phase_time,
            loading_energy=session.loading_energy.total - promo_energy,
        )
        self._profiles[key] = profile
        return profile

    # ------------------------------------------------------------------
    # Accounting: one array pass over the evaluation records
    # ------------------------------------------------------------------
    def _eval_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluation records' feature matrix and reading times,
        flattened in session order, with each record's page name and
        whether it opens its session alongside."""
        if self._eval_features is None:
            features: List = []
            readings: List[float] = []
            for session in self.eval_set.sessions():
                for seq, record in enumerate(session.records):
                    features.append(record.feature_vector())
                    readings.append(record.reading_time)
                    self._eval_pages.append(record.page_name)
                    self._session_starts.append(seq == 0)
            self._eval_features = np.asarray(features, dtype=float)
            self._eval_readings = np.asarray(readings, dtype=float)
        return self._eval_features, self._eval_readings

    def _run_case(self, engine: str, policy: Optional[SwitchPolicy],
                  switch_delay: float) -> Tuple[float, float, float]:
        """Total (energy, delay, switch_rate) of one case over the
        evaluation set."""
        rrc = self.config.rrc
        features, readings = self._eval_arrays()
        profiles = [self._profile(name, engine)
                    for name in self._eval_pages]
        if engine == "original":
            start = [p.tail_offset_at_open for p in profiles]
            b1, b2 = rrc.t1, rrc.t1 + rrc.t2
        else:
            start = [p.release_offset_at_open for p in profiles]
            b1, b2 = 0.0, rrc.t2
        switch = np.zeros(readings.shape, dtype=bool)
        if policy is not None:
            # Algorithm 2 waits for the interest threshold before
            # deciding; a user who already left cannot be helped.
            switch = policy.switches(features, readings) \
                & (readings > switch_delay)
        read_energy, next_state = reading_phase_grid(
            np.asarray(start, dtype=float), readings, switch_delay, switch,
            b1, b2, rrc)
        # Sessions start after a long gap, with the radio in IDLE; every
        # other click finds it where the previous reading left it.
        state = np.where(self._session_starts, STATE_IDLE,
                         np.roll(next_state, 1))
        loading = np.asarray([p.loading_energy for p in profiles])
        load_time = np.asarray([p.load_time for p in profiles])
        energy = (promotion_energy_grid(state, rrc) + loading) + read_energy
        delay = promotion_latency_grid(state, rrc) + load_time
        # cumsum is a left fold, summed in record order like a running
        # ``+=``; np.sum's pairwise sum would move the last bits.
        return (float(np.cumsum(energy)[-1]), float(np.cumsum(delay)[-1]),
                int(switch.sum()) / switch.size)

    # ------------------------------------------------------------------
    def evaluate(self) -> List[CaseResult]:
        """Score the six Table-6 cases; first entry is the baseline."""
        policy_cfg = self.config.policy
        alpha = policy_cfg.interest_threshold
        predict_9 = PredictivePolicy(
            self._shared_predictor,
            PolicyConfig(interest_threshold=alpha, mode="power",
                         power_threshold=policy_cfg.power_threshold,
                         delay_threshold=policy_cfg.delay_threshold))
        predict_20 = PredictivePolicy(
            self._shared_predictor,
            PolicyConfig(interest_threshold=alpha, mode="delay",
                         power_threshold=policy_cfg.power_threshold,
                         delay_threshold=policy_cfg.delay_threshold))

        cases = [
            ("original", "original", None, 0.0),
            ("original-always-off", "original", AlwaysOffPolicy(), 0.0),
            ("energy-aware-always-off", "energy-aware", AlwaysOffPolicy(),
             0.0),
            ("accurate-9", "energy-aware",
             OraclePolicy(policy_cfg.power_threshold), alpha),
            ("predict-9", "energy-aware", predict_9, alpha),
            ("accurate-20", "energy-aware",
             OraclePolicy(policy_cfg.delay_threshold), alpha),
            ("predict-20", "energy-aware", predict_20, alpha),
        ]

        results: List[CaseResult] = []
        base_energy = base_delay = None
        for name, engine, policy, delay in cases:
            energy, total_delay, rate = self._run_case(engine, policy,
                                                       delay)
            if base_energy is None:
                base_energy, base_delay = energy, total_delay
            results.append(CaseResult(
                name=name, engine=engine,
                total_energy=energy, total_delay=total_delay,
                power_saving=1.0 - energy / base_energy,
                delay_saving=1.0 - total_delay / base_delay,
                switch_rate=rate))
        return results
