"""Constrained timer/threshold search over a channel profile.

Answers the question the paper never asked: *what (T1, T2, α, Tp)
minimises energy at this channel profile without violating a delay
budget?*  Three algorithms differ only in their candidate list and
their fidelity ladder, and share one trial loop (:func:`_search`):

- :func:`grid_search` — the cartesian product of per-parameter grids,
  one rung at full fidelity;
- :func:`random_search` — seeded uniform sampling over the ranges, one
  rung at full fidelity;
- :func:`halving_search` — successive halving: sample wide, evaluate at
  a cheap fidelity (a prefix of the scenario's reading-time grid),
  promote the best ``1/eta`` per rung, finish at full fidelity.

Every trial is a :class:`~repro.ablation.matrix.RunSpec` whose raw
field overrides (and evaluation fidelity, via the scenario fingerprint)
are part of its content-addressed run ID, executed through
:func:`~repro.ablation.engine.run_specs` — so trials cache, and its seed
is spawned off the run ID, so *when* a trial runs never matters.

Determinism and resume: the result cache is the one resume path.  A
search rerun on the same :class:`~repro.runtime.cache.ResultCache`
serves every finished trial from disk and evaluates only the rest.
:meth:`SearchResult.trace` renders a finished search as a write-only
JSONL trace — a header line fingerprinting the whole search
configuration, then one canonical-JSON record per trial in trial
order — so an interrupted and a clean run write the same bytes.

Infeasible-by-construction samples (a draw with ``Tp > Td``) are
*recorded*, not redrawn — redrawing would make the trial sequence depend
on the validation rules, breaking trace stability across code versions
that only tighten validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import (Any, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.ablation.components import default_registry
from repro.ablation.engine import run_specs
from repro.ablation.matrix import RunSpec, canonical_json, content_id
from repro.ablation.objective import Scenario
from repro.runtime.cache import ResultCache
from repro.runtime.seeding import DEFAULT_ROOT_SEED

#: The objective every search minimises by default.
DEFAULT_OBJECTIVE = "energy"

#: Sampled values are rounded to this many decimals: keeps traces tidy
#: and makes grid/random points JSON-stable.
_ROUND = 3


@dataclass(frozen=True)
class Parameter:
    """One searched :class:`VariantSetup` field and its range."""

    name: str
    low: float
    high: float
    #: Explicit grid values; when empty, grids use ``linspace(low,
    #: high, points)`` and random search samples uniformly.
    grid: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"parameter {self.name!r}: low {self.low} "
                             f"> high {self.high}")
        for value in self.grid:
            if not (self.low <= value <= self.high):
                raise ValueError(f"parameter {self.name!r}: grid value "
                                 f"{value} outside [{self.low}, "
                                 f"{self.high}]")

    def grid_values(self, points: int) -> List[float]:
        if self.grid:
            return [round(float(v), _ROUND) for v in self.grid]
        if points < 2:
            return [round((self.low + self.high) / 2.0, _ROUND)]
        return [round(float(v), _ROUND)
                for v in np.linspace(self.low, self.high, points)]


@dataclass(frozen=True)
class SearchSpace:
    """The searched parameters, canonically ordered by name."""

    parameters: Tuple[Parameter, ...]

    def __post_init__(self) -> None:
        if not self.parameters:
            raise ValueError("search space needs at least one parameter")
        names = [parameter.name for parameter in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        ordered = tuple(sorted(self.parameters,
                               key=lambda parameter: parameter.name))
        object.__setattr__(self, "parameters", ordered)

    def fingerprint(self) -> List[Dict[str, Any]]:
        return [{"name": parameter.name, "low": parameter.low,
                 "high": parameter.high, "grid": list(parameter.grid)}
                for parameter in self.parameters]


def default_space() -> SearchSpace:
    """T1/T2 and α/Tp around (and beyond) the paper's Table 2 values."""
    return SearchSpace((
        Parameter("t1", 1.0, 8.0),
        Parameter("t2", 4.0, 20.0),
        Parameter("alpha", 0.5, 4.0),
        Parameter("tp", 2.0, 18.0),
    ))


@dataclass(frozen=True)
class Constraint:
    """An upper bound on one metric (``delay <= budget``)."""

    metric: str
    maximum: float

    def satisfied(self, metrics: Mapping[str, float]) -> bool:
        value = metrics.get(self.metric)
        return value is not None and value <= self.maximum

    def fingerprint(self) -> Dict[str, Any]:
        return {"metric": self.metric, "max": self.maximum}

    def __str__(self) -> str:
        return f"{self.metric}<={self.maximum:g}"


def feasible(metrics: Mapping[str, float],
             constraints: Sequence[Constraint]) -> bool:
    """Constraint filtering: every bound must hold."""
    return all(constraint.satisfied(metrics)
               for constraint in constraints)


@dataclass(frozen=True)
class Trial:
    """One evaluated (or rejected-at-construction) search point."""

    index: int
    rung: int
    overrides: Tuple[Tuple[str, float], ...]
    run_id: str
    seed: int
    metrics: Dict[str, float]
    valid: bool
    feasible: bool

    @property
    def overrides_dict(self) -> Dict[str, float]:
        return dict(self.overrides)

    def objective(self, name: str) -> Optional[float]:
        if not self.valid:
            return None
        return self.metrics.get(name)

    def record(self) -> Dict[str, Any]:
        """The trace-record payload (stable key set, no timing)."""
        return {
            "trial": self.index,
            "rung": self.rung,
            "overrides": self.overrides_dict,
            "run_id": self.run_id,
            "seed": self.seed,
            "metrics": dict(self.metrics),
            "valid": self.valid,
            "feasible": self.feasible,
        }


def promote(candidates: Sequence[Tuple[Any, Optional[float], bool]],
            eta: int) -> List[Any]:
    """Successive-halving promotion: which candidates survive a rung.

    ``candidates`` is ``(key, objective, feasible)`` — objective ``None``
    marks an invalid trial, never promoted.  Feasible candidates always
    outrank infeasible ones; within each class, lower objective wins
    (ties broken by key, so promotion is deterministic).  The rung keeps
    ``max(1, len(candidates) // eta)`` survivors.
    """
    if eta < 2:
        raise ValueError(f"eta must be >= 2, got {eta}")
    valid = [entry for entry in candidates if entry[1] is not None]
    if not valid:
        return []
    keep = max(1, len(candidates) // eta)
    ordered = sorted(valid, key=lambda entry: (
        not entry[2], entry[1], str(entry[0])))
    return [key for key, _, _ in ordered[:keep]]


@dataclass
class SearchResult:
    """Trials in trace order plus the winning configuration."""

    algorithm: str
    scenario: Scenario
    space: SearchSpace
    constraints: Tuple[Constraint, ...]
    objective: str
    trials: List[Trial]
    reference: Dict[str, float]
    fingerprint: str
    best: Optional[Trial] = None
    final_rung: int = 0
    total_wall_time: float = 0.0
    n_cached: int = 0

    def report(self) -> str:
        """Deterministic search report (no timing, no cache facts)."""
        lines = [f"== tune: {self.algorithm} | "
                 f"profile={self.scenario.profile} "
                 f"objective={self.objective} "
                 f"trials={len(self.trials)} =="]
        lines.append("space: " + "  ".join(
            f"{p.name}[{p.low:g},{p.high:g}]"
            for p in self.space.parameters))
        if self.constraints:
            lines.append("constraints: " + "  ".join(
                str(constraint) for constraint in self.constraints))
        reference_bits = "  ".join(
            f"{name}={self.reference[name]:.6f}"
            for name in sorted(self.reference))
        lines.append(f"reference (paper defaults): {reference_bits}")
        if self.best is None:
            lines.append("best: none feasible")
            return "\n".join(lines)
        best_knobs = "  ".join(f"{name}={value:g}" for name, value
                               in self.best.overrides)
        lines.append(f"best: trial {self.best.index} "
                     f"[{self.best.run_id[:12]}]  {best_knobs}")
        best_metrics = "  ".join(
            f"{name}={self.best.metrics[name]:.6f}"
            for name in sorted(self.best.metrics))
        lines.append(f"      {best_metrics}")
        reference_energy = self.reference.get(self.objective)
        best_energy = self.best.metrics.get(self.objective)
        if reference_energy and best_energy is not None:
            gain = (reference_energy - best_energy) / reference_energy
            lines.append(f"      vs paper defaults: "
                         f"{gain:+.2%} on {self.objective}")
        finalists = [trial for trial in self.trials
                     if trial.rung == self.final_rung and trial.valid]
        finalists.sort(key=lambda trial: (
            not trial.feasible, trial.metrics.get(self.objective,
                                                  math.inf),
            trial.run_id))
        lines.append(f"top {min(5, len(finalists))} at full fidelity:")
        for trial in finalists[:5]:
            knobs = "  ".join(f"{name}={value:g}"
                              for name, value in trial.overrides)
            flag = "ok " if trial.feasible else "infeasible"
            lines.append(
                f"  [{flag}] trial {trial.index:3d}  "
                f"{self.objective}="
                f"{trial.metrics.get(self.objective, math.nan):.6f}  "
                f"delay={trial.metrics.get('delay', math.nan):.6f}  "
                f"{knobs}")
        return "\n".join(lines)

    def trace(self) -> str:
        """The JSONL trace: a header line fingerprinting the search,
        then one canonical-JSON record per trial, in trial order."""
        header = {"kind": "repro-search", "version": 1,
                  "algorithm": self.algorithm,
                  "fingerprint": self.fingerprint}
        records = [{"header": header}]
        records.extend(trial.record() for trial in self.trials)
        return "".join(canonical_json(record) + "\n"
                       for record in records)

    def render_summary(self) -> str:
        return (f"-- search runtime: {len(self.trials)} trials, "
                f"{self.n_cached} cached, "
                f"{self.total_wall_time:.2f}s wall --")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "search": {
                "algorithm": self.algorithm,
                "objective": self.objective,
                "fingerprint": self.fingerprint,
                "scenario": self.scenario.fingerprint(),
                "space": self.space.fingerprint(),
                "constraints": [constraint.fingerprint()
                                for constraint in self.constraints],
                "reference": dict(self.reference),
                "final_rung": self.final_rung,
                "n_trials": len(self.trials),
            },
            "best": None if self.best is None else self.best.record(),
            "trials": [trial.record() for trial in self.trials],
        }


def _fingerprint(algorithm: str, scenario: Scenario,
                 space: SearchSpace, constraints: Sequence[Constraint],
                 objective: str, params: Dict[str, Any]) -> str:
    return content_id({
        "algorithm": algorithm,
        "objective": objective,
        "scenario": scenario.fingerprint(),
        "space": space.fingerprint(),
        "constraints": [constraint.fingerprint()
                        for constraint in constraints],
        "params": params,
    })


def _search(algorithm: str, fingerprint: str, scenario: Scenario,
            space: SearchSpace, constraints: Sequence[Constraint],
            objective: str, candidates: Sequence[Dict[str, float]],
            rungs: Sequence[int], processes: int,
            cache: Optional[ResultCache], eta: int = 2) -> SearchResult:
    """The one trial loop over ``(candidates, rungs)``.

    ``rungs`` is the fidelity ladder (reading-time prefix lengths, the
    last one full).  Each rung evaluates the candidates still alive, in
    index order, through the cached matrix engine; between rungs
    :func:`promote` keeps the best ``1/eta``.
    """
    registry = default_registry()
    assignment = registry.baseline_assignment()
    base_setup = registry.setup_for(assignment)
    constraints = tuple(constraints)
    trials: List[Trial] = []
    total_wall_time = 0.0
    n_cached = 0
    alive = list(range(len(candidates)))
    final_rung = len(rungs) - 1
    for rung, fidelity in enumerate(rungs):
        rung_scenario = scenario.at_fidelity(fidelity)
        specs: Dict[int, RunSpec] = {}
        for index in alive:
            try:  # invalid by construction, e.g. a draw with Tp > Td
                base_setup.apply(candidates[index])
            except (ValueError, KeyError):
                continue
            specs[index] = RunSpec.make(
                assignment, context=rung_scenario.fingerprint(),
                overrides=candidates[index])
        if specs:
            matrix = run_specs(list(specs.values()), rung_scenario,
                               processes=processes, cache=cache)
            total_wall_time += matrix.total_wall_time
            n_cached += matrix.n_cached
        rung_trials = []
        for index in alive:
            overrides = tuple(sorted(candidates[index].items()))
            spec = specs.get(index)
            if spec is None:
                trial = Trial(index=index, rung=rung,
                              overrides=overrides, run_id="", seed=0,
                              metrics={}, valid=False, feasible=False)
            else:
                run = matrix.run_for(spec.run_id)
                trial = Trial(index=index, rung=rung,
                              overrides=overrides, run_id=spec.run_id,
                              seed=run.seed, metrics=dict(run.metrics),
                              valid=True,
                              feasible=feasible(run.metrics, constraints))
            rung_trials.append(trial)
        trials.extend(rung_trials)
        if rung == final_rung:
            break
        alive = sorted(promote([(trial.index, trial.objective(objective),
                                 trial.feasible)
                                for trial in rung_trials], eta))
        if not alive:
            final_rung = rung
            break

    # The paper-default configuration at full fidelity.
    reference = run_specs([RunSpec.make(assignment,
                                        context=scenario.fingerprint())],
                          scenario, processes=1, cache=cache)
    total_wall_time += reference.total_wall_time
    finalists = [trial for trial in trials if trial.rung == final_rung
                 and trial.valid and trial.feasible]
    best = min(finalists, default=None, key=lambda trial: (
        trial.metrics.get(objective, math.inf), trial.run_id))
    return SearchResult(
        algorithm=algorithm, scenario=scenario, space=space,
        constraints=constraints, objective=objective, trials=trials,
        reference=dict(reference.runs[0].metrics),
        fingerprint=fingerprint, best=best, final_rung=final_rung,
        total_wall_time=total_wall_time, n_cached=n_cached)


def grid_search(scenario: Scenario,
                space: Optional[SearchSpace] = None,
                constraints: Sequence[Constraint] = (),
                objective: str = DEFAULT_OBJECTIVE,
                points: int = 3,
                processes: int = 1,
                cache: Optional[ResultCache] = None) -> SearchResult:
    """Exhaustive seeded grid over the space's per-parameter grids."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    space = space or default_space()
    fingerprint = _fingerprint("grid", scenario, space, constraints,
                               objective, {"points": points})
    names = [parameter.name for parameter in space.parameters]
    axes = [parameter.grid_values(points)
            for parameter in space.parameters]
    grid = [dict(zip(names, values)) for values in product(*axes)]
    return _search("grid", fingerprint, scenario, space, constraints,
                   objective, grid, [len(scenario.reading_times)],
                   processes, cache)


def _sample(space: SearchSpace, n_trials: int, seed: int,
            fingerprint: str) -> List[Dict[str, float]]:
    """The deterministic trial sequence for random/halving search.

    The stream is keyed by the search fingerprint, so two searches with
    different spaces/constraints/scenarios draw independent sequences,
    while re-running (or resuming) the same search redraws the same one.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    key = int(fingerprint[:16], 16)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(key,)))
    draws: List[Dict[str, float]] = []
    for _ in range(n_trials):
        overrides = {}
        for parameter in space.parameters:  # canonical (name) order
            value = float(rng.uniform(parameter.low, parameter.high))
            overrides[parameter.name] = round(value, _ROUND)
        draws.append(overrides)
    return draws


def random_search(scenario: Scenario,
                  space: Optional[SearchSpace] = None,
                  constraints: Sequence[Constraint] = (),
                  objective: str = DEFAULT_OBJECTIVE,
                  n_trials: int = 20,
                  seed: int = DEFAULT_ROOT_SEED,
                  processes: int = 1,
                  cache: Optional[ResultCache] = None) -> SearchResult:
    """Seeded uniform random search at full fidelity."""
    space = space or default_space()
    fingerprint = _fingerprint("random", scenario, space, constraints,
                               objective,
                               {"n_trials": n_trials, "seed": seed})
    draws = _sample(space, n_trials, seed, fingerprint)
    return _search("random", fingerprint, scenario, space, constraints,
                   objective, draws, [len(scenario.reading_times)],
                   processes, cache)


def halving_rungs(n_readings: int, n_trials: int,
                  eta: int) -> List[int]:
    """The fidelity ladder: reading-time prefix lengths per rung."""
    if eta < 2:
        raise ValueError(f"eta must be >= 2, got {eta}")
    n_rungs = max(1, int(math.floor(math.log(n_trials, eta))) + 1)
    fidelities = []
    for rung in range(n_rungs):
        shrink = eta ** (n_rungs - 1 - rung)
        fidelities.append(max(1, n_readings // shrink))
    # Collapse duplicate fidelities from tiny reading grids, keep the
    # final rung at full fidelity.
    fidelities[-1] = n_readings
    deduped = []
    for fidelity in fidelities:
        if not deduped or fidelity != deduped[-1]:
            deduped.append(fidelity)
    return deduped


def halving_search(scenario: Scenario,
                   space: Optional[SearchSpace] = None,
                   constraints: Sequence[Constraint] = (),
                   objective: str = DEFAULT_OBJECTIVE,
                   n_trials: int = 16,
                   eta: int = 2,
                   seed: int = DEFAULT_ROOT_SEED,
                   processes: int = 1,
                   cache: Optional[ResultCache] = None) -> SearchResult:
    """Successive halving over reading-time-prefix fidelities."""
    space = space or default_space()
    fingerprint = _fingerprint("halving", scenario, space, constraints,
                               objective, {"n_trials": n_trials,
                                           "eta": eta, "seed": seed})
    draws = _sample(space, n_trials, seed, fingerprint)
    rungs = halving_rungs(len(scenario.reading_times), n_trials, eta)
    return _search("halving", fingerprint, scenario, space, constraints,
                   objective, draws, rungs, processes, cache, eta=eta)


#: Algorithm dispatch used by the ``repro tune`` CLI.
ALGORITHMS = {
    "grid": grid_search,
    "random": random_search,
    "halving": halving_search,
}
