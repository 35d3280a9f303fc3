"""The scalar per-unit ablation evaluator the batched grid replaced.

One full discrete-event load per page per call — no load memo, no disk
cache, no grid scoring — then every (page, reading-time) unit scored
with the scalar tail twins of ``tests/oracles/tail.py``, and the
population objective through a whole ``CapacitySimulator.run``.  The batched
``repro.ablation.objective.evaluate_setups`` must match it byte for
byte (``tests/ablation/test_batched_golden.py``).
"""

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ablation.components import STOCK_SETUP, VariantSetup
from repro.ablation.objective import (PopulationSpec, Scenario,
                                      _load_page, _predictions)
from repro.capacity.simulator import CapacityConfig, CapacitySimulator
from repro.rrc.states import RrcState
from repro.runtime.seeding import spawn_seeds
from tests.oracles.tail import (
    promotion_energy,
    promotion_latency,
    tail_energy_after_release,
    tail_energy_after_tx,
    tail_state_after_release,
    tail_state_after_tx,
)


def wants_switch(setup: VariantSetup, reading: float,
                 predicted: float) -> bool:
    """Algorithm 2's decision for one unit, given a prediction."""
    if not setup.fast_dormancy:
        return False
    if reading <= setup.alpha:  # the user left before the decision point
        return False
    threshold = setup.tp if setup.mode == "power" else setup.td
    return predicted > threshold


def _reading_phase(setup: VariantSetup, load, reading: float,
                   switch: bool, rrc) -> Tuple[float, RrcState]:
    """Closed-form reading energy and the radio state at the next click.

    Anchored at the channel release when the variant released (energy-
    aware engine with fast dormancy), at the last transmission
    otherwise.  A switching unit cuts the tail at α and idles for the
    rest of the reading period.
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


def drop_probability(holds: List[float], population: PopulationSpec,
                     eval_seed: int) -> float:
    """Drop probability of an M/G/N cell whose service pool is the
    variant's own channel-hold times."""
    config = CapacityConfig(n_channels=population.n_channels,
                            mean_interval=population.mean_interval,
                            horizon=population.horizon,
                            seed=eval_seed)
    simulator = CapacitySimulator(np.asarray(holds, dtype=float), config)
    capacity_seed = int(np.random.SeedSequence(
        eval_seed, spawn_key=(1,)).generate_state(1)[0])
    result = simulator.run(population.n_users, seed=capacity_seed)
    return result.drop_probability


def _scores(setup: VariantSetup, scenario: Scenario, loads,
            predicted) -> Tuple[List[float], List[float], int]:
    """Per-unit energies and delays plus the switch count."""
    rrc = setup.to_config().rrc
    energies: List[float] = []
    delays: List[float] = []
    switches = 0
    unit = 0
    for load in loads:
        for reading in scenario.reading_times:
            switch = wants_switch(setup, float(reading),
                                  float(predicted[unit]))
            unit += 1
            read_energy, state = _reading_phase(setup, load,
                                                float(reading), switch,
                                                rrc)
            switches += bool(switch)
            energies.append(load.loading_energy + read_energy
                            + promotion_energy(state, rrc))
            delays.append(promotion_latency(state, rrc))
    return energies, delays, switches


def _loads(setup: VariantSetup, scenario: Scenario) -> list:
    page_seeds = spawn_seeds(scenario.seed, len(scenario.pages))
    return [_load_page(name, setup, scenario.profile, page_seed)
            for name, page_seed in zip(scenario.pages, page_seeds)]


def reference_metrics(scenario: Scenario) -> Dict[str, float]:
    """The stock browser's scores under ``scenario``, never memoised."""
    reference = replace(scenario, population=None)
    loads = _loads(STOCK_SETUP, reference)
    never = np.zeros(len(reference.pages) * len(reference.reading_times))
    energies, delays, _ = _scores(STOCK_SETUP, reference, loads, never)
    return {
        "energy": float(np.mean(energies)),
        "delay": float(np.mean(delays)),
        "load_time": float(np.mean([load.load_time for load in loads])),
    }


def evaluate_setup(setup: VariantSetup, scenario: Scenario,
                   eval_seed: int, load_cache=None) -> Dict[str, float]:
    """Score one variant; ``load_cache`` is accepted and ignored."""
    loads = _loads(setup, scenario)
    readings = np.asarray(
        [r for _ in scenario.pages for r in scenario.reading_times],
        dtype=float)
    predicted = _predictions(setup, readings, eval_seed)
    energies, delays, switches = _scores(setup, scenario, loads, predicted)

    metrics: Dict[str, float] = {
        "energy": float(np.mean(energies)),
        "delay": float(np.mean(delays)),
        "load_time": float(np.mean([load.load_time for load in loads])),
        "tx_time": float(np.mean([load.tx_time for load in loads])),
        "switch_rate": switches / len(energies),
    }
    if scenario.population is not None:
        metrics["drop_probability"] = drop_probability(
            [load.hold_time for load in loads], scenario.population,
            eval_seed)
    reference = reference_metrics(scenario)
    if reference["energy"] > 0:
        metrics["energy_saving"] = (
            (reference["energy"] - metrics["energy"])
            / reference["energy"])
    else:
        metrics["energy_saving"] = 0.0
    return metrics


def evaluate_setups(pairs: Sequence[Tuple[VariantSetup, int]],
                    scenario: Scenario,
                    load_cache=None) -> List[Dict[str, float]]:
    """:func:`evaluate_setup` one pair at a time."""
    return [evaluate_setup(setup, scenario, eval_seed)
            for setup, eval_seed in pairs]
