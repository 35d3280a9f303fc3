"""Committed golden outputs and the workloads that produce them.

Each workload below returns the exact text a run prints; the fixture
file next to this module holds that text as it was before the slow
reference twins were deleted from ``src/``.
``tests/experiments/test_golden_equivalence.py`` reruns the workloads
in-process and compares bytes; ``tests/ablation/test_batched_golden.py``
shares the ablation scenarios below.

Regenerate fixtures only after a deliberate output change::

    PYTHONPATH=src python -m tests.golden            # every fixture
    PYTHONPATH=src python -m tests.golden fig08 ...  # just these
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

GOLDEN_DIR = Path(__file__).resolve().parent


def fig08() -> str:
    from repro.experiments.fig08_transmission_time import run
    return run().report() + "\n"


def fig11() -> str:
    from repro.experiments.fig11_capacity import run
    from repro.units import hours
    return run(horizon=hours(0.1)).report() + "\n"


def fig07() -> str:
    from repro.experiments.fig07_reading_cdf import run
    return run().report() + "\n"


def policy_eval() -> str:
    from repro.core.policy_eval import PolicyEvaluator
    from repro.traces.generator import TraceConfig
    evaluator = PolicyEvaluator(
        trace_config=TraceConfig(n_users=8, mean_views_per_user=40, seed=3))
    return "".join(f"{case}\n" for case in evaluator.evaluate())


def faults_sweep() -> str:
    from repro.experiments.fig_sensitivity import run_profile
    from repro.webpages.corpus import benchmark_pages
    pages = (benchmark_pages(mobile=True)[:2]
             + benchmark_pages(mobile=False)[:1])
    return run_profile("congested", seed=123, pages=pages).report() + "\n"


def gbrt_fig15() -> str:
    """The fig15 predictor configuration, at reduced rounds."""
    import numpy as np

    from repro.ml.gbrt import GradientBoostedRegressor
    from repro.ml.validation import train_test_split
    from repro.traces.generator import generate_trace

    dataset = generate_trace().filter_reading_time()
    x, y = dataset.to_arrays()
    x_train, x_test, y_train, _ = train_test_split(
        x, y, test_fraction=0.3, random_state=7)
    model = GradientBoostedRegressor(
        n_estimators=40, max_leaves=8, learning_rate=0.08,
        min_samples_leaf=10, subsample=1.0, random_state=13)
    model.fit(x_train, np.log1p(y_train))
    return json.dumps({
        "model": model.to_dict(),
        "train_losses": model.train_losses_,
        "predict": model.predict(x_test).tolist(),
        "apply": [t.apply(x_test).tolist() for t in model.trees_[:3]],
        "predict_one": model.predict_one(x_test[0]),
    }) + "\n"


def gbrt_subsample() -> str:
    """Stochastic boosting (subsample < 1) under the LAD loss."""
    import numpy as np

    from repro.ml.gbrt import GradientBoostedRegressor
    from repro.ml.losses import AbsoluteLoss

    rng = np.random.default_rng(99)
    x = rng.normal(size=(300, 6))
    y = x[:, 0] - 2.0 * x[:, 3] + rng.normal(scale=0.3, size=300)
    model = GradientBoostedRegressor(
        n_estimators=25, max_leaves=6, subsample=0.7, min_samples_leaf=1,
        loss=AbsoluteLoss(), random_state=5)
    model.fit(x, y)
    return json.dumps({
        "model": model.to_dict(),
        "train_losses": model.train_losses_,
        "predict": model.predict(x).tolist(),
    }) + "\n"


# ----------------------------------------------------------------------
# Ablation workloads: one small page, three reading times.
# ----------------------------------------------------------------------

def tiny_scenario():
    from repro.ablation.objective import Scenario
    return Scenario(profile="ideal", pages=("www.motors.ebay.com",),
                    reading_times=(2.0, 9.0, 30.0))


def edge_scenario():
    return replace(tiny_scenario(), profile="cell_edge")


def population_scenario():
    from repro.ablation.objective import PopulationSpec
    return replace(tiny_scenario(), population=PopulationSpec(
        n_users=400, n_channels=20, horizon=600.0, mean_interval=10.0))


def threshold_space():
    """α/Tp only: every trial shares one load projection."""
    from repro.ablation.search import Parameter, SearchSpace
    return SearchSpace((Parameter("alpha", 0.5, 4.0),
                        Parameter("tp", 2.0, 18.0)))


def ablate_loo() -> str:
    from repro.ablation.engine import run_matrix
    return run_matrix("loo", tiny_scenario()).report() + "\n"


def _tune_trace(algorithm: str, scenario, **kwargs) -> str:
    from repro.ablation.search import ALGORITHMS
    result = ALGORITHMS[algorithm](scenario, space=threshold_space(),
                                   **kwargs)
    return result.trace() + result.report() + "\n"


def tune_halving() -> str:
    """The halving tune trace (JSONL) followed by its report."""
    return _tune_trace("halving", edge_scenario(), n_trials=5,
                       objective="energy", seed=123)


def tune_population() -> str:
    """The population-objective halving trace and report."""
    return _tune_trace("halving", population_scenario(), n_trials=4,
                       objective="drop_probability", seed=7)


def tune_grid() -> str:
    """A 3 x 3 α/Tp grid at cell edge; the Tp = 2 row breaks the
    1.2 s delay budget."""
    from repro.ablation.search import Constraint
    return _tune_trace("grid", edge_scenario(), points=3,
                       constraints=(Constraint("delay", 1.2),))


def tune_random() -> str:
    """Six seeded uniform α/Tp draws at cell edge."""
    return _tune_trace("random", edge_scenario(), n_trials=6, seed=123)


#: Fixture file name -> the workload that reproduces it.
WORKLOADS: Dict[str, Callable[[], str]] = {
    "fig08.txt": fig08,
    "fig11.txt": fig11,
    "fig07.txt": fig07,
    "policy_eval.txt": policy_eval,
    "faults_sweep.txt": faults_sweep,
    "gbrt_fig15.json": gbrt_fig15,
    "gbrt_subsample.json": gbrt_subsample,
    "ablate_loo.txt": ablate_loo,
    "tune_halving.txt": tune_halving,
    "tune_population.txt": tune_population,
    "tune_grid.txt": tune_grid,
    "tune_random.txt": tune_random,
}


def fixture(name: str) -> str:
    """The committed text of one fixture."""
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def write(name: str) -> None:
    (GOLDEN_DIR / name).write_text(WORKLOADS[name](), encoding="utf-8")
