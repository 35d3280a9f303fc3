"""Declarative ablation engine with importance ranking and auto-tuning.

The pipeline (DESIGN.md §14): a **registry** declares every knob once
(:mod:`~repro.ablation.components`), a **matrix generator** expands the
declarations into leave-one-out / OFAT / factorial run matrices with
content-addressed run IDs (:mod:`~repro.ablation.matrix`), the cached
parallel **engine** evaluates them (:mod:`~repro.ablation.engine` over
:mod:`~repro.ablation.objective`), a **ranker** folds results into
per-component importance (:mod:`~repro.ablation.rank`), and a **search**
layer tunes T1/T2 and α/Tp/Td per channel profile under constraints
(:mod:`~repro.ablation.search`).  The five single-factor studies of
:mod:`repro.experiments.ablations` are plain loops and do not use it.
"""

from repro.ablation.components import (Component, ComponentRegistry,
                                       STOCK_SETUP, VariantSetup,
                                       default_registry)
from repro.ablation.engine import (KIND_ABLATE, MatrixResult, MatrixRun,
                                   run_matrix, run_specs, spec_seed)
from repro.ablation.matrix import (GENERATORS, RunSpec, generate,
                                   spec_run_id)
from repro.ablation.objective import (PopulationSpec, Scenario,
                                      evaluate_setup, evaluate_setups,
                                      load_cache_stats, load_projection,
                                      reset_load_cache,
                                      variant_hold_pool)
from repro.ablation.rank import Ranking, rank_components, write_ranking
from repro.ablation.search import (ALGORITHMS, Constraint, Parameter,
                                   SearchResult, SearchSpace,
                                   default_space, grid_search,
                                   halving_search, promote,
                                   random_search)

__all__ = [
    "ALGORITHMS", "Component", "ComponentRegistry",
    "Constraint", "GENERATORS", "KIND_ABLATE", "MatrixResult",
    "MatrixRun", "Parameter", "PopulationSpec", "Ranking", "RunSpec",
    "Scenario", "SearchResult", "SearchSpace", "STOCK_SETUP",
    "VariantSetup", "default_registry",
    "default_space", "evaluate_setup", "evaluate_setups", "generate",
    "grid_search", "halving_search", "load_cache_stats",
    "load_projection", "promote", "random_search", "rank_components",
    "reset_load_cache", "run_matrix", "run_specs", "spec_run_id",
    "spec_seed", "variant_hold_pool", "write_ranking",
]
