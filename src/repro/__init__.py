"""Energy-aware web browsing for 3G smartphones — a reproduction.

This library reproduces Zhao, Zheng & Cao, *Energy-Aware Web Browsing in
3G Based Smartphones* (ICDCS 2013) as a laptop-scale simulation study:
the UMTS RRC radio substrate, a browser-engine model with the paper's
computation-sequence reorganisation, the GBRT reading-time predictor,
Algorithm 2's switching policy, and every table and figure of the
evaluation section.

Typical entry points::

    from repro import compare_engines, find_page
    comparison = compare_engines(find_page("espn.go.com/sports"),
                                 reading_time=20.0)
    print(comparison.energy_saving)

    from repro import ReadingTimePredictor, generate_trace
    predictor = ReadingTimePredictor().fit(
        generate_trace().filter_reading_time())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record; ``python -m repro experiments``
regenerates every result.
"""

from repro.browser import (
    BrowserConfig,
    BrowserCosts,
    EnergyAwareEngine,
    OriginalEngine,
    PageLoadResult,
)
from repro.core import (
    ExperimentConfig,
    Handset,
    SessionResult,
    browse_and_read,
    compare_engines,
    benchmark_comparison,
    load_page,
)
from repro.core.config import PolicyConfig
from repro.ml import GradientBoostedRegressor
from repro.network import Link, NetworkConfig
from repro.prediction import (
    FEATURE_NAMES,
    PredictivePolicy,
    ReadingTimePredictor,
)
from repro.rrc import RilLink, RrcConfig, RrcMachine, RrcState
from repro.traces import TraceConfig, TraceDataset, generate_trace
from repro.webpages import PageSpec, Webpage, generate_page
from repro.webpages.corpus import benchmark_pages, find_page

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # browser engines
    "BrowserConfig",
    "BrowserCosts",
    "OriginalEngine",
    "EnergyAwareEngine",
    "PageLoadResult",
    # core sessions and comparisons
    "ExperimentConfig",
    "PolicyConfig",
    "Handset",
    "SessionResult",
    "load_page",
    "browse_and_read",
    "compare_engines",
    "benchmark_comparison",
    # radio
    "RrcState",
    "RrcConfig",
    "RrcMachine",
    "RilLink",
    # network
    "Link",
    "NetworkConfig",
    # workloads
    "Webpage",
    "PageSpec",
    "generate_page",
    "benchmark_pages",
    "find_page",
    # prediction
    "GradientBoostedRegressor",
    "ReadingTimePredictor",
    "PredictivePolicy",
    "FEATURE_NAMES",
    # traces
    "TraceConfig",
    "TraceDataset",
    "generate_trace",
]
