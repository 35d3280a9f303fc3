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

Each top-level name resolves on first access (PEP 562): ``import
repro`` loads no submodule, and ``from repro import find_page`` imports
only the webpages stack.  A ``repro stream-sweep`` worker therefore imports the
sched/stream/capacity stack it runs and never the browser, prediction
or trace stacks.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record; ``python -m repro experiments``
regenerates every result.
"""

import importlib

__version__ = "1.0.0"

#: Home module -> the public names it exports at the top level.
_EXPORTS = {
    "repro.browser": ("BrowserConfig", "BrowserCosts", "OriginalEngine",
                      "EnergyAwareEngine", "PageLoadResult"),
    "repro.core": ("ExperimentConfig", "Handset", "SessionResult",
                   "load_page", "browse_and_read", "compare_engines",
                   "benchmark_comparison"),
    "repro.core.config": ("PolicyConfig",),
    "repro.rrc": ("RrcState", "RrcConfig", "RrcMachine", "RilLink"),
    "repro.network": ("Link", "NetworkConfig"),
    "repro.webpages": ("Webpage", "PageSpec", "generate_page"),
    "repro.webpages.corpus": ("benchmark_pages", "find_page"),
    "repro.ml": ("GradientBoostedRegressor",),
    "repro.prediction": ("ReadingTimePredictor", "PredictivePolicy",
                         "FEATURE_NAMES"),
    "repro.traces": ("TraceConfig", "TraceDataset", "generate_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
