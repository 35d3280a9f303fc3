"""Import-graph guard for the worker entry paths.

``repro serve`` and every ``repro stream-sweep`` worker pay their
imports on each spawn.  Only fig07's Weibull fit uses scipy, and only
the ``experiments``/``ablations`` subcommands need the experiment
registries, so neither may load on the serve, scheduler or streaming
paths.  ``import repro`` loads no submodule (its top-level names resolve
on first access), and neither ``--help`` nor a sweep worker loads the
browser, prediction or trace stacks.  Each check runs in a fresh
interpreter: this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code):
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})


#: Stacks only the page-load, prediction and trace commands run.
UNUSED_BY_WORKERS = {"browser", "webpages", "network", "rrc", "ml",
                     "prediction", "traces", "core"}

#: ``repro``'s public top-level names.
PUBLIC = {
    "__version__", "BrowserConfig", "BrowserCosts", "OriginalEngine",
    "EnergyAwareEngine", "PageLoadResult", "ExperimentConfig",
    "PolicyConfig", "Handset", "SessionResult", "load_page",
    "browse_and_read", "compare_engines", "benchmark_comparison",
    "RrcState", "RrcConfig", "RrcMachine", "RilLink", "Link",
    "NetworkConfig", "Webpage", "PageSpec", "generate_page",
    "benchmark_pages", "find_page", "GradientBoostedRegressor",
    "ReadingTimePredictor", "PredictivePolicy", "FEATURE_NAMES",
    "TraceConfig", "TraceDataset", "generate_trace",
}


def _loaded_stacks(code):
    """The ``repro`` subpackages loaded after running ``code``."""
    result = _run(code + "\n"
                  "import json, sys\n"
                  "print(json.dumps([name.split('.')[1]\n"
                  "                  for name in sys.modules\n"
                  "                  if name.startswith('repro.')]))\n")
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_repro_loads_no_submodule():
    assert _loaded_stacks("import repro") == set()


def test_cli_import_leaves_the_page_load_stacks_unloaded():
    assert not _loaded_stacks("import repro.cli") & UNUSED_BY_WORKERS


def test_sweep_worker_leaves_the_page_load_stacks_unloaded(tmp_path):
    loaded = _loaded_stacks(
        "from repro.cli import main\n"
        "assert main(['stream-sweep', '--scale', '1', '--horizon', '600',\n"
        f"             '--users', '250', '--work-dir', {str(tmp_path)!r}])"
        " == 0\n")
    assert {"sched", "stream", "capacity"} <= loaded
    assert not loaded & UNUSED_BY_WORKERS


def test_top_level_names_resolve_lazily_to_their_home_objects():
    result = _run(
        "import importlib, repro\n"
        "for name, home in repro._HOME.items():\n"
        "    value = getattr(repro, name)\n"
        "    assert value is getattr(importlib.import_module(home), name)\n"
        "    defined = getattr(value, '__module__', home)\n"
        "    assert getattr(importlib.import_module(defined), name) is value\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('repro.no_such_name resolved')\n"
        "print(sorted(repro.__all__))\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(sorted(PUBLIC))


@pytest.mark.parametrize("home", sorted(repro._EXPORTS))
def test_each_home_module_resolves_as_the_first_import(home):
    """A process's first top-level name may come from any home module;
    none may hit an import cycle that an eager import order hid."""
    result = _run(f"import repro\nrepro.{repro._EXPORTS[home][0]}\n")
    assert result.returncode == 0, result.stderr


def test_entry_paths_leave_scipy_and_the_experiment_suite_unloaded():
    result = _run(
        "import sys\n"
        "import repro.cli, repro.serve, repro.sched, repro.stream\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'scipy'\n"
        "             or name.startswith('repro.experiments')))\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_stream_sweep_runs_without_scipy():
    # A None entry in sys.modules makes any `import scipy` raise.
    result = _run(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.cli import main\n"
        "sys.exit(main(['stream-sweep', '--scale', '1',\n"
        "               '--horizon', '600', '--users', '250']))\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Stream sweep: N=200 channels")
    assert "-- streamed runtime:" in result.stdout


def test_runner_module_starts_without_a_double_import_warning():
    """``python -m repro.experiments.runner`` must not find the runner
    already imported by its own package: runpy would warn that it
    re-executes a module that is in ``sys.modules``."""
    result = subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m",
         "repro.experiments.runner", "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC})
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr, result.stderr
