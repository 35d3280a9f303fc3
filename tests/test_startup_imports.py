"""Import-graph guard for the worker entry paths.

``repro serve`` and every ``repro stream-sweep`` worker pay their
imports on each spawn.  Only fig07's Weibull fit uses scipy, and only
the ``experiments``/``ablations`` subcommands need the experiment
registries, so neither may load on the serve, scheduler or streaming
paths.  Each check runs in a fresh interpreter: this test
process has long since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code):
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})


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
