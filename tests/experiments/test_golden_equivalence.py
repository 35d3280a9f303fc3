"""Golden equivalence: every workload reproduces its committed fixture.

``tests/golden/`` holds the outputs the experiments, the GBRT fits and
the ablation engine printed before their slow reference twins left
``src/``.  Each workload reruns here in-process and must match its
fixture byte for byte, timestamps included.  The ``*_on_slow_*`` tests
rerun a workload with a scalar oracle from ``tests/oracles/`` patched
over the kernel it replaced — the event loop, the split search, or the
fleet paths — and require the same fixture again.
"""

import pytest

import repro.capacity.simulator as capacity_simulator
import repro.core.comparison as comparison
import repro.experiments.fig07_reading_cdf as fig07_module
import repro.ml.tree as tree_module
import repro.prediction.policy as prediction_policy
from repro.prediction.predictor import ReadingTimePredictor
from repro.runtime.singleflight import SingleFlight
from repro.sim.kernel import Simulator
from tests import golden
from tests.oracles import capacity, kernel, policy, tree


def _assert_golden(name: str) -> None:
    produced = golden.WORKLOADS[name]()
    assert produced  # a trivially empty "report" would prove nothing
    assert produced == golden.fixture(name)


@pytest.mark.parametrize("name", sorted(golden.WORKLOADS))
def test_output_matches_golden_fixture(name):
    _assert_golden(name)


@pytest.fixture
def slow_kernel(monkeypatch):
    """Drain every simulation through the peek/step oracle, with the
    memoised benchmark comparisons recomputed on it."""
    monkeypatch.setattr(Simulator, "_drain", kernel.drain)
    monkeypatch.setattr(comparison, "_BENCHMARK_MEMO", SingleFlight())


@pytest.fixture
def slow_fleet(monkeypatch):
    """The per-session heap, the per-record Algorithm-2 rule and tree
    traversal, and per-anchor means in place of the batched fleet
    paths."""
    monkeypatch.setattr(capacity_simulator, "resolve_drops_block",
                        capacity.resolve_drops_block)
    monkeypatch.setattr(prediction_policy, "switch_decisions",
                        policy.switch_decisions)
    monkeypatch.setattr(ReadingTimePredictor, "predict",
                        policy.predict_rows)
    monkeypatch.setattr(fig07_module, "threshold_fractions",
                        policy.threshold_fractions)


@pytest.fixture
def slow_gbrt(monkeypatch):
    monkeypatch.setattr(tree_module, "_best_split", tree.split_search)


def test_fig08_report_identical_on_slow_kernel(slow_kernel):
    _assert_golden("fig08.txt")


def test_fig11_report_identical_on_slow_kernel(slow_kernel):
    _assert_golden("fig11.txt")


def test_faults_sweep_report_identical_on_slow_kernel(slow_kernel):
    _assert_golden("faults_sweep.txt")


def test_fig11_report_identical_on_slow_fleet(slow_fleet):
    """The batched drop resolver vs the per-session heapq loop —
    identical CapacityResults, so an identical fig11 report."""
    _assert_golden("fig11.txt")


def test_fig07_report_identical_on_slow_fleet(slow_fleet):
    """Sorted-search CDF anchors vs the per-anchor boolean means."""
    _assert_golden("fig07.txt")


def test_policy_eval_identical_on_slow_fleet(slow_fleet):
    """Whole-vector Algorithm 2 vs the per-record scalar rule on
    per-record predictions — every Table-6 case's energy/delay/
    switch-rate must match exactly."""
    _assert_golden("policy_eval.txt")


def test_faults_sweep_report_identical_on_slow_fleet(slow_fleet):
    _assert_golden("faults_sweep.txt")


def test_gbrt_fig15_config_identical_on_slow_path(slow_gbrt):
    """Same trees (serialised node for node), same losses, same
    predictions — vectorised vs per-feature split search."""
    _assert_golden("gbrt_fig15.json")


def test_gbrt_subsampled_lad_identical_on_slow_path(slow_gbrt):
    """The stochastic (subsample < 1) path re-sorts per round and uses
    a different loss; it must match the reference too."""
    _assert_golden("gbrt_subsample.json")
