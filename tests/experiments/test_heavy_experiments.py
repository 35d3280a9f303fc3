"""Capacity, prediction accuracy, six cases, and the suite runner."""

import numpy as np
import pytest

from repro.experiments import (
    fig11_capacity,
    fig15_prediction_accuracy,
    fig16_six_cases,
)
from repro.experiments.runner import ALL_EXPERIMENTS
from repro.prediction.predictor import ReadingTimePredictor
from repro.runtime.parallel import KIND_EXPERIMENT, run_tasks
from repro.traces.generator import TraceConfig
from repro.units import hours


@pytest.fixture(scope="module")
def fig11():
    # Shorter horizon than the default experiment for test speed; the
    # capacity ordering is robust to it.
    return fig11_capacity.run(horizon=hours(0.5))


def test_fig11_capacity_gains(fig11):
    for benchmark in fig11.benchmarks:
        assert benchmark.gain > 0.08
        assert benchmark.energy_aware.capacity_at_target \
            > benchmark.original.capacity_at_target


def test_fig11_full_benchmark_gains_more(fig11):
    by_label = {b.label: b for b in fig11.benchmarks}
    assert by_label["full"].gain > by_label["mobile"].gain


def test_fig11_drop_curves_monotone(fig11):
    for benchmark in fig11.benchmarks:
        for curve in (benchmark.original, benchmark.energy_aware):
            probabilities = curve.drop_probabilities
            assert probabilities == sorted(probabilities)


def test_fig15_interest_threshold_helps():
    result = fig15_prediction_accuracy.run()
    for threshold in (9.0, 20.0):
        assert result.improvement(threshold) > 0.03
        assert result.accuracy(threshold, True) > 0.72
    assert "Fig. 15" in result.report()


def test_fig15_predictor_predicts_finite_times(default_trace):
    """The fig15 predictor (300 trees, no interest threshold) fitted
    on the full default trace."""
    x, y = default_trace.to_arrays()
    predictor = ReadingTimePredictor(interest_threshold=None)
    predicted = predictor.fit_arrays(x, y).predict(x)
    assert predicted.shape == y.shape
    assert np.isfinite(predicted).all()


def test_fig16_default_trace_orderings():
    result = fig16_six_cases.run()
    assert result.case("original-always-off").delay_saving < 0
    assert result.case("accurate-9").power_saving == max(
        case.power_saving for case in result.cases)


def test_fig16_small_trace_orderings():
    config = TraceConfig(n_users=10, mean_views_per_user=60,
                         catalog_size=16, seed=77)
    result = fig16_six_cases.run(trace_config=config)
    assert result.case("original-always-off").delay_saving < 0
    assert result.case("accurate-9").power_saving == max(
        case.power_saving for case in result.cases)
    assert "Fig. 16" in result.report()


def test_runner_registry_covers_every_table_and_figure():
    ids = [experiment_id for experiment_id, _, _ in ALL_EXPERIMENTS]
    assert ids == ["fig01", "fig03", "fig04", "fig07", "fig08", "fig09",
                   "fig10", "fig11", "fig12_13", "fig14", "fig15",
                   "fig16", "table04", "table05", "table07"]


def test_runner_selected_subset():
    suite = run_tasks(KIND_EXPERIMENT, ("fig03",))
    assert [result.task_id for result in suite.results] == ["fig03"]
    assert "break-even" in suite.render()
