"""Importance ranking: effects, interactions, harmful flags, exports."""

import json

import pytest

from repro.ablation.components import default_registry
from repro.ablation.engine import MatrixResult, MatrixRun
from repro.ablation.matrix import RunSpec, pairwise_factorial
from repro.ablation.objective import Scenario
from repro.ablation.rank import rank_components, write_ranking

TINY = Scenario(profile="ideal", pages=("www.motors.ebay.com",),
                reading_times=(2.0,))


def synthetic_matrix():
    """Hand-assigned energies over a two-component pairs matrix."""
    registry = default_registry().subset(
        ["fast_dormancy", "reorganisation"])
    specs = pairwise_factorial(registry, context=TINY.fingerprint())
    energies = {}
    for spec in specs:
        deviations = spec.deviations(registry)
        if not deviations:
            energies[spec.run_id] = 100.0          # baseline
        elif deviations == {"fast_dormancy": "off"}:
            energies[spec.run_id] = 104.0          # +4 main effect
        elif deviations == {"reorganisation": "off"}:
            energies[spec.run_id] = 98.0           # -2: harmful!
        else:
            energies[spec.run_id] = 105.0          # joint cell
    runs = [MatrixRun(spec=spec, seed=0,
                      metrics={"energy": energies[spec.run_id]})
            for spec in specs]
    return MatrixResult(scenario=TINY, runs=runs)


def test_ranking_orders_by_magnitude_and_flags_harmful():
    ranking = rank_components(synthetic_matrix())
    assert [e.component for e in ranking.ranked] \
        == ["fast_dormancy", "reorganisation"]
    fd, reorg = ranking.ranked
    assert fd.delta == pytest.approx(4.0)
    assert not fd.harmful
    assert reorg.delta == pytest.approx(-2.0)
    assert reorg.harmful
    assert "[harmful]" in ranking.report()


def test_pairwise_interaction_is_the_unexplained_part():
    ranking = rank_components(synthetic_matrix())
    assert len(ranking.interactions) == 1
    entry = ranking.interactions[0]
    # expected = 100 + 4 - 2 = 102; observed 105 → interaction +3
    assert entry.expected == pytest.approx(102.0)
    assert entry.interaction == pytest.approx(3.0)


def test_rank_requires_a_baseline_cell():
    matrix = synthetic_matrix()
    no_baseline = MatrixResult(
        scenario=TINY,
        runs=[run for run in matrix.runs
              if run.spec.deviations(matrix.registry())])
    with pytest.raises(ValueError):
        rank_components(no_baseline)


def test_rank_rejects_unknown_metric():
    with pytest.raises(KeyError):
        rank_components(synthetic_matrix(), metric="charisma")


def test_search_points_are_ignored():
    matrix = synthetic_matrix()
    registry = matrix.registry()
    stray = RunSpec.make(registry.baseline_assignment(),
                         context=TINY.fingerprint(),
                         overrides={"t1": 1.0})
    matrix.runs.append(MatrixRun(spec=stray, seed=0,
                                 metrics={"energy": 1.0}))
    ranking = rank_components(matrix)
    assert all(e.run_id != stray.run_id for e in ranking.effects)
    assert ranking.baseline_value == pytest.approx(100.0)


def test_write_ranking_json_and_csv(tmp_path):
    ranking = rank_components(synthetic_matrix())
    json_path = tmp_path / "rank.json"
    csv_path = tmp_path / "rank.csv"
    write_ranking(ranking, json_path)
    write_ranking(ranking, csv_path)
    payload = json.loads(json_path.read_text())
    assert payload["ranking"]["metric"] == "energy"
    assert len(payload["importance"]) == 2
    assert payload["interactions"][0]["interaction"] == pytest.approx(3.0)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("rank,component,level,metric")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "fast_dormancy"
