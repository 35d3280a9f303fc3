"""Reading-time predictor."""

import numpy as np
import pytest

from repro.prediction.predictor import ReadingTimePredictor


def test_predictions_are_positive(trained_predictor, small_trace):
    x, _ = small_trace.to_arrays()
    predictions = trained_predictor.predict(x[:50])
    assert (predictions >= 0).all()


def test_beats_base_rate_at_both_thresholds(trained_predictor,
                                            small_trace):
    """The predictor must beat always-say-short on the >α population."""
    interested = small_trace.exclude_quick_bounces(2.0)
    y = interested.reading_times()
    for threshold in (9.0, 20.0):
        base_rate = max(np.mean(y > threshold), np.mean(y <= threshold))
        accuracy = trained_predictor.accuracy(interested, threshold)
        assert accuracy > base_rate


def test_interest_threshold_filters_training_data(small_trace):
    with_alpha = ReadingTimePredictor(n_estimators=30,
                                      interest_threshold=2.0)
    without = ReadingTimePredictor(n_estimators=30,
                                   interest_threshold=None)
    with_alpha.fit(small_trace)
    without.fit(small_trace)
    x, _ = small_trace.to_arrays()
    # The α-trained model never saw bounce targets, so its predictions
    # sit higher on average.
    assert with_alpha.predict(x).mean() > without.predict(x).mean()


def test_predict_one_matches_batch(trained_predictor, small_trace):
    x, _ = small_trace.to_arrays()
    row = x[7]
    assert trained_predictor.predict_one(row) == pytest.approx(
        float(trained_predictor.predict(row.reshape(1, -1))[0]))


def test_predict_rejects_wrong_feature_count(trained_predictor,
                                             small_trace):
    x, _ = small_trace.to_arrays()
    with pytest.raises(ValueError, match="features, got shape"):
        trained_predictor.predict(np.hstack([x, x]))
    with pytest.raises(ValueError, match="features, got shape"):
        trained_predictor.predict(x[:, :1])
    with pytest.raises(ValueError, match="features, got"):
        trained_predictor.predict_one(x[0, :-1])


def test_untrained_predictor_rejects_use(small_trace):
    predictor = ReadingTimePredictor()
    x, _ = small_trace.to_arrays()
    with pytest.raises(RuntimeError):
        predictor.predict(x)
    with pytest.raises(RuntimeError):
        predictor.predict_one(x[0])
    with pytest.raises(RuntimeError):
        predictor.save_json("/tmp/never.json")


def test_json_roundtrip(trained_predictor, small_trace, tmp_path):
    path = tmp_path / "model.json"
    trained_predictor.save_json(str(path))
    restored = ReadingTimePredictor.load_json(str(path))
    x, _ = small_trace.to_arrays()
    assert np.allclose(trained_predictor.predict(x[:20]),
                       restored.predict(x[:20]))
    assert restored.interest_threshold == 2.0


def test_fit_arrays_path(small_trace):
    x, y = small_trace.to_arrays()
    predictor = ReadingTimePredictor(n_estimators=20).fit_arrays(x, y)
    assert predictor.predict(x[:3]).shape == (3,)
