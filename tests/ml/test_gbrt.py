"""Gradient boosting: Algorithm 1 semantics."""

import numpy as np
import pytest

from repro.ml.gbrt import GradientBoostedRegressor
from repro.ml.losses import AbsoluteLoss, SquaredLoss
from repro.ml.metrics import r2_score
from tests.oracles.readouts import staged_predict


def make_data(n=600, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 6))
    y = (np.sin(4 * x[:, 0]) * 3
         + 2.0 * (x[:, 1] > 0.5) * x[:, 2]
         + 0.2 * rng.normal(size=n))
    return x, y


def test_fits_nonlinear_function_well():
    x, y = make_data()
    model = GradientBoostedRegressor(n_estimators=150, learning_rate=0.1,
                                     random_state=1).fit(x[:400], y[:400])
    assert r2_score(y[400:], model.predict(x[400:])) > 0.85


def test_training_loss_monotone_nonincreasing():
    x, y = make_data(n=300)
    model = GradientBoostedRegressor(n_estimators=60,
                                     random_state=1).fit(x, y)
    losses = np.array(model.train_losses_)
    assert (np.diff(losses) <= 1e-9).all()


def test_init_is_mean_for_squared_loss():
    x, y = make_data(n=100)
    model = GradientBoostedRegressor(n_estimators=2).fit(x, y)
    assert model.init_ == pytest.approx(float(y.mean()))


def test_init_is_median_for_absolute_loss():
    x, y = make_data(n=101)
    model = GradientBoostedRegressor(n_estimators=2,
                                     loss=AbsoluteLoss()).fit(x, y)
    assert model.init_ == pytest.approx(float(np.median(y)))


def test_absolute_loss_robust_to_outliers():
    x, y = make_data(n=400, seed=3)
    y_dirty = y.copy()
    y_dirty[:8] += 500.0  # gross outliers
    l2 = GradientBoostedRegressor(n_estimators=80, random_state=1)
    lad = GradientBoostedRegressor(n_estimators=80, loss=AbsoluteLoss(),
                                   random_state=1)
    l2.fit(x[:300], y_dirty[:300])
    lad.fit(x[:300], y_dirty[:300])
    clean_mae = lambda m: float(np.mean(np.abs(y[300:]
                                               - m.predict(x[300:]))))
    assert clean_mae(lad) < clean_mae(l2)


def test_staged_predict_converges_to_predict():
    x, y = make_data(n=200)
    model = GradientBoostedRegressor(n_estimators=20,
                                     random_state=1).fit(x, y)
    stages = staged_predict(model, x[:5])
    assert len(stages) == 20
    assert np.allclose(stages[-1], model.predict(x[:5]))


def test_more_trees_fit_training_better():
    x, y = make_data(n=300)
    model = GradientBoostedRegressor(n_estimators=100,
                                     random_state=1).fit(x, y)
    assert model.train_losses_[99] < model.train_losses_[9]


def test_subsampling_is_reproducible():
    x, y = make_data(n=300)
    a = GradientBoostedRegressor(n_estimators=30, subsample=0.6,
                                 random_state=5).fit(x, y)
    b = GradientBoostedRegressor(n_estimators=30, subsample=0.6,
                                 random_state=5).fit(x, y)
    assert np.allclose(a.predict(x), b.predict(x))


def test_feature_importances_find_signal():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(500, 5))
    y = 5.0 * np.sin(6 * x[:, 2]) + 0.1 * rng.normal(size=500)
    model = GradientBoostedRegressor(n_estimators=40,
                                     random_state=1).fit(x, y)
    importances = model.feature_importances_
    assert importances.argmax() == 2
    assert importances.sum() == pytest.approx(1.0)


def test_predict_one_matches_vectorised():
    x, y = make_data(n=150)
    model = GradientBoostedRegressor(n_estimators=25,
                                     random_state=1).fit(x, y)
    for row in x[:5]:
        assert model.predict_one(row) == pytest.approx(
            float(model.predict(row.reshape(1, -1))[0]))


def test_serialisation_roundtrip():
    x, y = make_data(n=200)
    model = GradientBoostedRegressor(n_estimators=30,
                                     random_state=1).fit(x, y)
    restored = GradientBoostedRegressor.from_dict(model.to_dict())
    assert np.allclose(model.predict(x), restored.predict(x))
    assert restored.total_nodes == model.total_nodes


def test_total_nodes_counts_all_trees():
    x, y = make_data(n=100)
    model = GradientBoostedRegressor(n_estimators=10, max_leaves=4,
                                     random_state=1).fit(x, y)
    assert model.total_nodes == sum(t.n_nodes for t in model.trees_)
    assert model.total_nodes <= 10 * 7


def test_validation():
    with pytest.raises(ValueError):
        GradientBoostedRegressor(n_estimators=0)
    with pytest.raises(ValueError):
        GradientBoostedRegressor(learning_rate=0.0)
    with pytest.raises(ValueError):
        GradientBoostedRegressor(subsample=1.5)
    model = GradientBoostedRegressor()
    with pytest.raises(RuntimeError):
        model.predict(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        model.fit(np.zeros((1, 2)), np.zeros(1))


@pytest.fixture(scope="module")
def fitted():
    x, y = make_data(n=120)
    return GradientBoostedRegressor(n_estimators=5, random_state=1).fit(x, y)


@pytest.mark.parametrize("width", [1, 5, 12])
def test_prediction_rejects_wrong_feature_count(fitted, width):
    x = np.zeros((3, width))
    with pytest.raises(ValueError, match="expected rows of 6 features"):
        fitted.predict(x)


def test_predict_one_rejects_short_row(fitted):
    with pytest.raises(ValueError, match="expected 6 features, got 5"):
        fitted.predict_one(np.zeros(5))
    with pytest.raises(ValueError, match="expected 6 features, got 2"):
        fitted.predict_one([0.0, 1.0])


def test_fit_rejects_nan_target():
    x, y = make_data(n=50)
    y[7] = np.nan
    with pytest.raises(ValueError, match="y must be finite"):
        GradientBoostedRegressor(n_estimators=2).fit(x, y)


def test_fit_rejects_infinite_feature():
    x, y = make_data(n=50)
    x[3, 1] = -np.inf
    with pytest.raises(ValueError, match="x must be finite"):
        GradientBoostedRegressor(n_estimators=2).fit(x, y)
