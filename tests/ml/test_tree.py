"""Regression trees: splits, growth limits, prediction, serialisation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.ml.tree as tree_module
from repro.ml.tree import RegressionTree, _best_split, _children
from tests.oracles import tree as oracle


def test_single_split_on_step_function():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = RegressionTree(max_leaves=2).fit(x, y)
    assert tree.n_leaves == 2
    assert tree.predict(np.array([[0.5]]))[0] == pytest.approx(0.0)
    assert tree.predict(np.array([[2.5]]))[0] == pytest.approx(10.0)
    assert 1.0 < tree.root.threshold < 2.0


def test_constant_target_yields_stump():
    x = np.random.default_rng(0).uniform(size=(50, 3))
    y = np.full(50, 7.0)
    tree = RegressionTree(max_leaves=8).fit(x, y)
    assert tree.n_leaves == 1
    assert np.allclose(tree.predict(x), 7.0)


def test_max_leaves_respected():
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(200, 4))
    y = rng.normal(size=200)
    for j in (2, 4, 8):
        tree = RegressionTree(max_leaves=j).fit(x, y)
        assert 2 <= tree.n_leaves <= j


def test_best_first_picks_highest_gain_split_first():
    """Feature 1 has 10x the signal of feature 0; with one split
    available, the tree must use feature 1."""
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(300, 2))
    y = 1.0 * (x[:, 0] > 0.5) + 10.0 * (x[:, 1] > 0.5)
    tree = RegressionTree(max_leaves=2).fit(x, y)
    assert tree.root.feature == 1


def test_min_samples_leaf_enforced():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(40, 2))
    y = rng.normal(size=40)
    tree = RegressionTree(max_leaves=16, min_samples_leaf=10).fit(x, y)
    for leaf in tree.leaves():
        assert leaf.n_samples >= 10


def test_predict_one_matches_vectorised():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(100, 5))
    y = rng.normal(size=100)
    tree = RegressionTree(max_leaves=8).fit(x, y)
    batch = tree.predict(x[:10])
    single = [tree.predict_one(row) for row in x[:10]]
    assert np.allclose(batch, single)


def test_apply_matches_leaves_order():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(60, 3))
    y = rng.normal(size=60)
    tree = RegressionTree(max_leaves=6).fit(x, y)
    regions = tree.apply(x)
    leaves = tree.leaves()
    for row, region in zip(x, regions):
        assert tree.predict_one(row) == pytest.approx(leaves[region].value)


def test_node_counts():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(100, 3))
    y = x[:, 0] * 3 + rng.normal(size=100) * 0.1
    tree = RegressionTree(max_leaves=8).fit(x, y)
    assert tree.n_nodes == 2 * tree.n_leaves - 1  # binary tree identity


def test_serialisation_roundtrip():
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(80, 4))
    y = rng.normal(size=80)
    tree = RegressionTree(max_leaves=8).fit(x, y)
    restored = RegressionTree.from_dict(tree.to_dict())
    assert np.allclose(tree.predict(x), restored.predict(x))
    assert restored.n_leaves == tree.n_leaves
    assert restored.split_gains == tree.split_gains


def test_unfitted_tree_rejects_predict():
    with pytest.raises(RuntimeError):
        RegressionTree().predict(np.zeros((1, 2)))


def test_input_validation():
    with pytest.raises(ValueError):
        RegressionTree(max_leaves=1)
    with pytest.raises(ValueError):
        RegressionTree(min_samples_leaf=0)
    tree = RegressionTree()
    with pytest.raises(ValueError):
        tree.fit(np.zeros((3,)), np.zeros(3))
    with pytest.raises(ValueError):
        tree.fit(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        tree.fit(np.zeros((0, 2)), np.zeros(0))


def test_fit_rejects_non_finite_x():
    x = np.zeros((4, 2))
    x[1, 0] = np.inf
    with pytest.raises(ValueError, match="x must be finite"):
        RegressionTree().fit(x, np.arange(4.0))


def test_fit_rejects_non_finite_y():
    y = np.arange(4.0)
    y[2] = np.nan
    with pytest.raises(ValueError, match="y must be finite"):
        RegressionTree().fit(np.arange(8.0).reshape(4, 2), y)


@pytest.mark.parametrize("max_leaves", [2, 3, 4, 8])
def test_final_pair_of_children_is_never_searched(max_leaves):
    """Growth stops at ``max_leaves`` right after the last split, so the
    two leaves it creates are never searched: at most 2J - 3 searches."""
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(120, 3))
    y = rng.normal(size=120)
    calls = []

    def spy(*args):
        calls.append(args)
        return _best_split(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_best_split", spy)
        tree = RegressionTree(max_leaves=max_leaves).fit(x, y)
    assert tree.n_leaves == max_leaves
    assert len(calls) <= 2 * max_leaves - 3


@settings(max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, (30, 3),
                  elements=st.floats(min_value=-100, max_value=100)),
       hnp.arrays(np.float64, (30,),
                  elements=st.floats(min_value=-100, max_value=100)))
def test_property_predictions_within_target_range(x, y):
    """Property: leaf values are means of training targets, so every
    prediction lies within [min(y), max(y)]."""
    tree = RegressionTree(max_leaves=8).fit(x, y)
    predictions = tree.predict(x)
    assert predictions.min() >= y.min() - 1e-9
    assert predictions.max() <= y.max() + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_training_sse_never_worse_than_stump(seed):
    """Property: a grown tree fits the training data at least as well as
    the constant (mean) predictor."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(50, 2))
    y = rng.normal(size=50)
    tree = RegressionTree(max_leaves=8).fit(x, y)
    sse_tree = float(np.sum((y - tree.predict(x)) ** 2))
    sse_mean = float(np.sum((y - y.mean()) ** 2))
    assert sse_tree <= sse_mean + 1e-9


# ----------------------------------------------------------------------
# Differential: the split search vs the per-feature oracle.
# ----------------------------------------------------------------------

def _node_sort(x, index):
    """A fresh stable per-feature sort of the rows in ``index``: the
    node's ``(order, sorted_values)``, both (d, n)."""
    order = index[np.argsort(x[index], axis=0, kind="stable")].T
    return order, x[order, np.arange(x.shape[1])[:, None]]


def _problem(x, y, index, min_samples_leaf):
    return (x, y, index) + _node_sort(x, index) + (min_samples_leaf,)


@st.composite
def _split_problems(draw):
    """Small matrices on an integer grid (many ties), a random node
    subset, and its per-feature stable sort order and sorted values."""
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=4))
    x = draw(hnp.arrays(np.float64, (n, d),
                        elements=st.integers(-3, 3).map(float)))
    y = draw(hnp.arrays(np.float64, (n,),
                        elements=st.floats(min_value=-50, max_value=50)))
    keep = draw(hnp.arrays(np.bool_, (n,)))
    index = np.flatnonzero(keep) if keep.any() else np.arange(n)
    min_samples_leaf = draw(st.integers(min_value=1, max_value=5))
    return _problem(x, y, index, min_samples_leaf)


@settings(max_examples=200, deadline=None)
@given(_split_problems())
# Two identical columns: every gain ties across features, and the lowest
# feature must win.
@example(_problem(np.repeat(np.arange(6.0)[:, None], 2, axis=1),
                  np.array([0.0, 1.0, 0.0, 7.0, 8.0, 7.0]),
                  np.arange(6), 1))
# Distinct values only outside the min_samples_leaf band: no split.
@example(_problem(np.array([[0.0], [1.0], [1.0], [1.0], [1.0], [2.0]]),
                  np.arange(6.0), np.arange(6), 2))
def test_best_split_matches_oracle(problem):
    x, y, index, order, sorted_values, min_samples_leaf = problem
    fast = _best_split(x, y, index, min_samples_leaf, order, sorted_values)
    slow = oracle.best_split(x, y, index, min_samples_leaf)
    if slow is None:
        assert fast is None
        return
    assert (fast.gain, fast.feature, fast.threshold, fast.left_value,
            fast.right_value) == (slow.gain, slow.feature, slow.threshold,
                                  slow.left_value, slow.right_value)
    np.testing.assert_array_equal(fast.left_index, slow.left_index)
    np.testing.assert_array_equal(fast.right_index, slow.right_index)


@settings(max_examples=100, deadline=None)
@given(_split_problems())
def test_children_sort_equals_a_fresh_sort(problem):
    """Property: the ``(order, sorted_values)`` a split hands each child
    is exactly a fresh stable argsort and gather of the child's rows."""
    x, y, index, order, sorted_values, min_samples_leaf = problem
    split = _best_split(x, y, index, min_samples_leaf, order, sorted_values)
    if split is None:
        return
    children = _children(split, order, sorted_values, x.shape[0])
    for rows, (child_order, child_values) in zip(
            (split.left_index, split.right_index), children):
        fresh_order, fresh_values = _node_sort(x, rows)
        np.testing.assert_array_equal(child_order, fresh_order)
        np.testing.assert_array_equal(child_values, fresh_values)
        assert child_order.flags.c_contiguous
        assert child_values.flags.c_contiguous


@settings(max_examples=50, deadline=None)
@given(_split_problems(), st.integers(min_value=2, max_value=8))
def test_grown_tree_matches_oracle_split_search(problem, max_leaves):
    """Whole trees, node for node, grown with either split search."""
    x, y, *_, min_samples_leaf = problem
    fast = RegressionTree(max_leaves, min_samples_leaf).fit(x, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_best_split", oracle.split_search)
        slow = RegressionTree(max_leaves, min_samples_leaf).fit(x, y)
    assert fast.to_dict() == slow.to_dict()
