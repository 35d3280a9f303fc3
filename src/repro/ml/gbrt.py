"""Gradient tree boosting (the paper's Algorithm 1).

The model is F(x) = F0 + ν Σ_m Σ_j γ_jm 1(x ∈ R_jm):

1. F0 is the loss-optimal constant (mean for L2, median for LAD);
2. each round fits a J-terminal-node regression tree to the pseudo-
   residuals −∂L/∂F;
3. each leaf's value is replaced by the loss's line-search optimum γ_jm
   over the samples in that region;
4. the tree's contribution is shrunk by the learning rate ν.

Optional stochastic subsampling draws a fraction of the training set per
round (the leaf line-search still uses only the drawn samples).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.losses import Loss, SquaredLoss
from repro.ml.tree import RegressionTree, check_finite, presort
from repro.runtime.observability import KERNEL_STATS


class GradientBoostedRegressor:
    """Boosted ensemble of J-terminal-node regression trees."""

    def __init__(self, n_estimators: int = 300, max_leaves: int = 8,
                 learning_rate: float = 0.05, subsample: float = 1.0,
                 min_samples_leaf: int = 5, loss: Optional[Loss] = None,
                 random_state: Optional[int] = None):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.max_leaves = max_leaves
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.loss = loss or SquaredLoss()
        self.random_state = random_state

        self.init_: Optional[float] = None
        self.trees_: List[RegressionTree] = []
        self.train_losses_: List[float] = []
        self.n_features_: Optional[int] = None

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedRegressor":
        """Fit the ensemble to ``x`` (n, d), ``y`` (n,)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValueError("x must be (n, d) and y (n,)")
        if x.shape[0] < 2:
            raise ValueError("need at least two training samples")
        check_finite(x=x, y=y)
        rng = np.random.default_rng(self.random_state)
        n = x.shape[0]
        self.n_features_ = x.shape[1]

        self.init_ = self.loss.init_estimate(y)
        prediction = np.full(n, self.init_, dtype=float)
        self.trees_ = []
        self.train_losses_ = []

        full_sample = self.subsample >= 1.0
        # The feature matrix never changes between rounds when every
        # round trains on the full sample, so the sort and sorted values
        # the split search needs are paid once here, not once per round.
        presorted = presort(x) if full_sample else None

        for _ in range(self.n_estimators):
            if full_sample:
                # Avoid n-sized fancy-index copies of x/y/prediction
                # every round; identical values, the arrays themselves.
                x_round, y_round, pred_round = x, y, prediction
            else:
                size = max(2 * self.min_samples_leaf,
                           int(round(self.subsample * n)))
                chosen = rng.choice(n, size=min(size, n), replace=False)
                x_round = x[chosen]
                y_round = y[chosen]
                pred_round = prediction[chosen]

            residuals = self.loss.negative_gradient(y_round, pred_round)
            tree = RegressionTree(max_leaves=self.max_leaves,
                                  min_samples_leaf=self.min_samples_leaf)
            tree.fit(x_round, residuals, presorted=presorted)

            # Per-leaf line search on the true loss (γ_jm in Algorithm 1).
            regions = tree.apply(x_round)
            leaves = tree.leaves()
            for leaf_id, leaf in enumerate(leaves):
                in_leaf = regions == leaf_id
                if in_leaf.any():
                    leaf.value = self.loss.leaf_value(
                        y_round[in_leaf], pred_round[in_leaf])

            # tree.predict(x) would re-partition x; the regions are
            # already known (identically) from apply, so look the leaf
            # values up instead.  Full sample: reuse the line-search
            # regions outright.
            regions_full = regions if full_sample else tree.apply(x)
            leaf_values = np.array([leaf.value for leaf in leaves])
            prediction += self.learning_rate * leaf_values[regions_full]
            self.trees_.append(tree)
            self.train_losses_.append(self.loss.loss(y, prediction))
        # Model fitting never enters the event loop; report its work so
        # benchmarks dominated by training still have a denominator.
        KERNEL_STATS.add(
            work_units=sum(tree.n_nodes for tree in self.trees_) * n)
        return self

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.init_ is None:
            raise RuntimeError("model is not fitted")

    def _rows(self, x) -> np.ndarray:
        """``x`` as a float (m, n_features_) matrix; 1-D is one row."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        x = x.reshape(1, -1) if x.ndim == 1 else x
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise ValueError(f"expected rows of {self.n_features_} "
                             f"features, got shape {x.shape}")
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Vectorised prediction."""
        x = self._rows(x)
        out = np.full(x.shape[0], self.init_, dtype=float)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(x)
        # One lock round-trip per batch; predict_one stays uncounted on
        # purpose — it is the per-element on-phone path Table 7 times.
        KERNEL_STATS.add(work_units=x.shape[0] * len(self.trees_))
        return out

    def predict_one(self, row) -> float:
        """Scalar prediction by sequential tree traversal — the low-
        overhead on-phone code path the paper times in Table 7."""
        self._check_fitted()
        if isinstance(row, np.ndarray):
            # Hundreds of trees each index the row a handful of times;
            # plain-list indexing returns Python floats without the
            # numpy scalar boxing that dominates the traversal cost.
            row = row.tolist()
        if len(row) != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, "
                             f"got {len(row)}")
        value = self.init_
        rate = self.learning_rate
        for tree in self.trees_:
            value += rate * tree.predict_one(row)
        return value

    # ------------------------------------------------------------------
    # Serialisation (offline training → on-phone deployment, Sec. 4.3.3)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data representation of the fitted ensemble."""
        self._check_fitted()
        return {
            "init": self.init_,
            "learning_rate": self.learning_rate,
            "n_features": self.n_features_,
            "loss": type(self.loss).__name__,
            "trees": [tree.to_dict() for tree in self.trees_],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GradientBoostedRegressor":
        """Rebuild a model serialised by :meth:`to_dict`."""
        from repro.ml.losses import AbsoluteLoss, SquaredLoss
        loss = {"SquaredLoss": SquaredLoss,
                "AbsoluteLoss": AbsoluteLoss}[data["loss"]]()
        model = cls(n_estimators=max(1, len(data["trees"])),
                    learning_rate=data["learning_rate"], loss=loss)
        model.init_ = float(data["init"])
        model.n_features_ = int(data["n_features"])
        model.trees_ = [RegressionTree.from_dict(t) for t in data["trees"]]
        return model

    # ------------------------------------------------------------------
    @property
    def feature_importances_(self) -> np.ndarray:
        """Total split gain per feature, normalised to sum to 1."""
        self._check_fitted()
        importances = np.zeros(self.n_features_, dtype=float)
        for tree in self.trees_:
            for feature, gain in tree.split_gains:
                importances[feature] += gain
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances

    @property
    def total_nodes(self) -> int:
        """Total node count across all trees (Table 7's model size)."""
        return sum(tree.n_nodes for tree in self.trees_)
