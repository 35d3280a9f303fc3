"""Least-squares regression trees with J terminal nodes.

Trees are grown *best-first*: at every step the leaf whose best split
yields the largest sum-of-squared-error reduction is expanded, until the
tree has ``max_leaves`` (the paper's J) terminal nodes or no leaf has a
valid split.  Split search is exact: every threshold between consecutive
distinct feature values is evaluated via prefix sums.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

class TreeNode:
    """One node of a fitted regression tree.

    Internal nodes carry ``(feature, threshold)`` and children; terminal
    nodes carry ``value`` (the region's prediction b_j in Eq. 7).

    ``__slots__`` (hand-written; ``dataclass(slots=True)`` needs 3.10)
    because ensembles hold thousands of nodes and the traversal loops
    touch their attributes constantly.
    """

    __slots__ = ("value", "n_samples", "feature", "threshold", "left",
                 "right")

    def __init__(self, value: float, n_samples: int,
                 feature: Optional[int] = None,
                 threshold: Optional[float] = None,
                 left: Optional["TreeNode"] = None,
                 right: Optional["TreeNode"] = None) -> None:
        self.value = value
        self.n_samples = n_samples
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.is_leaf:
            return f"TreeNode(value={self.value!r}, n={self.n_samples})"
        return (f"TreeNode(feature={self.feature}, "
                f"threshold={self.threshold!r}, n={self.n_samples})")

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def count_nodes(self) -> int:
        """Total nodes in this subtree (internal + terminal)."""
        if self.is_leaf:
            return 1
        return 1 + self.left.count_nodes() + self.right.count_nodes()

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.count_leaves() + self.right.count_leaves()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


@dataclass(frozen=True)
class _Split:
    """A candidate split of one leaf."""

    gain: float
    feature: int
    threshold: float
    left_index: np.ndarray
    right_index: np.ndarray
    left_value: float
    right_value: float
    #: Per-feature stable sort orders of each child's rows, propagated
    #: by the split search so children never re-sort.
    left_order: Optional[np.ndarray] = None
    right_order: Optional[np.ndarray] = None


def _best_split(x: np.ndarray, y: np.ndarray, index: np.ndarray,
                min_samples_leaf: int,
                order: np.ndarray) -> Optional[_Split]:
    """Exact best SSE-reducing split of the samples in ``index``.

    One pass over the whole feature matrix instead of a per-feature
    Python loop.  ``order`` (d, n) holds this node's rows stably sorted
    per feature; the root's comes from one ``np.argsort(x, axis=0,
    kind="stable")`` per fit (reusable across boosting rounds when the
    training matrix doesn't change) and children inherit theirs by
    filtering the parent's — a stable sort of a subset is the subset of
    the stable sort, so every node sees exactly the sorted values,
    prefix sums, floats, and tie-breaks the original per-node loop
    computed.  ``tests/oracles/tree.py`` keeps that loop.
    """
    n_features, n = order.shape
    if n < 2 * min_samples_leaf:
        return None
    y_node = y[index]
    total_sum = y_node.sum()

    feature_rows = np.arange(n_features)[:, None]
    sorted_values = x[order, feature_rows]            # (d, n)
    prefix_sum = np.cumsum(y[order], axis=1)          # (d, n)

    # Candidate split after position p puts p+1 samples on the left, so
    # both-children-big-enough restricts p to the band [msl-1, n-msl);
    # the reference loop computed every position and masked, this slices
    # the band up front (identical arithmetic, evaluated in the same
    # left-to-right order, just in-place on the band).
    lo = min_samples_leaf - 1
    hi = n - min_samples_leaf                         # exclusive; >= lo+1
    left_sizes = np.arange(lo + 1, hi + 1)
    right_sizes = n - left_sizes
    left_sums = prefix_sum[:, lo:hi]
    gains = left_sums ** 2
    gains /= left_sizes
    right_part = total_sum - left_sums
    right_part **= 2
    right_part /= right_sizes
    gains += right_part
    gains -= total_sum ** 2 / n
    # Thresholds must fall between distinct values.
    distinct = sorted_values[:, lo:hi] < sorted_values[:, lo + 1:hi + 1]
    gains[~distinct] = -np.inf
    positions = np.argmax(gains, axis=1)              # per-feature best
    per_feature_gain = gains[np.arange(n_features), positions]
    # The sequential loop kept the first feature to beat the running
    # best by a strict margin, i.e. the lowest-indexed maximum — which
    # is exactly np.argmax's first-occurrence rule.
    feature = int(np.argmax(per_feature_gain))
    gain = float(per_feature_gain[feature])
    if gain <= 1e-12:  # require strictly positive gain
        return None
    pos = lo + int(positions[feature])
    threshold = float((sorted_values[feature, pos]
                       + sorted_values[feature, pos + 1]) / 2)
    values = x[index, feature]
    left_mask = values <= threshold
    left_index = index[left_mask]
    right_index = index[~left_mask]

    member = np.zeros(x.shape[0], dtype=bool)
    member[left_index] = True
    in_left = member[order]                           # (d, n)
    left_order = order[in_left].reshape(n_features, left_index.size)
    right_order = order[~in_left].reshape(n_features, right_index.size)
    return _Split(
        gain=gain, feature=feature, threshold=threshold,
        left_index=left_index, right_index=right_index,
        left_value=float(y[left_index].mean()),
        right_value=float(y[right_index].mean()),
        left_order=left_order, right_order=right_order)


class RegressionTree:
    """A J-terminal-node least-squares regression tree."""

    def __init__(self, max_leaves: int = 8, min_samples_leaf: int = 1):
        if max_leaves < 2:
            raise ValueError("max_leaves must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_leaves = max_leaves
        self.min_samples_leaf = min_samples_leaf
        self.root: Optional[TreeNode] = None
        #: (feature, gain) pairs of every split made, for importances.
        self.split_gains: List[Tuple[int, float]] = []

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray,
            presorted: Optional[np.ndarray] = None) -> "RegressionTree":
        """Grow the tree on ``x`` (n, d) against targets ``y`` (n,).

        ``presorted`` is an optional ``np.argsort(x, axis=0,
        kind="stable")`` computed by the caller; boosting passes it so
        the sort is paid once per ensemble instead of once per round
        when the training matrix doesn't change between rounds.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError("y must be 1-D with one target per row of x")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")

        index = np.arange(x.shape[0])
        self.root = TreeNode(value=float(y.mean()), n_samples=index.size)
        self.split_gains = []

        sort_idx = (presorted if presorted is not None
                    else np.argsort(x, axis=0, kind="stable"))
        root_order = sort_idx.T

        # Best-first growth: a max-heap of (−gain, tiebreak, node, split).
        counter = itertools.count()
        heap: list = []

        def push(node: TreeNode, node_index: np.ndarray,
                 order: np.ndarray) -> None:
            split = _best_split(x, y, node_index, self.min_samples_leaf,
                                order)
            if split is not None:
                heapq.heappush(heap, (-split.gain, next(counter), node,
                                      split))

        push(self.root, index, root_order)
        leaves = 1
        while heap and leaves < self.max_leaves:
            neg_gain, _, node, split = heapq.heappop(heap)
            node.feature = split.feature
            node.threshold = split.threshold
            node.left = TreeNode(value=split.left_value,
                                 n_samples=split.left_index.size)
            node.right = TreeNode(value=split.right_value,
                                  n_samples=split.right_index.size)
            self.split_gains.append((split.feature, -neg_gain))
            leaves += 1
            push(node.left, split.left_index, split.left_order)
            push(node.right, split.right_index, split.right_order)
        return self

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Vectorised prediction for rows of ``x``.

        Iterative frontier partition: each internal node splits its
        index set with one vectorised comparison, leaves write their
        value into the output slice.  Same values as a per-row
        traversal, O(n) numpy work per tree level.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        out = np.empty(x.shape[0], dtype=float)
        stack = [(self.root, np.arange(x.shape[0]))]
        while stack:
            node, index = stack.pop()
            while not node.is_leaf:
                mask = x[index, node.feature] <= node.threshold
                stack.append((node.right, index[~mask]))
                node = node.left
                index = index[mask]
            out[index] = node.value
        return out

    def predict_one(self, row) -> float:
        """Scalar prediction by plain traversal (the on-phone code path
        whose cost Table 7 measures)."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold \
                else node.right
        return node.value

    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        if self.root is None:
            return 0
        return self.root.count_leaves()

    @property
    def n_nodes(self) -> int:
        if self.root is None:
            return 0
        return self.root.count_nodes()

    # ------------------------------------------------------------------
    # Serialisation (the paper trains offline and deploys the tree model
    # to the phone; we serialise to plain dicts / JSON).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data representation of the fitted tree."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")

        def encode(node: TreeNode) -> dict:
            if node.is_leaf:
                return {"value": node.value, "n": node.n_samples}
            return {"feature": node.feature, "threshold": node.threshold,
                    "n": node.n_samples, "value": node.value,
                    "left": encode(node.left), "right": encode(node.right)}

        return {"max_leaves": self.max_leaves,
                "min_samples_leaf": self.min_samples_leaf,
                "split_gains": [list(pair) for pair in self.split_gains],
                "root": encode(self.root)}

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionTree":
        """Rebuild a tree serialised by :meth:`to_dict`."""
        tree = cls(max_leaves=data["max_leaves"],
                   min_samples_leaf=data["min_samples_leaf"])
        tree.split_gains = [(int(f), float(g))
                            for f, g in data["split_gains"]]

        def decode(node_data: dict) -> TreeNode:
            node = TreeNode(value=float(node_data["value"]),
                            n_samples=int(node_data["n"]))
            if "feature" in node_data:
                node.feature = int(node_data["feature"])
                node.threshold = float(node_data["threshold"])
                node.left = decode(node_data["left"])
                node.right = decode(node_data["right"])
            return node

        tree.root = decode(data["root"])
        return tree

    def leaves(self) -> List[TreeNode]:
        """Terminal nodes in left-to-right order (matches :meth:`apply`
        numbering), so boosting can rewrite leaf values in place."""
        if self.root is None:
            return []
        out: List[TreeNode] = []

        def walk(node: TreeNode) -> None:
            if node.is_leaf:
                out.append(node)
                return
            walk(node.left)
            walk(node.right)

        walk(self.root)
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Region index (leaf id in left-to-right order) for each row.

        Iterative frontier partition, like :meth:`predict`.  Popping the
        stack after always descending left first visits leaves in
        left-to-right order, so numbering them as they are reached
        reproduces the recursive numbering (including leaves no row of
        ``x`` lands in).
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        out = np.empty(x.shape[0], dtype=int)
        next_leaf = 0
        stack = [(self.root, np.arange(x.shape[0]))]
        while stack:
            node, index = stack.pop()
            while not node.is_leaf:
                mask = x[index, node.feature] <= node.threshold
                stack.append((node.right, index[~mask]))
                node = node.left
                index = index[mask]
            out[index] = next_leaf
            next_leaf += 1
        return out
