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


def check_finite(**arrays: np.ndarray) -> None:
    """Reject NaN or inf in any of the named training arrays."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite (no NaN or inf)")


def presort(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The root's ``(order, sorted_values)``, both (d, n), C-contiguous:
    each feature's stable sort order of the rows of ``x`` (n, d) and
    that feature's values in that order."""
    order = np.ascontiguousarray(np.argsort(x, axis=0, kind="stable").T)
    return order, x[order, np.arange(x.shape[1])[:, None]]


def _best_split(x: np.ndarray, y: np.ndarray, index: np.ndarray,
                min_samples_leaf: int, order: np.ndarray,
                sorted_values: np.ndarray) -> Optional[_Split]:
    """Exact best SSE-reducing split of the samples in ``index``.

    ``order`` (d, n) holds this node's rows stably sorted per feature
    and ``sorted_values`` their values: the root's from one
    :func:`presort` per fit, each child's filtered from its parent's by
    :func:`_children` -- a stable sort of a subset is the subset of the
    stable sort, so every node sees exactly the sorted values, prefix
    sums, floats and tie-breaks of the per-feature loop that
    ``tests/oracles/tree.py`` keeps.
    """
    n_features, n = order.shape
    if n < 2 * min_samples_leaf:
        return None
    # Candidates: positions p in the band [msl-1, n-msl) (both children
    # big enough) whose value differs from the next.  Flat indices into
    # a (d, n) mask are the prefix sums' too, and come out in row-major
    # (feature, position) order, so the first maximum is the lowest
    # feature holding the best gain at its first best position: the
    # loop's strict-improvement rule, ties and NaN included.
    lo = min_samples_leaf - 1
    hi = n - min_samples_leaf                         # exclusive; >= lo+1
    distinct = np.zeros((n_features, n), dtype=bool)
    np.less(sorted_values[:, lo:hi], sorted_values[:, lo + 1:hi + 1],
            out=distinct[:, lo:hi])
    candidates = np.flatnonzero(distinct)
    if candidates.size == 0:
        return None
    total_sum = y.take(index).sum()
    # Sequential per-feature sums (the loop's floats), in place in the
    # gathered buffer: a second (d, n) temporary slows big nodes.
    prefix_sum = y.take(order)
    np.cumsum(prefix_sum, axis=1, out=prefix_sum)
    left_sums = prefix_sum.take(candidates)
    left_sizes = candidates % n + 1
    # The loop's arithmetic, elementwise in the same order.
    gains = left_sums ** 2
    gains /= left_sizes
    right_part = total_sum - left_sums
    right_part **= 2
    right_part /= n - left_sizes
    gains += right_part
    gains -= total_sum ** 2 / n
    best = int(np.argmax(gains))
    gain = float(gains[best])
    if gain <= 1e-12:  # require strictly positive gain
        return None
    feature, pos = divmod(int(candidates[best]), n)
    threshold = float((sorted_values[feature, pos]
                       + sorted_values[feature, pos + 1]) / 2)
    left_mask = x[index, feature] <= threshold
    left_index = index[left_mask]
    right_index = index[~left_mask]
    return _Split(
        gain=gain, feature=feature, threshold=threshold,
        left_index=left_index, right_index=right_index,
        left_value=float(y[left_index].mean()),
        right_value=float(y[right_index].mean()))


def _children(split: _Split, order: np.ndarray, sorted_values: np.ndarray,
              n_rows: int) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Each child's ``(order, sorted_values)``: the node's, filtered by
    one boolean mask, so children never re-sort or re-gather."""
    member = np.zeros(n_rows, dtype=bool)
    member[split.left_index] = True
    in_left = member.take(order).ravel()              # (d, n), flat
    in_right = ~in_left
    left_shape = (order.shape[0], split.left_index.size)
    right_shape = (order.shape[0], split.right_index.size)
    return ((order.compress(in_left).reshape(left_shape),
             sorted_values.compress(in_left).reshape(left_shape)),
            (order.compress(in_right).reshape(right_shape),
             sorted_values.compress(in_right).reshape(right_shape)))


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
            presorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
            ) -> "RegressionTree":
        """Grow the tree on ``x`` (n, d) against targets ``y`` (n,).

        ``presorted`` is an optional :func:`presort` of ``x`` computed
        by the caller; boosting passes it so the sort is paid once per
        ensemble instead of once per round when the training matrix
        doesn't change between rounds.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError("y must be 1-D with one target per row of x")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        check_finite(x=x, y=y)

        index = np.arange(x.shape[0])
        self.root = TreeNode(value=float(y.mean()), n_samples=index.size)
        self.split_gains = []

        # Best-first growth: a max-heap of (−gain, tiebreak, node, split,
        # the node's (order, sorted_values)).
        counter = itertools.count()
        heap: list = []

        def push(node: TreeNode, node_index: np.ndarray, sort) -> None:
            split = _best_split(x, y, node_index, self.min_samples_leaf,
                                *sort)
            if split is not None:
                heapq.heappush(heap, (-split.gain, next(counter), node,
                                      split, sort))

        push(self.root, index, presorted or presort(x))
        leaves = 1
        while heap and leaves < self.max_leaves:
            neg_gain, _, node, split, sort = heapq.heappop(heap)
            node.feature = split.feature
            node.threshold = split.threshold
            node.left = TreeNode(split.left_value, split.left_index.size)
            node.right = TreeNode(split.right_value, split.right_index.size)
            self.split_gains.append((split.feature, -neg_gain))
            leaves += 1
            # The final pair's splits would never be popped.
            if leaves < self.max_leaves:
                left, right = _children(split, *sort, x.shape[0])
                push(node.left, split.left_index, left)
                push(node.right, split.right_index, right)
        return self

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Vectorised prediction for rows of ``x``; same values as a
        per-row traversal."""
        return self._partition(x, float, lambda k, leaf: leaf.value)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Region index (leaf id in left-to-right order) for each row."""
        return self._partition(x, int, lambda k, leaf: k)

    def _partition(self, x: np.ndarray, dtype, leaf_value) -> np.ndarray:
        """``leaf_value(k, leaf)`` of the ``k``-th leaf from the left
        for every row of ``x`` that lands in it.

        Iterative frontier partition: each internal node splits its
        index set with one vectorised comparison, O(n) numpy work per
        tree level.  Popping the stack after always descending left
        first reaches the leaves in :meth:`leaves` order, including
        leaves no row of ``x`` lands in.
        """
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        out = np.empty(x.shape[0], dtype=dtype)
        stack = [(self.root, np.arange(x.shape[0]))]
        k = 0
        while stack:
            node, index = stack.pop()
            while not node.is_leaf:
                mask = x[index, node.feature] <= node.threshold
                stack.append((node.right, index[~mask]))
                node = node.left
                index = index[mask]
            out[index] = leaf_value(k, node)
            k += 1
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
        return len(self.leaves())

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
