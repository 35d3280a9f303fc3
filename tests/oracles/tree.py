"""Per-node, per-feature split search: the loop ``_best_split`` replaced."""

from typing import Optional

import numpy as np

from repro.ml.tree import _Split


def best_split(x: np.ndarray, y: np.ndarray, index: np.ndarray,
               min_samples_leaf: int) -> Optional[_Split]:
    """Exact best SSE-reducing split of the rows in ``index``, one
    feature at a time, sorting each feature afresh."""
    n = index.size
    if n < 2 * min_samples_leaf:
        return None
    y_node = y[index]
    total_sum = y_node.sum()

    best: Optional[_Split] = None
    best_gain = 1e-12  # require strictly positive gain
    for feature in range(x.shape[1]):
        values = x[index, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        prefix_sum = np.cumsum(y_node[order])
        # Candidate split after position i (1-based sizes i+1).
        left_sizes = np.arange(1, n)
        left_sums = prefix_sum[:-1]
        right_sizes = n - left_sizes
        right_sums = total_sum - left_sums
        # SSE reduction = S_L²/n_L + S_R²/n_R − S²/n  (the −Σy² terms
        # cancel between parent and children).
        gains = (left_sums ** 2 / left_sizes
                 + right_sums ** 2 / right_sizes
                 - total_sum ** 2 / n)
        # Valid positions: both children big enough, threshold between
        # distinct values.
        valid = ((left_sizes >= min_samples_leaf)
                 & (right_sizes >= min_samples_leaf)
                 & (sorted_values[:-1] < sorted_values[1:]))
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        pos = int(np.argmax(gains))
        gain = float(gains[pos])
        if gain <= best_gain:
            continue
        best_gain = gain
        threshold = float((sorted_values[pos] + sorted_values[pos + 1]) / 2)
        left_mask = values <= threshold
        left_index = index[left_mask]
        right_index = index[~left_mask]
        best = _Split(
            gain=gain, feature=feature, threshold=threshold,
            left_index=left_index, right_index=right_index,
            left_value=float(y[left_index].mean()),
            right_value=float(y[right_index].mean()))
    return best


def split_search(x, y, index, min_samples_leaf, order=None,
                 sorted_values=None):
    """:func:`best_split` with ``_best_split``'s signature, to patch
    over ``repro.ml.tree._best_split``; the node's sort order and sorted
    values are ignored."""
    return best_split(x, y, index, min_samples_leaf)
