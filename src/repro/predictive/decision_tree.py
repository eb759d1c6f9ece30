"""A CART decision-tree classifier, implemented from scratch.

The Grewe et al. model "uses supervised learning to construct a decision
tree"; this is the corresponding learner: binary splits on single features
chosen by Gini impurity, grown to a configurable depth with a minimum leaf
size, majority-vote leaves, and deterministic tie-breaking so experiments
are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np


def _gini_of_counts(
    counts: np.ndarray, sizes: np.ndarray, first_seen: np.ndarray | None
) -> np.ndarray:
    """Gini impurity of each row of per-class *counts*, as ``_gini`` computes it.

    ``(count / total) ** 2`` runs as Python float power on an object array:
    CPython's ``**`` calls the C library's ``pow``, which can differ in the
    last bit from NumPy's squaring.  *first_seen* orders each row's terms by
    first appearance, as ``Counter`` does; ``None`` keeps class order, which
    is exact when a row has at most two terms.  An empty side has impurity
    ``1.0`` here instead of ``0.0``, but its weight in the gain is zero.
    """
    squares = ((counts / np.maximum(sizes, 1)[:, None]).astype(object) ** 2).astype(float)
    if first_seen is not None:
        squares = np.take_along_axis(squares, np.argsort(first_seen, axis=1, kind="stable"), axis=1)
    total = squares[:, 0]
    for column in squares.T[1:]:
        total = total + column
    return 1.0 - total


@dataclass
class TreeNode:
    """One node of a fitted tree."""

    prediction: str
    feature_index: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None


@dataclass
class DecisionTreeClassifier:
    """CART classifier over dense float feature vectors and string labels."""

    max_depth: int = 6
    min_samples_leaf: int = 2
    min_samples_split: int = 4
    root: TreeNode | None = field(default=None, repr=False)
    feature_count: int = 0
    classes_: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Fitting.
    # ------------------------------------------------------------------

    def fit(self, features: list[list[float]] | np.ndarray, labels: list[str]) -> "DecisionTreeClassifier":
        data = np.asarray(features, dtype=float)
        if data.ndim != 2 or len(labels) != data.shape[0]:
            raise ValueError("features must be 2D and aligned with labels")
        if data.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        targets = np.asarray(labels, dtype=object)
        self.feature_count = data.shape[1]
        self.classes_ = tuple(sorted(set(labels)))
        class_index = {label: index for index, label in enumerate(self.classes_)}
        codes = np.fromiter((class_index[label] for label in labels), dtype=np.intp, count=len(labels))
        self.root = self._grow(data, targets, codes, depth=0)
        return self

    @staticmethod
    def _gini(targets: np.ndarray) -> float:
        if targets.size == 0:
            return 0.0
        counts = Counter(targets.tolist())
        total = targets.size
        return 1.0 - sum((count / total) ** 2 for count in counts.values())

    @staticmethod
    def _majority(targets: np.ndarray) -> str:
        counts = Counter(targets.tolist())
        # Deterministic tie-break: lexicographically smallest most-common label.
        best = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))[0][0]
        return str(best)

    def _grow(self, data: np.ndarray, targets: np.ndarray, codes: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(
            prediction=self._majority(targets),
            samples=int(targets.size),
            impurity=self._gini(targets),
        )
        if (
            depth >= self.max_depth
            or targets.size < self.min_samples_split
            or node.impurity == 0.0
        ):
            return node

        best_split = self._best_split(data, codes, node.impurity)
        if best_split is None:
            return node

        feature_index, threshold = best_split
        left_mask = data[:, feature_index] <= threshold
        node.feature_index = feature_index
        node.threshold = threshold
        node.left = self._grow(data[left_mask], targets[left_mask], codes[left_mask], depth + 1)
        node.right = self._grow(data[~left_mask], targets[~left_mask], codes[~left_mask], depth + 1)
        return node

    def _best_split(
        self, data: np.ndarray, codes: np.ndarray, parent_impurity: float
    ) -> tuple[int, float] | None:
        """The first (feature, threshold) whose Gini gain beats every earlier one by 1e-12.

        Candidates are visited feature by feature, thresholds ascending.  The
        rule is sequential, not an argmax: a later gain must clear the bar
        the current best has raised.
        """
        best_gain = 0.0
        best_split: tuple[int, float] | None = None
        for feature_index in range(data.shape[1]):
            thresholds, gains = self._candidate_splits(data[:, feature_index], codes, parent_impurity)
            start = 0
            while True:
                ahead = np.flatnonzero(gains[start:] > best_gain + 1e-12)
                if ahead.size == 0:
                    break
                start += int(ahead[0])
                best_gain = float(gains[start])
                best_split = (feature_index, float(thresholds[start]))
                start += 1
        return best_split

    def _candidate_splits(
        self, column: np.ndarray, codes: np.ndarray, parent_impurity: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every threshold on *column* that leaves both sides big enough, and its Gini gain.

        Thresholds are the midpoints between consecutive distinct values, in
        ascending order.  The column is sorted once; the rows at or below a
        threshold are then a prefix of that order, so per-class prefix counts
        give every split's class counts at once.  Impurities use the same
        float operations, in the same order, as :meth:`_gini` on each side,
        so each gain is bit-identical to evaluating the split by itself.
        """
        total = codes.size
        class_count = len(self.classes_)
        order = np.argsort(column, kind="stable")
        ordered = column[order]
        distinct = ordered[1:] != ordered[:-1]
        thresholds = (ordered[:-1][distinct] + ordered[1:][distinct]) / 2.0
        left_sizes = np.searchsorted(ordered, thresholds, side="right")
        right_sizes = total - left_sizes
        allowed = (left_sizes >= self.min_samples_leaf) & (right_sizes >= self.min_samples_leaf)
        thresholds = thresholds[allowed]
        left_sizes = left_sizes[allowed]
        right_sizes = right_sizes[allowed]
        if thresholds.size == 0:
            return thresholds, thresholds

        in_class = codes[order, None] == np.arange(class_count)
        prefix = np.zeros((total + 1, class_count), dtype=np.intp)
        np.cumsum(in_class, axis=0, out=prefix[1:])
        left_counts = prefix[left_sizes]
        right_counts = prefix[total] - left_counts
        left_first = right_first = None
        if class_count > 2:
            # _gini sums the classes in order of first appearance, and with
            # three or more terms the order can change the last bit.
            first_seen = np.where(in_class, order[:, None], total)
            sentinel = np.full((1, class_count), total)
            left_first = np.vstack((sentinel, np.minimum.accumulate(first_seen)))[left_sizes]
            right_first = np.vstack((np.minimum.accumulate(first_seen[::-1])[::-1], sentinel))[left_sizes]
        gains = parent_impurity - (
            left_sizes / total * _gini_of_counts(left_counts, left_sizes, left_first)
            + right_sizes / total * _gini_of_counts(right_counts, right_sizes, right_first)
        )
        return thresholds, gains

    # ------------------------------------------------------------------
    # Prediction.
    # ------------------------------------------------------------------

    def predict_one(self, features: list[float] | np.ndarray) -> str:
        if self.root is None:
            raise ValueError("the tree has not been fitted")
        vector = np.asarray(features, dtype=float)
        node = self.root
        while not node.is_leaf:
            assert node.feature_index is not None
            if vector[node.feature_index] <= node.threshold:
                node = node.left  # type: ignore[assignment]
            else:
                node = node.right  # type: ignore[assignment]
        return node.prediction

    def predict(self, features: list[list[float]] | np.ndarray) -> list[str]:
        return [self.predict_one(row) for row in np.asarray(features, dtype=float)]

    def accuracy(self, features, labels: list[str]) -> float:
        predictions = self.predict(features)
        if not labels:
            return 0.0
        return sum(p == l for p, l in zip(predictions, labels)) / len(labels)

    # ------------------------------------------------------------------
    # Introspection (useful in tests and reports).
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        def measure(node: TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self.root)

    @property
    def node_count(self) -> int:
        def count(node: TreeNode | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def feature_importances(self) -> list[float]:
        """Total Gini-gain attributed to each feature index, normalized."""
        importances = np.zeros(self.feature_count)

        def visit(node: TreeNode | None) -> None:
            if node is None or node.is_leaf:
                return
            left, right = node.left, node.right
            assert left is not None and right is not None and node.feature_index is not None
            weighted_child = (
                left.samples * left.impurity + right.samples * right.impurity
            ) / max(node.samples, 1)
            importances[node.feature_index] += node.samples * (node.impurity - weighted_child)
            visit(left)
            visit(right)

        visit(self.root)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances.tolist()
