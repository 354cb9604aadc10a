"""Categorical decision tree with gain-ratio splits.

Top-down induction over purely categorical features: each internal node
tests one feature and fans out per observed value, the split feature is the
one with the best gain ratio (information gain over split information), and
unseen values at prediction time follow the child with the largest training
support. No post-pruning; capacity is controlled by min_leaf alone.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .errors import PredictionError, TrainingError

# Gain ratios are computed in floats; treat anything below this as zero.
_POSITIVE_GAIN = 1e-12


@dataclass(frozen=True)
class Instance:
    features: dict
    label: str


@dataclass(frozen=True)
class Leaf:
    label: str
    distribution: dict


@dataclass(frozen=True)
class Branch:
    feature: str
    children: dict
    majority_child: str


def _entropy(counts, total):
    result = 0.0
    for count in counts:
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result


def gain_ratio(dataset, feature):
    """Information gain of the feature over the labels, normalized by the
    feature's split information. Defined as 0 when the feature is constant.
    """
    total = len(dataset)
    label_counts = Counter(inst.label for inst in dataset)
    by_value = defaultdict(Counter)
    for inst in dataset:
        by_value[inst.features[feature]][inst.label] += 1
    if len(by_value) <= 1:
        return 0.0
    label_entropy = _entropy(label_counts.values(), total)
    conditional = 0.0
    split_counts = []
    for value_counts in by_value.values():
        group_total = sum(value_counts.values())
        split_counts.append(group_total)
        conditional += (group_total / total) * _entropy(value_counts.values(), group_total)
    split_info = _entropy(split_counts, total)
    if split_info == 0.0:
        return 0.0
    return max(label_entropy - conditional, 0.0) / split_info


def _majority_label(distribution):
    return min(distribution, key=lambda label: (-distribution[label], label))


def _grow(instances, features, min_leaf):
    distribution = Counter(inst.label for inst in instances)
    leaf = Leaf(_majority_label(distribution), dict(sorted(distribution.items())))
    if len(distribution) == 1 or len(instances) < 2 * min_leaf or not features:
        return leaf
    scored = [(gain_ratio(instances, feature), feature) for feature in features]
    usable = [(ratio, feature) for ratio, feature in scored if ratio > _POSITIVE_GAIN]
    if not usable:
        return leaf
    best = min(usable, key=lambda pair: (-pair[0], pair[1]))[1]
    groups = defaultdict(list)
    for inst in instances:
        groups[inst.features[best]].append(inst)
    remaining = tuple(f for f in features if f != best)
    children = {value: _grow(groups[value], remaining, min_leaf)
                for value in sorted(groups)}
    majority_child = min(groups, key=lambda value: (-len(groups[value]), value))
    return Branch(best, children, majority_child)


def train(dataset, min_leaf=2):
    """Induce a tree from categorical instances.

    Raises TrainingError on an empty dataset or when instances do not share
    one feature schema. Deterministic: permuting the dataset cannot change
    the result because every statistic is multiset-based and ties break on
    names.
    """
    instances = list(dataset)
    if not instances:
        raise TrainingError("cannot train on an empty dataset")
    if min_leaf < 1:
        raise TrainingError(f"min_leaf must be >= 1, got {min_leaf}")
    schema = frozenset(instances[0].features)
    for inst in instances:
        if frozenset(inst.features) != schema:
            raise TrainingError("instances do not share one feature schema")
    return _grow(instances, tuple(sorted(schema)), min_leaf)


def predict(tree, features):
    """Label for a feature map; unseen values follow the majority child."""
    node = tree
    while isinstance(node, Branch):
        if node.feature not in features:
            raise PredictionError(f"feature '{node.feature}' missing from input")
        child = node.children.get(features[node.feature])
        if child is None:
            child = node.children[node.majority_child]
        node = child
    return node.label


def tree_size(tree):
    if isinstance(tree, Leaf):
        return 1
    return 1 + sum(tree_size(child) for child in tree.children.values())


def tree_support(tree):
    """Number of training instances the tree was induced from: every
    instance ends in exactly one leaf and is counted in its distribution.
    """
    if isinstance(tree, Leaf):
        return sum(tree.distribution.values())
    return sum(tree_support(child) for child in tree.children.values())

