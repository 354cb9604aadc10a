import random

import pytest

from discoparse import (Branch, Instance, Leaf, load_model, predict,
                        save_model, train, train_model)
from discoparse.decision_tree import gain_ratio, tree_size, tree_support
from discoparse.errors import PredictionError, TrainingError

import fixture_corpus
from support import oracle_gain_ratio

# The classic fourteen-day weather log: four categorical features, two labels.
WEATHER_ROWS = [
    ("sunny", "hot", "high", "weak", "no"),
    ("sunny", "hot", "high", "strong", "no"),
    ("overcast", "hot", "high", "weak", "yes"),
    ("rain", "mild", "high", "weak", "yes"),
    ("rain", "cool", "normal", "weak", "yes"),
    ("rain", "cool", "normal", "strong", "no"),
    ("overcast", "cool", "normal", "strong", "yes"),
    ("sunny", "mild", "high", "weak", "no"),
    ("sunny", "cool", "normal", "weak", "yes"),
    ("rain", "mild", "normal", "weak", "yes"),
    ("sunny", "mild", "normal", "strong", "yes"),
    ("overcast", "mild", "high", "strong", "yes"),
    ("overcast", "hot", "normal", "weak", "yes"),
    ("rain", "mild", "high", "strong", "no"),
]

FEATURES = ("outlook", "temperature", "humidity", "wind")


def weather_instances():
    return [Instance(dict(zip(FEATURES, row[:4])), row[4])
            for row in WEATHER_ROWS]


def test_pure_labels_make_a_leaf():
    dataset = [Instance({"f": v}, "yes") for v in "abc"]
    tree = train(dataset)
    assert isinstance(tree, Leaf)
    assert tree.label == "yes"
    assert tree.distribution == {"yes": 3}


def test_perfect_single_feature_split():
    dataset = [Instance({"f": "a"}, "+"), Instance({"f": "a"}, "+"),
               Instance({"f": "b"}, "-"), Instance({"f": "b"}, "-")]
    tree = train(dataset, min_leaf=1)
    assert isinstance(tree, Branch)
    assert tree.feature == "f"
    assert isinstance(tree.children["a"], Leaf)
    assert tree.children["a"].label == "+"
    assert tree.children["b"].label == "-"
    assert tree_size(tree) == 3


def test_gain_ratios_match_entropy_oracle():
    dataset = weather_instances()
    for feature in FEATURES:
        assert gain_ratio(dataset, feature) == \
            pytest.approx(oracle_gain_ratio(dataset, feature), abs=1e-9)


def test_root_split_matches_oracle_argmax():
    dataset = weather_instances()
    oracle_best = min(FEATURES, key=lambda f: (-oracle_gain_ratio(dataset, f), f))
    tree = train(dataset, min_leaf=1)
    assert isinstance(tree, Branch)
    assert tree.feature == oracle_best


def test_constant_feature_has_zero_gain_ratio():
    dataset = [Instance({"f": "same", "g": v}, lbl)
               for v, lbl in (("a", "+"), ("b", "-"), ("c", "+"))]
    assert gain_ratio(dataset, "f") == 0.0


def test_feature_identical_to_label_scores_one():
    dataset = [Instance({"f": "x"}, "x"), Instance({"f": "y"}, "y")] * 3
    assert gain_ratio(dataset, "f") == pytest.approx(1.0)


def test_training_is_permutation_invariant():
    rng = random.Random(3)
    dataset = weather_instances()
    tree = train(dataset)
    for _ in range(5):
        shuffled = list(dataset)
        rng.shuffle(shuffled)
        assert train(shuffled) == tree


def test_memorizes_consistent_dataset():
    dataset = weather_instances()
    tree = train(dataset, min_leaf=1)
    for inst in dataset:
        assert predict(tree, inst.features) == inst.label


def test_unseen_value_routes_to_majority_child():
    dataset = [Instance({"f": "a"}, "+")] * 3 + [Instance({"f": "b"}, "-")] * 2
    tree = train(dataset, min_leaf=1)
    assert isinstance(tree, Branch)
    assert tree.majority_child == "a"
    assert predict(tree, {"f": "never-seen"}) == "+"


def test_min_leaf_stops_small_nodes():
    dataset = [Instance({"f": "a"}, "+"), Instance({"f": "b"}, "-"),
               Instance({"f": "c"}, "+")]
    tree = train(dataset, min_leaf=2)  # support 3 < 2 * min_leaf
    assert isinstance(tree, Leaf)
    assert tree.label == "+"


def test_no_positive_gain_makes_majority_leaf():
    # Feature is pure noise: identical value distribution in both labels.
    dataset = [Instance({"f": "a"}, "+"), Instance({"f": "b"}, "+"),
               Instance({"f": "a"}, "-"), Instance({"f": "b"}, "-"),
               Instance({"f": "a"}, "+"), Instance({"f": "b"}, "+")]
    tree = train(dataset, min_leaf=1)
    assert isinstance(tree, Leaf)
    assert tree.label == "+"


def test_empty_dataset_is_an_error():
    with pytest.raises(TrainingError):
        train([])


def test_inconsistent_schema_is_an_error():
    with pytest.raises(TrainingError):
        train([Instance({"f": "a"}, "+"), Instance({"g": "b"}, "-")])


def test_missing_feature_at_predict_time():
    tree = train([Instance({"f": "a"}, "+"), Instance({"f": "b"}, "-")],
                 min_leaf=1)
    with pytest.raises(PredictionError):
        predict(tree, {"other": "a"})


def test_predict_on_single_leaf():
    assert predict(Leaf("x", {"x": 1}), {"anything": "goes"}) == "x"


def test_no_feature_repeats_on_a_path():
    tree = train(weather_instances(), min_leaf=1)

    def check(node, seen):
        if isinstance(node, Leaf):
            return
        assert node.feature not in seen
        for child in node.children.values():
            check(child, seen | {node.feature})

    check(tree, set())


def test_branch_children_respect_min_leaf():
    def support(node):
        if isinstance(node, Leaf):
            return sum(node.distribution.values())
        return sum(support(child) for child in node.children.values())

    def check(node, min_leaf):
        if isinstance(node, Leaf):
            return
        for child in node.children.values():
            assert support(child) >= min_leaf or isinstance(child, Leaf)
            check(child, min_leaf)

    for min_leaf in (1, 2, 3):
        check(train(weather_instances(), min_leaf=min_leaf), min_leaf)


def test_saved_model_loads_back_equal(tmp_path):
    model = train_model(fixture_corpus.corpus_documents(),
                        fixture_corpus.corpus_gold(), min_leaf=1)
    assert isinstance(model.usage_tree, Branch)
    assert isinstance(model.argument_tree, Branch)
    save_model(model, tmp_path / "model.json")
    assert load_model(tmp_path / "model.json") == model


def test_tree_support_counts_training_instances():
    dataset = weather_instances()
    for min_leaf in (1, 2, 5):
        assert tree_support(train(dataset, min_leaf)) == len(dataset)
