"""End-to-end orchestration: training and parsing.

Training mines the connective lexicon from gold relations, builds both
classifier datasets in one pass over each document's lexicon matches (usage
labels from gold connective spans, argument labels from gold argument spans
projected onto the pruned constituents of gold-matched candidates) and
induces both trees. Parsing makes the same pass: it runs candidates through
the usage filter, labels and merges arguments, and annotates the most
frequent sense; later stages only ever see survivors of earlier ones.
This module alone reads and writes the model file.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

from .argument_labeler import (NODE_FEATURES, ConstituentLabel, classify_constituents,
                               extract_node_features, gold_constituent_label,
                               merge_arguments, prune_path)
from .connective_annotator import (CONNECTIVE_FEATURES, USAGE_NEGATIVE,
                                   USAGE_POSITIVE, classify_usage,
                                   extract_connective_features, find_candidates)
from .connective_lexicon import (ConnectiveLexicon, ConnectiveStats,
                                 annotate_sense, mine_lexicon)
from .corpus_io import DiscourseRelation, atomic_output
from .decision_tree import Branch, Instance, Leaf, train
from .errors import ModelFormatError, TrainingError
from .parse_tree import exact_cover_chain, path_to_root

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ParserModel:
    """A trained parser, checked whole when built: a broken rule raises ValueError."""

    lexicon: ConnectiveLexicon
    usage_tree: object
    argument_tree: object

    def __post_init__(self):
        for key, stats in self.lexicon.entries.items():
            "".join((key, *stats.sense_counts)).encode("utf-8")  # raises on a lone surrogate
            if not stats.sense_counts:
                raise ValueError(f"lexicon entry '{key}' has no senses")
            if any(type(n) is not int or n < 0
                   for n in (stats.total_count, *stats.sense_counts.values())):
                raise ValueError(f"lexicon entry '{key}' has a count that is not a "
                                 f"non-negative integer: {stats!r}")
        _check_tree(self.usage_tree, CONNECTIVE_FEATURES, (USAGE_POSITIVE, USAGE_NEGATIVE))
        _check_tree(self.argument_tree, NODE_FEATURES,
                    tuple(label.value for label in ConstituentLabel))


def _check_tree(node, features, labels):
    """Raise ValueError at the first node under node that breaks a model rule."""
    if isinstance(node, Leaf):
        if node.label not in labels:
            raise ValueError(f"leaf label {node.label!r} is not one of {labels}")
    elif not isinstance(node, Branch):
        raise ValueError(f"tree node {node!r} is neither a Leaf nor a Branch")
    elif node.feature not in features:
        raise ValueError(f"branch feature {node.feature!r} is not one of {features}")
    elif node.majority_child not in node.children:
        raise ValueError(f"majority_child {node.majority_child!r} is not a child of its branch")
    else:
        for child in node.children.values():
            _check_tree(child, features, labels)


def _connective_syntax(candidate, sentence):
    """(exact-cover chain, connective features) of one candidate.

    The chain is computed once and serves the usage features, the pruning
    anchor (its bottom) and the target of every node's path (its top).
    """
    chain = exact_cover_chain(sentence.tree,
                              (candidate.token_begin, candidate.token_end))
    return chain, extract_connective_features(candidate, sentence, chain)


def _node_candidates(candidate, chain, features):
    """(node, feature dict) for every pruned constituent of a candidate;
    the nodes and their path features are read off one root path of the chain."""
    path = path_to_root(chain[0])
    top_index = len(chain) - 1
    return [(node, extract_node_features(node, candidate, features, path, top_index))
            for node in prune_path(path)]


def build_datasets(documents, gold, lexicon):
    """(usage instances, argument instances) from one pass over each
    document's lexicon matches, the same pass parse_document makes.

    Each match gives one usage instance, positive iff gold explicit
    relations sit on its span. The pruned constituents of a positive match
    are labeled once per gold relation on that span, by projecting the
    relation's argument spans. Gold connectives the matcher does not
    reproduce (discontiguous spans, tokenization mismatches) are skipped
    with a warning each, in gold order.
    """
    explicit = [((rel.doc_id, tuple(sorted(rel.connective_tokens))), rel)
                for rel in gold if rel.relation_type == "Explicit"]
    # A candidate takes the relations on its span out; the rest never match.
    unmatched = {}
    for key, rel in explicit:
        unmatched.setdefault(key, []).append(rel)
    usage, argument = [], []
    for doc_id, document in documents.items():
        for candidate in find_candidates(document, lexicon):
            sentence = document.sentences[candidate.sent_index]
            chain, features = _connective_syntax(candidate, sentence)
            span = sentence.doc_span(candidate.token_begin, candidate.token_end)
            relations = unmatched.pop((doc_id, tuple(span)), None)
            usage.append(Instance(features, USAGE_POSITIVE if relations
                                  else USAGE_NEGATIVE))
            if relations:
                pairs = _node_candidates(candidate, chain, features)
                argument.extend(
                    Instance(vector, gold_constituent_label(
                        node, sentence, rel.arg1_tokens, rel.arg2_tokens).value)
                    for rel in relations for node, vector in pairs)
    skipped = [rel for key, rel in explicit if key in unmatched]
    for rel in skipped:
        logger.warning(
            "relation %s in '%s': gold connective span %s not reproduced "
            "by the matcher; skipped",
            rel.relation_id, rel.doc_id, rel.connective_tokens)
    if skipped:
        logger.warning("%d gold connectives skipped during training", len(skipped))
    return usage, argument


def train_model(documents, gold_relations, min_leaf=2):
    """Mine the lexicon and train both classifiers from gold relations."""
    gold = list(gold_relations)
    if not gold:
        raise TrainingError("no gold relations to train on")
    lexicon = mine_lexicon(gold, documents)
    if not lexicon.entries:
        raise TrainingError("gold data contains no explicit relations")
    usage_dataset, argument_dataset = build_datasets(documents, gold, lexicon)
    if not usage_dataset:
        raise TrainingError("no connective candidates in the training documents")
    if not argument_dataset:
        raise TrainingError("no argument-labeling instances could be built")
    logger.info("training: %d usage instances, %d argument instances",
                len(usage_dataset), len(argument_dataset))
    usage_tree = train(usage_dataset, min_leaf)
    argument_tree = train(argument_dataset, min_leaf)
    return ParserModel(lexicon, usage_tree, argument_tree)


def parse_document(document, model):
    """All explicit relations the model finds in one document.

    Relation ids are assigned sequentially from 0 within the document.
    Candidates rejected by the usage classifier contribute nothing; merge
    failures (an empty Arg1 in the first sentence, or an empty Arg2) drop
    the relation.
    """
    relations = []
    dropped = 0
    for candidate in find_candidates(document, model.lexicon):
        sentence = document.sentences[candidate.sent_index]
        chain, features = _connective_syntax(candidate, sentence)
        if not classify_usage(features, model.usage_tree):
            continue
        pairs = _node_candidates(candidate, chain, features)
        labels = classify_constituents(pairs, model.argument_tree)
        merged = merge_arguments(labels, candidate, document)
        if merged is None:
            dropped += 1
            continue
        arg1, arg2 = merged
        relation = DiscourseRelation(
            doc_id=document.doc_id,
            relation_id=len(relations),
            relation_type="Explicit",
            connective_tokens=tuple(sentence.doc_span(candidate.token_begin,
                                                      candidate.token_end)),
            arg1_tokens=arg1,
            arg2_tokens=arg2,
            senses=(),
        )
        relations.append(annotate_sense(relation, model.lexicon, candidate.surface))
    if dropped:
        logger.debug("document '%s': dropped %d relations with an empty argument",
                     document.doc_id, dropped)
    return relations


def _tree_to_json(tree):
    if isinstance(tree, Leaf):
        return {"kind": "leaf", "label": tree.label,
                "distribution": tree.distribution}
    return {"kind": "branch", "feature": tree.feature,
            "majority_child": tree.majority_child,
            "children": {value: _tree_to_json(child)
                         for value, child in tree.children.items()}}


def _tree_from_json(data):
    """Read a tree back; ParserModel checks what it holds."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "leaf":
        return Leaf(data["label"], dict(data["distribution"]))
    if kind == "branch":
        children = {value: _tree_from_json(child) for value, child in data["children"].items()}
        return Branch(data["feature"], children, data["majority_child"])
    raise ValueError(f"unreadable tree node: {data!r}")


def save_model(model, path):
    """Write the model as JSON to the file at path, replacing an existing
    file atomically, or to path itself when it is an open binary handle."""
    lexicon = {key: {"total_count": stats.total_count, "sense_counts": stats.sense_counts}
               for key, stats in model.lexicon.entries.items()}
    model_json = {"format_version": MODEL_FORMAT_VERSION, "lexicon": {"entries": lexicon},
                  "usage_tree": _tree_to_json(model.usage_tree),
                  "argument_tree": _tree_to_json(model.argument_tree)}
    data = (json.dumps(model_json, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if hasattr(path, "write"):
        path.write(data)
        return
    with atomic_output(path) as handle:
        handle.write(data)


def load_model(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int too long to read
            raise ModelFormatError(f"model file '{path}' is not JSON: {exc}") from exc
    version = data.get("format_version") if isinstance(data, dict) else None
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"model file '{path}' has format_version {version!r}, "
            f"this build reads version {MODEL_FORMAT_VERSION}")
    try:
        entries = {key: ConnectiveStats(value["total_count"], value["sense_counts"])
                   for key, value in data["lexicon"]["entries"].items()}
        return ParserModel(ConnectiveLexicon(entries),
                           _tree_from_json(data["usage_tree"]),
                           _tree_from_json(data["argument_tree"]))
    except (KeyError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise ModelFormatError(
            f"model file '{path}' is incomplete or malformed: {exc}") from exc
