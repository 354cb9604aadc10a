"""Argument labeling by constituent classification and merging.

Candidate constituents are pruned to the nodes hanging directly off the
connective-to-root path, classified three ways (part of Arg1, part of Arg2,
neither), and the picked nodes are merged into token spans. When nothing is
labeled part of Arg1 the whole previous sentence serves as Arg1; without a
previous sentence the relation is dropped.
"""

from __future__ import annotations

import enum
from operator import attrgetter

from .decision_tree import predict
from .errors import PredictionError
from .parse_tree import node_context, path_to_root, render_path

POSITION_LEFT = "left"
POSITION_RIGHT = "right"


class ConstituentLabel(enum.Enum):
    ARG1_PART = "Arg1Part"
    ARG2_PART = "Arg2Part"
    NONE = "None"


def prune_candidates(connective_selfcat):
    """Constituents directly connected to the connective-to-root path.

    With P the node path from connective_selfcat up to the root, returns
    every non-terminal node that is off P but whose parent is on P, in
    document order. Those are the non-terminal children of the nodes of P,
    less P itself; they are disjoint subtrees, so ordering them by first
    token gives document order.
    """
    pruned = []
    below = None
    for node in path_to_root(connective_selfcat):
        pruned.extend(child for child in node.children
                      if child is not below and not child.is_terminal)
        below = node
    pruned.sort(key=attrgetter("token_begin"))
    return pruned


def extract_node_features(node, connective, features, top):
    """Nine features for one candidate constituent: the six connective
    features plus the node's path to the connective category, its context,
    and its position (left or right of the connective's first token).

    features is the connective's feature dict, copied and never mutated,
    and top the top of its exact-cover chain, both computed once per
    connective.
    """
    position = POSITION_LEFT if node.token_begin < connective.token_begin else POSITION_RIGHT
    return {
        **features,
        "path_to_self_cat": render_path(node, top),
        "node_context": "-".join(node_context(node)),
        "node_position": position,
    }


def classify_constituents(candidates, model):
    """Label every (node, features) pair with a ConstituentLabel."""
    labels = {}
    for node, features in candidates:
        predicted = predict(model, features)
        try:
            labels[node] = ConstituentLabel(predicted)
        except ValueError as exc:
            raise PredictionError(
                f"argument model produced unknown label '{predicted}'") from exc
    return labels


def gold_constituent_label(node, sentence, arg1_tokens, arg2_tokens):
    """Training-side projection of gold argument spans onto a candidate.

    A node counts as part of an argument only when every covered token lies
    inside that argument's gold span; anything else is labeled None, which
    keeps merging sound.
    """
    covered = sentence.doc_span(node.token_begin, node.token_end)
    if set(arg1_tokens).issuperset(covered):
        return ConstituentLabel.ARG1_PART
    if set(arg2_tokens).issuperset(covered):
        return ConstituentLabel.ARG2_PART
    return ConstituentLabel.NONE


def merge_arguments(labels, connective, document):
    """Merge labeled constituents into (arg1_tokens, arg2_tokens).

    Connective tokens are excluded from both spans and Arg2 wins token
    overlaps. Returns None when the relation must be dropped (no Arg1Part
    node and no previous sentence to fall back on). When nothing is labeled
    Arg2Part, Arg2 degenerates to the connective's sentence minus the
    connective and Arg1 tokens.
    """
    sentence = document.sentences[connective.sent_index]
    conn_tokens = set(sentence.doc_span(connective.token_begin, connective.token_end))
    arg1_nodes = [n for n, label in labels.items() if label is ConstituentLabel.ARG1_PART]
    arg2_nodes = [n for n, label in labels.items() if label is ConstituentLabel.ARG2_PART]

    arg2 = set()
    for node in arg2_nodes:
        arg2.update(sentence.doc_span(node.token_begin, node.token_end))
    arg2 -= conn_tokens

    if arg1_nodes:
        arg1 = set()
        for node in arg1_nodes:
            arg1.update(sentence.doc_span(node.token_begin, node.token_end))
        arg1 -= conn_tokens
        arg1 -= arg2
    elif connective.sent_index == 0:
        return None
    else:
        previous = document.sentences[connective.sent_index - 1]
        arg1 = set(previous.doc_span(0, len(previous.tokens)))

    if not arg2_nodes:
        arg2 = set(sentence.doc_span(0, len(sentence.tokens)))
        arg2 -= conn_tokens
        arg2 -= arg1

    return tuple(sorted(arg1)), tuple(sorted(arg2))
