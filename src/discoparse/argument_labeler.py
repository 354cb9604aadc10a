"""Argument labeling by constituent classification and merging.

Candidate constituents are pruned to the nodes hanging directly off the
connective-to-root path, classified three ways (part of Arg1, part of Arg2,
neither), and the picked nodes are merged into token spans. When the merged
Arg1 is empty the whole previous sentence serves as Arg1; without a
previous sentence the relation is dropped.
"""

from __future__ import annotations

import enum
from operator import attrgetter

from .connective_annotator import CONNECTIVE_FEATURES
from .decision_tree import predict
from .parse_tree import node_context, path_to_root

UP = "↑"
DOWN = "↓"
POSITION_LEFT = "left"
POSITION_RIGHT = "right"
NODE_FEATURES = (*CONNECTIVE_FEATURES, "path_to_self_cat", "node_context", "node_position")


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


def extract_node_features(node, connective, features, path, top_index):
    """The nine NODE_FEATURES of one candidate constituent: the six connective
    features plus the node's path to the connective category, its context,
    and its position (left or right of the connective's first token).

    features is the connective's feature dict, copied and never mutated;
    path is the root path of the bottom of its exact-cover chain, and
    top_index the index in it of the chain's top (len(chain) - 1), all
    computed once per connective.
    """
    position = POSITION_LEFT if node.token_begin < connective.token_begin else POSITION_RIGHT
    return {
        **features,
        "path_to_self_cat": _path_to_self_cat(node, path, top_index),
        "node_context": "-".join(node_context(node)),
        "node_position": position,
    }


def _path_to_self_cat(node, path, top_index):
    """The labels from a pruned node up to its parent path[k], the lowest
    path node holding its first token, then on up to the chain top
    path[top_index] or back down to it, e.g. ``S ↑ SBAR ↓ WHADVP``."""
    first = node.token_begin
    k = next(k for k, above in enumerate(path) if above.token_begin <= first < above.token_end)
    if k <= top_index:
        return f" {UP} ".join([node.label] + [above.label for above in path[k:top_index + 1]])
    return f" {DOWN} ".join([f"{node.label} {UP} {path[k].label}"]
                            + [below.label for below in reversed(path[top_index:k])])


def classify_constituents(candidates, model):
    """Label every (node, features) pair with a ConstituentLabel."""
    return {node: ConstituentLabel(predict(model, features))
            for node, features in candidates}


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
    overlaps. When the merged Arg1 is empty, the previous sentence becomes
    Arg1; when the merged Arg2 is empty, the connective's sentence minus
    the connective and Arg1 becomes Arg2. Returns None when the relation
    must be dropped: the connective is in the first sentence and Arg1 is
    empty, or Arg2 is empty even after its fallback.
    """
    sentence = document.sentences[connective.sent_index]
    conn_tokens = set(sentence.doc_span(connective.token_begin, connective.token_end))
    arg1, arg2 = set(), set()
    for node, label in labels.items():
        if label is not ConstituentLabel.NONE:
            part = arg1 if label is ConstituentLabel.ARG1_PART else arg2
            part.update(sentence.doc_span(node.token_begin, node.token_end))
    arg2 -= conn_tokens
    arg1 -= conn_tokens | arg2

    if not arg1:
        if connective.sent_index == 0:
            return None
        previous = document.sentences[connective.sent_index - 1]
        arg1 = set(previous.doc_span(0, len(previous.tokens)))
    if not arg2:
        arg2 = set(sentence.doc_span(0, len(sentence.tokens))) - conn_tokens - arg1
        if not arg2:
            return None
    return tuple(sorted(arg1)), tuple(sorted(arg2))
