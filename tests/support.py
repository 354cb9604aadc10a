"""Test-side helpers kept independent of the package internals.

The leaf extractor, the tree walk, the entropy calculator, the whole-tree
cover search, the root-down node contexts, the brute-force pruning filter
and the lowest-common-ancestor path renderer re-derive their answers from
first principles so the tests they feed do not lean on the code paths
under test.
The scanning scorer, the brute-force connective matcher, the two
training-set builders and the whole-file parses reader are earlier versions
of package code, kept as references that the current versions must agree
with.
"""

import json
import logging
import math
import re
from collections import Counter

from discoparse import load_parses
from discoparse.argument_labeler import gold_constituent_label
from discoparse.connective_annotator import (USAGE_NEGATIVE, USAGE_POSITIVE,
                                             ConnectiveCandidate, find_candidates)
from discoparse.decision_tree import Instance
from discoparse.pipeline import _connective_syntax, _node_candidates

logger = logging.getLogger(__name__)

_SEXPR_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def independent_leaves(bracketing):
    """(pos, word) pairs of a bracketing, by raw token scanning.

    A word is any atom directly preceded by another atom (its POS tag);
    that is how every preterminal in the fixtures is written.
    """
    tokens = _SEXPR_TOKEN.findall(bracketing)
    pairs = []
    for i in range(1, len(tokens)):
        if tokens[i] not in "()" and tokens[i - 1] not in "()":
            pairs.append((tokens[i - 1], tokens[i]))
    return pairs


def build_document_json(bracketings):
    """CoNLL-style parses entry plus raw text for a list of bracketings.

    Character offsets are accumulated by counting: words joined by single
    spaces, sentences joined by single newlines.
    """
    sentences = []
    raw_parts = []
    offset = 0
    for bracketing in bracketings:
        words = []
        leaves = independent_leaves(bracketing)
        for pos, word in leaves:
            begin = offset
            end = begin + len(word)
            words.append([word, {"CharacterOffsetBegin": begin,
                                 "CharacterOffsetEnd": end,
                                 "PartOfSpeech": pos}])
            offset = end + 1
        sentences.append({"parsetree": bracketing, "words": words})
        raw_parts.append(" ".join(word for _, word in leaves))
    return {"sentences": sentences}, "\n".join(raw_parts)


def load_document(bracketings, doc_id="doc"):
    """The Document of one build_document_json entry, loaded by load_parses."""
    entry, raw_text = build_document_json(bracketings)
    document, = load_parses(json.dumps({doc_id: entry}).encode("utf-8"), {doc_id: raw_text})
    return document


def walk(node):
    """Every node of the subtree, pre-order: node before children,
    siblings left to right; an explicit stack, so any depth works."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def reference_parses(text):
    """(doc_id, tokens, bracketings) per document of a parses JSON text,
    decoded whole with json.loads as the package did before it decoded
    one document at a time; a token is (surface, begin, end, pos).
    """
    return [(doc_id,
             [(word, attrs["CharacterOffsetBegin"], attrs["CharacterOffsetEnd"],
               attrs["PartOfSpeech"])
              for sentence in entry["sentences"] for word, attrs in sentence["words"]],
             [sentence["parsetree"] for sentence in entry["sentences"]])
            for doc_id, entry in json.loads(text).items()]


# JSON text nested deeper than Python's decoder can follow.
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def nested_branches_json(depth):
    """JSON text of a decision tree that is a chain of depth branches,
    written as text because json.dumps recurses as well."""
    leaf = '{"kind": "leaf", "label": "x", "distribution": {"x": 1}}'
    branch = '{"kind": "branch", "feature": "f", "majority_child": "v", "children": {"v": '
    return branch * depth + leaf + "}}" * depth


def tree_json_leaves(tree):
    """The leaf objects of a decision tree in model-file JSON, left to right."""
    if tree["kind"] == "leaf":
        return [tree]
    return [leaf for child in tree["children"].values()
            for leaf in tree_json_leaves(child)]


def walk_exact_cover_chain(tree, token_range):
    """The whole-tree cover search the package used before it descended:
    every non-terminal node whose span equals token_range, bottom to top;
    without one, the lowest node covering a superset of the span, alone.
    """
    begin, end = token_range
    chain = [node for node in walk(tree)
             if not node.is_terminal
             and node.token_begin == begin and node.token_end == end]
    if chain:
        chain.reverse()  # walk yields ancestors first
        return chain
    node = tree
    while True:
        inner = next((child for child in node.children
                      if not child.is_terminal
                      and child.token_begin <= begin
                      and child.token_end >= end), None)
        if inner is None:
            return [node]
        node = inner


def walk_node_contexts(root):
    """id(node) -> (label, parent label, left sibling label, right sibling
    label) for every node of the tree, found from the root down by each
    node's position among its parent's children, never through a parent
    link; an absent relative is "null".
    """
    contexts = {id(root): (root.label, "null", "null", "null")}
    stack = [root]
    while stack:
        node = stack.pop()
        labels = ["null"] + [child.label for child in node.children] + ["null"]
        for position, child in enumerate(node.children, start=1):
            contexts[id(child)] = (child.label, node.label,
                                   labels[position - 1], labels[position + 1])
            stack.append(child)
    return contexts


def _climb(node):
    """[node, its parent, ..., root], by parent links."""
    path = []
    while node is not None:
        path.append(node)
        node = node.parent
    return path


def bruteforce_prune(root, anchor):
    """Definition filter: off-path nodes whose parent is on the anchor's
    root path, applied to every non-terminal node of the tree.
    """
    on_path = {id(n) for n in _climb(anchor)}
    return [n for n in walk(root)
            if not n.is_terminal
            and id(n) not in on_path
            and n.parent is not None
            and id(n.parent) in on_path]


def render_path(source, target):
    """The labels from source up to the lowest common ancestor of two nodes
    of one tree and down to target, e.g. ``S ↑ SBAR ↓ WHADVP``: the general
    search the package ran for each argument candidate before it read the
    path feature off the connective's root path.
    """
    upward = _climb(source)
    positions = {id(node): i for i, node in enumerate(upward)}
    downward = []
    node = target
    while id(node) not in positions:
        downward.append(node)
        node = node.parent
    rising = " ↑ ".join(n.label for n in upward[:positions[id(node)] + 1])
    return " ↓ ".join([rising] + [n.label for n in reversed(downward)])


def _entropy_of(values):
    counts = Counter(values)
    total = len(values)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def oracle_gain_ratio(instances, feature):
    """Gain ratio computed by enumerating every entropy term directly."""
    labels = [inst.label for inst in instances]
    base = _entropy_of(labels)
    total = len(instances)
    values = sorted({inst.features[feature] for inst in instances})
    conditional = 0.0
    group_sizes = []
    for value in values:
        group = [inst.label for inst in instances
                 if inst.features[feature] == value]
        group_sizes.append(len(group))
        conditional += (len(group) / total) * _entropy_of(group)
    split_info = 0.0
    for size in group_sizes:
        p = size / total
        split_info -= p * math.log2(p)
    if split_info == 0.0:
        return 0.0
    return (base - conditional) / split_info


NONTERMINALS = ["S", "NP", "VP", "PP", "SBAR", "ADVP", "ADJP", "WHNP"]
POS_TAGS = ["DT", "NN", "NNS", "VB", "VBD", "IN", "RB", "JJ", "WRB", "CC"]
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta"]


def random_tree_text(rng, max_depth=8, max_branch=4):
    """Random PTB bracketing, depth <= max_depth, branching <= max_branch."""
    def preterminal():
        return f"({rng.choice(POS_TAGS)} {rng.choice(WORDS)})"

    def grow(depth):
        if depth >= max_depth or rng.random() < 0.3:
            return preterminal()
        width = rng.randint(1, max_branch)
        children = " ".join(grow(depth + 1) for _ in range(width))
        return f"({rng.choice(NONTERMINALS)} {children})"

    width = rng.randint(2, max_branch)
    children = " ".join(grow(1) for _ in range(width))
    return f"(S {children})"


# The scorer's pairing before predictions were indexed by key, kept as the
# oracle: every gold relation scans every prediction of its document.

def _connective_match(gold_rel, pred_rel):
    return set(gold_rel.connective_tokens) == set(pred_rel.connective_tokens)


def _arg1_match(gold_rel, pred_rel):
    return (_connective_match(gold_rel, pred_rel)
            and set(gold_rel.arg1_tokens) == set(pred_rel.arg1_tokens))


def _arg2_match(gold_rel, pred_rel):
    return (_connective_match(gold_rel, pred_rel)
            and set(gold_rel.arg2_tokens) == set(pred_rel.arg2_tokens))


def _relation_match(gold_rel, pred_rel):
    # A single predicted sense matching any gold sense counts.
    return (_connective_match(gold_rel, pred_rel)
            and set(gold_rel.arg1_tokens) == set(pred_rel.arg1_tokens)
            and set(gold_rel.arg2_tokens) == set(pred_rel.arg2_tokens)
            and bool(set(gold_rel.senses) & set(pred_rel.senses)))


_MATCHERS = {
    "connective": _connective_match,
    "arg1": _arg1_match,
    "arg2": _arg2_match,
    "relation": _relation_match,
}


def _greedy_true_positives(gold_rels, pred_rels, match):
    used = set()
    tp = 0
    for gold_rel in gold_rels:
        for j, pred_rel in enumerate(pred_rels):
            if j in used:
                continue
            if match(gold_rel, pred_rel):
                used.add(j)
                tp += 1
                break
    return tp


def greedy_true_positives(gold, predicted):
    """dimension -> true positives over the explicit relations of both
    sides, paired greedily per document by scanning."""
    gold_explicit = [r for r in gold if r.relation_type == "Explicit"]
    pred_explicit = [r for r in predicted if r.relation_type == "Explicit"]
    by_doc = {}
    for rel in gold_explicit:
        by_doc.setdefault(rel.doc_id, ([], []))[0].append(rel)
    for rel in pred_explicit:
        by_doc.setdefault(rel.doc_id, ([], []))[1].append(rel)
    true_positives = dict.fromkeys(_MATCHERS, 0)
    for doc_id in sorted(by_doc):
        gold_rels, pred_rels = by_doc[doc_id]
        for dimension, match in _MATCHERS.items():
            true_positives[dimension] += _greedy_true_positives(
                gold_rels, pred_rels, match)
    return true_positives


def bruteforce_candidates(document, lexicon):
    """The connective matcher before the lexicon was indexed: at every
    position it joins and looks up every length from the longest key's word
    count down, and takes the first hit."""
    longest = max((len(key.split(" ")) for key in lexicon.entries), default=0)
    candidates = []
    for sentence in document.sentences:
        lowered = [token.surface.lower() for token in sentence.tokens]
        i = 0
        while i < len(lowered):
            for length in range(min(longest, len(lowered) - i), 0, -1):
                key = " ".join(lowered[i:i + length])
                if key in lexicon.entries:
                    candidates.append(ConnectiveCandidate(sentence.sent_index, i,
                                                          i + length, key))
                    i += length
                    break
            else:
                i += 1
    return candidates


# The two dataset builders training used before one pass built both, kept
# as the reference: each runs find_candidates over every document and maps
# candidates to document indices token by token.

def _candidate_span(candidate, document):
    sentence = document.sentences[candidate.sent_index]
    return tuple(sentence.tokens[i].doc_index
                 for i in range(candidate.token_begin, candidate.token_end))


def _gold_connective_spans(gold):
    spans = {}
    for rel in gold:
        if rel.relation_type == "Explicit":
            spans.setdefault(rel.doc_id, set()).add(tuple(sorted(rel.connective_tokens)))
    return spans


def build_usage_dataset(documents, gold, lexicon):
    """One instance per lexicon match; positive iff the match coincides
    with a gold explicit connective span.
    """
    gold_spans = _gold_connective_spans(gold)
    instances = []
    for doc_id, document in documents.items():
        doc_spans = gold_spans.get(doc_id, set())
        for candidate in find_candidates(document, lexicon):
            sentence = document.sentences[candidate.sent_index]
            span = _candidate_span(candidate, document)
            label = USAGE_POSITIVE if span in doc_spans else USAGE_NEGATIVE
            _, features = _connective_syntax(candidate, sentence)
            instances.append(Instance(features, label))
    return instances


def build_argument_dataset(documents, gold, lexicon):
    """Gold argument spans projected onto the pruned candidates of each
    reproducible gold connective. Gold connectives the matcher cannot
    reproduce (discontiguous spans, tokenization mismatches) are skipped
    with a warning.
    """
    candidate_index = {}
    for doc_id, document in documents.items():
        candidate_index[doc_id] = {
            _candidate_span(c, document): c
            for c in find_candidates(document, lexicon)}
    instances = []
    skipped = 0
    for rel in gold:
        if rel.relation_type != "Explicit":
            continue
        document = documents[rel.doc_id]
        candidate = candidate_index[rel.doc_id].get(tuple(sorted(rel.connective_tokens)))
        if candidate is None:
            skipped += 1
            logger.warning(
                "relation %s in '%s': gold connective span %s not reproduced "
                "by the matcher; skipped",
                rel.relation_id, rel.doc_id, rel.connective_tokens)
            continue
        sentence = document.sentences[candidate.sent_index]
        chain, features = _connective_syntax(candidate, sentence)
        for node, vector in _node_candidates(candidate, chain, features):
            label = gold_constituent_label(node, sentence,
                                           rel.arg1_tokens, rel.arg2_tokens)
            instances.append(Instance(vector, label.value))
    if skipped:
        logger.warning("%d gold connectives skipped during training", skipped)
    return instances
