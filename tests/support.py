"""Test-side helpers kept independent of the package internals.

The leaf extractor, the entropy calculator, the whole-tree cover search
and the brute-force pruning filter re-derive their answers from first
principles so the tests they feed do not lean on the code paths under test.
"""

import math
import re
from collections import Counter

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


def walk_exact_cover_chain(tree, token_range):
    """The whole-tree cover search the package used before it descended:
    every non-terminal node whose span equals token_range, bottom to top;
    without one, the lowest node covering a superset of the span, alone.
    """
    begin, end = token_range
    chain = [node for node in tree.walk()
             if not node.is_terminal
             and node.token_begin == begin and node.token_end == end]
    if chain:
        chain.reverse()  # walk() yields ancestors first
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


def bruteforce_prune(root, anchor):
    """Definition filter: off-path nodes whose parent is on the anchor's
    root path, applied to every non-terminal node of the tree.
    """
    path = []
    node = anchor
    while node is not None:
        path.append(node)
        node = node.parent
    on_path = {id(n) for n in path}
    return [n for n in root.walk()
            if not n.is_terminal
            and id(n) not in on_path
            and n.parent is not None
            and id(n.parent) in on_path]


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
