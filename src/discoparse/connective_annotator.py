"""Connective candidate matching and discourse-usage classification.

Candidates are lexicon matches found per sentence (greedy, longest first,
token aligned, case insensitive). Each candidate is then described by six
local syntactic and lexical features and classified as discourse usage or
not by a trained decision tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decision_tree import predict
from .parse_tree import node_context

USAGE_POSITIVE = "discourse"
USAGE_NEGATIVE = "non-discourse"

CASE_LOWER = "all lowercase"
CASE_UPPER = "all uppercase"
CASE_INITIAL_UPPER = "initial uppercase"
CASE_MIXED = "mixed"

CONNECTIVE_FEATURES = ("conn_lowercase", "case_category", "self_cat", "self_cat_parent",
                       "self_cat_left_sibling", "self_cat_right_sibling")


@dataclass(frozen=True)
class ConnectiveCandidate:
    sent_index: int
    token_begin: int  # index_in_sentence, half-open
    token_end: int
    surface: str  # lowercased space-joined tokens; always a lexicon key


def find_candidates(document, lexicon):
    """Lexicon matches in the document, greedy longest-first per sentence.

    A key is matched token by token, each word of key.split(" ") to one lowercased surface.
    Matching never crosses a sentence boundary and never reuses a token,
    so results are non-overlapping and sorted by (sentence, token start).
    """
    candidates = []
    lengths_by_first_word = lexicon.lengths_by_first_word
    for sentence in document.sentences:
        lowered = [token.surface.lower() for token in sentence.tokens]
        i = 0
        while i < len(lowered):
            for length in lengths_by_first_word.get(lowered[i], ()):
                end = i + length
                # Past the sentence end the slice is short and can spell a shorter key.
                if end <= len(lowered) and (key := " ".join(lowered[i:end])) in lexicon.entries:
                    candidates.append(ConnectiveCandidate(sentence.sent_index, i, end, key))
                    i = end
                    break
            else:
                i += 1
    return candidates


def case_category(surface):
    """Case shape of the raw surface; total over arbitrary strings."""
    if surface == surface.lower():
        return CASE_LOWER
    if surface == surface.upper():
        return CASE_UPPER
    if surface[0].isupper() and surface[1:] == surface[1:].lower():
        return CASE_INITIAL_UPPER
    return CASE_MIXED


def extract_connective_features(candidate, sentence, chain):
    """The six CONNECTIVE_FEATURES of one candidate, as a dict.

    chain is the exact-cover chain of the candidate's tokens, bottom to top
    (parse_tree.exact_cover_chain). The exact-cover nodes over a connective
    form a unary chain; the category label and its parent are read off the
    bottom of that chain (the node hugging the connective) while the
    siblings are read off the top, which is what places single-token
    connectives next to the clause they attach to.
    """
    self_cat, parent, _, _ = node_context(chain[0])
    _, _, left, right = node_context(chain[-1])
    raw = " ".join(token.surface for token in
                   sentence.tokens[candidate.token_begin:candidate.token_end])
    return {
        "conn_lowercase": candidate.surface,
        "case_category": case_category(raw),
        "self_cat": self_cat,
        "self_cat_parent": parent,
        "self_cat_left_sibling": left,
        "self_cat_right_sibling": right,
    }


def classify_usage(features, model):
    """True when the usage tree labels the features as discourse."""
    return predict(model, features) == USAGE_POSITIVE
