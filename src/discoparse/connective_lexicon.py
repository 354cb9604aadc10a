"""Connective lexicon mined from gold training relations.

The lexicon maps lowercase connective surfaces to occurrence and per-sense
counts; it drives both candidate matching and most-frequent-sense
annotation. Only explicit relations contribute, with no frequency floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import DataError, MissingDocumentError


@dataclass(frozen=True)
class ConnectiveStats:
    total_count: int
    sense_counts: dict


@dataclass(frozen=True)
class ConnectiveLexicon:
    """Connective key -> ConnectiveStats, not mutated once built, so the index is cached."""

    entries: dict = field(default_factory=dict)

    @cached_property
    def lengths_by_first_word(self):
        """First word of each key -> the distinct word counts of its keys, longest first."""
        lengths = {}
        for words in (key.split(" ") for key in self.entries):
            lengths[words[0]] = sorted({len(words), *lengths.get(words[0], ())}, reverse=True)
        return lengths


def connective_key(surfaces):
    """Lexicon key for a sequence of token surfaces: lowercase, space-joined."""
    return " ".join(surface.lower() for surface in surfaces)


def mine_lexicon(gold, documents):
    """Count connective surfaces and senses over the explicit gold relations.

    Each relation adds one occurrence to its connective entry and one count
    per listed sense. Non-explicit relations are skipped; an explicit
    relation without connective tokens or senses, or with a connective
    token outside its document, is a data error.
    """
    totals, senses = {}, {}
    for rel in gold:
        if rel.relation_type != "Explicit":
            continue
        if not rel.connective_tokens:
            raise DataError(
                f"explicit relation {rel.relation_id} has no connective tokens")
        if not rel.senses:
            raise DataError(f"explicit relation {rel.relation_id} has no sense")
        if rel.doc_id not in documents:
            raise MissingDocumentError(
                f"relation {rel.relation_id}: unknown document '{rel.doc_id}'")
        flat = documents[rel.doc_id].tokens
        if not all(0 <= i < len(flat) for i in rel.connective_tokens):
            raise DataError(
                f"relation {rel.relation_id}: connective token index out of "
                f"range for document '{rel.doc_id}'")
        key = connective_key(flat[i].surface for i in sorted(rel.connective_tokens))
        totals[key] = totals.get(key, 0) + 1
        counts = senses.setdefault(key, {})
        for sense in rel.senses:
            counts[sense] = counts.get(sense, 0) + 1
    return ConnectiveLexicon({key: ConnectiveStats(total, senses[key])
                              for key, total in totals.items()})


def annotate_sense(relation, lexicon, key):
    """Replace the relation's senses with the most frequent sense of the
    connective whose lexicon key is key. Ties break to the
    lexicographically smallest sense label so repeated runs agree.

    Only the senses field changes. A key not in the lexicon raises KeyError.
    """
    counts = lexicon.entries[key].sense_counts
    top = max(counts.values())
    sense = min(sense for sense, count in counts.items() if count == top)
    return replace(relation, senses=(sense,))

