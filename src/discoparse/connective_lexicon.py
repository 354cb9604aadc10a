"""Connective lexicon mined from gold training relations.

The lexicon maps lowercase connective surfaces to occurrence and per-sense
counts; it drives both candidate matching and most-frequent-sense
annotation. Only explicit relations contribute, with no frequency floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import DataError, DiscoParseError, MissingDocumentError


@dataclass
class ConnectiveStats:
    total_count: int = 0
    sense_counts: dict = field(default_factory=dict)


@dataclass
class ConnectiveLexicon:
    """Connective key -> ConnectiveStats. Lexicons are not mutated once
    built, so max_token_length is computed once."""

    entries: dict = field(default_factory=dict)

    @cached_property
    def max_token_length(self):
        """Token count of the longest entry; 0 for an empty lexicon."""
        return max((len(key.split(" ")) for key in self.entries), default=0)

    def __len__(self):
        return len(self.entries)


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
    entries = {}
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
        stats = entries.setdefault(key, ConnectiveStats())
        stats.total_count += 1
        for sense in rel.senses:
            stats.sense_counts[sense] = stats.sense_counts.get(sense, 0) + 1
    return ConnectiveLexicon(entries)


def most_frequent_sense(lexicon, connective):
    """Sense with the highest count for the connective.

    Ties break to the lexicographically smallest sense label so repeated
    runs agree. Raises KeyError for connectives outside the lexicon.
    """
    if connective not in lexicon.entries:
        raise KeyError(f"connective '{connective}' not in lexicon")
    sense_counts = lexicon.entries[connective].sense_counts
    if not sense_counts:
        raise KeyError(f"connective '{connective}' has no observed senses")
    top = max(sense_counts.values())
    return min(sense for sense, count in sense_counts.items() if count == top)


def annotate_sense(relation, lexicon, key):
    """Replace the relation's senses with the most frequent sense of the
    connective whose lexicon key is key.

    Only the senses field changes. A key with no sense in the lexicon is a
    pipeline invariant violation, not a recoverable condition.
    """
    try:
        sense = most_frequent_sense(lexicon, key)
    except KeyError as exc:
        raise DiscoParseError(f"connective '{key}' has no sense in the lexicon") from exc
    return replace(relation, senses=(sense,))


def lexicon_to_json(lexicon):
    return {"entries": {key: {"total_count": stats.total_count,
                              "sense_counts": stats.sense_counts}
                        for key, stats in lexicon.entries.items()}}


def lexicon_from_json(data):
    """Read a lexicon back. An entry without senses could not annotate the
    relations its matches produce, so it raises ValueError."""
    entries = {}
    for key, value in data["entries"].items():
        if not value["sense_counts"]:
            raise ValueError(f"lexicon entry '{key}' has no senses")
        entries[key] = ConnectiveStats(value["total_count"],
                                       dict(value["sense_counts"]))
    return ConnectiveLexicon(entries)
