"""Exact-match scoring of predicted relations against gold.

Four dimensions are reported: connective identification, Arg1, Arg2 and the
full relation. Matching is exact equality of token index sets; argument
credit requires the connective to match as well, and full-relation credit
additionally requires a sense match. Pairing is greedy one-to-one in
document order, over predictions indexed by document and matched spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputFormatError

DIMENSIONS = ("connective", "arg1", "arg2", "relation")


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    true_positives: int
    predicted_count: int
    gold_count: int


def _prf(tp, predicted, gold):
    precision = tp / predicted if predicted else 0.0
    recall = tp / gold if gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return PRF(precision, recall, f1, tp, predicted, gold)


# Fields of _fields(rel) that must be equal for credit, per dimension:
# 0 the document, then the token sets of 1 the connective, 2 Arg1, 3 Arg2.
# Full-relation credit also needs a sense in common.
_KEY_FIELDS = {"connective": (0, 1), "arg1": (0, 1, 2), "arg2": (0, 1, 3),
               "relation": (0, 1, 2, 3)}


def _check_unique_ids(relations, side):
    seen = set()
    for rel in relations:
        key = (rel.doc_id, rel.relation_id)
        if key in seen:
            raise InputFormatError(
                f"duplicate {side} relation id {rel.relation_id} "
                f"in document '{rel.doc_id}'")
        seen.add(key)


def _fields(rel):
    return (rel.doc_id, frozenset(rel.connective_tokens),
            frozenset(rel.arg1_tokens), frozenset(rel.arg2_tokens))


def _true_positives(gold_fields, pred_fields, dimension):
    """Greedy one-to-one pairing: each gold relation, in order, takes the
    first unused prediction with its key (and, for the full relation, a
    sense in common). Predictions are indexed by key, in order.

    Both sides are lists of (relation, _fields(relation)).
    """
    positions = _KEY_FIELDS[dimension]
    unused = {}
    for rel, fields in pred_fields:
        unused.setdefault(tuple(fields[i] for i in positions), []).append(rel)
    tp = 0
    for gold_rel, fields in gold_fields:
        waiting = unused.get(tuple(fields[i] for i in positions), [])
        for i, pred_rel in enumerate(waiting):
            if dimension != "relation" or set(gold_rel.senses) & set(pred_rel.senses):
                del waiting[i]
                tp += 1
                break
    return tp


def score(gold, predicted):
    """PRF per dimension over the explicit relations of both sides."""
    _check_unique_ids(gold, "gold")
    _check_unique_ids(predicted, "predicted")
    gold_explicit = [(r, _fields(r)) for r in gold if r.relation_type == "Explicit"]
    pred_explicit = [(r, _fields(r)) for r in predicted if r.relation_type == "Explicit"]
    return {dimension: _prf(_true_positives(gold_explicit, pred_explicit, dimension),
                            len(pred_explicit), len(gold_explicit))
            for dimension in DIMENSIONS}


def report_dict(scores):
    """Plain-JSON form of a score report."""
    return {dimension: {"precision": prf.precision,
                        "recall": prf.recall,
                        "f1": prf.f1,
                        "tp": prf.true_positives,
                        "predicted": prf.predicted_count,
                        "gold": prf.gold_count}
            for dimension, prf in scores.items()}


def format_table(scores):
    header = f"{'dimension':<12} {'precision':>9} {'recall':>9} {'f1':>9} {'tp':>6} {'pred':>6} {'gold':>6}"
    lines = [header, "-" * len(header)]
    for dimension, prf in scores.items():
        lines.append(
            f"{dimension:<12} {prf.precision:>9.4f} {prf.recall:>9.4f} "
            f"{prf.f1:>9.4f} {prf.true_positives:>6} "
            f"{prf.predicted_count:>6} {prf.gold_count:>6}")
    return "\n".join(lines)
