import random

import pytest

from discoparse import DiscourseRelation, score
from discoparse.errors import InputFormatError
from discoparse.evaluation import DIMENSIONS, _prf, format_table, report_dict

from support import greedy_true_positives


def _rel(doc_id, rel_id, conn, arg1, arg2, senses=("S.A",), rtype="Explicit"):
    return DiscourseRelation(doc_id, rel_id, rtype, tuple(conn), tuple(arg1),
                             tuple(arg2), tuple(senses))


GOLD = [
    _rel("d1", 0, (5,), (0, 1), (6, 7)),
    _rel("d1", 1, (9,), (10, 11), (12, 13), senses=("S.B",)),
    _rel("d2", 0, (2,), (0, 1), (3, 4)),
]


def test_identity_gives_ones(corpus_gold):
    for dimension, prf in score(corpus_gold, corpus_gold).items():
        assert prf.precision == 1.0
        assert prf.recall == 1.0
        assert prf.f1 == 1.0
        assert prf.true_positives == prf.gold_count == prf.predicted_count


def test_empty_predictions_give_zeros():
    for prf in score(GOLD, []).values():
        assert prf.precision == 0.0
        assert prf.recall == 0.0
        assert prf.f1 == 0.0
        assert prf.predicted_count == 0
        assert prf.gold_count == 3


def test_one_of_two_full_matches():
    predicted = [
        GOLD[0],
        _rel("d1", 1, (9,), (10,), (12, 13), senses=("S.B",)),  # Arg1 wrong
    ]
    scores = score(GOLD[:2], predicted)
    relation = scores["relation"]
    assert relation.precision == 0.5
    assert relation.recall == 0.5
    assert relation.f1 == 0.5
    assert scores["connective"].f1 == 1.0
    assert scores["arg2"].f1 == 1.0
    assert scores["arg1"].true_positives == 1


def test_argument_credit_requires_connective_match():
    predicted = [_rel("d1", 0, (4,), (0, 1), (6, 7))]  # connective off by one
    scores = score(GOLD[:1], predicted)
    assert scores["connective"].true_positives == 0
    assert scores["arg1"].true_positives == 0
    assert scores["arg2"].true_positives == 0
    assert scores["relation"].true_positives == 0


def test_token_sets_not_order_match():
    predicted = [_rel("d1", 0, (5,), (1, 0), (7, 6))]
    scores = score(GOLD[:1], predicted)
    assert scores["relation"].f1 == 1.0


def test_sense_matches_any_gold_sense():
    gold = [_rel("d1", 0, (5,), (0, 1), (6, 7), senses=("S.A", "S.B"))]
    predicted = [_rel("d1", 0, (5,), (0, 1), (6, 7), senses=("S.B",))]
    assert score(gold, predicted)["relation"].f1 == 1.0
    mismatch = [_rel("d1", 0, (5,), (0, 1), (6, 7), senses=("s.b",))]
    assert score(gold, mismatch)["relation"].f1 == 0.0  # case sensitive


def test_non_explicit_relations_are_ignored():
    gold = GOLD + [_rel("d1", 2, (), (0,), (1,), senses=("EntRel",),
                        rtype="EntRel")]
    scores = score(gold, GOLD)
    assert scores["relation"].gold_count == 3
    assert scores["relation"].f1 == 1.0


def test_duplicate_ids_rejected():
    with pytest.raises(InputFormatError):
        score(GOLD + [GOLD[0]], [])
    with pytest.raises(InputFormatError):
        score(GOLD, [GOLD[0], GOLD[0]])


def test_spurious_prediction_monotonicity():
    rng = random.Random(23)
    for _ in range(30):
        n_gold = rng.randint(1, 5)
        gold = [_rel("d", i, (i * 10,), (i * 10 + 1,), (i * 10 + 2,))
                for i in range(n_gold)]
        predicted = [gold[i] for i in range(n_gold) if rng.random() < 0.6]
        predicted = [DiscourseRelation(r.doc_id, i, r.relation_type,
                                       r.connective_tokens, r.arg1_tokens,
                                       r.arg2_tokens, r.senses)
                     for i, r in enumerate(predicted)]
        spurious = predicted + [_rel("d", 999, (777,), (778,), (779,))]
        base = score(gold, predicted)
        bumped = score(gold, spurious)
        for dimension in DIMENSIONS:
            assert bumped[dimension].precision <= base[dimension].precision or \
                base[dimension].predicted_count == 0
            assert bumped[dimension].recall == base[dimension].recall
            assert bumped[dimension].true_positives <= \
                min(bumped[dimension].predicted_count, bumped[dimension].gold_count)


def test_argument_tp_never_exceeds_connective_tp():
    rng = random.Random(29)
    for _ in range(30):
        gold = [_rel("d", i, (i * 10,), (i * 10 + 1,), (i * 10 + 2,))
                for i in range(4)]
        predicted = []
        for i, g in enumerate(gold):
            conn = g.connective_tokens if rng.random() < 0.7 else (i * 10 + 5,)
            arg1 = g.arg1_tokens if rng.random() < 0.7 else (i * 10 + 6,)
            arg2 = g.arg2_tokens if rng.random() < 0.7 else (i * 10 + 7,)
            predicted.append(_rel("d", i, conn, arg1, arg2))
        scores = score(gold, predicted)
        assert scores["arg1"].true_positives <= scores["connective"].true_positives
        assert scores["arg2"].true_positives <= scores["connective"].true_positives
        assert scores["relation"].true_positives <= \
            min(scores["arg1"].true_positives, scores["arg2"].true_positives)


def test_report_forms():
    scores = score(GOLD, GOLD)
    data = report_dict(scores)
    assert set(data) == set(DIMENSIONS)
    assert data["relation"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0,
                                "tp": 3, "predicted": 3, "gold": 3}
    table = format_table(scores)
    assert "connective" in table and "1.0000" in table


def _random_relations(rng, spans, count):
    """Relations over few documents and the given few spans, so that spans
    repeat; token lists come shuffled and senses are drawn one to three at
    a time."""
    next_id = {}
    relations = []
    for _ in range(count):
        doc_id = rng.choice(["d1", "d2"])
        next_id[doc_id] = next_id.get(doc_id, 0) + 1
        conn, arg1, arg2 = (rng.sample(span, len(span))
                            for span in rng.choices(spans, k=3))
        senses = rng.sample(["S.A", "S.B", "S.C"], rng.randint(1, 3))
        rtype = rng.choice(["Explicit"] * 4 + ["EntRel"])
        relations.append(_rel(doc_id, next_id[doc_id], conn, arg1, arg2,
                              senses, rtype))
    return relations


def test_indexed_pairing_matches_greedy_scan():
    rng = random.Random(2015)
    for _ in range(500):
        spans = [tuple(rng.sample(range(6), rng.randint(1, 2))) for _ in range(2)]
        gold = _random_relations(rng, spans, rng.randint(0, 12))
        predicted = _random_relations(rng, spans, rng.randint(0, 12))
        tp = greedy_true_positives(gold, predicted)
        n_gold = sum(rel.relation_type == "Explicit" for rel in gold)
        n_pred = sum(rel.relation_type == "Explicit" for rel in predicted)
        assert score(gold, predicted) == {
            dimension: _prf(tp[dimension], n_pred, n_gold)
            for dimension in DIMENSIONS}
