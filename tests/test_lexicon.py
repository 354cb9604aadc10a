import random

import pytest

from discoparse import (ConnectiveLexicon, ConnectiveStats, DiscourseRelation,
                        mine_lexicon, most_frequent_sense)
from discoparse.errors import DataError


def _explicit(doc_id, rel_id, conn, sense, arg1=(0,), arg2=(1,)):
    return DiscourseRelation(doc_id, rel_id, "Explicit", conn, arg1, arg2,
                             (sense,) if isinstance(sense, str) else tuple(sense))


def test_mine_counts_per_sense(corpus_documents):
    gold = [
        _explicit("fix01", 0, (5,), "Temporal.Synchrony"),
        _explicit("fix01", 1, (5,), "Temporal.Synchrony"),
        _explicit("fix01", 2, (5,), "Contingency.Condition"),
    ]
    lexicon = mine_lexicon(gold, corpus_documents)
    entry = lexicon.entries["when"]
    assert entry.total_count == 3
    assert entry.sense_counts == {"Temporal.Synchrony": 2,
                                  "Contingency.Condition": 1}
    assert most_frequent_sense(lexicon, "when") == "Temporal.Synchrony"


def test_mine_skips_non_explicit(corpus_documents):
    gold = [DiscourseRelation("fix01", 0, "Implicit", (), (0,), (1,),
                              ("Expansion.Conjunction",))]
    lexicon = mine_lexicon(gold, corpus_documents)
    assert lexicon.entries == {}
    assert lexicon.max_token_length == 0


def test_mine_multiword_key_and_token_length(corpus_documents, corpus_gold):
    lexicon = mine_lexicon(corpus_gold, corpus_documents)
    assert "as soon as" in lexicon.entries
    assert lexicon.max_token_length == 3
    assert len(lexicon) == 12


def test_mine_lowercases_surfaces(corpus_documents, corpus_gold):
    lexicon = mine_lexicon(corpus_gold, corpus_documents)
    # "However", "If", "Although", "After" appear capitalized in the text.
    for key in ("however", "if", "although", "after"):
        assert key in lexicon.entries


def test_mine_permutation_invariant(corpus_documents, corpus_gold):
    rng = random.Random(5)
    shuffled = list(corpus_gold)
    rng.shuffle(shuffled)
    a = mine_lexicon(corpus_gold, corpus_documents)
    b = mine_lexicon(shuffled, corpus_documents)
    assert a.entries == b.entries


def test_mined_keys_appear_in_gold(corpus_documents, corpus_gold):
    lexicon = mine_lexicon(corpus_gold, corpus_documents)
    surfaces = set()
    for rel in corpus_gold:
        flat = corpus_documents[rel.doc_id].tokens
        surfaces.add(" ".join(flat[i].surface.lower()
                              for i in sorted(rel.connective_tokens)))
    assert set(lexicon.entries) == surfaces


def test_mine_multi_sense_relation_counts_each(corpus_documents):
    gold = [_explicit("fix02", 0, (15,),
                      ("Comparison.Contrast", "Expansion.Conjunction"))]
    lexicon = mine_lexicon(gold, corpus_documents)
    entry = lexicon.entries["but"]
    assert entry.total_count == 1
    assert entry.sense_counts == {"Comparison.Contrast": 1,
                                  "Expansion.Conjunction": 1}


def test_mine_empty_connective_is_data_error(corpus_documents):
    gold = [_explicit("fix01", 7, (), "Temporal.Synchrony")]
    with pytest.raises(DataError) as excinfo:
        mine_lexicon(gold, corpus_documents)
    assert "7" in str(excinfo.value)


def test_mine_explicit_without_sense_is_data_error(corpus_documents):
    gold = [_explicit("fix01", 7, (5,), ())]
    with pytest.raises(DataError) as excinfo:
        mine_lexicon(gold, corpus_documents)
    assert "relation 7 has no sense" in str(excinfo.value)


@pytest.mark.parametrize("index", [-1, 25, 10**9])
def test_mine_connective_outside_document_is_data_error(corpus_documents,
                                                        index):
    # fix01 has 25 tokens; a negative index must not read from the end.
    assert len(corpus_documents["fix01"].tokens) == 25
    gold = [_explicit("fix01", 7, (index,), "Temporal.Synchrony")]
    with pytest.raises(DataError) as excinfo:
        mine_lexicon(gold, corpus_documents)
    assert "out of range" in str(excinfo.value)


def test_most_frequent_sense_single_observation():
    lexicon = ConnectiveLexicon({"until": ConnectiveStats(
        1, {"Temporal.Asynchronous.Precedence": 1})})
    assert most_frequent_sense(lexicon, "until") == \
        "Temporal.Asynchronous.Precedence"


def test_most_frequent_sense_tie_breaks_lexicographically():
    lexicon = ConnectiveLexicon({"c": ConnectiveStats(10, {"B": 5, "A": 5})})
    assert most_frequent_sense(lexicon, "c") == "A"


def test_most_frequent_sense_unknown_connective():
    with pytest.raises(KeyError):
        most_frequent_sense(ConnectiveLexicon(), "nowhere")


def test_most_frequent_sense_matches_bruteforce_scan():
    rng = random.Random(11)
    senses = [f"Sense.{c}" for c in "ABCDEF"]
    for _ in range(50):
        counts = {s: rng.randint(1, 9) for s in rng.sample(senses, rng.randint(1, 6))}
        lexicon = ConnectiveLexicon({"k": ConnectiveStats(sum(counts.values()), counts)})
        picked = most_frequent_sense(lexicon, "k")
        best = max(counts.values())
        scan_winners = sorted(s for s, c in counts.items() if c == best)
        assert picked == scan_winners[0]
        assert all(counts[picked] >= c for c in counts.values())
