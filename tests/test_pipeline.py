import json
import logging
from collections import Counter
from dataclasses import replace

import pytest

import discoparse.pipeline

from discoparse import (DiscourseRelation, annotate_sense, exact_cover_chain,
                        find_candidates, load_parses, mine_lexicon,
                        parse_document, score, train_model)
from discoparse.argument_labeler import ConstituentLabel
from discoparse.connective_annotator import USAGE_POSITIVE
from discoparse.connective_lexicon import ConnectiveLexicon, ConnectiveStats
from discoparse.errors import (DiscoParseError, ModelFormatError,
                               TrainingError)
from discoparse.pipeline import build_datasets, load_model, save_model

import fixture_corpus
from support import (build_argument_dataset, build_document_json,
                     build_usage_dataset)


@pytest.fixture(scope="module")
def trained():
    documents = fixture_corpus.corpus_documents()
    gold = fixture_corpus.corpus_gold()
    model = train_model(documents, gold, min_leaf=1)
    return documents, gold, model


def test_usage_dataset_counts(corpus_documents, corpus_gold):
    lexicon = mine_lexicon(corpus_gold, corpus_documents)
    dataset, _ = build_datasets(corpus_documents, corpus_gold, lexicon)
    # 12 gold connectives plus the two planted non-discourse occurrences.
    assert len(dataset) == 14
    positives = [inst for inst in dataset if inst.label == USAGE_POSITIVE]
    assert len(positives) == 12


def test_argument_dataset_covers_every_relation(corpus_documents, corpus_gold):
    lexicon = mine_lexicon(corpus_gold, corpus_documents)
    _, dataset = build_datasets(corpus_documents, corpus_gold, lexicon)
    assert dataset
    labels = {inst.label for inst in dataset}
    assert labels == {label.value for label in ConstituentLabel}


def test_model_memorizes_training_corpus(trained):
    documents, gold, model = trained
    predicted = []
    for doc in documents.values():
        predicted.extend(parse_document(doc, model))
    scores = score(gold, predicted)
    for dimension in ("connective", "arg1", "arg2", "relation"):
        assert scores[dimension].f1 == 1.0, dimension


def test_non_discourse_candidates_are_filtered(trained):
    documents, _, model = trained
    # fix02 holds "before noon" (prepositional): only 2 relations come out.
    relations = parse_document(documents["fix02"], model)
    assert len(relations) == 2
    surfaces = set()
    flat = documents["fix02"].tokens
    for rel in relations:
        surfaces.add(" ".join(flat[i].surface.lower()
                              for i in rel.connective_tokens))
    assert surfaces == {"because", "but"}


def test_relation_ids_are_sequential(trained):
    documents, _, model = trained
    for doc in documents.values():
        relations = parse_document(doc, model)
        assert [rel.relation_id for rel in relations] == \
            list(range(len(relations)))
        for rel in relations:
            assert rel.relation_type == "Explicit"
            assert len(rel.senses) == 1


def test_parse_document_is_deterministic(trained):
    documents, _, model = trained
    doc = documents["fix04"]
    assert parse_document(doc, model) == parse_document(doc, model)


def test_parse_document_without_candidates(trained):
    _, _, model = trained
    entry, raw = build_document_json(["(S (NP (NN snow)) (VP (VBD melted)))"])
    doc, = load_parses(json.dumps({"empty": entry}).encode(), {"empty": raw})
    assert parse_document(doc, model) == []


def test_empty_gold_is_a_training_error(corpus_documents):
    with pytest.raises(TrainingError):
        train_model(corpus_documents, [])


def test_gold_without_explicit_relations_is_an_error(corpus_documents):
    gold = [DiscourseRelation("fix01", 0, "EntRel", (), (0,), (12,), ("EntRel",))]
    with pytest.raises(TrainingError):
        train_model(corpus_documents, gold)


def test_unmatchable_gold_connective_is_skipped(corpus_documents, corpus_gold,
                                                caplog):
    # A discontiguous connective span can never be reproduced by the
    # contiguous matcher; training warns and continues.
    broken = DiscourseRelation("fix01", 90, "Explicit", (5, 10),
                               (0, 1, 2, 3, 4), (6, 7, 8, 9), ("Temporal.Synchrony",))
    gold = corpus_gold + [broken]
    lexicon = mine_lexicon(gold, corpus_documents)
    with caplog.at_level(logging.WARNING, logger="discoparse.pipeline"):
        _, dataset = build_datasets(corpus_documents, gold, lexicon)
    assert dataset
    assert any("90" in record.message for record in caplog.records)


def _extended_gold(corpus_gold):
    """Fixture gold plus a duplicated explicit relation, a discontiguous
    connective the matcher cannot reproduce, and an EntRel."""
    first = corpus_gold[0]
    return corpus_gold + [
        DiscourseRelation(first.doc_id, 91, "Explicit", first.connective_tokens,
                          first.arg1_tokens, first.arg2_tokens, first.senses),
        DiscourseRelation("fix01", 90, "Explicit", (5, 10), (0, 1, 2, 3, 4),
                          (6, 7, 8, 9), ("Temporal.Synchrony",)),
        DiscourseRelation("fix02", 92, "EntRel", (), (0, 1), (2, 3), ("EntRel",)),
    ]


def _multiset(dataset):
    return Counter((tuple(sorted(inst.features.items())), inst.label)
                   for inst in dataset)


@pytest.mark.parametrize("extended", [False, True], ids=["fixture", "extended"])
def test_one_pass_datasets_match_the_two_builders(corpus_documents,
                                                  corpus_gold, extended):
    gold = _extended_gold(corpus_gold) if extended else corpus_gold
    lexicon = mine_lexicon(gold, corpus_documents)
    usage, argument = build_datasets(corpus_documents, gold, lexicon)
    assert _multiset(usage) == _multiset(
        build_usage_dataset(corpus_documents, gold, lexicon))
    assert _multiset(argument) == _multiset(
        build_argument_dataset(corpus_documents, gold, lexicon))


def test_skipped_connectives_are_warned_in_gold_order(corpus_documents,
                                                      corpus_gold, caplog):
    # Relation 93 sits in a later document than 90 but comes first in gold,
    # and 94 shares its span but comes after 90.
    gold = _extended_gold(corpus_gold)
    unmatched = DiscourseRelation("fix03", 93, "Explicit", (0, 4), (1, 2),
                                  (5, 6), ("Comparison.Contrast",))
    gold.insert(0, unmatched)
    gold.append(replace(unmatched, relation_id=94))
    lexicon = mine_lexicon(gold, corpus_documents)
    with caplog.at_level(logging.WARNING):
        build_datasets(corpus_documents, gold, lexicon)
        ours = [record.getMessage() for record in caplog.records]
        caplog.clear()
        build_argument_dataset(corpus_documents, gold, lexicon)
        reference = [record.getMessage() for record in caplog.records]
    assert ours == reference
    assert [message.split()[1] for message in ours[:3]] == ["93", "90", "94"]
    assert ours[3:] == ["3 gold connectives skipped during training"]


def test_training_walks_each_document_once(corpus_documents, corpus_gold,
                                           monkeypatch):
    calls = Counter()
    candidates = Counter()

    def counted_find_candidates(document, lexicon):
        calls["find_candidates", document.doc_id] += 1
        found = find_candidates(document, lexicon)
        candidates["candidates"] += len(found)
        return found

    def counted_exact_cover_chain(tree, token_range):
        calls["exact_cover_chain"] += 1
        return exact_cover_chain(tree, token_range)

    monkeypatch.setattr(discoparse.pipeline, "find_candidates",
                        counted_find_candidates)
    monkeypatch.setattr(discoparse.pipeline, "exact_cover_chain",
                        counted_exact_cover_chain)
    train_model(corpus_documents, corpus_gold, min_leaf=1)
    assert calls.pop("exact_cover_chain") == candidates["candidates"] == 14
    assert calls == {("find_candidates", doc_id): 1
                     for doc_id in corpus_documents}


def test_conflicting_training_data_degrades_gracefully():
    # The same sentence appears in two documents, gold in one and not the
    # other: the usage instances collide feature-for-feature, the classifier
    # falls back to a majority leaf, and everything downstream still runs.
    bracketing = ("(S (S (NP (NN demand)) (VP (VBD dropped))) (, ,) (CC so) "
                  "(S (NP (NNS makers)) (VP (VBD cut) (NP (NN output)))) (. .))")
    parses = {}
    raw = {}
    for doc_id in ("confA", "confB"):
        entry, text = build_document_json([bracketing])
        parses[doc_id] = entry
        raw[doc_id] = text
    documents = {d.doc_id: d
                 for d in load_parses(json.dumps(parses).encode(), raw)}
    gold = [DiscourseRelation("confA", 0, "Explicit", (3,), (0, 1), (4, 5, 6),
                              ("Contingency.Cause.Result",))]
    model = train_model(documents, gold, min_leaf=1)
    predicted = []
    for doc in documents.values():
        predicted.extend(parse_document(doc, model))
    # The tie broke toward discourse usage, so both copies produce a relation.
    assert len(predicted) == 2
    scores = score(gold, predicted)
    assert scores["connective"].true_positives == 1
    assert scores["connective"].precision == 0.5
    assert scores["connective"].recall == 1.0
    assert scores["relation"].recall == 1.0


def test_model_save_load_round_trip(tmp_path, trained):
    documents, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    reloaded = load_model(path)
    for doc in documents.values():
        assert parse_document(doc, reloaded) == parse_document(doc, model)
    save_model(reloaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_model_version_mismatch(tmp_path, trained):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    data["format_version"] = 2
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert "format_version" in str(excinfo.value)


@pytest.mark.parametrize("field", ["tree-children", "lexicon-entries"])
def test_model_with_a_list_for_a_mapping_is_a_format_error(tmp_path, trained,
                                                           field):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    if field == "tree-children":
        branch = next(tree for tree in (data["usage_tree"], data["argument_tree"])
                      if tree["kind"] == "branch")
        branch["children"] = list(branch["children"].values())
    else:
        data["lexicon"]["entries"] = list(data["lexicon"]["entries"].values())
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert "malformed" in str(excinfo.value)


def test_model_lexicon_entry_without_senses_is_a_format_error(tmp_path,
                                                              trained):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    data["lexicon"]["entries"]["when"]["sense_counts"] = {}
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert "lexicon entry 'when' has no senses" in str(excinfo.value)


def test_annotate_sense_single_observation():
    lexicon = ConnectiveLexicon({"when": ConnectiveStats(
        1, {"Temporal.Asynchronous.Precedence": 1})})
    rel = DiscourseRelation("ex01", 0, "Explicit", (5,), (0, 1), (6, 7), ())
    annotated = annotate_sense(rel, lexicon, "when")
    assert annotated.senses == ("Temporal.Asynchronous.Precedence",)


def test_annotate_sense_majority():
    lexicon = ConnectiveLexicon({"when": ConnectiveStats(
        5, {"Contingency.Condition": 3, "Temporal.Synchrony": 2})})
    rel = DiscourseRelation("ex01", 0, "Explicit", (5,), (0, 1), (6, 7),
                            ("placeholder",))
    annotated = annotate_sense(rel, lexicon, "when")
    assert annotated.senses == ("Contingency.Condition",)
    # Only the senses field may change.
    assert annotated.connective_tokens == rel.connective_tokens
    assert annotated.arg1_tokens == rel.arg1_tokens
    assert annotated.arg2_tokens == rel.arg2_tokens
    assert annotated.doc_id == rel.doc_id
    assert annotated.relation_id == rel.relation_id


def test_annotate_sense_unknown_connective_is_hard_error():
    rel = DiscourseRelation("ex01", 0, "Explicit", (5,), (0, 1), (6, 7), ())
    with pytest.raises(DiscoParseError):
        annotate_sense(rel, ConnectiveLexicon(), "when")


def test_annotated_sense_is_argmax(trained):
    documents, _, model = trained
    for doc in documents.values():
        for rel in parse_document(doc, model):
            flat = doc.tokens
            key = " ".join(flat[i].surface.lower() for i in rel.connective_tokens)
            counts = model.lexicon.entries[key].sense_counts
            assert counts[rel.senses[0]] == max(counts.values())


def test_emitted_relations_satisfy_span_invariants(trained):
    documents, _, model = trained
    for doc in documents.values():
        total = len(doc.tokens)
        for rel in parse_document(doc, model):
            conn = set(rel.connective_tokens)
            assert conn == set(range(min(conn), max(conn) + 1))  # contiguous
            assert set(rel.arg1_tokens).isdisjoint(rel.arg2_tokens)
            assert conn.isdisjoint(rel.arg1_tokens)
            assert conn.isdisjoint(rel.arg2_tokens)
            assert list(rel.arg1_tokens) == sorted(set(rel.arg1_tokens))
            assert list(rel.arg2_tokens) == sorted(set(rel.arg2_tokens))
            for index in (*rel.connective_tokens, *rel.arg1_tokens,
                          *rel.arg2_tokens):
                assert 0 <= index < total


def test_every_relation_comes_from_a_candidate(trained):
    documents, _, model = trained
    for doc in documents.values():
        spans = set()
        for cand in find_candidates(doc, model.lexicon):
            sentence = doc.sentences[cand.sent_index]
            spans.add(tuple(sentence.tokens[i].doc_index
                            for i in range(cand.token_begin, cand.token_end)))
        relations = parse_document(doc, model)
        assert len(relations) <= len(spans)
        for rel in relations:
            assert rel.connective_tokens in spans


def test_deeply_nested_tree_parses(trained):
    # 1,200 unary levels above the reference sentence: deeper than the
    # interpreter's default recursion limit.
    _, _, model = trained
    deep = "(S " * 1200 + fixture_corpus.REFERENCE_BRACKETING + ")" * 1200
    entry, raw_text = build_document_json([deep])
    document, = load_parses(json.dumps({"deep": entry}).encode("utf-8"),
                            {"deep": raw_text})
    relations = parse_document(document, model)
    ref = fixture_corpus.REFERENCE_RELATION
    assert [(rel.connective_tokens, rel.arg1_tokens, rel.arg2_tokens)
            for rel in relations] == [(ref["connective"], ref["arg1"], ref["arg2"])]
