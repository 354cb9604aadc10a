import json
import logging
import os
import random
import stat
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discoparse.pipeline

from discoparse import (DiscourseRelation, annotate_sense, exact_cover_chain,
                        export_relations, find_candidates, load_parses,
                        mine_lexicon, parse_document, score, train_model)
from discoparse.argument_labeler import ConstituentLabel
from discoparse.connective_annotator import USAGE_NEGATIVE, USAGE_POSITIVE
from discoparse.connective_lexicon import ConnectiveLexicon, ConnectiveStats
from discoparse.decision_tree import Branch, Leaf
from discoparse.errors import ModelFormatError, TrainingError
from discoparse.pipeline import (ParserModel, build_datasets, load_model,
                                 save_model)

import fixture_corpus
from support import (DEEP_ARRAY, build_argument_dataset, build_document_json,
                     build_usage_dataset, nested_branches_json, random_tree_text,
                     tree_json_leaves)


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


def _random_gold(rng, documents):
    """Explicit relations on random one- or two-token spans of about two in
    three sentences: Arg2 the tokens after the connective, Arg1 the previous
    sentence, or the tokens before the connective in a first sentence."""
    gold = []
    for document in documents.values():
        for sentence in document.sentences:
            if rng.random() < 0.35:
                continue
            size = len(sentence.tokens)
            begin = rng.randrange(size)
            end = min(size, begin + rng.randint(1, 2))
            if sentence.sent_index:
                previous = document.sentences[sentence.sent_index - 1]
                arg1 = previous.doc_span(0, len(previous.tokens))
            else:
                arg1 = sentence.doc_span(0, begin)
            gold.append(DiscourseRelation(
                document.doc_id, len(gold), "Explicit",
                tuple(sentence.doc_span(begin, end)), tuple(arg1),
                tuple(sentence.doc_span(end, size)),
                (rng.choice(["Temporal", "Comparison", "Contingency"]),)))
    return gold


def _random_models(rng, documents, gold):
    """The model trained on gold, when training succeeds, and one that takes
    every match as a connective and labels candidates by side at random."""
    labels = [label.value for label in ConstituentLabel]
    sides = {side: Leaf(label, {label: 1})
             for side, label in (("left", rng.choice(labels)), ("right", rng.choice(labels)))}
    models = [ParserModel(mine_lexicon(gold, documents),
                          Leaf(USAGE_POSITIVE, {USAGE_POSITIVE: 1}),
                          Branch("node_position", sides, "left"))]
    try:
        models.append(train_model(documents, gold, min_leaf=rng.randint(1, 2)))
    except TrainingError:  # no gold connective reproduced by the matcher
        pass
    return models


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_parsed_relations_keep_the_pipeline_invariants(seed):
    rng = random.Random(seed)
    entries = {f"d{i}": build_document_json([random_tree_text(rng, max_depth=5)
                                             for _ in range(rng.randint(1, 4))])
               for i in range(rng.randint(2, 4))}

    def load(doc_ids):
        parses = json.dumps({doc_id: entries[doc_id][0] for doc_id in doc_ids})
        return load_parses(parses.encode(), {doc_id: entries[doc_id][1] for doc_id in doc_ids})

    documents = {document.doc_id: document for document in load(entries)}
    gold = _random_gold(rng, documents)
    if not gold:
        return
    for model in _random_models(rng, documents, gold):
        relations = []
        for document in documents.values():
            found = parse_document(document, model)
            assert [rel.relation_id for rel in found] == list(range(len(found)))
            # A document's relations do not depend on the documents beside it.
            alone, = load([document.doc_id])
            assert parse_document(alone, model) == found
            for rel in found:
                connective, arg1, arg2 = (set(rel.connective_tokens), set(rel.arg1_tokens),
                                          set(rel.arg2_tokens))
                assert connective and arg1 and arg2
                assert connective.isdisjoint(arg1) and connective.isdisjoint(arg2)
                assert arg1.isdisjoint(arg2)
                sent, = {document.tokens[i].sent_index for i in connective}
                assert {document.tokens[i].sent_index for i in arg1} <= {sent - 1, sent}
                assert {document.tokens[i].sent_index for i in arg2} == {sent}
            relations += found
        exported = export_relations(relations, documents)
        again = [rel for document in documents.values()
                 for rel in parse_document(document, model)]
        assert export_relations(again, documents) == exported


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


def test_save_model_to_a_handle_writes_the_same_bytes(tmp_path, trained):
    _, _, model = trained
    save_model(model, tmp_path / "model.json")
    with open(tmp_path / "handle.json", "wb") as handle:
        save_model(model, handle)
    assert ((tmp_path / "handle.json").read_bytes()
            == (tmp_path / "model.json").read_bytes())


def test_failed_save_keeps_the_existing_model(tmp_path, trained):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    before = path.read_bytes()
    # Leaf distributions are not checked when a model is built, so this
    # model is built and fails only when it is written.
    unserializable = replace(model, argument_tree=Leaf("None", {"None": object()}))
    with pytest.raises(TypeError):
        save_model(unserializable, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.json"]


def test_saved_model_has_the_mode_of_a_plain_open(tmp_path, trained):
    _, _, model = trained
    with open(tmp_path / "plain", "wb"):
        pass
    save_model(model, tmp_path / "model.json")
    assert (stat.S_IMODE(os.stat(tmp_path / "model.json").st_mode)
            == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode))


def _tree_nodes(tree):
    yield tree
    for child in getattr(tree, "children", {}).values():
        yield from _tree_nodes(child)


@pytest.mark.parametrize("part, field", [
    ("model", "usage_tree"), ("lexicon", "entries"), ("stats", "sense_counts"),
    ("leaf", "label"), ("branch", "feature"),
])
def test_parser_model_is_frozen(trained, part, field):
    _, _, model = trained
    nodes = [*_tree_nodes(model.usage_tree), *_tree_nodes(model.argument_tree)]
    target = {"model": model, "lexicon": model.lexicon,
              "stats": model.lexicon.entries["when"],
              "leaf": next(node for node in nodes if isinstance(node, Leaf)),
              "branch": next(node for node in nodes if isinstance(node, Branch))}[part]
    with pytest.raises(FrozenInstanceError):
        setattr(target, field, None)


def test_model_version_mismatch(tmp_path, trained):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    # true and 1.0 equal 1 in Python, but only the int 1 is version 1.
    for version in (2, True, 1.0):
        data["format_version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(path)
        assert f"format_version {version!r}" in str(excinfo.value)


def _first_branch(data):
    return next(tree for tree in (data["usage_tree"], data["argument_tree"])
                if tree["kind"] == "branch")


@pytest.mark.parametrize("field", ["tree-children", "lexicon-entries"])
def test_model_with_a_list_for_a_mapping_is_a_format_error(tmp_path, trained,
                                                           field):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    if field == "tree-children":
        branch = _first_branch(data)
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


@pytest.mark.parametrize("part", ["usage-tree", "lexicon"])
def test_deeply_nested_model_is_a_format_error(tmp_path, trained, part):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    if part == "usage-tree":
        deep = nested_branches_json(2000)
        data["usage_tree"] = "DEEP"
    else:
        deep = DEEP_ARRAY
        data["lexicon"]["entries"] = "DEEP"
    path.write_text(json.dumps(data).replace('"DEEP"', deep))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert f"model file '{path}'" in str(excinfo.value)


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
    # annotate_sense is given lexicon keys only; any other key is a bug.
    rel = DiscourseRelation("ex01", 0, "Explicit", (5,), (0, 1), (6, 7), ())
    with pytest.raises(KeyError):
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


@pytest.mark.parametrize("defect, expected", [
    ("majority-child", "is not a child of its branch"),
    ("count-string", "'x'"),
    ("count-null", "None"),
    ("count-negative", "-1"),
    ("count-bool", "True"),
    ("count-float", "2.0"),
    ("usage-leaf", "leaf label 'Discourse' is not one of"),
    ("argument-leaf", "leaf label 'Arg2part' is not one of"),
    ("usage-feature", "branch feature 'self_category' is not one of"),
    ("argument-feature", "branch feature 'no_such_feature' is not one of"),
    ("list-feature", "branch feature ['self_cat'] is not one of"),
    ("total-count-string", "total_count='x'"),
    ("total-count-negative", "total_count=-1"),
    ("total-count-bool", "total_count=True"),
])
def test_model_with_an_unusable_value_is_a_format_error(tmp_path, trained,
                                                        defect, expected):
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    if defect == "majority-child":
        _first_branch(data)["majority_child"] = "no such value"
    elif defect.endswith("-leaf"):
        tree, old, new = {"usage-leaf": ("usage_tree", USAGE_POSITIVE, "Discourse"),
                          "argument-leaf": ("argument_tree", "Arg2Part", "Arg2part")}[defect]
        leaves = [leaf for leaf in tree_json_leaves(data[tree]) if leaf["label"] == old]
        assert leaves
        for leaf in leaves:
            leaf["label"] = new
    elif defect.endswith("-feature"):
        tree, value = {"usage-feature": ("usage_tree", "self_category"),
                       "argument-feature": ("argument_tree", "no_such_feature"),
                       "list-feature": ("usage_tree", ["self_cat"])}[defect]
        assert data[tree]["kind"] == "branch"
        data[tree]["feature"] = value
    elif defect.startswith("total-count-"):
        value = {"total-count-string": "x", "total-count-negative": -1,
                 "total-count-bool": True}[defect]
        data["lexicon"]["entries"]["when"]["total_count"] = value
    else:
        value = {"count-string": "x", "count-null": None, "count-negative": -1,
                 "count-bool": True, "count-float": 2.0}[defect]
        data["lexicon"]["entries"]["when"]["sense_counts"]["Temporal.Synchrony"] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"model file '{path}' ")
    assert expected in str(excinfo.value)


def test_model_with_an_overlong_integer_is_a_format_error(tmp_path, trained):
    # Python refuses to read an int of more than 4,300 digits.
    _, _, model = trained
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    data["lexicon"]["entries"]["when"]["total_count"] = "HUGE"
    path.write_text(json.dumps(data).replace('"HUGE"', "9" * 5000))
    with pytest.raises(ModelFormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"model file '{path}' is not JSON: ")


def _leaf(label):
    return Leaf(label, {label: 1})


_VALID_MODEL = {
    "lexicon": ConnectiveLexicon({"when": ConnectiveStats(2, {"Temporal.Synchrony": 2})}),
    "usage_tree": Branch("self_cat", {"WHADVP": _leaf(USAGE_POSITIVE),
                                      "ADVP": _leaf(USAGE_NEGATIVE)}, "WHADVP"),
    "argument_tree": Branch("node_position", {"left": _leaf("Arg1Part"),
                                              "right": _leaf("Arg2Part")}, "right"),
}


def _when_lexicon(total_count, sense_counts):
    return ConnectiveLexicon({"when": ConnectiveStats(total_count, sense_counts)})


@pytest.mark.parametrize("field, value, expected", [
    pytest.param("lexicon", ConnectiveLexicon({"nowhere": ConnectiveStats(0, {})}),
                 "lexicon entry 'nowhere' has no senses", id="no-senses"),
    pytest.param("lexicon", _when_lexicon(1, {"S": "x"}), "sense_counts={'S': 'x'}",
                 id="sense-count-string"),
    pytest.param("lexicon", _when_lexicon(1, {"S": -1}), "sense_counts={'S': -1}",
                 id="sense-count-negative"),
    pytest.param("lexicon", _when_lexicon(1, {"S": True}), "sense_counts={'S': True}",
                 id="sense-count-bool"),
    pytest.param("lexicon", _when_lexicon(1, {"S": 1.0}), "sense_counts={'S': 1.0}",
                 id="sense-count-float"),
    pytest.param("lexicon", _when_lexicon(1, {"\ud800": 1}), "surrogates not allowed",
                 id="sense-surrogate"),
    pytest.param("lexicon", ConnectiveLexicon({"wh\ud800en": ConnectiveStats(1, {"S": 1})}),
                 "surrogates not allowed", id="key-surrogate"),
    pytest.param("lexicon", _when_lexicon("x", {"S": 1}), "total_count='x'",
                 id="total-count-string"),
    pytest.param("lexicon", _when_lexicon(-1, {"S": 1}), "total_count=-1",
                 id="total-count-negative"),
    pytest.param("lexicon", _when_lexicon(True, {"S": 1}), "total_count=True",
                 id="total-count-bool"),
    pytest.param("usage_tree", {"kind": "leaf", "label": USAGE_POSITIVE},
                 "is neither a Leaf nor a Branch", id="tree-node"),
    pytest.param("usage_tree", _leaf("Discourse"),
                 "leaf label 'Discourse' is not one of", id="usage-leaf"),
    pytest.param("argument_tree", _leaf("Arg3Part"),
                 "leaf label 'Arg3Part' is not one of", id="argument-leaf"),
    pytest.param("argument_tree",
                 Branch("node_position", {"left": _leaf("Arg1Part"),
                                          "right": _leaf("Arg3Part")}, "left"),
                 "leaf label 'Arg3Part' is not one of", id="argument-leaf-below-a-branch"),
    pytest.param("usage_tree",
                 Branch("self_cat", {"WHADVP": _leaf(USAGE_POSITIVE)}, "VP"),
                 "majority_child 'VP' is not a child of its branch", id="majority-child"),
    pytest.param("usage_tree",
                 Branch("self_category", {"WHADVP": _leaf(USAGE_POSITIVE)}, "WHADVP"),
                 "branch feature 'self_category' is not one of", id="usage-feature"),
    pytest.param("usage_tree",
                 Branch("node_position", {"left": _leaf(USAGE_POSITIVE)}, "left"),
                 "branch feature 'node_position' is not one of", id="usage-feature-of-a-node"),
    pytest.param("argument_tree",
                 Branch("no_such_feature", {"left": _leaf("Arg1Part")}, "left"),
                 "branch feature 'no_such_feature' is not one of", id="argument-feature"),
])
def test_parser_model_construction_checks_every_rule(field, value, expected):
    ParserModel(**_VALID_MODEL)
    with pytest.raises(ValueError) as excinfo:
        ParserModel(**{**_VALID_MODEL, field: value})
    assert expected in str(excinfo.value)
