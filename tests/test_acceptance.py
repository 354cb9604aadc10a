"""Acceptance suite: one test per criterion, strict tolerances, one
pass/fail line per criterion on stdout (run with -v or -s to see them).
"""

import dataclasses
import json
import os
import random
import time

import pytest

from discoparse import (ConnectiveLexicon, Leaf, exact_cover_chain,
                        export_relations, extract_connective_features,
                        extract_node_features, find_candidates,
                        load_parses, load_relations, mine_lexicon,
                        parse_document, parse_ptb, path_to_root,
                        prune_candidates, score, train, train_model)
from discoparse.connective_annotator import USAGE_POSITIVE
from discoparse.connective_lexicon import ConnectiveStats
from discoparse.decision_tree import Branch, gain_ratio
from discoparse.pipeline import ParserModel

import fixture_corpus
from support import (bruteforce_prune, build_document_json, oracle_gain_ratio,
                     random_tree_text, walk)
from test_decision_tree import FEATURES, weather_instances


def _passed(name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_golden_connective_and_node_features():
    started = time.perf_counter()
    document = fixture_corpus.reference_document()
    sentence = document.sentences[0]
    lexicon = ConnectiveLexicon({"when": ConnectiveStats(1, {"X": 1})})
    candidate, = find_candidates(document, lexicon)

    chain = exact_cover_chain(sentence.tree,
                              (candidate.token_begin, candidate.token_end))
    conn = extract_connective_features(candidate, sentence, chain)
    assert conn["conn_lowercase"] == "when"
    assert conn["case_category"] == "all lowercase"
    assert conn["self_cat"] == "WRB"
    assert conn["self_cat_parent"] == "WHADVP"
    assert conn["self_cat_left_sibling"] == "null"
    assert conn["self_cat_right_sibling"] == "S"

    sbar = next(n for n in walk(sentence.tree) if n.label == "SBAR")
    clause = sbar.children[1]
    node = extract_node_features(clause, candidate, conn,
                                 path_to_root(chain[0]), len(chain) - 1)
    assert node["path_to_self_cat"] == "S ↑ SBAR ↓ WHADVP"
    assert node["node_context"] == "S-SBAR-WHADVP-null"
    _passed("golden connective and node features", started, 1.0)


def test_pruning_oracle():
    started = time.perf_counter()
    rng = random.Random(20150526)
    mismatches = 0
    for _ in range(200):
        tree = parse_ptb(random_tree_text(rng, max_depth=8, max_branch=4))
        preterminals = [n for n in walk(tree)
                        if not n.is_terminal and n.children[0].is_terminal]
        anchor = rng.choice(preterminals)
        ours = {id(n) for n in prune_candidates(anchor)}
        oracle = {id(n) for n in bruteforce_prune(tree, anchor)}
        if ours != oracle:
            mismatches += 1
    assert mismatches == 0

    document = fixture_corpus.reference_document()
    tree = document.sentences[0].tree
    by_label = {}
    for n in walk(tree):
        if not n.is_terminal:
            by_label.setdefault(n.label, []).append(n)
    wrb = by_label["WRB"][0]
    pruned = prune_candidates(wrb)
    expected = {
        id(by_label["SBAR"][0].children[1]),  # the subordinate clause
        id(by_label["VP"][1].children[1]),    # the object NP
        id(by_label["VB"][0]),
        id(by_label["MD"][0]),
        id(tree.children[0]),                 # the subject NP
    }
    assert {id(n) for n in pruned} == expected
    _passed("pruning equals brute-force definition on 200 random trees",
            started, 5.0)


def test_decision_tree_oracle():
    started = time.perf_counter()
    dataset = weather_instances()
    for feature in FEATURES:
        ours = gain_ratio(dataset, feature)
        reference = oracle_gain_ratio(dataset, feature)
        assert abs(ours - reference) < 1e-9, feature
    oracle_best = min(FEATURES,
                      key=lambda f: (-oracle_gain_ratio(dataset, f), f))
    tree = train(dataset, min_leaf=1)
    assert isinstance(tree, Branch)
    assert tree.feature == oracle_best
    _passed("gain ratios and root split match the entropy oracle", started, 1.0)


def test_memorization_round_trip():
    started = time.perf_counter()
    documents = fixture_corpus.corpus_documents()
    gold = fixture_corpus.corpus_gold()
    assert len(documents) == 5
    assert len(gold) == 12
    model = train_model(documents, gold, min_leaf=1)
    predicted = []
    for doc in documents.values():
        predicted.extend(parse_document(doc, model))
    scores = score(gold, predicted)
    assert scores["relation"].f1 == 1.0
    assert scores["connective"].f1 == 1.0
    assert scores["arg1"].f1 == 1.0
    assert scores["arg2"].f1 == 1.0
    _passed("train/reparse/score on the fixture corpus is exact", started, 5.0)


def test_previous_sentence_fallback_and_drop():
    started = time.perf_counter()
    lexicon = ConnectiveLexicon({"however": ConnectiveStats(
        1, {"Comparison.Contrast": 1})})
    model = ParserModel(lexicon,
                        usage_tree=Leaf(USAGE_POSITIVE, {USAGE_POSITIVE: 1}),
                        argument_tree=Leaf("None", {"None": 1}))
    two = ["(S (NP (NNS rates)) (VP (VBD rose)) (. .))",
           "(S (ADVP (RB however)) (, ,) (NP (NNS bonds)) (VP (VBD fell)) (. .))"]
    entry, raw = build_document_json(two)
    doc, = load_parses(json.dumps({"two": entry}).encode(), {"two": raw})
    relation, = parse_document(doc, model)
    previous_sentence = {t.doc_index for t in doc.sentences[0].tokens}
    assert set(relation.arg1_tokens) == previous_sentence

    entry, raw = build_document_json([two[1]])
    doc, = load_parses(json.dumps({"one": entry}).encode(), {"one": raw})
    assert parse_document(doc, model) == []
    _passed("previous-sentence fallback and first-sentence drop", started, 1.0)


def test_relations_io_round_trip():
    started = time.perf_counter()
    documents = fixture_corpus.corpus_documents()
    gold = fixture_corpus.corpus_gold()
    assert len(gold) == 12
    exported = export_relations(gold, documents)
    assert load_relations(exported) == gold
    assert export_relations(gold, documents) == exported  # byte deterministic
    _passed("relations survive export/load and export is byte-stable",
            started, 1.0)


def test_scorer_properties():
    started = time.perf_counter()
    gold = fixture_corpus.corpus_gold()
    for prf in score(gold, gold).values():
        assert prf.precision == 1.0 and prf.recall == 1.0 and prf.f1 == 1.0
    for prf in score(gold, []).values():
        assert prf.precision == 0.0 and prf.recall == 0.0 and prf.f1 == 0.0
    two = gold[:2]
    predicted = [two[0], dataclasses.replace(two[1], arg1_tokens=(99,))]
    relation = score(two, predicted)["relation"]
    assert (relation.precision, relation.recall, relation.f1) == (0.5, 0.5, 0.5)
    _passed("scorer identity, zero and half-credit conventions", started, 1.0)


def _find_file(directory, names):
    for name in names:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    return None


CONLL_DIR = os.environ.get("CONLL2015_DIR", "")


@pytest.mark.skipif(not CONLL_DIR, reason="CONLL2015_DIR not set; licensed "
                    "shared-task data is required for corpus mode")
def test_corpus_mode():
    started = time.perf_counter()
    parses_names = ("parses.json", "pdtb-parses.json")
    relations_names = ("relations.json", "relations.jsonl", "pdtb-data.json")

    def load_split(split):
        directory = os.path.join(CONLL_DIR, split)
        parses_path = _find_file(directory, parses_names)
        relations_path = _find_file(directory, relations_names)
        raw_dir = os.path.join(directory, "raw")
        if not (parses_path and relations_path and os.path.isdir(raw_dir)):
            pytest.skip(f"incomplete corpus layout under {directory}")
        raw = {}
        for name in os.listdir(raw_dir):
            with open(os.path.join(raw_dir, name), encoding="utf-8") as handle:
                raw[name] = handle.read()
        with open(parses_path, "rb") as handle:
            documents = {d.doc_id: d for d in load_parses(handle, raw)}
        with open(relations_path, "rb") as handle:
            gold = load_relations(handle)
        return documents, gold

    train_docs, train_gold = load_split("train")
    dev_docs, dev_gold = load_split("dev")
    lexicon = mine_lexicon(train_gold, train_docs)
    assert 80 <= len(lexicon.entries) <= 130
    model = train_model(train_docs, train_gold)
    predicted = []
    for doc in dev_docs.values():
        predicted.extend(parse_document(doc, model))
    scores = score(dev_gold, predicted)
    assert scores["connective"].f1 >= 0.80
    assert abs(scores["relation"].f1 - 0.2732) <= 0.08
    _passed("corpus mode on the shared-task data", started, 1800.0)
