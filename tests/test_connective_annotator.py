import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discoparse import (ConnectiveLexicon, Leaf, classify_usage,
                        exact_cover_chain, extract_connective_features,
                        find_candidates, load_parses, mine_lexicon, train)
from discoparse.connective_annotator import (CASE_INITIAL_UPPER, CASE_LOWER,
                                             CASE_MIXED, CASE_UPPER,
                                             USAGE_NEGATIVE, USAGE_POSITIVE,
                                             case_category)
from discoparse.connective_lexicon import ConnectiveStats
from discoparse.corpus_io import Document, Sentence, Token
from discoparse.decision_tree import Instance

from support import bruteforce_candidates, build_document_json


def _lexicon(*keys):
    return ConnectiveLexicon({key: ConnectiveStats(1, {"S": 1}) for key in keys})


def _single_doc(bracketings, doc_id="d"):
    entry, raw = build_document_json(bracketings)
    docs = load_parses(json.dumps({doc_id: entry}).encode(), {doc_id: raw})
    return docs[0]


def test_find_single_candidate(reference_document):
    candidates = find_candidates(reference_document, _lexicon("when"))
    assert len(candidates) == 1
    cand = candidates[0]
    assert (cand.sent_index, cand.token_begin, cand.token_end) == (0, 5, 6)
    assert cand.surface == "when"


def test_find_nothing_without_lexicon_words(reference_document):
    assert find_candidates(reference_document, _lexicon("nevermore")) == []


def test_longest_match_wins():
    doc = _single_doc(["(S (IN as) (RB soon) (IN as) (JJ possible))"])
    lexicon = _lexicon("as soon as", "as")
    candidates = find_candidates(doc, lexicon)
    assert [(c.token_begin, c.token_end, c.surface) for c in candidates] == \
        [(0, 3, "as soon as")]

    # Brute force: enumerate every matching span, then take non-overlapping
    # spans left to right preferring the longest at each start.
    tokens = [t.surface.lower() for t in doc.sentences[0].tokens]
    spans = [(i, j) for i in range(len(tokens))
             for j in range(i + 1, len(tokens) + 1)
             if " ".join(tokens[i:j]) in lexicon.entries]
    picked = []
    cursor = 0
    while cursor < len(tokens):
        at_cursor = [s for s in spans if s[0] == cursor]
        if at_cursor:
            best = max(at_cursor, key=lambda s: s[1])
            picked.append(best)
            cursor = best[1]
        else:
            cursor += 1
    assert [(c.token_begin, c.token_end) for c in candidates] == picked


def test_matching_is_token_aligned():
    # "so" must not match inside "also".
    doc = _single_doc(["(S (NP (NN trade)) (VP (RB also) (VBD slowed)))"])
    assert find_candidates(doc, _lexicon("so")) == []


def test_candidates_do_not_cross_sentences():
    doc = _single_doc(["(S (NN trade) (VB slowed) (RB as))",
                       "(S (RB soon) (IN as) (NN volume) (VBD fell))"])
    assert find_candidates(doc, _lexicon("as soon as")) == []


def test_candidates_sorted_and_disjoint(corpus_documents, corpus_gold):
    lexicon = mine_lexicon(corpus_gold, corpus_documents)
    for doc in corpus_documents.values():
        candidates = find_candidates(doc, lexicon)
        keys = [(c.sent_index, c.token_begin) for c in candidates]
        assert keys == sorted(keys)
        for a, b in zip(candidates, candidates[1:]):
            if a.sent_index == b.sent_index:
                assert a.token_end <= b.token_begin
        for c in candidates:
            assert c.surface in lexicon.entries


# Three words, so that keys often share a first word and sentences often
# hold them.
_WORDS = ("as", "soon", "so")
# Leaves are split on whitespace, so a surface holds none; case is mixed.
_surfaces = st.one_of(
    st.sampled_from(_WORDS), st.sampled_from(_WORDS).map(str.upper),
    st.sampled_from(_WORDS).map(str.title),
    st.text(st.characters(blacklist_categories=["Zs", "Zl", "Zp", "Cc"]),
            min_size=1, max_size=3))
_phrases = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4)
# Keys may run longer than short sentences, and may hold upper case or the
# stray spaces a model file can carry.
_keys = st.one_of(
    _phrases.map(" ".join), _phrases.map(" ".join),
    _phrases.flatmap(lambda words: st.sampled_from(
        [" ".join(words).title(), " " + " ".join(words), " ".join(words) + " ",
         "  ".join(words)])),
    st.text(max_size=6))


def _document(sentences):
    built, doc_index = [], 0
    for sent_index, surfaces in enumerate(sentences):
        tokens = []
        for i, surface in enumerate(surfaces):
            tokens.append(Token(surface, 0, 0, "NN", doc_index, sent_index, i))
            doc_index += 1
        built.append(Sentence(tuple(tokens), None, sent_index))
    return Document("d", tuple(built))


@settings(max_examples=300, deadline=None, database=None)
@given(keys=st.lists(_keys, max_size=8),
       sentences=st.lists(st.lists(_surfaces, min_size=1, max_size=8),
                          min_size=1, max_size=3))
# The first sentence ends on "as", where a three-word slice runs past its end
# and spells the key "as".
@example(keys=["as", "as soon as", "as long as"],
         sentences=[["As", "soon", "as", "AS", "long", "as", "as"], ["as", "soon"]])
@example(keys=[], sentences=[["as"]])
def test_find_candidates_matches_bruteforce(keys, sentences):
    document, lexicon = _document(sentences), _lexicon(*keys)
    assert find_candidates(document, lexicon) == bruteforce_candidates(document, lexicon)


def _features(cand, sentence):
    chain = exact_cover_chain(sentence.tree, (cand.token_begin, cand.token_end))
    return extract_connective_features(cand, sentence, chain)


def test_reference_feature_vector(reference_document):
    cand, = find_candidates(reference_document, _lexicon("when"))
    features = _features(cand, reference_document.sentences[0])
    assert features["conn_lowercase"] == "when"
    assert features["case_category"] == CASE_LOWER
    assert features["self_cat"] == "WRB"
    assert features["self_cat_parent"] == "WHADVP"
    assert features["self_cat_left_sibling"] == "null"
    assert features["self_cat_right_sibling"] == "S"


def test_feature_extraction_is_pure(reference_document):
    cand, = find_candidates(reference_document, _lexicon("when"))
    sentence = reference_document.sentences[0]
    assert _features(cand, sentence) == \
        _features(cand, sentence)


@pytest.mark.parametrize("surface,expected", [
    ("when", CASE_LOWER),
    ("But", CASE_INITIAL_UPPER),
    ("SO", CASE_UPPER),
    ("McCoy", CASE_MIXED),
    ("as soon as", CASE_LOWER),
    ("In addition", CASE_INITIAL_UPPER),
])
def test_case_categories(surface, expected):
    assert case_category(surface) == expected


def test_case_category_is_total():
    rng = random.Random(13)
    categories = {CASE_LOWER, CASE_UPPER, CASE_INITIAL_UPPER, CASE_MIXED}
    for _ in range(300):
        text = "".join(rng.choice(string.ascii_letters + " .'")
                       for _ in range(rng.randint(1, 12)))
        assert case_category(text) in categories


def test_classify_usage_single_leaf(reference_document):
    cand, = find_candidates(reference_document, _lexicon("when"))
    features = _features(cand, reference_document.sentences[0])
    assert classify_usage(features, Leaf(USAGE_POSITIVE, {USAGE_POSITIVE: 1}))
    assert not classify_usage(features, Leaf(USAGE_NEGATIVE, {USAGE_NEGATIVE: 1}))


def test_classify_usage_with_separating_tree(reference_document):
    # A right sibling S perfectly predicts discourse usage in this fixture.
    cand, = find_candidates(reference_document, _lexicon("when"))
    features = _features(cand, reference_document.sentences[0])
    base = dict(features)
    negative = dict(base, self_cat_right_sibling="NP")
    dataset = [Instance(base, USAGE_POSITIVE),
               Instance(dict(base), USAGE_POSITIVE),
               Instance(negative, USAGE_NEGATIVE),
               Instance(dict(negative), USAGE_NEGATIVE)]
    tree = train(dataset, min_leaf=1)
    assert classify_usage(features, tree)


def test_unseen_connective_value_falls_through_majority(reference_document):
    cand, = find_candidates(reference_document, _lexicon("when"))
    features = _features(cand, reference_document.sentences[0])
    base = dict(features)
    dataset = ([Instance(dict(base, conn_lowercase="until"), USAGE_POSITIVE)] * 3
               + [Instance(dict(base, conn_lowercase="so"), USAGE_NEGATIVE)] * 2)
    tree = train(dataset, min_leaf=1)
    # "when" was never seen; the majority child carries the positives.
    assert classify_usage(features, tree)
