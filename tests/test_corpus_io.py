import json
import random
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discoparse import (export_relations, iter_parses, load_parses,
                        load_relations, mine_lexicon, score)
from discoparse.corpus_io import PTB_ESCAPES, DiscourseRelation
from discoparse.errors import (AlignmentError, ExportError, InputFormatError,
                               MissingDocumentError)

import fixture_corpus
from support import (DEEP_ARRAY, build_document_json, random_tree_text,
                     reference_parses, walk)


def test_load_reference_document(reference_document):
    doc = reference_document
    assert len(doc.sentences) == 1
    sentence = doc.sentences[0]
    assert len(sentence.tokens) == 11
    leaves = [n for n in walk(sentence.tree) if not n.children]
    assert leaves[5].label == "when"
    assert leaves[5].parent.label == "WRB"
    assert sentence.tokens[5].surface == "when"
    assert sentence.tokens[5].pos == "WRB"


def test_documents_and_sentences_are_frozen(reference_document):
    sentence = reference_document.sentences[0]
    with pytest.raises(FrozenInstanceError):
        reference_document.sentences = ()
    with pytest.raises(FrozenInstanceError):
        sentence.tree = None
    assert reference_document.tokens is reference_document.tokens
    assert reference_document.tokens == sentence.tokens


def test_tokens_are_slotted_and_frozen(reference_document):
    token = reference_document.tokens[0]
    assert not hasattr(token, "__dict__")
    with pytest.raises(FrozenInstanceError):
        token.surface = "other"


def test_load_empty_inputs():
    assert load_parses(b"{}", {}) == []
    assert load_parses(b"", {}) == []


def test_token_alignment_exhaustive(corpus_documents):
    # Every token slice of the raw text must reproduce the surface, and the
    # inter-token gaps plus surfaces must rebuild the raw text exactly.
    _, raw_texts = fixture_corpus.corpus_parses_and_raw()
    for doc in corpus_documents.values():
        raw_text = raw_texts[doc.doc_id]
        rebuilt = []
        cursor = 0
        for token in doc.tokens:
            surface = PTB_ESCAPES.get(token.surface, token.surface)
            assert raw_text[token.char_begin:token.char_end] == surface
            rebuilt.append(raw_text[cursor:token.char_begin])
            rebuilt.append(surface)
            cursor = token.char_end
        rebuilt.append(raw_text[cursor:])
        assert "".join(rebuilt) == raw_text
        doc_indices = [t.doc_index for t in doc.tokens]
        assert doc_indices == list(range(len(doc_indices)))
        for sentence in doc.sentences:
            leaves = [n for n in walk(sentence.tree) if not n.children]
            assert len(leaves) == len(sentence.tokens)


def test_doc_span_matches_token_lookup(corpus_documents):
    for doc in corpus_documents.values():
        for sentence in doc.sentences:
            count = len(sentence.tokens)
            for begin in range(count + 1):
                for end in range(begin, count + 1):
                    assert list(sentence.doc_span(begin, end)) == [
                        token.doc_index for token in sentence.tokens[begin:end]]


def test_bracket_escapes_align_to_raw_text():
    entry = {"sentences": [{
        "parsetree": "(S (NP (-LRB- -LRB-) (NN fee) (-RRB- -RRB-)))",
        "words": [
            ["-LRB-", {"CharacterOffsetBegin": 0, "CharacterOffsetEnd": 1,
                       "PartOfSpeech": "-LRB-"}],
            ["fee", {"CharacterOffsetBegin": 2, "CharacterOffsetEnd": 5,
                     "PartOfSpeech": "NN"}],
            ["-RRB-", {"CharacterOffsetBegin": 6, "CharacterOffsetEnd": 7,
                       "PartOfSpeech": "-RRB-"}],
        ]}]}
    raw_text = "( fee )"
    docs = load_parses(json.dumps({"d": entry}).encode(), {"d": raw_text})
    token = docs[0].sentences[0].tokens[0]
    assert token.surface == "-LRB-"
    assert raw_text[token.char_begin:token.char_end] == PTB_ESCAPES[token.surface]


def test_unicode_offsets_count_code_points():
    entry, raw = build_document_json(["(S (NN café) (VBZ ouvre))"])
    docs = load_parses(json.dumps({"d": entry}).encode(), {"d": raw})
    token = docs[0].sentences[0].tokens[0]
    assert token.char_end - token.char_begin == 4
    assert raw[token.char_begin:token.char_end] == "café"
    rel = DiscourseRelation("d", 0, "Explicit", (0,), (1,), (), ("S.A",))
    data = export_relations([rel], {"d": docs[0]})
    assert "café" in data.decode("utf-8")
    assert load_relations(data) == [rel]


def test_malformed_parses_json():
    with pytest.raises(InputFormatError):
        load_parses(b"{not json", {})


@pytest.mark.parametrize("data", [b"{not json", b"[]"], ids=["malformed", "list"])
def test_iter_parses_checks_the_json_when_called(data):
    with pytest.raises(InputFormatError):
        iter_parses(data, {})


def test_iter_parses_reports_a_document_error_when_it_is_reached():
    good, raw = build_document_json(["(S (NN dog))"])
    documents = iter_parses(json.dumps({"a": good, "b": good, "c": good}),
                            {"a": raw, "c": raw})
    assert next(documents).doc_id == "a"
    with pytest.raises(MissingDocumentError) as excinfo:
        next(documents)
    assert "'b'" in str(excinfo.value)


@pytest.mark.parametrize("tail, message", [
    (', "a": ENTRY}', "repeats document id 'a'"),
    ("} x", "Extra data"),
    (', "c": {"sentences": [', "malformed parses JSON"),
    (", 7: ENTRY}", "Expecting property name"),
], ids=["duplicate-doc-id", "trailing-data", "truncated", "non-string-key"])
def test_iter_parses_reports_a_json_error_when_it_is_reached(tail, message):
    good, raw = build_document_json(["(S (NN dog))"])
    entry = json.dumps(good)
    text = f'{{"a": {entry}, "b": {entry}' + tail.replace("ENTRY", entry)
    documents = iter_parses(text, {"a": raw, "b": raw, "c": raw})
    assert [next(documents).doc_id, next(documents).doc_id] == ["a", "b"]
    with pytest.raises(InputFormatError) as excinfo:
        next(documents)
    assert message in str(excinfo.value)


def _random_corpus(rng, doc_ids):
    """Parses JSON object and raw texts for random documents of one to
    three sentences each."""
    parses, raw_texts = {}, {}
    for doc_id in doc_ids:
        bracketings = [random_tree_text(rng, max_depth=4)
                       for _ in range(rng.randint(1, 3))]
        parses[doc_id], raw_texts[doc_id] = build_document_json(bracketings)
    return parses, raw_texts


@settings(max_examples=60, deadline=None, database=None)
@given(doc_ids=st.lists(st.text(alphabet=st.characters(blacklist_categories=["Cs"]),
                                 max_size=6), unique=True, max_size=5),
       rng=st.randoms(use_true_random=False),
       indent=st.sampled_from([None, 0, 2, "\t", " \r\n"]),
       separators=st.sampled_from([(",", ":"), (", ", ": "), (" ,\r\n", "\t: ")]),
       ensure_ascii=st.booleans())
def test_iter_parses_agrees_with_json_loads(doc_ids, rng, indent, separators,
                                            ensure_ascii):
    parses, raw_texts = _random_corpus(rng, doc_ids)
    text = json.dumps(parses, indent=indent, separators=separators,
                      ensure_ascii=ensure_ascii)
    streamed = [(document.doc_id,
                 [(t.surface, t.char_begin, t.char_end, t.pos) for t in document.tokens],
                 [sentence.tree.to_bracketing() for sentence in document.sentences])
                for document in iter_parses(text, raw_texts)]
    assert streamed == reference_parses(text)


def test_iter_parses_never_holds_the_whole_decoded_file():
    parses, raw_texts = _random_corpus(random.Random(7), [f"d{i:03}" for i in range(200)])
    text = json.dumps(parses)
    del parses
    tracemalloc.start()
    try:
        json.loads(text)
        whole_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for document in iter_parses(text, raw_texts):
            del document
        streamed_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streamed_peak < whole_peak / 4, (streamed_peak, whole_peak)


@pytest.mark.parametrize("position", ["first", "second"])
def test_iter_parses_rejects_deeply_nested_json(position):
    good, raw = build_document_json(["(S (NN dog))"])
    if position == "first":
        with pytest.raises(InputFormatError) as excinfo:
            iter_parses(f'{{"a": {DEEP_ARRAY}}}', {"a": raw})
    else:
        documents = iter_parses(f'{{"a": {json.dumps(good)}, "b": {DEEP_ARRAY}}}',
                                {"a": raw, "b": raw})
        assert next(documents).doc_id == "a"
        with pytest.raises(InputFormatError) as excinfo:
            next(documents)
    assert "malformed parses JSON" in str(excinfo.value)


def test_leaf_word_count_mismatch():
    entry, raw = build_document_json(["(S (NN dog) (VB runs))"])
    entry["sentences"][0]["words"] = entry["sentences"][0]["words"][:1]
    with pytest.raises(AlignmentError) as excinfo:
        load_parses(json.dumps({"d": entry}).encode(), {"d": raw})
    assert str(excinfo.value) == \
        "document 'd' sentence 0: parse tree has 2 leaves for 1 words"


def test_leaf_surface_mismatch():
    entry, raw = build_document_json(["(S (NN dog) (VB runs))", "(S (NN dog))"])
    entry["sentences"][1]["words"][0][0] = "cat"
    with pytest.raises(AlignmentError) as excinfo:
        load_parses(json.dumps({"d": entry}).encode(), {"d": raw + "cat"})
    assert str(excinfo.value) == \
        "document 'd' sentence 1: leaf 'dog' does not match word 'cat' at position 0"


@pytest.mark.parametrize("sentence, word, begin", [(0, 1, 0), (1, 0, 2), (1, 0, 0)],
                         ids=["within-sentence", "across-sentences", "same-as-first"])
def test_word_offsets_increase_through_the_document(sentence, word, begin):
    entry, raw = build_document_json(["(S (NN dog) (VB runs))", "(S (NN dog))"])
    offsets = entry["sentences"][sentence]["words"][word][1]
    offsets["CharacterOffsetBegin"] = begin
    offsets["CharacterOffsetEnd"] = begin + 3
    with pytest.raises(InputFormatError) as excinfo:
        load_parses(json.dumps({"d": entry}).encode(), {"d": raw})
    assert str(excinfo.value) == \
        f"document 'd' sentence {sentence}: word {word} is not ordered by character offset"


def test_missing_raw_text():
    entry, _ = build_document_json(["(S (NN dog))"])
    with pytest.raises(MissingDocumentError) as excinfo:
        load_parses(json.dumps({"d": entry}).encode(), {})
    assert "'d'" in str(excinfo.value)


def test_dependency_parses_are_ignored():
    entry, raw = build_document_json(["(S (NN dog))"])
    entry["sentences"][0]["dependencies"] = [["root", "ROOT-0", "dog-1"]]
    docs = load_parses(json.dumps({"d": entry}).encode(), {"d": raw})
    assert len(docs[0].sentences[0].tokens) == 1


def test_load_relations_single_line():
    line = json.dumps({
        "DocID": "ex01", "ID": 0, "Type": "Explicit",
        "Sense": ["Contingency.Condition"],
        "Connective": {"TokenList": [5]},
        "Arg1": {"TokenList": [0, 1, 2, 3, 4]},
        "Arg2": {"TokenList": [6, 7, 8, 9, 10]},
    })
    rel, = load_relations(line.encode())
    assert rel.doc_id == "ex01"
    assert rel.relation_type == "Explicit"
    assert rel.connective_tokens == (5,)
    assert rel.arg1_tokens == (0, 1, 2, 3, 4)
    assert rel.arg2_tokens == (6, 7, 8, 9, 10)
    assert rel.senses == ("Contingency.Condition",)


def test_load_relations_five_tuple_token_list():
    line = json.dumps({
        "DocID": "d", "ID": 3, "Type": "Implicit", "Sense": ["Expansion"],
        "Connective": {"TokenList": []},
        "Arg1": {"TokenList": [[0, 3, 7, 1, 0], [4, 9, 8, 1, 1]]},
        "Arg2": {"TokenList": [[10, 12, 9, 1, 2]]},
    })
    rel, = load_relations(line.encode())
    assert rel.arg1_tokens == (7, 8)
    assert rel.arg2_tokens == (9,)


@pytest.mark.parametrize("sense, loaded", [
    ("\ud800", None), ("A\udfffB", None), ("\ud83d\ude00", "\U0001f600"),
    ("\\ud800", "\\ud800")], ids=["high", "low", "pair", "escaped-backslash"])
def test_load_relations_refuses_only_lone_surrogates(sense, loaded):
    line = json.dumps({"DocID": "d", "ID": 0, "Type": "Explicit", "Sense": [sense],
                       "Connective": {"TokenList": [0]},
                       "Arg1": {"TokenList": [1]}, "Arg2": {"TokenList": [2]}})
    data = f"{line}\n{line}\n".encode()
    if loaded is not None:
        assert [rel.senses for rel in load_relations(data)] == [(loaded,)] * 2
        return
    with pytest.raises(InputFormatError) as excinfo:
        load_relations(data)
    assert str(excinfo.value).startswith("relations file line 1 holds a lone surrogate '\\ud")


def test_iter_parses_refuses_a_lone_surrogate_when_it_is_reached():
    entry, raw = build_document_json(["(S (NN dog))"])
    spoiled = json.loads(json.dumps(entry))
    spoiled["sentences"][0]["words"][0][1]["Linkers"] = ["\udc00"]
    parses = json.dumps({"good": entry, "bad": spoiled}).encode()
    documents = iter_parses(parses, {"good": raw, "bad": raw})
    assert next(documents).doc_id == "good"
    with pytest.raises(InputFormatError,
                       match=r"^parses file document 'bad' holds a lone surrogate '\\udc00'$"):
        next(documents)


def test_str_input_holding_a_surrogate_code_point_is_refused():
    relation = {"DocID": "d", "ID": 0, "Type": "Explicit", "Sense": ["\ud800"],
                "Connective": {"TokenList": [0]},
                "Arg1": {"TokenList": [1]}, "Arg2": {"TokenList": [2]}}
    with pytest.raises(InputFormatError,
                       match=r"^relations file line 1 holds a lone surrogate '\\ud800'$"):
        load_relations(json.dumps(relation, ensure_ascii=False))
    entry, raw = build_document_json(["(S (NN dog))"])
    entry["sentences"][0]["words"][0][0] = "\ud800"
    with pytest.raises(InputFormatError,
                       match=r"^parses file document 'd' holds a lone surrogate '\\ud800'$"):
        iter_parses(json.dumps({"d": entry}, ensure_ascii=False), {"d": raw})


def test_load_relations_empty_stream():
    assert load_relations(b"") == []


def test_load_relations_bad_line_numbers():
    good = json.dumps({"DocID": "d", "ID": 0, "Type": "Explicit", "Sense": ["x"],
                       "Connective": {"TokenList": [0]},
                       "Arg1": {"TokenList": [1]}, "Arg2": {"TokenList": [2]}})
    with pytest.raises(InputFormatError) as excinfo:
        load_relations((good + "\n{broken\n").encode())
    assert "line 2" in str(excinfo.value)


def test_load_relations_unknown_type():
    line = json.dumps({"DocID": "d", "ID": 0, "Type": "Nope", "Sense": ["x"],
                       "Connective": {"TokenList": []},
                       "Arg1": {"TokenList": [0]}, "Arg2": {"TokenList": [1]}})
    with pytest.raises(InputFormatError) as excinfo:
        load_relations(line.encode())
    assert "Nope" in str(excinfo.value)


def test_load_relations_infinite_id():
    # Python's json module reads the non-standard literal Infinity.
    line = ('{"DocID": "d", "ID": Infinity, "Type": "Explicit", "Sense": ["x"], '
            '"Connective": {"TokenList": [0]}, "Arg1": {"TokenList": [1]}, '
            '"Arg2": {"TokenList": [2]}}')
    with pytest.raises(InputFormatError) as excinfo:
        load_relations(line.encode())
    assert "line 1" in str(excinfo.value)


@pytest.mark.parametrize("relation_id", [1.5, True, False, "7"])
def test_load_relations_non_integer_id(relation_id):
    # int() would read these as 1, 1, 0 and 7.
    line = json.dumps({"DocID": "d", "ID": relation_id, "Type": "Explicit",
                       "Sense": ["x"], "Connective": {"TokenList": [0]},
                       "Arg1": {"TokenList": [1]}, "Arg2": {"TokenList": [2]}})
    with pytest.raises(InputFormatError) as excinfo:
        load_relations(line.encode())
    assert "ID must be an integer" in str(excinfo.value)


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")],
                         ids=["arrays", "objects"])
def test_load_relations_rejects_deeply_nested_json(opening, closing):
    good = json.dumps({"DocID": "d", "ID": 0, "Type": "Explicit", "Sense": ["x"],
                       "Connective": {"TokenList": [0]},
                       "Arg1": {"TokenList": [1]}, "Arg2": {"TokenList": [2]}})
    deep = opening * 5000 + closing * 5000
    with pytest.raises(InputFormatError) as excinfo:
        load_relations(f"{good}\n{deep}\n".encode())
    assert "line 2: malformed JSON" in str(excinfo.value)


def test_export_reference_relation(reference_document):
    ref = fixture_corpus.REFERENCE_RELATION
    rel = DiscourseRelation("ex01", 0, "Explicit", ref["connective"],
                            ref["arg1"], ref["arg2"], (ref["sense"],))
    data = export_relations([rel], {"ex01": reference_document})
    obj = json.loads(data.decode("utf-8"))
    assert obj["Arg2"]["RawText"] == "the market is under stress"
    assert obj["Arg1"]["RawText"] == "We would stop index arbitrage"
    assert obj["Connective"]["RawText"] == "when"
    assert obj["Sense"] == ["Contingency.Condition"]


def test_export_empty():
    assert export_relations([], {}) == b""


def test_relations_round_trip(corpus_documents, corpus_gold):
    data = export_relations(corpus_gold, corpus_documents)
    assert load_relations(data) == corpus_gold
    assert export_relations(corpus_gold, corpus_documents) == data


# Characters that str.splitlines treats as line ends. JSON escapes those
# below U+0020; export_relations writes U+0085, U+2028 and U+2029 raw.
_LINE_ENDS = "\r\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_awkward_text = st.text(st.one_of(st.sampled_from(_LINE_ENDS),
                                  st.characters(blacklist_categories=["Cs"])),
                        min_size=1, max_size=8)


@settings(max_examples=60, deadline=None, database=None)
@given(doc_ids=st.lists(_awkward_text, min_size=1, max_size=3, unique=True),
       senses=st.lists(st.lists(_awkward_text, min_size=1, max_size=2),
                       min_size=1, max_size=4),
       conll_tokenlist=st.booleans())
@example(doc_ids=["d\u2029"], senses=[["S\u2028A"], ["\x85"]], conll_tokenlist=False)
def test_relations_round_trip_through_unicode_line_ends(doc_ids, senses, conll_tokenlist):
    document = fixture_corpus.reference_document()
    relations = [DiscourseRelation(doc_ids[i % len(doc_ids)], i, "Explicit",
                                   (5,), (0, 1), (6, 7), tuple(rel_senses))
                 for i, rel_senses in enumerate(senses)]
    data = export_relations(relations, dict.fromkeys(doc_ids, document),
                            conll_tokenlist)
    assert load_relations(data) == relations
    assert load_relations(data.replace(b"\n", b"\r\n")) == relations


def test_relations_round_trip_conll_tokenlist(corpus_documents, corpus_gold):
    data = export_relations(corpus_gold, corpus_documents, conll_tokenlist=True)
    # Document index -> (token, sentence index, index in the sentence), by
    # enumerating the sentences.
    positions = {doc_id: [(token, sent, i) for sent, sentence in enumerate(document.sentences)
                          for i, token in enumerate(sentence.tokens)]
                 for doc_id, document in corpus_documents.items()}
    lines = [json.loads(line) for line in data.decode().splitlines()]
    assert len(lines) == len(corpus_gold)
    for obj, rel in zip(lines, corpus_gold):
        for name, indices in (("Connective", rel.connective_tokens),
                              ("Arg1", rel.arg1_tokens), ("Arg2", rel.arg2_tokens)):
            expected = [[token.char_begin, token.char_end, index, sent, i]
                        for index in indices
                        for token, sent, i in [positions[rel.doc_id][index]]]
            assert obj[name]["TokenList"] == expected
    assert any(entry[3] for obj in lines for entry in obj["Arg2"]["TokenList"])
    assert load_relations(data) == corpus_gold


def test_shared_task_file_shape_end_to_end():
    # Mirrors the shared-task layout byte for byte: unlabeled tree wrapper,
    # Linkers attributes, dependency arrays, 5-tuple gold TokenLists.
    parses = {"wsj_9999": {"sentences": [{
        "parsetree": "( (S (NP (NNS exports)) (VP (VBD rose) (SBAR (IN because) "
                     "(S (NP (NNS tariffs)) (VP (VBD fell))))) (. .)) )\n",
        "words": [
            ["exports", {"CharacterOffsetBegin": 0, "CharacterOffsetEnd": 7,
                         "Linkers": ["arg1_14890"], "PartOfSpeech": "NNS"}],
            ["rose", {"CharacterOffsetBegin": 8, "CharacterOffsetEnd": 12,
                      "Linkers": [], "PartOfSpeech": "VBD"}],
            ["because", {"CharacterOffsetBegin": 13, "CharacterOffsetEnd": 20,
                         "Linkers": ["conn_14890"], "PartOfSpeech": "IN"}],
            ["tariffs", {"CharacterOffsetBegin": 21, "CharacterOffsetEnd": 28,
                         "Linkers": ["arg2_14890"], "PartOfSpeech": "NNS"}],
            ["fell", {"CharacterOffsetBegin": 29, "CharacterOffsetEnd": 33,
                      "Linkers": ["arg2_14890"], "PartOfSpeech": "VBD"}],
            [".", {"CharacterOffsetBegin": 34, "CharacterOffsetEnd": 35,
                   "Linkers": [], "PartOfSpeech": "."}],
        ],
        "dependencies": [["nsubj", "rose-2", "exports-1"],
                         ["root", "ROOT-0", "rose-2"]],
    }]}}
    raw = {"wsj_9999": "exports rose because tariffs fell ."}
    doc, = load_parses(json.dumps(parses).encode(), raw)
    assert doc.sentences[0].tree.label == "ROOT"
    assert len(doc.sentences[0].tokens) == 6

    gold_line = json.dumps({
        "DocID": "wsj_9999", "ID": 14890, "Type": "Explicit",
        "Sense": ["Contingency.Cause.Reason"],
        "Connective": {"CharacterSpanList": [[13, 20]], "RawText": "because",
                       "TokenList": [[13, 20, 2, 0, 2]]},
        "Arg1": {"CharacterSpanList": [[0, 12]], "RawText": "exports rose",
                 "TokenList": [[0, 7, 0, 0, 0], [8, 12, 1, 0, 1]]},
        "Arg2": {"CharacterSpanList": [[21, 33]], "RawText": "tariffs fell",
                 "TokenList": [[21, 28, 3, 0, 3], [29, 33, 4, 0, 4]]},
    })
    rel, = load_relations(gold_line.encode())
    assert rel.connective_tokens == (2,)
    assert rel.arg1_tokens == (0, 1)
    assert rel.arg2_tokens == (3, 4)
    exported = export_relations([rel], {"wsj_9999": doc})
    assert load_relations(exported) == [rel]
    reexported = export_relations([rel], {"wsj_9999": doc}, conll_tokenlist=True)
    assert json.loads(reexported.decode())["Connective"]["TokenList"] == \
        [[13, 20, 2, 0, 2]]


def test_export_dangling_document(corpus_gold):
    with pytest.raises(ExportError):
        export_relations(corpus_gold[:1], {})


def test_export_out_of_range_index(reference_document):
    rel = DiscourseRelation("ex01", 0, "Explicit", (99,), (0,), (1,), ("x",))
    with pytest.raises(ExportError):
        export_relations([rel], {"ex01": reference_document})


# Substituted, one at a time, for every field of a valid input.
MUTANTS = [None, True, 0, -1, 1.5, "", "x", [], [1], {}, 10**9]


def _field_paths(value, prefix=()):
    """Key/index paths to every value nested in a JSON value, itself first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _field_paths(child, prefix + (key,))


def _substituted(value, path, new):
    """Copy of value with the field at path replaced by new."""
    if not path:
        return new
    head = path[0]
    clone = dict(value) if isinstance(value, dict) else list(value)
    clone[head] = _substituted(value[head], path[1:], new)
    return clone


def _mutation_failures(value, run):
    """(path, mutant, exception) for every one-field mutation of value
    on which run raises anything but an InputFormatError, the
    DiscoParseError that the CLI reports with exit code 2."""
    failures = []
    for path in _field_paths(value):
        for mutant in MUTANTS:
            try:
                run(_substituted(value, path, mutant))
            except InputFormatError:
                pass
            except Exception as exc:
                failures.append((path, mutant, repr(exc)))
    return failures


def test_one_field_mutations_of_a_document_are_input_errors():
    parses, raw = fixture_corpus.corpus_parses_and_raw()

    def run(document):
        load_parses(json.dumps({"fix01": document}).encode(), raw)

    failures = _mutation_failures(parses["fix01"], run)
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"


def test_one_field_mutations_of_a_gold_line_are_input_errors(
        corpus_documents, corpus_gold):
    lines = export_relations(corpus_gold, corpus_documents,
                             conll_tokenlist=True).decode().splitlines()
    gold = load_relations("\n".join(lines).encode())

    def run(first):
        relations = load_relations(
            "\n".join([json.dumps(first)] + lines[1:]).encode())
        score(gold, relations)
        score(relations, gold)
        mine_lexicon(relations, corpus_documents)

    failures = _mutation_failures(json.loads(lines[0]), run)
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"
