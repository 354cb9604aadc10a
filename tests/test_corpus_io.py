import json

import pytest

from discoparse import (export_relations, load_parses, load_relations,
                        mine_lexicon, score)
from discoparse.corpus_io import DiscourseRelation, normalize_ptb_escapes
from discoparse.errors import (AlignmentError, ExportError, InputFormatError,
                               MissingDocumentError)

import fixture_corpus
from support import build_document_json


def test_load_reference_document(reference_document):
    doc = reference_document
    assert len(doc.sentences) == 1
    sentence = doc.sentences[0]
    assert len(sentence.tokens) == 11
    leaves = sentence.tree.terminals()
    assert leaves[5].label == "when"
    assert leaves[5].parent.label == "WRB"
    assert sentence.tokens[5].surface == "when"
    assert sentence.tokens[5].pos == "WRB"


def test_load_empty_inputs():
    assert load_parses(b"{}", {}) == []
    assert load_parses(b"", {}) == []


def test_token_alignment_exhaustive(corpus_documents):
    # Every token slice of the raw text must reproduce the surface, and the
    # inter-token gaps plus surfaces must rebuild the raw text exactly.
    for doc in corpus_documents.values():
        rebuilt = []
        cursor = 0
        for token in doc.tokens:
            assert doc.raw_text[token.char_begin:token.char_end] == \
                normalize_ptb_escapes(token.surface)
            rebuilt.append(doc.raw_text[cursor:token.char_begin])
            rebuilt.append(normalize_ptb_escapes(token.surface))
            cursor = token.char_end
        rebuilt.append(doc.raw_text[cursor:])
        assert "".join(rebuilt) == doc.raw_text
        doc_indices = [t.doc_index for t in doc.tokens]
        assert doc_indices == list(range(len(doc_indices)))
        for sentence in doc.sentences:
            assert len(sentence.tree.terminals()) == len(sentence.tokens)


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
    docs = load_parses(json.dumps({"d": entry}).encode(), {"d": "( fee )"})
    token = docs[0].sentences[0].tokens[0]
    assert token.surface == "-LRB-"
    assert docs[0].raw_text[token.char_begin:token.char_end] == \
        normalize_ptb_escapes(token.surface)


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


def test_leaf_word_count_mismatch():
    entry, raw = build_document_json(["(S (NN dog) (VB runs))"])
    entry["sentences"][0]["words"] = entry["sentences"][0]["words"][:1]
    with pytest.raises(AlignmentError) as excinfo:
        load_parses(json.dumps({"d": entry}).encode(), {"d": raw})
    assert "sentence 0" in str(excinfo.value)


def test_leaf_surface_mismatch():
    entry, raw = build_document_json(["(S (NN dog))"])
    entry["sentences"][0]["words"][0][0] = "cat"
    with pytest.raises(AlignmentError):
        load_parses(json.dumps({"d": entry}).encode(), {"d": raw + "cat"})


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


def test_relations_round_trip_conll_tokenlist(corpus_documents, corpus_gold):
    data = export_relations(corpus_gold, corpus_documents, conll_tokenlist=True)
    first = json.loads(data.decode().splitlines()[0])
    entry = first["Connective"]["TokenList"][0]
    assert len(entry) == 5
    token = corpus_documents["fix01"].tokens[entry[2]]
    assert entry == [token.char_begin, token.char_end, token.doc_index,
                     token.sent_index, token.index_in_sentence]
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
