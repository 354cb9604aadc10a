"""Fast tests of the benchmark's generator, checker and tracer.

    python3 -m pytest perfbench/tests -q
"""

import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from discoparse import (exact_cover_chain, find_candidates, load_parses,  # noqa: E402
                        load_relations, mine_lexicon, prune_candidates, score)
from discoparse.evaluation import report_dict  # noqa: E402


@pytest.fixture(scope="module")
def newswire():
    return corpus.generate("newswire", 7, "train")


def _documents(split):
    raw = {doc.doc_id: doc.raw_text for doc in split.documents}
    docs = load_parses(json.dumps(corpus.parses_json(split)), raw)
    return {doc.doc_id: doc for doc in docs}


def test_generator_is_deterministic_per_seed(newswire):
    again = corpus.generate("newswire", 7, "train")
    assert corpus.parses_json(again) == corpus.parses_json(newswire)
    assert corpus.relations_jsonl(again) == corpus.relations_jsonl(newswire)
    other_seed = corpus.generate("newswire", 8, "train")
    test_split = corpus.generate("newswire", 7, "test")
    assert corpus.relations_jsonl(other_seed) != corpus.relations_jsonl(newswire)
    assert corpus.relations_jsonl(test_split) != corpus.relations_jsonl(newswire)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_gold_arguments_are_unions_of_pruned_constituents(workload):
    split = corpus.generate(workload, 3, "train")
    documents = _documents(split)
    gold = load_relations(corpus.relations_jsonl(split))
    lexicon = mine_lexicon(gold, documents)
    explicit = [rel for rel in split.gold if rel.relation_type == "Explicit"]
    assert explicit
    for rel in explicit:
        document = documents[rel.doc_id]
        sentence = document.sentences[rel.sent_index]
        base = sentence.tokens[0].doc_index
        begin, end = rel.connective[0] - base, rel.connective[-1] - base + 1
        assert (sentence.tokens[begin].doc_index, end - begin) == (
            rel.connective[0], len(rel.connective))
        spans = [(c.token_begin, c.token_end) for c in find_candidates(document, lexicon)
                 if c.sent_index == rel.sent_index]
        assert (begin, end) in spans, "gold connective not reproduced by the matcher"
        anchor = exact_cover_chain(sentence.tree, (begin, end))[0]
        pruned = prune_candidates(anchor)
        for arg in (rel.arg1, rel.arg2):
            if arg and arg[0] < base:
                previous = document.sentences[rel.sent_index - 1]
                assert arg == tuple(t.doc_index for t in previous.tokens)
                continue
            wanted = {i - base for i in arg}
            inside = set()
            for node in pruned:
                covered = set(range(node.token_begin, node.token_end))
                if covered <= wanted:
                    inside |= covered
            assert inside == wanted, (rel, sentence.tree.to_bracketing())


def _perfect_predictions(split, senses):
    """Gold explicit relations written as a parser would, MFS senses."""
    lines = []
    next_id = {}
    for rel in split.gold:
        if rel.relation_type != "Explicit":
            continue
        number = next_id.get(rel.doc_id, 0)
        next_id[rel.doc_id] = number + 1
        lines.append({"DocID": rel.doc_id, "ID": number, "Type": "Explicit",
                      "Sense": [senses[rel.connective_key]],
                      "Connective": {"TokenList": list(rel.connective)},
                      "Arg1": {"TokenList": list(rel.arg1)},
                      "Arg2": {"TokenList": list(rel.arg2)}})
    return lines


def _encode(lines):
    return "".join(json.dumps(line) + "\n" for line in lines).encode()


def _program_report(split, pred_bytes):
    gold = load_relations(corpus.relations_jsonl(split))
    return report_dict(score(gold, load_relations(pred_bytes)))


def test_checker_passes_perfect_predictions(newswire):
    senses = check.most_frequent_senses(newswire.gold)
    data = _encode(_perfect_predictions(newswire, senses))
    predicted = check.read_relations(data)
    assert check.check_invariants(predicted, newswire.documents) == []
    assert check.check_senses(predicted, newswire.documents, senses) == []
    assert check.check_connective_f1(newswire.gold, predicted) == []
    report = _program_report(newswire, data)
    assert check.check_score_report(report, newswire.gold, predicted) == []
    assert check.check_lexicon(check.connective_counts(newswire.gold),
                               newswire.gold) == []


def _corruptions(split):
    """(mutate, expected problem text) pairs, one fault each."""
    sentence_of = {doc.doc_id: [offset[2] for offset in doc.offsets]
                   for doc in split.documents}

    def leave_sentence(lines):
        line = next(line for line in lines
                    if sentence_of[line["DocID"]][line["Arg1"]["TokenList"][0]]
                    == sentence_of[line["DocID"]][line["Connective"]["TokenList"][0]] > 0)
        first = min(line["Arg1"]["TokenList"] + line["Connective"]["TokenList"]
                    + line["Arg2"]["TokenList"])
        sentence = sentence_of[line["DocID"]]
        while sentence[first - 1] == sentence[first]:
            first -= 1
        line["Arg2"]["TokenList"].insert(0, first - 1)

    def overlap(lines):
        lines[2]["Arg1"]["TokenList"] += lines[2]["Connective"]["TokenList"]

    def skip_id(lines):
        lines[1]["ID"] += 1000

    return [(leave_sentence, "Arg2 leaves sentence"), (overlap, "overlap"),
            (skip_id, "expected id")]


@pytest.mark.parametrize("fault", range(3))
def test_checker_catches_corrupted_relations(newswire, fault):
    senses = check.most_frequent_senses(newswire.gold)
    lines = _perfect_predictions(newswire, senses)
    mutate, expected = _corruptions(newswire)[fault]
    mutate(lines)
    data = _encode(lines)
    predicted = check.read_relations(data)
    problems = check.check_invariants(predicted, newswire.documents)
    assert len(problems) == 1 and expected in problems[0], problems
    report = _program_report(newswire, data)
    # The program and the set matcher agree on the corrupted file too ...
    assert check.check_score_report(report, newswire.gold, predicted) == []
    # ... and a report that disagrees with the matcher is caught.
    report["arg2"]["tp"] += 1
    assert check.check_score_report(report, newswire.gold, predicted)


def test_checker_catches_a_wrong_sense_and_lexicon(newswire):
    senses = check.most_frequent_senses(newswire.gold)
    lines = _perfect_predictions(newswire, senses)
    lines[0]["Sense"] = ["Expansion.Conjunction" if lines[0]["Sense"] != [
        "Expansion.Conjunction"] else "Comparison.Contrast"]
    predicted = check.read_relations(_encode(lines))
    assert len(check.check_senses(predicted, newswire.documents, senses)) == 1
    counts = check.connective_counts(newswire.gold)
    counts["because"] += 1
    assert check.check_lexicon(counts, newswire.gold)


def test_most_frequent_sense_ties_go_to_the_smallest_label():
    rels = [corpus.GoldRelation("d", i, "Explicit", (sense,), (i,), (), (), "while", 0)
            for i, sense in enumerate(["Temporal.Synchrony", "Comparison.Contrast"])]
    assert check.most_frequent_senses(rels) == {"while": "Comparison.Contrast"}


def test_tail_rank_leaves_ten_samples_beyond():
    assert run.tail_rank(48) == 37
    assert 48 - 1 - run.tail_rank(48) == 10


def test_self_time_excludes_child_spans(tmp_path):
    traced = tracer.Tracer()

    def inner():
        time.sleep(0.03)

    def outer():
        time.sleep(0.02)
        wrapped_inner()
        return [1, 2, 3]

    wrapped_inner = traced.wrap("pipeline.inner", inner)
    wrapped_outer = traced.wrap("pipeline.parse_document", outer)
    gc.callbacks.append(traced.on_gc)
    wrapped_outer()
    wrapped_outer()
    traced.dump(tmp_path / "spans")
    stats = tracer.summarize(tmp_path / "spans")["functions"]
    assert stats["pipeline.parse_document"]["calls"] == 2
    assert stats["pipeline.parse_document"]["value"] == 6
    assert 0.04 <= stats["pipeline.parse_document"]["self_s"] < 0.055
    assert 0.06 <= stats["pipeline.inner"]["self_s"] < 0.08


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in tracer.metric_specs()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(corpus.WORKLOADS)
