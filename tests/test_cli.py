import hashlib
import json
import os
import subprocess
import sys

import pytest

import discoparse
from discoparse import (export_relations, load_model, load_parses,
                        load_relations, parse_document)
from discoparse.cli import main

import fixture_corpus
from support import build_document_json


@pytest.fixture(scope="module")
def corpus_on_disk(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    parses, raw = fixture_corpus.corpus_parses_and_raw()
    (root / "parses.json").write_text(json.dumps(parses), encoding="utf-8")
    raw_dir = root / "raw"
    raw_dir.mkdir()
    for doc_id, text in raw.items():
        (raw_dir / doc_id).write_text(text, encoding="utf-8")
    documents = fixture_corpus.corpus_documents()
    gold = fixture_corpus.corpus_gold()
    (root / "relations.jsonl").write_bytes(export_relations(gold, documents))
    return root


@pytest.fixture(scope="module")
def trained_model_path(corpus_on_disk, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = main(["train",
                 "--relations", str(corpus_on_disk / "relations.jsonl"),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(out),
                 "--min-leaf", "1"])
    assert code == 0
    return out


def _span_key(rel):
    return (rel.doc_id, frozenset(rel.connective_tokens),
            frozenset(rel.arg1_tokens), frozenset(rel.arg2_tokens))


def test_train_writes_model(corpus_on_disk, trained_model_path):
    assert trained_model_path.exists()
    model = json.loads(trained_model_path.read_text())
    assert model["format_version"] == 1
    assert len(model["lexicon"]["entries"]) == 12


def test_train_prints_summary_to_stderr(corpus_on_disk, tmp_path, capsys):
    code = main(["train",
                 "--relations", str(corpus_on_disk / "relations.jsonl"),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(tmp_path / "m.json"), "--min-leaf", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # data never goes to stdout
    assert "lexicon: 12 connectives" in captured.err
    assert "usage classifier" in captured.err
    assert "argument classifier" in captured.err


@pytest.mark.parametrize("relation_type,message", [
    (None, "no gold relations to train on"),
    ("Implicit", "gold data contains no explicit relations"),
], ids=["empty", "explicit-free"])
def test_train_reports_training_errors(corpus_on_disk, tmp_path, capsys,
                                       relation_type, message):
    # Either no relations at all, or every gold relation made non-explicit.
    retyped = []
    if relation_type is not None:
        for line in (corpus_on_disk / "relations.jsonl").read_text().splitlines():
            obj = json.loads(line)
            obj["Type"] = relation_type
            retyped.append(json.dumps(obj) + "\n")
    relations = tmp_path / "relations.jsonl"
    relations.write_text("".join(retyped), encoding="utf-8")
    code = main(["train", "--relations", str(relations),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_train_rejects_explicit_relation_without_sense(corpus_on_disk,
                                                       tmp_path, capsys):
    # Such a relation would train a lexicon entry without senses, which
    # parsing could only meet with an internal error.
    lines = (corpus_on_disk / "relations.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["Sense"] = []
    relations = tmp_path / "relations.jsonl"
    relations.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n",
                         encoding="utf-8")
    code = main(["train", "--relations", str(relations),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: explicit relation {first['ID']} has no sense"]
    assert not (tmp_path / "m.json").exists()


def test_parse_reproduces_gold(corpus_on_disk, trained_model_path, tmp_path):
    out = tmp_path / "output.jsonl"
    code = main(["parse",
                 "--model", str(trained_model_path),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(out)])
    assert code == 0
    predicted = load_relations(out.read_bytes())
    gold = load_relations((corpus_on_disk / "relations.jsonl").read_bytes())
    gold_by_span = {_span_key(r): r for r in gold}
    assert {_span_key(r) for r in predicted} == set(gold_by_span)
    for rel in predicted:
        # One predicted sense, drawn from the gold sense list.
        assert len(rel.senses) == 1
        assert rel.senses[0] in gold_by_span[_span_key(rel)].senses

    # Idempotent: a second run writes identical bytes.
    first = out.read_bytes()
    assert main(["parse", "--model", str(trained_model_path),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_parse_matches_library_pass(corpus_on_disk, trained_model_path,
                                    tmp_path):
    out = tmp_path / "output.jsonl"
    assert main(["parse", "--model", str(trained_model_path),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(out)]) == 0
    raw = {path.name: path.read_text(encoding="utf-8")
           for path in (corpus_on_disk / "raw").iterdir()}
    documents = load_parses((corpus_on_disk / "parses.json").read_bytes(), raw)
    model = load_model(str(trained_model_path))
    relations = [rel for doc in documents for rel in parse_document(doc, model)]
    expected = export_relations(relations, {d.doc_id: d for d in documents})
    assert out.read_bytes() == expected


def test_parse_rejects_parallelism(corpus_on_disk, trained_model_path,
                                   tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["parse", "--model", str(trained_model_path),
              "--parses", str(corpus_on_disk / "parses.json"),
              "--raw", str(corpus_on_disk / "raw"),
              "--out", str(tmp_path / "out.jsonl"), "--parallelism", "2"])
    assert excinfo.value.code == 2


def test_parse_conll_tokenlist(corpus_on_disk, trained_model_path, tmp_path):
    out = tmp_path / "tuples.jsonl"
    assert main(["parse", "--model", str(trained_model_path),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(out), "--conll-tokenlist"]) == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert all(len(entry) == 5 for entry in first["Connective"]["TokenList"])


def test_parse_empty_corpus(trained_model_path, tmp_path):
    (tmp_path / "parses.json").write_text("{}")
    raw_dir = tmp_path / "raw"
    raw_dir.mkdir()
    out = tmp_path / "out.jsonl"
    assert main(["parse", "--model", str(trained_model_path),
                 "--parses", str(tmp_path / "parses.json"),
                 "--raw", str(raw_dir), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_score_gold_against_itself(corpus_on_disk, capsys):
    gold = str(corpus_on_disk / "relations.jsonl")
    assert main(["score", "--gold", gold, "--pred", gold]) == 0
    report = json.loads(capsys.readouterr().out)
    for dimension in ("connective", "arg1", "arg2", "relation"):
        assert report[dimension]["f1"] == 1.0


def test_score_empty_predictions(corpus_on_disk, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert main(["score", "--gold", str(corpus_on_disk / "relations.jsonl"),
                 "--pred", str(empty)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(report[d]["f1"] == 0.0 for d in report)


def test_end_to_end_relation_f1(corpus_on_disk, trained_model_path, tmp_path,
                                capsys):
    out = tmp_path / "pred.jsonl"
    main(["parse", "--model", str(trained_model_path),
          "--parses", str(corpus_on_disk / "parses.json"),
          "--raw", str(corpus_on_disk / "raw"), "--out", str(out)])
    assert main(["score", "--gold", str(corpus_on_disk / "relations.jsonl"),
                 "--pred", str(out), "--table"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relation"]["f1"] == 1.0


def test_missing_relations_file_exits_2(corpus_on_disk, tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main(["train", "--relations", str(missing),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_model_version_mismatch_exits_nonzero(corpus_on_disk,
                                              trained_model_path, tmp_path,
                                              capsys):
    data = json.loads(trained_model_path.read_text())
    data["format_version"] = 99
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(data))
    code = main(["parse", "--model", str(stale),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(tmp_path / "out.jsonl")])
    assert code != 0
    assert "format_version" in capsys.readouterr().err


def test_min_leaf_must_be_positive(corpus_on_disk, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--relations", str(corpus_on_disk / "relations.jsonl"),
              "--parses", str(corpus_on_disk / "parses.json"),
              "--raw", str(corpus_on_disk / "raw"),
              "--out", str(tmp_path / "m.json"), "--min-leaf", "0"])
    assert excinfo.value.code == 2


def _run_cli(args):
    """discoparse in a fresh interpreter, as a user would run it."""
    package_root = os.path.dirname(os.path.dirname(discoparse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "discoparse.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("closing,code", [(1200, 0), (1199, 2)])
def test_parse_deep_tree_never_prints_a_traceback(trained_model_path, tmp_path,
                                                   closing, code):
    # 1,200 levels deep, well formed or missing its last ')'.
    deep = "(S " * 1200 + fixture_corpus.REFERENCE_BRACKETING + ")" * closing
    entry, raw_text = build_document_json([deep])
    (tmp_path / "parses.json").write_text(json.dumps({"deep": entry}),
                                          encoding="utf-8")
    (tmp_path / "raw").mkdir()
    (tmp_path / "raw" / "deep").write_text(raw_text, encoding="utf-8")
    out = tmp_path / "output.jsonl"
    result = _run_cli(["parse", "--model", str(trained_model_path),
                       "--parses", str(tmp_path / "parses.json"),
                       "--raw", str(tmp_path / "raw"), "--out", str(out)])
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if code == 0:
        assert len(load_relations(out.read_bytes())) == 1
    else:
        assert "missing ')'" in result.stderr


def test_parse_keeps_crlf_offsets(trained_model_path, tmp_path):
    # Offsets count the file's characters as stored, "\r\n" included.
    bracketings = ["(S (NP (NNS prices)) (VP (VBD fell)) (. .))",
                   "(S (NP (NNS rates)) (VP (VBD rose)) (. .))",
                   "(S (NP (NNS bonds)) (VP (VBD fell)) (. .))"]
    entry, raw_text = build_document_json(bracketings)
    raw_text = raw_text.replace("\n", "\r\n")
    offset = 0
    for sentence in entry["sentences"]:
        for word, attrs in sentence["words"]:
            begin = raw_text.index(word, offset)
            offset = begin + len(word)
            attrs.update(CharacterOffsetBegin=begin, CharacterOffsetEnd=offset)
    assert offset == len(raw_text)
    (tmp_path / "parses.json").write_text(json.dumps({"crlf": entry}),
                                          encoding="utf-8")
    (tmp_path / "raw").mkdir()
    (tmp_path / "raw" / "crlf").write_bytes(raw_text.encode("utf-8"))
    assert main(["parse", "--model", str(trained_model_path),
                 "--parses", str(tmp_path / "parses.json"),
                 "--raw", str(tmp_path / "raw"),
                 "--out", str(tmp_path / "out.jsonl")]) == 0


# SHA-256 of each output on the fixture corpus. A change that alters any
# byte of the model or the relations fails here.
GOLDEN_SHA256 = {
    "model": "7577982f57da9a1d1d07059b46ee27811ac89bcac0b6638610da9f31ba15abc6",
    "relations": "bcf8e0fee32f7be5f7ca36da5580ba350bd23ac880ecff631435317ba4f626a0",
    "relations-conll-tokenlist":
        "dcb366ef44331528fc815f80aaa6e4923a22faced02fb4383e93203880a6ac54",
}


def test_outputs_match_golden_digests(corpus_on_disk, trained_model_path,
                                      tmp_path):
    outputs = {"model": trained_model_path}
    for name, extra in (("relations", []),
                        ("relations-conll-tokenlist", ["--conll-tokenlist"])):
        outputs[name] = tmp_path / f"{name}.jsonl"
        assert main(["parse", "--model", str(trained_model_path),
                     "--parses", str(corpus_on_disk / "parses.json"),
                     "--raw", str(corpus_on_disk / "raw"),
                     "--out", str(outputs[name]), *extra]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in outputs.items()}
    assert digests == GOLDEN_SHA256
