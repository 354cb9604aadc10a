import copy
import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import stat
import subprocess
import sys
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import discoparse
from discoparse import (export_relations, load_model, load_parses,
                        load_relations, parse_document)
import discoparse.cli
import discoparse.errors
from discoparse.cli import main

import fixture_corpus
from support import (DEEP_ARRAY, build_document_json, nested_branches_json,
                     tree_json_leaves)


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
    stale = tmp_path / "stale.json"
    for version in (99, True, 1.0):
        data["format_version"] = version
        stale.write_text(json.dumps(data))
        code = main(["parse", "--model", str(stale),
                     "--parses", str(corpus_on_disk / "parses.json"),
                     "--raw", str(corpus_on_disk / "raw"),
                     "--out", str(tmp_path / "out.jsonl")])
        assert code == 2
        assert f"format_version {version!r}" in capsys.readouterr().err


def test_min_leaf_must_be_positive(corpus_on_disk, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--relations", str(corpus_on_disk / "relations.jsonl"),
              "--parses", str(corpus_on_disk / "parses.json"),
              "--raw", str(corpus_on_disk / "raw"),
              "--out", str(tmp_path / "m.json"), "--min-leaf", "0"])
    assert excinfo.value.code == 2


def _run_cli(args, **environ):
    """discoparse in a fresh interpreter, as a user would run it, with
    environ added to its environment."""
    package_root = os.path.dirname(os.path.dirname(discoparse.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])), **environ)
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


@pytest.mark.parametrize("reader", ["parses", "relations", "model"])
def test_deeply_nested_json_exits_2(corpus_on_disk, trained_model_path,
                                    tmp_path, reader):
    parses, model = corpus_on_disk / "parses.json", trained_model_path
    if reader == "parses":
        # After every fixture document, so that parsing is under way.
        text = parses.read_text(encoding="utf-8").rstrip()
        parses = tmp_path / "parses.json"
        parses.write_text(f'{text[:-1]}, "deep": {DEEP_ARRAY}}}', encoding="utf-8")
    elif reader == "model":
        data = json.loads(model.read_text())
        data["usage_tree"] = "DEEP"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(data).replace('"DEEP"', nested_branches_json(2000)))
    out = tmp_path / "out.jsonl"
    if reader == "relations":
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"DocID": ' * 5000 + "0" + "}" * 5000 + "\n")
        result = _run_cli(["score", "--gold", str(corpus_on_disk / "relations.jsonl"),
                           "--pred", str(pred)])
    else:
        result = _run_cli(["parse", "--model", str(model), "--parses", str(parses),
                           "--raw", str(corpus_on_disk / "raw"), "--out", str(out)])
    assert result.returncode == 2, result.stderr
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("reader", ["parses", "relations"])
def test_overlong_integer_exits_2(corpus_on_disk, trained_model_path, tmp_path,
                                  reader):
    # Python refuses to read an integer of more than 4,300 digits.
    number = "1" * 5000
    out = tmp_path / "out.jsonl"
    if reader == "parses":
        # After every fixture document, so that parsing is under way.
        text = (corpus_on_disk / "parses.json").read_text(encoding="utf-8").rstrip()
        parses = tmp_path / "parses.json"
        parses.write_text(f'{text[:-1]}, "long": {number}}}', encoding="utf-8")
        result = _run_cli(["parse", "--model", str(trained_model_path),
                           "--parses", str(parses), "--raw", str(corpus_on_disk / "raw"),
                           "--out", str(out)])
        message = "error: malformed parses JSON: "
    else:
        pred = tmp_path / "pred.jsonl"
        pred.write_text(f'{{"ID": {number}}}\n')
        result = _run_cli(["score", "--gold", str(corpus_on_disk / "relations.jsonl"),
                           "--pred", str(pred)])
        message = "error: line 1: malformed JSON: "
    assert result.returncode == 2, result.stderr
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith(message)
    assert result.stdout == ""
    assert not out.exists()


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


def _digests(outputs):
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in outputs.items()}


def _fresh_interpreter_digests(corpus_on_disk, tmp_path, **environ):
    """Digests of the outputs of train and parse, each run by _run_cli."""
    inputs = ["--parses", str(corpus_on_disk / "parses.json"),
              "--raw", str(corpus_on_disk / "raw")]
    outputs = {"model": tmp_path / "fresh-model.json"}
    result = _run_cli(["train", "--relations", str(corpus_on_disk / "relations.jsonl"),
                       *inputs, "--out", str(outputs["model"]), "--min-leaf", "1"],
                      **environ)
    assert result.returncode == 0, result.stderr
    for name, extra in (("relations", []),
                        ("relations-conll-tokenlist", ["--conll-tokenlist"])):
        outputs[name] = tmp_path / f"fresh-{name}.jsonl"
        result = _run_cli(["parse", "--model", str(outputs["model"]), *inputs,
                           "--out", str(outputs[name]), *extra], **environ)
        assert result.returncode == 0, result.stderr
    return _digests(outputs)


def test_outputs_match_golden_digests(corpus_on_disk, trained_model_path,
                                      tmp_path):
    # In process through main, then in fresh interpreters through run.
    outputs = {"model": trained_model_path}
    for name, extra in (("relations", []),
                        ("relations-conll-tokenlist", ["--conll-tokenlist"])):
        outputs[name] = tmp_path / f"{name}.jsonl"
        assert main(["parse", "--model", str(trained_model_path),
                     "--parses", str(corpus_on_disk / "parses.json"),
                     "--raw", str(corpus_on_disk / "raw"),
                     "--out", str(outputs[name]), *extra]) == 0
    assert _digests(outputs) == GOLDEN_SHA256
    assert _fresh_interpreter_digests(corpus_on_disk, tmp_path) == GOLDEN_SHA256


@pytest.mark.parametrize("seed", ["1", "2"])
def test_outputs_do_not_depend_on_the_hash_seed(corpus_on_disk, tmp_path, seed):
    assert _fresh_interpreter_digests(corpus_on_disk, tmp_path,
                                      PYTHONHASHSEED=seed) == GOLDEN_SHA256


def _parse(model, parses, raw, out, *extra):
    return main(["parse", "--model", str(model), "--parses", str(parses),
                 "--raw", str(raw), "--out", str(out), *extra])


def _open_mode(path):
    """Permission bits of a new file made by a plain open(path, "wb")."""
    with open(path, "wb"):
        pass
    mode = stat.S_IMODE(os.stat(path).st_mode)
    os.unlink(path)
    return mode


@pytest.fixture
def broken_second_document(corpus_on_disk, tmp_path):
    """Parses file of three fixture documents, the second one malformed."""
    parses = json.loads((corpus_on_disk / "parses.json").read_text())
    doc_ids = list(parses)[:3]
    three = {doc_id: parses[doc_id] for doc_id in doc_ids}
    three[doc_ids[1]]["sentences"][0]["parsetree"] = "(S (NN"
    path = tmp_path / "input" / "parses.json"
    path.parent.mkdir()
    path.write_text(json.dumps(three), encoding="utf-8")
    return path


@pytest.mark.parametrize("existing", [None, b"earlier output\n"],
                         ids=["absent", "existing"])
def test_parse_failure_mid_stream_leaves_no_output(
        corpus_on_disk, trained_model_path, broken_second_document, tmp_path,
        capsys, existing):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "relations.jsonl"
    if existing is not None:
        out.write_bytes(existing)
    assert _parse(trained_model_path, broken_second_document,
                  corpus_on_disk / "raw", out) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and "fix02" in errors[0]
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing
    assert sorted(os.listdir(out_dir)) == (["relations.jsonl"] if existing else [])


def test_parse_output_mode_matches_plain_open(corpus_on_disk,
                                              trained_model_path, tmp_path):
    out = tmp_path / "relations.jsonl"
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", out) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == _open_mode(tmp_path / "ref")
    # An existing file keeps its mode, as it would under open(path, "wb").
    os.chmod(out, 0o600)
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", out) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o600


def test_parse_writes_through_a_symlink(corpus_on_disk, trained_model_path,
                                        tmp_path):
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"stale\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", link) == 0
    assert link.is_symlink()
    assert load_relations(target.read_bytes())
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "target.jsonl"]


def test_parse_refuses_a_fifo_before_parsing(corpus_on_disk,
                                             trained_model_path, tmp_path,
                                             monkeypatch, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    parsed = []
    monkeypatch.setattr(discoparse.cli, "parse_document",
                        lambda doc, model: parsed.append(doc.doc_id) or [])
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", fifo) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert parsed == []
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


@pytest.fixture
def loading_calls(monkeypatch):
    """Names of the loading and training calls train makes, in order."""
    calls = []
    for name in ("load_relations", "train_model"):
        real = getattr(discoparse.cli, name)

        def recorded(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(discoparse.cli, name, recorded)
    return calls


def _train(corpus, out):
    return main(["train", "--relations", str(corpus / "relations.jsonl"),
                 "--parses", str(corpus / "parses.json"),
                 "--raw", str(corpus / "raw"), "--out", str(out)])


@pytest.mark.parametrize("explicit", [True, False], ids=["exit-0", "exit-2"])
def test_train_leaves_the_collector_as_it_found_it(corpus_on_disk, tmp_path,
                                                   monkeypatch, explicit):
    relations = corpus_on_disk / "relations.jsonl"
    if not explicit:
        retyped = [{**json.loads(line), "Type": "Implicit"}
                   for line in relations.read_text().splitlines()]
        relations = tmp_path / "relations.jsonl"
        relations.write_text("".join(json.dumps(obj) + "\n" for obj in retyped))
    during = []
    real_train_model = discoparse.cli.train_model

    def recording(*args):
        during.append(gc.get_threshold())
        return real_train_model(*args)
    monkeypatch.setattr(discoparse.cli, "train_model", recording)
    saved, frozen = gc.get_threshold(), gc.get_freeze_count()
    gc.set_threshold(1234, 5, 6)
    try:
        code = main(["train", "--relations", str(relations),
                     "--parses", str(corpus_on_disk / "parses.json"),
                     "--raw", str(corpus_on_disk / "raw"),
                     "--out", str(tmp_path / "m.json")])
        after = gc.get_threshold()
    finally:
        gc.set_threshold(*saved)
    assert code == (0 if explicit else 2)
    assert during == [discoparse.cli._TRAIN_GC_THRESHOLD]
    assert after == (1234, 5, 6)
    assert gc.get_freeze_count() == frozen


def test_run_freezes_only_after_main_returns(monkeypatch):
    events = []

    def fake_main():
        events.append("main")
        return 3
    monkeypatch.setattr(discoparse.cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as excinfo:
        discoparse.cli.run()
    assert excinfo.value.code == 3
    assert events == ["main", "freeze"]


@pytest.mark.parametrize("command,broken", [
    ("train", "raw"), ("train", "parses"), ("train", "relations"),
    ("parse", "raw"), ("parse", "parses"), ("score", "gold")])
def test_input_that_is_not_utf8_exits_2(corpus_on_disk, trained_model_path,
                                        tmp_path, capsys, command, broken):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_on_disk, corpus)
    target, kind = {"raw": (corpus / "raw" / "fix01", "raw text file"),
                    "parses": (corpus / "parses.json", "parses file"),
                    "relations": (corpus / "relations.jsonl", "relations file"),
                    "gold": (corpus / "relations.jsonl", "relations file")}[broken]
    size = target.stat().st_size
    target.write_bytes(target.read_bytes() + b"\xff")
    out = tmp_path / "out.json"
    if command == "score":
        argv = ["score", "--gold", str(target),
                "--pred", str(corpus_on_disk / "relations.jsonl")]
    else:
        argv = [command, "--parses", str(corpus / "parses.json"),
                "--raw", str(corpus / "raw"), "--out", str(out)]
        argv += (["--relations", str(corpus / "relations.jsonl")] if command == "train"
                 else ["--model", str(trained_model_path)])
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {kind} '{target}' is not UTF-8: 'utf-8' codec can't decode "
        f"byte 0xff in position {size}: invalid start byte"]
    assert not out.exists()


def test_parse_refuses_a_lone_surrogate_in_the_parses_file(corpus_on_disk,
                                                          trained_model_path,
                                                          tmp_path, capsys):
    parses = json.loads((corpus_on_disk / "parses.json").read_text())
    sentence = parses["fix01"]["sentences"][1]
    word, = (word for word in sentence["words"] if word[0] == "kept")
    word[0] = "\ud800"
    sentence["parsetree"] = sentence["parsetree"].replace("kept", "\ud800")
    mutated = tmp_path / "parses.json"
    mutated.write_text(json.dumps(parses), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert _parse(trained_model_path, mutated, corpus_on_disk / "raw", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: parses file '{mutated}' document 'fix01' holds a lone surrogate '\\ud800'"]
    assert not out.exists()


def test_train_refuses_a_lone_surrogate_in_the_relations_file(corpus_on_disk,
                                                              tmp_path, capsys):
    lines = (corpus_on_disk / "relations.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["Sense"] = ["\ud800"]
    gold = tmp_path / "gold.jsonl"
    gold.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert main(["train", "--relations", str(gold),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(out), "--min-leaf", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: relations file '{gold}' line 1 holds a lone surrogate '\\ud800'"]
    assert not out.exists()


def test_train_refuses_a_fifo_before_loading(corpus_on_disk, tmp_path,
                                             loading_calls, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert _train(corpus_on_disk, fifo) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot access {fifo}: not a regular file"]
    assert loading_calls == []
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_train_refuses_a_missing_directory_before_loading(corpus_on_disk,
                                                          tmp_path,
                                                          loading_calls,
                                                          capsys):
    out = tmp_path / "missing" / "model.json"
    assert _train(corpus_on_disk, out) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith(f"error: cannot access {out}: ")
    assert loading_calls == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("defect", ["majority-child", "sense-count", "usage-leaf",
                                    "argument-leaf", "unknown-kind",
                                    "usage-feature", "argument-feature",
                                    "list-feature", "total-count-string",
                                    "total-count-negative", "total-count-bool",
                                    "format-version-true", "sense-surrogate"])
def test_parse_rejects_an_unusable_model_at_load(corpus_on_disk,
                                                 trained_model_path, tmp_path,
                                                 defect):
    data = json.loads(trained_model_path.read_text())
    branch = next(tree for tree in (data["usage_tree"], data["argument_tree"])
                  if tree["kind"] == "branch")
    if defect == "majority-child":
        branch["majority_child"] = "no such value"
    elif defect == "usage-leaf":
        for leaf in tree_json_leaves(data["usage_tree"]):
            if leaf["label"] == "discourse":
                leaf["label"] = "Discourse"
    elif defect == "argument-leaf":
        tree_json_leaves(data["argument_tree"])[-1]["label"] = "Arg2part"
    elif defect == "unknown-kind":
        branch["children"][branch["majority_child"]] = {"kind": "bush"}
    elif defect.endswith("-feature"):
        tree, value = {"usage-feature": ("usage_tree", "self_category"),
                       "argument-feature": ("argument_tree", "no_such_feature"),
                       "list-feature": ("usage_tree", ["self_cat"])}[defect]
        assert data[tree]["kind"] == "branch"
        data[tree]["feature"] = value
    elif defect.startswith("total-count-"):
        value = {"total-count-string": "x", "total-count-negative": -1,
                 "total-count-bool": True}[defect]
        for stats in data["lexicon"]["entries"].values():
            stats["total_count"] = value
    elif defect == "format-version-true":
        data["format_version"] = True
    elif defect == "sense-surrogate":
        # json.dumps escapes it as "\ud800", which json.load reads back.
        for stats in data["lexicon"]["entries"].values():
            stats["sense_counts"] = {"\ud800": 1}
    else:
        for stats in data["lexicon"]["entries"].values():
            stats["sense_counts"] = {sense: "x" for sense in stats["sense_counts"]}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(data))
    out = tmp_path / "out.jsonl"
    result = _run_cli(["parse", "--model", str(model),
                       "--parses", str(corpus_on_disk / "parses.json"),
                       "--raw", str(corpus_on_disk / "raw"), "--out", str(out)])
    assert result.returncode == 2
    errors = result.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: model file '{model}' ")
    assert not out.exists()


def test_parse_refuses_dev_stdout_on_a_pipe(corpus_on_disk,
                                            trained_model_path):
    # capture_output makes the child's standard output a pipe.
    result = _run_cli(["parse", "--model", str(trained_model_path),
                       "--parses", str(corpus_on_disk / "parses.json"),
                       "--raw", str(corpus_on_disk / "raw"),
                       "--out", "/dev/stdout"])
    assert result.returncode == 2
    assert "not a regular file" in result.stderr
    assert result.stdout == ""


def test_parse_holds_one_document_at_a_time(corpus_on_disk,
                                            trained_model_path, tmp_path,
                                            monkeypatch):
    seen = []
    real = discoparse.cli.parse_document

    def tracking(document, model):
        gc.collect()
        assert [ref() for ref in seen if ref() is not None] == []
        seen.append(weakref.ref(document))
        return real(document, model)

    monkeypatch.setattr(discoparse.cli, "parse_document", tracking)
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", tmp_path / "out.jsonl", "--jobs", "1") == 0
    assert len(seen) == 5


def _lines_by_document(data):
    blocks = {}
    for line in data.decode("utf-8").splitlines(keepends=True):
        blocks.setdefault(json.loads(line)["DocID"], []).append(line)
    return blocks


@settings(max_examples=15, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(["fix01", "fix02", "fix03", "fix04", "fix05"]),
       batch_chars=st.sampled_from([1, 3000, discoparse.cli._BATCH_CHARS]),
       ahead=st.sampled_from([1, discoparse.cli._BATCHES_AHEAD_PER_JOB]))
def test_permuted_documents_give_permuted_lines(corpus_on_disk,
                                                trained_model_path, tmp_path,
                                                order, batch_chars, ahead):
    """At every jobs count, batch size and pool window, plain and with
    --conll-tokenlist, each document's lines are those of a serial run."""
    parses = json.loads((corpus_on_disk / "parses.json").read_text())
    assert sorted(parses) == sorted(order)
    permuted = tmp_path / "permuted.json"
    permuted.write_text(json.dumps({doc_id: parses[doc_id] for doc_id in order}),
                        encoding="utf-8")
    for extra in ([], ["--conll-tokenlist"]):
        reference = tmp_path / "reference.jsonl"
        assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                      corpus_on_disk / "raw", reference, "--jobs", "1", *extra) == 0
        blocks = _lines_by_document(reference.read_bytes())
        expected = "".join(line for doc_id in order for line in blocks.get(doc_id, []))
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"permuted-{jobs}.jsonl"
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(discoparse.cli, "_BATCH_CHARS", batch_chars)
                patch.setattr(discoparse.cli, "_BATCHES_AHEAD_PER_JOB", ahead)
                assert _parse(trained_model_path, permuted, corpus_on_disk / "raw",
                              out, "--jobs", jobs, *extra) == 0
            assert out.read_bytes() == expected.encode("utf-8")


def _spoiled_parses(corpus_on_disk, path, broken):
    """The fixture parses file, written to path, with the tree of document 2
    unbalanced ("tree-2") and the entry of document 4 not JSON ("json-4")."""
    parses = json.loads((corpus_on_disk / "parses.json").read_text())
    second, fourth = list(parses)[1], list(parses)[3]
    if "tree-2" in broken:
        parses[second]["sentences"][0]["parsetree"] = "(S (NN"
    text = json.dumps(parses)
    if "json-4" in broken:
        entry = json.dumps(parses[fourth])
        assert text.count(entry) == 1
        text = text.replace(entry, '{"sentences": [}')
    path.write_text(text, encoding="utf-8")


@pytest.mark.parametrize("batch_chars", [1, discoparse.cli._BATCH_CHARS],
                         ids=["batch-per-document", "one-batch"])
@pytest.mark.parametrize("broken", ["tree-2", "json-4", "tree-2+json-4"])
def test_a_mid_stream_error_is_the_same_at_every_jobs_count(
        corpus_on_disk, trained_model_path, tmp_path, capsys, monkeypatch,
        broken, batch_chars):
    """A worker-side error (a bad tree) and a parent-side one (bad JSON),
    and the two together: the first failing document in file order decides
    the message and exit code at every jobs count, and no output or
    worker is left."""
    monkeypatch.setattr(discoparse.cli, "_BATCH_CHARS", batch_chars)
    parses = tmp_path / "parses.json"
    _spoiled_parses(corpus_on_disk, parses, broken)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    outcomes = []
    for jobs in ("1", "2", "3"):
        capsys.readouterr()
        code = _parse(trained_model_path, parses, corpus_on_disk / "raw",
                      out_dir / "relations.jsonl", "--jobs", jobs)
        outcomes.append((code, capsys.readouterr().err.splitlines()))
        assert os.listdir(out_dir) == []
        assert multiprocessing.active_children() == []
    assert outcomes == [outcomes[0]] * 3
    code, (error,) = outcomes[0]
    assert code == 2
    if broken == "json-4":
        assert error.startswith("error: malformed parses JSON: Expecting value")
    else:
        assert error.startswith("error: document 'fix02' sentence 0: ")


@pytest.mark.parametrize("broken", [False, True], ids=["exit-0", "exit-2"])
def test_no_pool_worker_outlives_parse(corpus_on_disk, trained_model_path,
                                       tmp_path, broken):
    parses = corpus_on_disk / "parses.json"
    if broken:
        parses = tmp_path / "parses.json"
        _spoiled_parses(corpus_on_disk, parses, "tree-2")
    code = _parse(trained_model_path, parses, corpus_on_disk / "raw",
                  tmp_path / "out.jsonl", "--jobs", "2")
    assert code == (2 if broken else 0)
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_ends_parse_with_exit_1(corpus_on_disk, trained_model_path,
                                                   tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def dying(document, model):
        assert os.getpid() != parent
        os.kill(os.getpid(), signal.SIGKILL)
    monkeypatch.setattr(discoparse.cli, "parse_document", dying)
    capsys.readouterr()
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", tmp_path / "out.jsonl", "--jobs", "2") == 1
    assert capsys.readouterr().err.splitlines() == ["error: a parse worker ended abruptly"]
    assert os.listdir(tmp_path) == []
    assert multiprocessing.active_children() == []


def test_pool_workers_leave_ctrl_c_to_the_parent(corpus_on_disk, trained_model_path,
                                                 tmp_path, monkeypatch):
    real = discoparse.cli.parse_document

    def checking(document, model):
        if signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, []):
            raise discoparse.errors.DiscoParseError("SIGINT reaches a worker")
        return real(document, model)
    monkeypatch.setattr(discoparse.cli, "parse_document", checking)
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", tmp_path / "out.jsonl", "--jobs", "2") == 0
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == blocked


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_must_be_a_positive_integer(corpus_on_disk, trained_model_path,
                                         tmp_path, jobs):
    with pytest.raises(SystemExit) as excinfo:
        _parse(trained_model_path, corpus_on_disk / "parses.json",
               corpus_on_disk / "raw", tmp_path / "out.jsonl", "--jobs", jobs)
    assert excinfo.value.code == 2
    assert not (tmp_path / "out.jsonl").exists()


def test_without_fork_parse_runs_serially(corpus_on_disk, trained_model_path,
                                          tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    out = tmp_path / "out.jsonl"
    assert _parse(trained_model_path, corpus_on_disk / "parses.json",
                  corpus_on_disk / "raw", out) == 0
    assert out.read_bytes()
    with pytest.raises(SystemExit) as excinfo:
        _parse(trained_model_path, corpus_on_disk / "parses.json",
               corpus_on_disk / "raw", out, "--jobs", "2")
    assert excinfo.value.code == 2
    assert "--jobs above 1 needs the fork start method" in capsys.readouterr().err


def test_only_parse_with_more_than_one_job_imports_multiprocessing(
        corpus_on_disk, trained_model_path, tmp_path):
    script = """if True:
        import sys
        from discoparse.cli import main
        inputs = ["--parses", sys.argv[1], "--raw", sys.argv[2]]
        imported = []
        for argv in (["train", "--relations", sys.argv[3], "--out", sys.argv[4]],
                     ["parse", "--model", sys.argv[4], "--out", sys.argv[5], "--jobs", "1"],
                     ["parse", "--model", sys.argv[4], "--out", sys.argv[5], "--jobs", "2"]):
            assert main(argv + inputs) == 0
            imported.append("multiprocessing" in sys.modules)
        print(imported)
    """
    result = subprocess.run(
        [sys.executable, "-c", script, str(corpus_on_disk / "parses.json"),
         str(corpus_on_disk / "raw"), str(corpus_on_disk / "relations.jsonl"),
         str(tmp_path / "model.json"), str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(discoparse.__file__))})
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[False,", "False,", "True]"]


def _subclasses(cls):
    return [cls] + [sub for direct in cls.__subclasses__() for sub in _subclasses(direct)]


@pytest.mark.parametrize("cls", _subclasses(discoparse.errors.DiscoParseError),
                         ids=lambda cls: cls.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    """A pool worker's error reaches the parent pickled."""
    error = (cls("unbalanced", 7) if cls is discoparse.errors.TreeParseError
             else cls("document 'd': bad"))
    copied = pickle.loads(pickle.dumps(error))
    assert type(copied) is cls
    assert str(copied) == str(error) and copied.args == error.args
    assert vars(copied) == vars(error)
    if cls is discoparse.errors.TreeParseError:
        assert copied.position == 7 and str(copied) == "unbalanced (at character 7)"


def _json_paths(value, path=()):
    """The key path of every value inside a JSON document, root excluded."""
    if isinstance(value, dict):
        members = value.items()
    elif isinstance(value, list):
        members = enumerate(value)
    else:
        return
    for key, member in members:
        yield path + (key,)
        yield from _json_paths(member, path + (key,))


def _json_at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def _mutated_json(draw, document):
    """The JSON document with one value replaced by any JSON value, one key
    or item deleted, or one key or item added. Keys and strings of the
    document itself are drawn as often as arbitrary text, so that a value
    can become a name that is valid elsewhere in it."""
    located = {path: _json_at(document, path) for path in _json_paths(document)}
    names = {path[-1] for path in located if isinstance(path[-1], str)}
    names.update(value for value in located.values() if isinstance(value, str))
    # Lone surrogates (category Cs) too: JSON escapes them, and UTF-8 cannot encode them.
    keys = (st.sampled_from(sorted(names)) | st.text(max_size=8)
            | st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2))
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | keys,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(keys, inner, max_size=3),
        max_leaves=6)
    mutated = copy.deepcopy(document)
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        containers = [()] + [path for path, value in located.items()
                             if isinstance(value, (dict, list))]
        container = _json_at(mutated, draw(st.sampled_from(containers)))
        if isinstance(container, dict):
            container[draw(keys)] = draw(values)
        else:
            container.insert(draw(st.integers(0, len(container))), draw(values))
        return mutated
    *parents, key = draw(st.sampled_from(list(located)))
    container = _json_at(mutated, parents)
    if action == "replace":
        container[key] = draw(values)
    else:
        del container[key]
    return mutated


def _assert_done_or_refused(code, capsys, out=None):
    """Exit 0, or exit 2 with one `error:` line on stderr and no output:
    no file at out, or nothing on stdout when out is None. Returns the
    stderr lines."""
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert code in (0, 2)
    if code == 2:
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert captured.out == "" if out is None else not out.exists()
    return errors


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_model_file_is_parsed_or_refused(corpus_on_disk,
                                                   trained_model_path,
                                                   tmp_path, capsys, data):
    """No exception escapes main for any one-value change of the model file:
    it parses (exit 0), or it is refused in one line naming the file, with
    no output file (exit 2)."""
    mutated = data.draw(_mutated_json(json.loads(trained_model_path.read_text())))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(mutated), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = _parse(model, corpus_on_disk / "parses.json", corpus_on_disk / "raw", out)
    errors = _assert_done_or_refused(code, capsys, out)
    if code == 2:
        assert errors[0].startswith(f"error: model file '{model}' ")


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_parses_file_is_parsed_or_refused(corpus_on_disk,
                                                    trained_model_path,
                                                    tmp_path, capsys, data):
    parses = json.loads((corpus_on_disk / "parses.json").read_text())
    mutated = tmp_path / "parses.json"
    mutated.write_text(json.dumps(data.draw(_mutated_json(parses))), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = _parse(trained_model_path, mutated, corpus_on_disk / "raw", out)
    _assert_done_or_refused(code, capsys, out)


def _write_mutated_relations(data, corpus_on_disk, path):
    """A mutation of the gold relations file, read as the list of its lines."""
    lines = (corpus_on_disk / "relations.jsonl").read_text(encoding="utf-8").splitlines()
    mutated = data.draw(_mutated_json([json.loads(line) for line in lines]))
    path.write_text("".join(json.dumps(item) + "\n" for item in mutated), encoding="utf-8")


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_relations_file_is_scored_or_refused(corpus_on_disk, tmp_path,
                                                       capsys, data):
    gold = tmp_path / "gold.jsonl"
    _write_mutated_relations(data, corpus_on_disk, gold)
    capsys.readouterr()
    code = main(["score", "--gold", str(gold),
                 "--pred", str(corpus_on_disk / "relations.jsonl")])
    _assert_done_or_refused(code, capsys)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_relations_file_is_trained_on_or_refused(corpus_on_disk, tmp_path,
                                                           capsys, data):
    gold = tmp_path / "gold.jsonl"
    _write_mutated_relations(data, corpus_on_disk, gold)
    out = tmp_path / "model.json"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["train", "--relations", str(gold),
                 "--parses", str(corpus_on_disk / "parses.json"),
                 "--raw", str(corpus_on_disk / "raw"),
                 "--out", str(out), "--min-leaf", "1"])
    _assert_done_or_refused(code, capsys, out)


def test_an_error_holding_a_line_break_stays_one_line(corpus_on_disk,
                                                      trained_model_path,
                                                      tmp_path, capsys):
    parses = json.loads((corpus_on_disk / "parses.json").read_text())
    parses["fix\n01\u2028"] = parses.pop("fix01")
    mutated = tmp_path / "parses.json"
    mutated.write_text(json.dumps(parses), encoding="utf-8")
    capsys.readouterr()
    code = _parse(trained_model_path, mutated, corpus_on_disk / "raw", tmp_path / "out.jsonl")
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: no raw text for document 'fix\\n01\\u2028'"]
