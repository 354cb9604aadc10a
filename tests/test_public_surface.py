import re
from pathlib import Path

import discoparse
from discoparse import find_candidates, parse_document, train_model
from discoparse.argument_labeler import classify_constituents

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_names():
    """Names of the one-line `- `name` — ...` entries of the README's
    "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)` — ", section, flags=re.MULTILINE)


def test_all_is_the_readme_public_name_list():
    listed = _library_use_names()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(discoparse.__all__) == set(listed)
    assert all(hasattr(discoparse, name) for name in listed)


def _stage_by_stage_example():
    """The code block that follows "`parse_document` runs the stages below"."""
    text = README.read_text(encoding="utf-8")
    after = text.split("`parse_document` runs the stages below", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_stage_by_stage_example_finds_what_parse_document_finds(corpus_documents,
                                                                    corpus_gold):
    model = train_model(corpus_documents, corpus_gold, min_leaf=1)
    example = compile(_stage_by_stage_example(), str(README), "exec")
    public = {name: getattr(discoparse, name) for name in discoparse.__all__}
    found_any = False
    for document in corpus_documents.values():
        found = []
        for cand in find_candidates(document, model.lexicon):
            sentence = document.sentences[cand.sent_index]
            scope = {**public, "classify_constituents": classify_constituents,
                     "model": model, "document": document, "sentence": sentence,
                     "cand": cand}
            exec(example, scope)
            if scope["is_discourse"] and scope["merged"] is not None:
                connective = tuple(sentence.doc_span(cand.token_begin, cand.token_end))
                found.append((connective, *scope["merged"]))
        expected = [(rel.connective_tokens, rel.arg1_tokens, rel.arg2_tokens)
                    for rel in parse_document(document, model)]
        assert found == expected
        found_any = found_any or bool(found)
    assert found_any
