"""Hand-built training corpus: five documents, twelve explicit relations.

Every argument span is a clean union of pruned constituents and every
feature vector is separable, so a model trained on this corpus can reparse
it exactly. Two connective occurrences ("before" as a preposition, "so" as
a degree adverb) are deliberate non-discourse negatives. Gold token indices
are hardcoded and double-checked by tests against the token surfaces.
"""

import json

from discoparse import DiscourseRelation, load_parses

from support import build_document_json, load_document

# The worked reference sentence: an 11-token clause pair joined by "when".
REFERENCE_BRACKETING = (
    "(S (NP (PRP We)) (VP (MD would) (VP (VB stop) "
    "(NP (NN index) (NN arbitrage)) (SBAR (WHADVP (WRB when)) "
    "(S (NP (DT the) (NN market)) (VP (VBZ is) "
    "(PP (IN under) (NP (NN stress)))))))))"
)

REFERENCE_RELATION = dict(
    connective=(5,),
    arg1=(0, 1, 2, 3, 4),
    arg2=(6, 7, 8, 9, 10),
    sense="Contingency.Condition",
)

DOCS = {
    "fix01": [
        "(S (NP (NNS traders)) (VP (MD would) (VP (VB stop) "
        "(NP (NN program) (NN trading)) (SBAR (WHADVP (WRB when)) "
        "(S (NP (DT the) (NNS prices)) (VP (VBP are) (ADJP (JJ volatile))))))) (. .))",
        "(S (ADVP (RB However)) (, ,) (NP (NNS investors)) "
        "(VP (VBD kept) (NP (PRP$ their) (NNS holdings))) (. .))",
        "(S (SBAR (IN If) (S (NP (NNS rates)) (VP (VBP rise)))) (, ,) "
        "(NP (NNS bonds)) (VP (VBP fall)) (. .))",
    ],
    "fix02": [
        "(S (NP (DT The) (NN market)) (VP (VBD closed) "
        "(PP (IN before) (NP (NN noon)))) (. .))",
        "(S (NP (NNS prices)) (VP (VBD fell) (SBAR (IN because) "
        "(S (NP (NN supply)) (VP (VBD grew))))) (. .))",
        "(S (S (NP (NNS sales)) (VP (VBD rose))) (, ,) (CC but) "
        "(S (NP (NNS profits)) (VP (VBD dropped))) (. .))",
    ],
    "fix03": [
        "(S (NP (DT The) (NN fund)) (VP (VBZ is) "
        "(ADJP (ADVP (RB so)) (JJ large))) (. .))",
        "(S (S (NP (NN demand)) (VP (VBD dropped))) (, ,) (CC so) "
        "(S (NP (NNS makers)) (VP (VBD cut) (NP (NN output)))) (. .))",
    ],
    "fix04": [
        "(S (NP (NNS brokers)) (VP (VBD waited) (SBAR (IN until) "
        "(S (NP (NN trading)) (VP (VBD resumed))))) (. .))",
        "(S (SBAR (IN Although) (S (NP (NNS margins)) (VP (VBD shrank)))) "
        "(, ,) (NP (NNS exporters)) (VP (VBD gained)) (. .))",
        "(S (NP (NNS dealers)) (VP (VBD sold) (SBAR (ADVP (RB as) (RB soon) (IN as)) "
        "(S (NP (NNS quotes)) (VP (VBD appeared))))) (. .))",
    ],
    "fix05": [
        "(S (NP (NNS analysts)) (VP (VBD watched) (SBAR (IN while) "
        "(S (NP (NNS stocks)) (VP (VBD slid))))) (. .))",
        "(S (SBAR (IN After) (S (NP (NNS talks)) (VP (VBD ended)))) (, ,) "
        "(NP (NNS traders)) (VP (VBD relaxed)) (. .))",
        "(S (NP (NNS clerks)) (VP (VBD checked) (SBAR (IN before) "
        "(S (NP (NNS orders)) (VP (VBD shipped))))) (. .))",
    ],
}

# (doc_id, relation_id, senses, connective, arg1, arg2, connective surface)
GOLD_ROWS = [
    ("fix01", 0, ("Temporal.Synchrony",),
     (5,), (0, 1, 2, 3, 4), (6, 7, 8, 9), "when"),
    ("fix01", 1, ("Comparison.Contrast",),
     (11,), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (13, 14, 15, 16), "however"),
    ("fix01", 2, ("Contingency.Condition",),
     (18,), (22, 23), (19, 20), "if"),
    ("fix02", 3, ("Contingency.Cause.Reason",),
     (8,), (6, 7), (9, 10), "because"),
    ("fix02", 4, ("Comparison.Contrast", "Expansion.Conjunction"),
     (15,), (12, 13), (16, 17), "but"),
    ("fix03", 5, ("Contingency.Cause.Result",),
     (9,), (6, 7), (10, 11, 12), "so"),
    ("fix04", 6, ("Temporal.Asynchronous.Precedence",),
     (2,), (0, 1), (3, 4), "until"),
    ("fix04", 7, ("Comparison.Concession",),
     (6,), (10, 11), (7, 8), "although"),
    ("fix04", 8, ("Temporal.Asynchronous.Succession",),
     (15, 16, 17), (13, 14), (18, 19), "as soon as"),
    ("fix05", 9, ("Temporal.Synchrony",),
     (2,), (0, 1), (3, 4), "while"),
    ("fix05", 10, ("Temporal.Asynchronous.Succession",),
     (6,), (10, 11), (7, 8), "after"),
    ("fix05", 11, ("Temporal.Asynchronous.Precedence",),
     (15,), (13, 14), (16, 17), "before"),
]


def corpus_parses_and_raw():
    parses = {}
    raw = {}
    for doc_id, bracketings in DOCS.items():
        entry, raw_text = build_document_json(bracketings)
        parses[doc_id] = entry
        raw[doc_id] = raw_text
    return parses, raw


def corpus_documents():
    parses, raw = corpus_parses_and_raw()
    documents = load_parses(json.dumps(parses).encode("utf-8"), raw)
    return {doc.doc_id: doc for doc in documents}


def corpus_gold():
    return [DiscourseRelation(doc_id, rel_id, "Explicit",
                              connective, arg1, arg2, senses)
            for doc_id, rel_id, senses, connective, arg1, arg2, _ in GOLD_ROWS]


def reference_document():
    """Single-document corpus holding only the worked reference sentence."""
    return load_document([REFERENCE_BRACKETING], "ex01")
