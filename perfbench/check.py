"""Independent checks of the parser's outputs against the generator's gold.

Nothing here imports the parser. Relations files are read with the json
module, scores are recomputed by a set matcher, most-frequent senses are
counted from the training gold, and the structural invariants of every
predicted relation are tested against the generator's own token tables.
Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict

# Floor on held-out connective F1; see the README for its derivation.
CONNECTIVE_F1_FLOOR = 0.95
DIMENSIONS = ("connective", "arg1", "arg2", "relation")


def _indices(span):
    return tuple(sorted(entry if isinstance(entry, int) else entry[2]
                        for entry in span["TokenList"]))


def read_relations(data):
    """Relations JSON lines (bytes or str) as plain dicts of sorted tuples."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    relations = []
    for line in data.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        relations.append({
            "doc_id": obj["DocID"], "id": obj["ID"], "type": obj["Type"],
            "senses": tuple(obj["Sense"]),
            "connective": _indices(obj["Connective"]),
            "arg1": _indices(obj["Arg1"]), "arg2": _indices(obj["Arg2"]),
        })
    return relations


def _gold_explicit(gold):
    return [rel for rel in gold if rel.relation_type == "Explicit"]


def true_positives(gold, predicted):
    """TP per dimension by exact token-set matching, one-to-one.

    Connective spans are unique within a generated document, so matching
    on keys is the same as any one-to-one pairing.
    """
    gold_keys = {dim: Counter() for dim in DIMENSIONS[:3]}
    gold_senses = defaultdict(list)
    for rel in _gold_explicit(gold):
        gold_keys["connective"][(rel.doc_id, rel.connective)] += 1
        gold_keys["arg1"][(rel.doc_id, rel.connective, rel.arg1)] += 1
        gold_keys["arg2"][(rel.doc_id, rel.connective, rel.arg2)] += 1
        gold_senses[(rel.doc_id, rel.connective, rel.arg1, rel.arg2)].append(
            set(rel.senses))
    pred_keys = {dim: Counter() for dim in DIMENSIONS[:3]}
    relation_tp = 0
    for rel in predicted:
        if rel["type"] != "Explicit":
            continue
        doc, conn = rel["doc_id"], rel["connective"]
        pred_keys["connective"][(doc, conn)] += 1
        pred_keys["arg1"][(doc, conn, rel["arg1"])] += 1
        pred_keys["arg2"][(doc, conn, rel["arg2"])] += 1
        candidates = gold_senses.get((doc, conn, rel["arg1"], rel["arg2"]), [])
        for i, senses in enumerate(candidates):
            if senses & set(rel["senses"]):
                del candidates[i]
                relation_tp += 1
                break
    tp = {dim: sum((gold_keys[dim] & pred_keys[dim]).values())
          for dim in DIMENSIONS[:3]}
    tp["relation"] = relation_tp
    return tp


def check_score_report(report, gold, predicted):
    """The parser's score report agrees with the set matcher's counts."""
    problems = []
    expected = true_positives(gold, predicted)
    gold_count = len(_gold_explicit(gold))
    pred_count = sum(1 for rel in predicted if rel["type"] == "Explicit")
    for dim in DIMENSIONS:
        got = report.get(dim, {})
        want = (expected[dim], pred_count, gold_count)
        have = (got.get("tp"), got.get("predicted"), got.get("gold"))
        if have != want:
            problems.append(f"score {dim}: (tp, predicted, gold) {have} != {want}")
    return problems


def most_frequent_senses(train_gold):
    """Connective key -> most frequent sense, ties to the smallest label."""
    counts = defaultdict(Counter)
    for rel in _gold_explicit(train_gold):
        for sense in rel.senses:
            counts[rel.connective_key][sense] += 1
    return {key: min(senses, key=lambda s: (-senses[s], s))
            for key, senses in counts.items()}


def connective_counts(train_gold):
    """Connective key -> occurrences among explicit training relations."""
    return dict(Counter(rel.connective_key for rel in _gold_explicit(train_gold)))


def check_senses(predicted, documents, senses):
    problems = []
    surfaces = {doc.doc_id: doc.surfaces for doc in documents}
    for rel in predicted:
        words = surfaces[rel["doc_id"]]
        key = " ".join(words[i].lower() for i in rel["connective"])
        want = (senses.get(key),)
        if rel["senses"] != want:
            problems.append(f"{rel['doc_id']}#{rel['id']}: sense "
                            f"{rel['senses']} for '{key}', expected {want}")
    return problems


def check_lexicon(lexicon_counts, train_gold):
    """The model's lexicon keys and counts equal the gold connective counts."""
    want = connective_counts(train_gold)
    if lexicon_counts == want:
        return []
    missing = sorted(set(want) - set(lexicon_counts))
    extra = sorted(set(lexicon_counts) - set(want))
    wrong = sorted(k for k in set(want) & set(lexicon_counts)
                   if want[k] != lexicon_counts[k])
    return [f"lexicon differs: missing {missing}, extra {extra}, "
            f"wrong counts {wrong}"]


def check_invariants(predicted, documents):
    """Structural invariants of every predicted relation."""
    problems = []
    docs = {doc.doc_id: doc for doc in documents}
    sentences = {doc.doc_id: [offset[2] for offset in doc.offsets] for doc in documents}
    next_id = Counter()
    for rel in predicted:
        name = f"{rel['doc_id']}#{rel['id']}"
        doc = docs.get(rel["doc_id"])
        if doc is None:
            problems.append(f"{name}: unknown document")
            continue
        if rel["type"] != "Explicit" or rel["id"] != next_id[rel["doc_id"]]:
            problems.append(f"{name}: type {rel['type']}, expected id "
                            f"{next_id[rel['doc_id']]}")
        next_id[rel["doc_id"]] += 1
        conn, arg1, arg2 = (set(rel[k]) for k in ("connective", "arg1", "arg2"))
        tokens = len(doc.offsets)
        if not conn or any(not 0 <= i < tokens for i in conn | arg1 | arg2):
            problems.append(f"{name}: empty connective or index out of range")
            continue
        sentence_of = sentences[rel["doc_id"]]
        conn_sents = {sentence_of[i] for i in conn}
        if len(conn_sents) != 1:
            problems.append(f"{name}: connective spans sentences {conn_sents}")
            continue
        sent, = conn_sents
        if arg1 & arg2 or conn & (arg1 | arg2):
            problems.append(f"{name}: arguments overlap each other or the connective")
        if any(sentence_of[i] != sent for i in arg2):
            problems.append(f"{name}: Arg2 leaves sentence {sent}")
        if any(sentence_of[i] not in (sent, sent - 1) for i in arg1):
            problems.append(f"{name}: Arg1 outside sentences {sent - 1}..{sent}")
    return problems


def connective_f1(gold, predicted):
    tp = true_positives(gold, predicted)["connective"]
    n_pred = sum(1 for rel in predicted if rel["type"] == "Explicit")
    n_gold = len(_gold_explicit(gold))
    if not tp:
        return 0.0
    precision, recall = tp / n_pred, tp / n_gold
    return 2 * precision * recall / (precision + recall)


def check_connective_f1(gold, predicted):
    f1 = connective_f1(gold, predicted)
    if f1 < CONNECTIVE_F1_FLOOR:
        return [f"connective F1 {f1:.4f} below floor {CONNECTIVE_F1_FLOOR}"]
    return []


def check_identical(name, expected, actual):
    if expected == actual:
        return []
    return [f"{name}: {len(actual)} bytes differ from the expected "
            f"{len(expected)} bytes"]
