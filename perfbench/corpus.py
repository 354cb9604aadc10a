"""Seeded synthetic CoNLL-2015-style corpora for the benchmark.

A small phrase-structure grammar writes WSJ-shaped sentences: subject and
object noun phrases with nested prepositional phrases, verb groups with
modals, and one of five explicit-connective constructions (post-posed or
pre-posed subordinate clause, clause coordination, sentence-initial or
medial discourse adverbial). Gold Arg1/Arg2 spans are recorded as the
constituents the construction was built from, so every gold argument in
the connective's sentence is a union of whole constituents hanging off the
connective-to-root path, and an inter-sentential Arg1 is the whole
previous sentence. Connective words also occur in non-discourse roles
(prepositions, noun-phrase coordination, degree and temporal adverbs) so
that the usage classifier has negatives to learn.

The generator knows nothing of the parser; the benchmark's checker reads
its gold structures directly.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# Connective table: lowercase key -> (construction, sense weights).
# Constructions: "sub" post- or pre-posed subordinate clause, "coord"
# clause coordination, "initial" sentence-initial adverbial (Arg1 is the
# previous sentence), "medial" adverbial between subject and verb phrase
# (Arg1 is the previous sentence).
CONNECTIVES = {
    "because": ("sub", {"Contingency.Cause.Reason": 1}),
    "when": ("sub", {"Temporal.Synchrony": 3, "Contingency.Condition": 2}),
    "while": ("sub", {"Comparison.Contrast": 1, "Temporal.Synchrony": 1}),
    "although": ("sub", {"Comparison.Concession": 1}),
    "though": ("sub", {"Comparison.Concession": 1}),
    "if": ("sub", {"Contingency.Condition": 1}),
    "unless": ("sub", {"Contingency.Condition": 1}),
    "after": ("sub", {"Temporal.Asynchronous.Succession": 1}),
    "before": ("sub", {"Temporal.Asynchronous.Precedence": 1}),
    "since": ("sub", {"Contingency.Cause.Reason": 1,
                      "Temporal.Asynchronous.Succession": 1}),
    "until": ("sub", {"Temporal.Asynchronous.Precedence": 1}),
    "as soon as": ("sub", {"Temporal.Asynchronous.Succession": 1}),
    "as long as": ("sub", {"Contingency.Condition": 1}),
    "so that": ("sub", {"Contingency.Cause.Result": 1}),
    "even though": ("sub", {"Comparison.Concession": 1}),
    "and": ("coord", {"Expansion.Conjunction": 1}),
    "but": ("coord", {"Comparison.Contrast": 3, "Comparison.Concession": 1}),
    "so": ("coord", {"Contingency.Cause.Result": 1}),
    "or": ("coord", {"Expansion.Alternative": 1}),
    "yet": ("coord", {"Comparison.Contrast": 1}),
    "however": ("initial", {"Comparison.Contrast": 1}),
    "meanwhile": ("initial", {"Expansion.Conjunction": 1,
                              "Temporal.Synchrony": 1}),
    "instead": ("initial", {"Expansion.Alternative": 1}),
    "therefore": ("initial", {"Contingency.Cause.Result": 1}),
    "nevertheless": ("initial", {"Comparison.Concession": 1}),
    "in addition": ("initial", {"Expansion.Conjunction": 1}),
    "as a result": ("initial", {"Contingency.Cause.Result": 1}),
    "for example": ("initial", {"Expansion.Instantiation": 1}),
    "in fact": ("initial", {"Expansion.Restatement": 1}),
    "on the other hand": ("initial", {"Comparison.Contrast": 1}),
    "also": ("medial", {"Expansion.Conjunction": 1}),
    "still": ("medial", {"Comparison.Concession": 1}),
    "then": ("medial", {"Temporal.Asynchronous.Precedence": 1}),
}

# Preterminal shapes of the multiword and wh- connectives; the rest are
# single IN (subordinators), CC (coordinators) or RB under ADVP.
_SPECIAL_SHAPES = {
    "when": [("WHADVP", [("WRB", "when")])],
    "as soon as": [("ADVP", [("RB", "as"), ("RB", "soon"), ("IN", "as")])],
    "as long as": [("ADVP", [("RB", "as"), ("RB", "long"), ("IN", "as")])],
    "so that": [("IN", "so"), ("IN", "that")],
    "even though": [("ADVP", [("RB", "even")]), ("IN", "though")],
    "in addition": [("PP", [("IN", "in"), ("NP", [("NN", "addition")])])],
    "as a result": [("PP", [("IN", "as"), ("NP", [("DT", "a"), ("NN", "result")])])],
    "for example": [("PP", [("IN", "for"), ("NP", [("NN", "example")])])],
    "in fact": [("PP", [("IN", "in"), ("NP", [("NN", "fact")])])],
    "on the other hand": [("PP", [("IN", "on"), ("NP", [
        ("DT", "the"), ("JJ", "other"), ("NN", "hand")])])],
}

DETERMINERS = ["the", "a", "each", "some", "every", "this", "these", "any"]
NOUNS = ("market price stock trader bond rate fund company share profit "
         "investor bank dealer index quarter analyst loan deficit yield "
         "currency contract board official economy budget tax unit order "
         "supplier margin inventory revenue dividend merger lender broker "
         "exporter factory plant worker union agency court ruling lawyer "
         "offer bid stake holder note issue asset debt credit demand supply "
         "output sale chain store retailer buyer seller client account "
         "portfolio risk gain loss volume session week month year decade "
         "program strategy plan proposal report survey estimate forecast "
         "figure percent point level trend sector industry firm group "
         "partner venture division subsidiary parent executive director "
         "chairman president manager spokesman committee panel regulator "
         "agreement deal talk meeting vote election campaign policy "
         "reform law bill measure rule standard system network service "
         "product model brand line package device drug patent license").split()
VERBS_PAST = ("rose fell gained dropped climbed slipped declined jumped "
              "surged eased reported said announced agreed approved rejected "
              "expected estimated raised cut bought sold acquired offered "
              "posted recorded issued signed filed reached ended opened "
              "closed held kept left lost won paid owed sought").split()
VERBS_BASE = ("raise cut buy sell acquire offer post record issue sign file "
              "reach end open close hold keep pay seek approve reject expect "
              "review consider delay extend reduce increase").split()
ADJECTIVES = ("new major big small large strong weak higher lower early "
              "late recent annual quarterly federal foreign domestic public "
              "private financial economic local national modest sharp "
              "steady volatile heavy light senior junior key net").split()
MODALS = ["would", "could", "might", "will", "may", "should", "must"]
PREPOSITIONS = ["of", "in", "for", "on", "with", "at", "from", "by", "into",
                "over", "under", "through", "against", "among", "within"]
# Connective words that also head non-discourse prepositional phrases.
PREPOSITION_CONNECTIVES = ["before", "after", "since", "until"]
# Non-discourse uses inside a noun phrase: coordination and degree "so".
NP_COORDINATORS = ["and", "or"]
TRAILING_ADVERBS = ["then", "still"]


@dataclass(frozen=True)
class Shape:
    """Make-up of one workload's documents."""

    train_docs: int
    test_docs: int
    sentences: tuple[int, int]  # per document, inclusive
    tokens: tuple[int, int]  # per sentence, inclusive, before connectives
    connective_rate: float  # share of sentences with an explicit relation
    nondiscourse_rate: float  # chance a phrase uses a connective word otherwise
    implicit_rate: float  # share of plain sentences with a non-explicit relation
    max_depth: int = 15


WORKLOADS = {
    "newswire": Shape(train_docs=40, test_docs=48, sentences=(20, 40),
                      tokens=(20, 34), connective_rate=0.4,
                      nondiscourse_rate=0.12, implicit_rate=0.5),
    "sparse-short": Shape(train_docs=1200, test_docs=2000, sentences=(1, 5),
                          tokens=(6, 14), connective_rate=0.12,
                          nondiscourse_rate=0.08, implicit_rate=0.3,
                          max_depth=9),
    "long-dense": Shape(train_docs=16, test_docs=40, sentences=(100, 120),
                        tokens=(6, 13), connective_rate=0.85,
                        nondiscourse_rate=0.12, implicit_rate=0.5,
                        max_depth=12),
}


class Node:
    """A constituent or preterminal of a generated tree."""

    __slots__ = ("label", "children", "word", "begin", "end")

    def __init__(self, label, children=(), word=None):
        self.label = label
        self.children = list(children)
        self.word = word
        self.begin = self.end = -1

    def leaves(self):
        if self.word is not None:
            return [self]
        return [leaf for child in self.children for leaf in child.leaves()]

    def bracketing(self):
        if self.word is not None:
            return f"({self.label} {self.word})"
        inner = " ".join(child.bracketing() for child in self.children)
        return f"({self.label} {inner})"


def _from_shape(shape):
    label, rest = shape
    if isinstance(rest, str):
        return Node(label, word=rest)
    return Node(label, [_from_shape(child) for child in rest])


def _leaf(pos, word):
    return Node(pos, word=word)


@dataclass(frozen=True)
class GoldRelation:
    """One gold relation, token sets as document-level indices."""

    doc_id: str
    relation_id: int
    relation_type: str
    senses: tuple[str, ...]
    connective: tuple[int, ...]
    arg1: tuple[int, ...]
    arg2: tuple[int, ...]
    connective_key: str  # lowercase space-joined, "" for non-explicit
    sent_index: int  # sentence of the connective (of Arg2 for non-explicit)


@dataclass
class GenSentence:
    bracketing: str
    words: list  # (surface, pos)


@dataclass
class GenDocument:
    doc_id: str
    sentences: list  # of GenSentence
    raw_text: str
    offsets: list  # per doc-level token: (begin, end, sent_index, index_in_sentence)
    surfaces: list  # per doc-level token


@dataclass
class Split:
    documents: list  # of GenDocument, in document-id order
    gold: list  # of GoldRelation

    @property
    def token_count(self):
        return sum(len(doc.surfaces) for doc in self.documents)


class _Grammar:
    def __init__(self, rng, shape):
        self.rng = rng
        self.shape = shape
        by_kind = {}
        for key, (kind, _) in CONNECTIVES.items():
            by_kind.setdefault(kind, []).append(key)
        self.by_kind = {kind: sorted(keys) for kind, keys in by_kind.items()}

    def choice(self, items):
        return self.rng.choice(items)

    def noun_phrase(self, budget, depth):
        rng = self.rng
        base = [_leaf("DT", self.choice(DETERMINERS))]
        if budget >= 3 and rng.random() < 0.5:
            if rng.random() < self.shape.nondiscourse_rate:
                base.append(Node("ADJP", [_leaf("RB", "so"),
                                          _leaf("JJ", self.choice(ADJECTIVES))]))
            else:
                base.append(_leaf("JJ", self.choice(ADJECTIVES)))
        plural = rng.random() < 0.3
        base.append(_leaf("NNS" if plural else "NN",
                          self.choice(NOUNS) + ("s" if plural else "")))
        node = Node("NP", base)
        rest = budget - len(base)
        if rest >= 3 and depth + 3 <= self.shape.max_depth:
            if rng.random() < self.shape.nondiscourse_rate / 2:
                other = self.noun_phrase(min(rest - 1, 3), depth + 1)
                return Node("NP", [node, _leaf("CC", self.choice(NP_COORDINATORS)),
                                   other])
            return Node("NP", [node, self.prep_phrase(rest, depth + 1)])
        return node

    def prep_phrase(self, budget, depth):
        if self.rng.random() < self.shape.nondiscourse_rate:
            prep = self.choice(PREPOSITION_CONNECTIVES)
        else:
            prep = self.choice(PREPOSITIONS)
        return Node("PP", [_leaf("IN", prep),
                           self.noun_phrase(budget - 1, depth + 1)])

    def verb_phrase(self, budget, depth, extra=()):
        rng = self.rng
        if rng.random() < 0.3 and depth + 2 <= self.shape.max_depth:
            inner = self.verb_phrase_core(_leaf("VB", self.choice(VERBS_BASE)),
                                          budget - 1, depth + 1, extra)
            return Node("VP", [_leaf("MD", self.choice(MODALS)), inner])
        return self.verb_phrase_core(_leaf("VBD", self.choice(VERBS_PAST)),
                                     budget, depth, extra)

    def verb_phrase_core(self, verb, budget, depth, extra):
        rng = self.rng
        children = [verb]
        rest = budget - 1
        if rest >= 2:
            object_budget = rest if rest < 6 else rng.randint(2, rest - 3)
            children.append(self.noun_phrase(object_budget, depth + 1))
            rest -= object_budget
        if rest >= 3 and depth + 3 <= self.shape.max_depth:
            children.append(self.prep_phrase(rest, depth + 1))
        elif rest >= 1 and not extra and rng.random() < self.shape.nondiscourse_rate:
            children.append(Node("ADVP", [_leaf("RB", self.choice(TRAILING_ADVERBS))]))
        children.extend(extra)
        return Node("VP", children)

    def clause(self, budget, depth):
        """(S NP VP) spending about `budget` tokens."""
        budget = max(budget, 3)
        subject = min(self.rng.randint(2, max(2, budget // 3)), budget - 1)
        return Node("S", [self.noun_phrase(subject, depth + 1),
                          self.verb_phrase(budget - subject, depth + 1)])

    def connective_nodes(self, key, capitalize):
        shapes = _SPECIAL_SHAPES.get(key)
        if shapes is None:
            kind = CONNECTIVES[key][0]
            if kind == "sub":
                shapes = [("IN", key)]
            elif kind == "coord":
                shapes = [("CC", key)]
            else:
                shapes = [("ADVP", [("RB", key)])]
        nodes = [_from_shape(shape) for shape in shapes]
        if capitalize:
            first = nodes[0].leaves()[0]
            first.word = first.word.capitalize()
        return nodes

    def plain_sentence(self, size):
        clause = self.clause(size - 1, 0)
        return Node("S", clause.children + [_leaf(".", ".")])

    def relation_sentence(self, size, key):
        """(tree, (connective nodes, Arg1 nodes or None for the previous
        sentence, Arg2 nodes)).
        """
        kind = CONNECTIVES[key][0]
        conn_len = len(key.split(" "))
        body = max(size - conn_len - 1, 6)
        period = _leaf(".", ".")
        if kind == "sub" and self.rng.random() < 0.65:
            inner = self.clause(body // 2, 3)
            conn = self.connective_nodes(key, False)
            sbar = Node("SBAR", conn + [inner])
            subject = self.noun_phrase(self.rng.randint(2, 4), 1)
            vp = self.verb_phrase(max(body - body // 2 - 3, 2), 1, extra=[sbar])
            tree = Node("S", [subject, vp, period])
            arg1 = [subject] + _off_path(vp, sbar)
            return tree, (conn, arg1, [inner])
        if kind == "sub":
            inner = self.clause(body // 2, 2)
            conn = self.connective_nodes(key, True)
            sbar = Node("SBAR", conn + [inner])
            main = self.clause(body - body // 2 - 1, 0)
            tree = Node("S", [sbar, _leaf(",", ",")] + main.children + [period])
            return tree, (conn, main.children, [inner])
        if kind == "coord":
            left = self.clause(body // 2, 1)
            right = self.clause(body - body // 2 - 1, 1)
            conn = self.connective_nodes(key, False)
            tree = Node("S", [left, _leaf(",", ",")] + conn + [right, period])
            return tree, (conn, [left], [right])
        if kind == "initial":
            main = self.clause(body - 1, 0)
            conn = self.connective_nodes(key, True)
            tree = Node("S", conn + [_leaf(",", ",")] + main.children + [period])
            return tree, (conn, None, main.children)
        main = self.clause(body, 0)
        subject, vp = main.children
        conn = self.connective_nodes(key, False)
        tree = Node("S", [subject] + conn + [vp, period])
        return tree, (conn, None, [subject, vp])

    def sense(self, key):
        weights = CONNECTIVES[key][1]
        labels = sorted(weights)
        return self.rng.choices(labels, [weights[label] for label in labels])[0]


def _off_path(verb_phrase, clause):
    """Children of a (possibly modal) verb phrase other than the clause
    hanging off it, descending into the inner verb phrase that holds it.
    """
    result = []
    for child in verb_phrase.children:
        if child is clause:
            continue
        if any(grandchild is clause for grandchild in child.children):
            result.extend(_off_path(child, clause))
        else:
            result.append(child)
    return result


def _index(tree):
    """Assign sentence-level token spans to every node; return the leaves."""
    leaves = tree.leaves()
    for i, leaf in enumerate(leaves):
        leaf.begin, leaf.end = i, i + 1

    def span(node):
        if node.word is None:
            for child in node.children:
                span(child)
            node.begin, node.end = node.children[0].begin, node.children[-1].end

    span(tree)
    return leaves


def _generate_document(grammar, doc_id, shape, sentence_count):
    rng = grammar.rng
    sentences = []
    surfaces = []
    offsets = []
    raw_parts = []
    char = 0
    gold = []
    for sent_index in range(sentence_count):
        size = rng.randint(*shape.tokens)
        relation = None
        if rng.random() < shape.connective_rate:
            kinds = ["sub", "sub", "coord"]
            if sent_index > 0:
                kinds += ["initial", "medial"]
            key = grammar.choice(grammar.by_kind[grammar.choice(kinds)])
            tree, relation = grammar.relation_sentence(size, key)
        else:
            tree = grammar.plain_sentence(size)
        leaves = _index(tree)
        first = leaves[0]
        if first.word.islower():
            first.word = first.word.capitalize()
        base = len(surfaces)
        words = []
        for i, leaf in enumerate(leaves):
            if i:
                char += 1
            words.append((leaf.word, leaf.label))
            surfaces.append(leaf.word)
            offsets.append((char, char + len(leaf.word), sent_index, i))
            char += len(leaf.word)
        char += 1
        raw_parts.append(" ".join(leaf.word for leaf in leaves))
        sentences.append(GenSentence(tree.bracketing(), words))

        def doc_span(nodes):
            return tuple(sorted(base + i for node in nodes
                                for i in range(node.begin, node.end)))

        if relation is not None:
            conn_nodes, arg1_nodes, arg2_nodes = relation
            connective = doc_span(conn_nodes)
            key = " ".join(surfaces[i].lower() for i in connective)
            if arg1_nodes is None:
                previous = sentences[sent_index - 1]
                arg1 = tuple(range(base - len(previous.words), base))
            else:
                arg1 = doc_span(arg1_nodes)
            gold.append(GoldRelation(doc_id, len(gold), "Explicit",
                                     (grammar.sense(key),), connective, arg1,
                                     doc_span(arg2_nodes), key, sent_index))
        elif sent_index > 0 and rng.random() < shape.implicit_rate:
            previous = sentences[sent_index - 1]
            arg1 = tuple(range(base - len(previous.words), base))
            arg2 = tuple(range(base, len(surfaces) - 1))
            relation_type = grammar.choice(["Implicit", "EntRel"])
            senses = ("EntRel",) if relation_type == "EntRel" else (
                grammar.choice(["Expansion.Conjunction", "Contingency.Cause.Reason",
                                "Comparison.Contrast", "Expansion.Restatement"]),)
            gold.append(GoldRelation(doc_id, len(gold), relation_type, senses,
                                     (), arg1, arg2, "", sent_index))
    return GenDocument(doc_id, sentences, "\n".join(raw_parts) + "\n",
                       offsets, surfaces), gold


def generate(workload, seed, split):
    """The train or test split of a workload, fully determined by its
    arguments; the two splits draw from differently seeded generators.
    """
    shape = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{split}")
    grammar = _Grammar(rng, shape)
    count = shape.train_docs if split == "train" else shape.test_docs
    prefix = "trn" if split == "train" else "tst"
    # Document lengths are spread evenly over the range and only their order
    # is drawn, so every seed gives a split of the same size and shape.
    low, high = shape.sentences
    lengths = [low + i * (high - low + 1) // count for i in range(count)]
    rng.shuffle(lengths)
    documents, gold = [], []
    for number, length in enumerate(lengths):
        doc, doc_gold = _generate_document(grammar, f"{prefix}_{number:05d}",
                                           shape, length)
        documents.append(doc)
        gold.extend(doc_gold)
    return Split(documents, gold)


def _span_json(document, indices):
    entries = [[*document.offsets[i][:2], i, *document.offsets[i][2:]]
               for i in indices]
    return {"RawText": " ".join(document.surfaces[i] for i in indices),
            "TokenList": entries}


def parses_json(split):
    data = {}
    for doc in split.documents:
        sentences = []
        base = 0
        for sentence in doc.sentences:
            words = []
            for i, (surface, pos) in enumerate(sentence.words):
                begin, end = doc.offsets[base + i][:2]
                words.append([surface, {"CharacterOffsetBegin": begin,
                                        "CharacterOffsetEnd": end,
                                        "Linkers": [], "PartOfSpeech": pos}])
            # Dependency triples are part of the shared-task format; the
            # parser discards them, but reading them is part of its cost.
            deps = [["dep", f"{sentence.words[i - 1][0]}-{i}",
                     f"{sentence.words[i][0]}-{i + 1}"]
                    for i in range(1, len(sentence.words))]
            sentences.append({"dependencies": deps,
                              "parsetree": f"( {sentence.bracketing} )",
                              "words": words})
            base += len(sentence.words)
        data[doc.doc_id] = {"sentences": sentences}
    return data


def relations_jsonl(split):
    by_id = {doc.doc_id: doc for doc in split.documents}
    lines = []
    for rel in split.gold:
        doc = by_id[rel.doc_id]
        lines.append(json.dumps({
            "Arg1": _span_json(doc, rel.arg1),
            "Arg2": _span_json(doc, rel.arg2),
            "Connective": _span_json(doc, rel.connective),
            "DocID": rel.doc_id,
            "ID": rel.relation_id,
            "Sense": list(rel.senses),
            "Type": rel.relation_type,
        }))
    return "\n".join(lines) + "\n"


def write_split(split, directory):
    """Write parses.json, relations.jsonl and raw/<DocID> under directory."""
    raw_dir = os.path.join(directory, "raw")
    os.makedirs(raw_dir, exist_ok=True)
    for doc in split.documents:
        with open(os.path.join(raw_dir, doc.doc_id), "w", encoding="utf-8") as handle:
            handle.write(doc.raw_text)
    with open(os.path.join(directory, "parses.json"), "w", encoding="utf-8") as handle:
        json.dump(parses_json(split), handle)
    with open(os.path.join(directory, "relations.jsonl"), "w", encoding="utf-8") as handle:
        handle.write(relations_jsonl(split))
