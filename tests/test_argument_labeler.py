import random

from discoparse import (ConnectiveCandidate, ConnectiveLexicon,
                        ConnectiveStats, ConstituentLabel, Leaf,
                        exact_cover_chain, extract_connective_features,
                        extract_node_features, find_candidates,
                        merge_arguments, mine_lexicon, parse_document,
                        parse_ptb, path_to_root, prune_candidates)
from discoparse.argument_labeler import (NODE_FEATURES, POSITION_LEFT,
                                         POSITION_RIGHT, classify_constituents,
                                         gold_constituent_label)
from discoparse.connective_annotator import CONNECTIVE_FEATURES, USAGE_POSITIVE
from discoparse.decision_tree import Branch
from discoparse.pipeline import ParserModel

import fixture_corpus
from conftest import nodes_by_label
from support import (bruteforce_prune, load_document, random_tree_text,
                     render_path, walk)


def _reference_parts(document):
    tree = document.sentences[0].tree
    table = nodes_by_label(tree)
    vp_inner = table["VP"][1]
    return {
        "np1": tree.children[0],
        "md": table["VP"][0].children[0],
        "vb": vp_inner.children[0],
        "np2": vp_inner.children[1],
        "sbar": table["SBAR"][0],
        "whadvp": table["WHADVP"][0],
        "wrb": table["WRB"][0],
        "s2": table["SBAR"][0].children[1],
    }


# "when" in the reference sentence.
WHEN_CANDIDATE = ConnectiveCandidate(0, 5, 6, "when")


def _node_features(node, candidate, sentence):
    chain = exact_cover_chain(sentence.tree,
                              (candidate.token_begin, candidate.token_end))
    features = extract_connective_features(candidate, sentence, chain)
    return extract_node_features(node, candidate, features,
                                 path_to_root(chain[0]), len(chain) - 1)


def test_pruning_on_reference_tree(reference_document):
    parts = _reference_parts(reference_document)
    pruned = prune_candidates(parts["wrb"])
    expected = [parts["np1"], parts["md"], parts["vb"], parts["np2"], parts["s2"]]
    assert pruned == expected  # document order
    assert {id(n) for n in pruned} == {id(n) for n in expected}


def test_pruning_from_root_yields_its_children(reference_document):
    # Degenerate anchor: with P = [root], the definition admits exactly the
    # root's non-terminal children.
    tree = reference_document.sentences[0].tree
    assert prune_candidates(tree) == list(tree.children)


def test_pruning_matches_bruteforce(random_trees):
    rng = random.Random(41)
    for tree in random_trees:
        preterminals = [n for n in walk(tree)
                        if not n.is_terminal and n.children[0].is_terminal]
        anchor = rng.choice(preterminals)
        pruned = prune_candidates(anchor)
        assert {id(n) for n in pruned} == \
            {id(n) for n in bruteforce_prune(tree, anchor)}
        on_path = set()
        node = anchor
        while node is not None:
            on_path.add(id(node))
            node = node.parent
        for candidate in pruned:
            assert id(candidate) not in on_path
            assert id(candidate.parent) in on_path


def test_pruning_order_matches_bruteforce():
    # The oracle filters a pre-order walk, so it is in document order; the
    # comparison is of ordered lists, not of id sets.
    rng = random.Random(20150526)
    for _ in range(200):
        tree = parse_ptb(random_tree_text(rng, max_depth=8, max_branch=4))
        anchor = rng.choice([n for n in walk(tree) if not n.is_terminal])
        pruned = prune_candidates(anchor)
        oracle = bruteforce_prune(tree, anchor)
        assert len(pruned) == len(oracle)
        assert all(a is b for a, b in zip(pruned, oracle))


def test_node_features_for_subordinate_clause(reference_document):
    parts = _reference_parts(reference_document)
    sentence = reference_document.sentences[0]
    vector = _node_features(parts["s2"], WHEN_CANDIDATE, sentence)
    assert vector["path_to_self_cat"] == "S ↑ SBAR ↓ WHADVP"
    assert vector["node_context"] == "S-SBAR-WHADVP-null"
    assert vector["node_position"] == POSITION_RIGHT
    assert vector["conn_lowercase"] == "when"
    assert len(vector) == 9


def test_node_position_left_of_connective(reference_document):
    parts = _reference_parts(reference_document)
    sentence = reference_document.sentences[0]
    vector = _node_features(parts["np1"], WHEN_CANDIDATE, sentence)
    assert vector["node_position"] == POSITION_LEFT
    # Up to the root, then down the connective's path to its chain top.
    assert vector["path_to_self_cat"] == "NP ↑ S ↓ VP ↓ VP ↓ SBAR ↓ WHADVP"


def test_path_to_self_cat_of_a_child_of_the_chain_only_rises(reference_document):
    # "arbitrage when" crosses constituents: the inner VP, its lowest cover,
    # is the whole chain, and its children are pruned candidates.
    parts = _reference_parts(reference_document)
    sentence = reference_document.sentences[0]
    candidate = ConnectiveCandidate(0, 4, 6, "arbitrage when")
    assert _node_features(parts["np2"], candidate, sentence)["path_to_self_cat"] == "NP ↑ VP"
    assert _node_features(parts["sbar"], candidate, sentence)["path_to_self_cat"] == "SBAR ↑ VP"


def test_node_features_copy_the_connective_features(reference_document):
    sentence = reference_document.sentences[0]
    candidate = WHEN_CANDIDATE
    chain = exact_cover_chain(sentence.tree,
                              (candidate.token_begin, candidate.token_end))
    features = extract_connective_features(candidate, sentence, chain)
    before = dict(features)
    path = path_to_root(chain[0])
    vectors = [extract_node_features(node, candidate, features, path, len(chain) - 1)
               for node in prune_candidates(chain[0])]
    assert features == before
    assert all(vector is not features and len(vector) == 9 for vector in vectors)


def _random_spans(tree, rng, count):
    """count spans of tree: half the spans of random non-terminal nodes,
    which have exact-cover chains, half random ranges, which mostly cross
    constituents."""
    nodes = [n for n in walk(tree) if not n.is_terminal]
    spans = []
    for _ in range(count // 2):
        node = rng.choice(nodes)
        spans.append((node.token_begin, node.token_end))
        spans.append(tuple(sorted(rng.sample(range(tree.token_end + 1), 2))))
    return spans


def test_path_to_self_cat_matches_the_lowest_common_ancestor_path(random_trees):
    rng = random.Random(7)
    checked = 0
    for tree in random_trees:
        for begin, end in _random_spans(tree, rng, 10):
            chain = exact_cover_chain(tree, (begin, end))
            path = path_to_root(chain[0])
            candidate = ConnectiveCandidate(0, begin, end, "x")
            for node in prune_candidates(chain[0]):
                vector = extract_node_features(node, candidate, {}, path, len(chain) - 1)
                assert vector["path_to_self_cat"] == render_path(node, chain[-1])
                checked += 1
    assert checked > 10000


def test_classify_constituents_single_leaf(reference_document):
    parts = _reference_parts(reference_document)
    sentence = reference_document.sentences[0]
    candidate = WHEN_CANDIDATE
    pairs = [(node, _node_features(node, candidate, sentence))
             for node in prune_candidates(parts["wrb"])]
    labels = classify_constituents(pairs, Leaf("None", {"None": 1}))
    assert set(labels.values()) == {ConstituentLabel.NONE}
    assert classify_constituents([], Leaf("None", {"None": 1})) == {}


def test_feature_names_are_the_keys_the_extractors_give(corpus_documents,
                                                        corpus_gold):
    # ParserModel checks branch features against these two tuples.
    lexicon = mine_lexicon(corpus_gold, corpus_documents)
    node_vectors = 0
    for document in corpus_documents.values():
        for candidate in find_candidates(document, lexicon):
            sentence = document.sentences[candidate.sent_index]
            chain = exact_cover_chain(sentence.tree, (candidate.token_begin,
                                                      candidate.token_end))
            features = extract_connective_features(candidate, sentence, chain)
            assert sorted(features) == sorted(CONNECTIVE_FEATURES)
            path = path_to_root(chain[0])
            for node in prune_candidates(chain[0]):
                vector = extract_node_features(node, candidate, features, path,
                                               len(chain) - 1)
                assert sorted(vector) == sorted(NODE_FEATURES)
                node_vectors += 1
    assert node_vectors


def test_gold_projection_requires_full_containment(reference_document):
    parts = _reference_parts(reference_document)
    sentence = reference_document.sentences[0]
    ref = fixture_corpus.REFERENCE_RELATION
    assert gold_constituent_label(parts["s2"], sentence,
                                  ref["arg1"], ref["arg2"]) is ConstituentLabel.ARG2_PART
    assert gold_constituent_label(parts["np1"], sentence,
                                  ref["arg1"], ref["arg2"]) is ConstituentLabel.ARG1_PART
    # SBAR covers the connective and Arg2: inside neither span entirely.
    assert gold_constituent_label(parts["sbar"], sentence,
                                  ref["arg1"], ref["arg2"]) is ConstituentLabel.NONE


def test_merge_reference_labels(reference_document):
    parts = _reference_parts(reference_document)
    labels = {
        parts["np1"]: ConstituentLabel.ARG1_PART,
        parts["md"]: ConstituentLabel.ARG1_PART,
        parts["vb"]: ConstituentLabel.ARG1_PART,
        parts["np2"]: ConstituentLabel.ARG1_PART,
        parts["s2"]: ConstituentLabel.ARG2_PART,
    }
    merged = merge_arguments(labels, WHEN_CANDIDATE, reference_document)
    assert merged == ((0, 1, 2, 3, 4), (6, 7, 8, 9, 10))
    flat = reference_document.tokens
    assert " ".join(flat[i].surface for i in merged[0]) == \
        "We would stop index arbitrage"
    assert " ".join(flat[i].surface for i in merged[1]) == \
        "the market is under stress"


def test_merge_without_arg1_uses_previous_sentence(corpus_documents):
    doc = corpus_documents["fix01"]
    connective = ConnectiveCandidate(1, 0, 1, "however")
    merged = merge_arguments({}, connective, doc)
    assert merged is not None
    arg1, arg2 = merged
    assert arg1 == tuple(t.doc_index for t in doc.sentences[0].tokens)
    # Degenerate Arg2: sentence minus connective minus Arg1.
    rest = tuple(t.doc_index for t in doc.sentences[1].tokens[1:])
    assert arg2 == rest


def test_merge_without_arg1_in_first_sentence_drops(reference_document):
    assert merge_arguments({}, WHEN_CANDIDATE, reference_document) is None


def test_merge_without_arg2_takes_sentence_remainder(reference_document):
    parts = _reference_parts(reference_document)
    labels = {parts["np1"]: ConstituentLabel.ARG1_PART}
    merged = merge_arguments(labels, WHEN_CANDIDATE, reference_document)
    arg1, arg2 = merged
    assert arg1 == (0,)
    assert arg2 == (1, 2, 3, 4, 6, 7, 8, 9, 10)


def test_merge_arg2_wins_overlap(reference_document):
    parts = _reference_parts(reference_document)
    labels = {
        parts["s2"]: ConstituentLabel.ARG2_PART,
        parts["sbar"]: ConstituentLabel.ARG1_PART,  # overlaps Arg2 and connective
    }
    # Everything under SBAR is connective or Arg2, so Arg1 is empty, and
    # the first sentence has no previous sentence to stand in for it.
    assert merge_arguments(labels, WHEN_CANDIDATE, reference_document) is None


JOHN_LEFT = "(S (NP (NNP John)) (VP (VBD left)) (. .))"
AS_SOON_AS = "(S (ADVP (RB as) (RB soon)) (SBAR (IN as) (S (NP (PRP he)) (VP (VBD left)))))"


def _model(key, argument_tree):
    """A model that takes every match of key as a connective and labels
    its candidates with argument_tree."""
    lexicon = ConnectiveLexicon({key: ConnectiveStats(1, {"Temporal": 1})})
    return ParserModel(lexicon, Leaf(USAGE_POSITIVE, {USAGE_POSITIVE: 1}), argument_tree)


def test_arg1_nodes_inside_arg2_fall_back_to_the_previous_sentence():
    document = load_document([JOHN_LEFT, fixture_corpus.REFERENCE_BRACKETING])
    sbar = nodes_by_label(document.sentences[1].tree)["SBAR"][0]
    labels = {sbar.children[1]: ConstituentLabel.ARG2_PART,
              sbar: ConstituentLabel.ARG1_PART}
    merged = merge_arguments(labels, ConnectiveCandidate(1, 5, 6, "when"), document)
    assert merged == ((0, 1, 2), (9, 10, 11, 12, 13))


def test_arg1_nodes_of_connective_tokens_fall_back_or_drop():
    # "as soon as" crosses constituents; ADVP holds only connective tokens.
    label_by_path = Branch("path_to_self_cat", {
        "ADVP ↑ S": Leaf("Arg1Part", {"Arg1Part": 1}),
        "SBAR ↑ S": Leaf("Arg2Part", {"Arg2Part": 1}),
    }, "SBAR ↑ S")
    model = _model("as soon as", label_by_path)
    relation, = parse_document(load_document([JOHN_LEFT, AS_SOON_AS]), model)
    assert relation.connective_tokens == (3, 4, 5)
    assert relation.arg1_tokens == (0, 1, 2)
    assert relation.arg2_tokens == (6, 7)
    assert parse_document(load_document([AS_SOON_AS]), model) == []


def test_a_connective_alone_in_its_sentence_is_dropped():
    # "John left. However": no candidate, and no token left for Arg2.
    document = load_document([JOHN_LEFT, "(FRAG (RB However))"])
    assert merge_arguments({}, ConnectiveCandidate(1, 0, 1, "however"), document) is None
    model = _model("however", Leaf("None", {"None": 1}))
    assert parse_document(document, model) == []


def test_merge_outputs_disjoint_and_sorted(reference_document):
    parts = _reference_parts(reference_document)
    labels = {
        parts["np2"]: ConstituentLabel.ARG1_PART,
        parts["np1"]: ConstituentLabel.ARG1_PART,
        parts["s2"]: ConstituentLabel.ARG2_PART,
    }
    arg1, arg2 = merge_arguments(labels, WHEN_CANDIDATE, reference_document)
    assert list(arg1) == sorted(set(arg1))
    assert list(arg2) == sorted(set(arg2))
    assert set(arg1).isdisjoint(arg2)
    assert 5 not in arg1 and 5 not in arg2
