import random

import pytest

from discoparse import exact_cover_chain, node_context, parse_ptb, path_to_root
from discoparse.errors import TreeParseError
from discoparse.parse_tree import _parse_ptb_leaves

import fixture_corpus
from conftest import nodes_by_label
from support import (random_tree_text, walk, walk_exact_cover_chain,
                     walk_node_contexts)


def test_reference_tree_structure(reference_tree):
    assert reference_tree.label == "S"
    assert [c.label for c in reference_tree.children] == ["NP", "VP"]
    sbar = nodes_by_label(reference_tree)["SBAR"][0]
    assert [c.label for c in sbar.children] == ["WHADVP", "S"]
    leaves = [n for n in walk(reference_tree) if not n.children]
    assert len(leaves) == 11
    assert leaves[5].label == "when"
    assert leaves[5].parent.label == "WRB"


def test_single_token_tree():
    tree = parse_ptb("(ROOT (NN dog))")
    assert tree.label == "ROOT"
    assert len(tree.children) == 1
    pos = tree.children[0]
    assert pos.label == "NN"
    assert not pos.children[0].children
    assert pos.children[0].label == "dog"
    assert (tree.token_begin, tree.token_end) == (0, 1)


def test_unlabeled_wrapper_becomes_root():
    tree = parse_ptb("( (S (NN dog) (VB barks)) )")
    assert tree.label == "ROOT"
    assert tree.children[0].label == "S"
    assert tree.token_end == 2


@pytest.mark.parametrize("bad", ["", "   ", "(S (NP", "(S (NN dog)) extra)",
                                 "dog", "()", "(S ())"])
def test_parse_errors(bad):
    with pytest.raises(TreeParseError):
        parse_ptb(bad)


def test_parse_error_reports_position():
    with pytest.raises(TreeParseError) as excinfo:
        parse_ptb("(S (NN dog)")
    assert "character" in str(excinfo.value)


def test_render_parse_round_trip(random_trees):
    for tree in random_trees:
        assert parse_ptb(tree.to_bracketing()).to_bracketing() == tree.to_bracketing()
    for bracketings in fixture_corpus.DOCS.values():
        for text in bracketings:
            assert parse_ptb(text).to_bracketing() == text


def test_self_cat_whole_sentence_is_root(reference_tree):
    assert exact_cover_chain(reference_tree, (0, 11))[-1] is reference_tree


def test_self_cat_object_span(reference_tree):
    # "index arbitrage" is exactly the object NP under the inner VP.
    np2 = nodes_by_label(reference_tree)["VP"][1].children[1]
    assert np2.label == "NP"
    assert exact_cover_chain(reference_tree, (3, 5))[-1] is np2


def test_exact_cover_chain_is_unary(reference_tree):
    chain = exact_cover_chain(reference_tree, (5, 6))
    assert [node.label for node in chain] == ["WRB", "WHADVP"]
    assert exact_cover_chain(reference_tree, (5, 6))[-1].label == "WHADVP"


def test_self_cat_falls_back_to_lowest_cover(reference_tree):
    # "arbitrage when" crosses constituents; the inner VP is the lowest cover.
    node = exact_cover_chain(reference_tree, (4, 6))[-1]
    assert node is nodes_by_label(reference_tree)["VP"][1]


def test_self_cat_rejects_bad_ranges(reference_tree):
    with pytest.raises(ValueError):
        exact_cover_chain(reference_tree, (3, 3))
    with pytest.raises(ValueError):
        exact_cover_chain(reference_tree, (0, 99))


def test_path_to_root_labels(reference_tree):
    wrb = nodes_by_label(reference_tree)["WRB"][0]
    assert [n.label for n in path_to_root(wrb)] == \
        ["WRB", "WHADVP", "SBAR", "VP", "VP", "S"]


def test_path_to_root_of_root(reference_tree):
    assert path_to_root(reference_tree) == [reference_tree]


def test_path_to_root_is_parent_chain(random_trees):
    for tree in random_trees[:50]:
        depths = {id(tree): 0}
        for node in walk(tree):
            for child in node.children:
                depths[id(child)] = depths[id(node)] + 1
        for node in walk(tree):
            path = path_to_root(node)
            assert path[-1] is tree
            for child, parent in zip(path, path[1:]):
                assert child.parent is parent
            assert len(path) == depths[id(node)] + 1


def test_node_context_subordinate_clause(reference_tree):
    s2 = nodes_by_label(reference_tree)["SBAR"][0].children[1]
    assert node_context(s2) == ("S", "SBAR", "WHADVP", "null")


def test_node_context_root(reference_tree):
    assert node_context(reference_tree) == ("S", "null", "null", "null")


def test_node_context_object_np(reference_tree):
    np2 = nodes_by_label(reference_tree)["VP"][1].children[1]
    assert node_context(np2) == ("NP", "VP", "VB", "SBAR")


def test_node_context_matches_root_down_oracle(random_trees):
    for tree in random_trees:
        oracle = walk_node_contexts(tree)
        for node in walk(tree):
            assert node_context(node) == oracle[id(node)]


def test_children_are_tuples(random_trees):
    for tree in random_trees:
        for node in walk(tree):
            assert type(node.children) is tuple


def test_self_cat_is_ancestor_or_self(random_trees):
    for tree in random_trees[:50]:
        for node in walk(tree):
            found = exact_cover_chain(tree, (node.token_begin, node.token_end))[-1]
            ancestors = {id(n) for n in path_to_root(node)}
            assert id(found) in ancestors
            assert found.token_begin <= node.token_begin
            assert found.token_end >= node.token_end


def test_covered_tokens_concatenate(random_trees):
    for tree in random_trees[:50]:
        for node in walk(tree):
            if not node.children:
                continue
            begin = node.token_begin
            for child in node.children:
                assert child.token_begin == begin
                begin = child.token_end
            assert begin == node.token_end


def test_reader_leaves_are_the_terminals_in_order():
    # Loading aligns these leaves with the words, so they must be exactly
    # the tree's terminals, left to right.
    rng = random.Random(23)
    for _ in range(100):
        tree, leaves = _parse_ptb_leaves(random_tree_text(rng))
        terminals = [n for n in walk(tree) if not n.children]
        assert len(leaves) == len(terminals) == tree.token_end
        assert all(a is b for a, b in zip(leaves, terminals))
        assert [(n.token_begin, n.token_end) for n in leaves] == \
            [(i, i + 1) for i in range(len(leaves))]


def test_random_tree_text_respects_bounds():
    rng = random.Random(99)
    for _ in range(50):
        tree = parse_ptb(random_tree_text(rng))
        for node in walk(tree):
            assert len(node.children) <= 4
            assert len(path_to_root(node)) <= 10  # 8 internal levels + POS + word


def _cover_test_spans(tree, rng):
    """Every valid span of a tree of at most 60 tokens; 30 drawn at random
    from a larger one (all of its spans would take minutes to check).
    """
    size = tree.token_end
    if size <= 60:
        return [(b, e) for b in range(size) for e in range(b + 1, size + 1)]
    spans = []
    for _ in range(30):
        begin, end = sorted(rng.sample(range(size + 1), 2))
        spans.append((begin, end))
    return spans


def test_exact_cover_chain_matches_whole_tree_search(random_trees):
    # Most spans cross constituent boundaries and have no exact cover.
    rng = random.Random(5)
    checked = uncovered = 0
    for tree in random_trees:
        for begin, end in _cover_test_spans(tree, rng):
            oracle = walk_exact_cover_chain(tree, (begin, end))
            found = exact_cover_chain(tree, (begin, end))
            assert len(found) == len(oracle)
            assert all(a is b for a, b in zip(found, oracle))
            checked += 1
            uncovered += (oracle[0].token_begin, oracle[0].token_end) != (begin, end)
    assert checked > 20000
    assert 0 < uncovered < checked


DEEP = 1200


def _deep_bracketing(depth):
    return "(S " * depth + "(NN dog)" + ")" * depth


def test_deeply_nested_bracketing_parses():
    text = _deep_bracketing(DEEP)
    tree = parse_ptb(text)
    assert tree.to_bracketing() == text
    leaf = next(n for n in walk(tree) if not n.children)
    assert len(path_to_root(leaf)) == DEEP + 2
    assert (tree.token_begin, tree.token_end) == (0, 1)
    chain = exact_cover_chain(tree, (0, 1))
    assert len(chain) == DEEP + 1
    assert chain[-1] is tree


@pytest.mark.parametrize("text,message,position", [
    ("(S (NP", "unbalanced bracketing, missing ')'", 3),
    ("(S (NN dog)", "unbalanced bracketing, missing ')'", 0),
    ("(S (NN dog)) extra)", "trailing content after tree", 13),
    ("()", "node '' has no children", 0),
    ("(S ())", "node '' has no children", 3),
    ("(S (NP) (NN dog))", "node 'NP' has no children", 3),
    ("dog", "expected '('", 0),
    ("(S", "unbalanced bracketing, missing ')'", 0),
    ("(S (NN dog)))", "trailing content after tree", 12),
])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(TreeParseError) as excinfo:
        parse_ptb(text)
    assert str(excinfo.value) == f"{message} (at character {position})"
    assert excinfo.value.position == position


def test_deep_bracketing_errors_keep_their_positions():
    text = _deep_bracketing(DEEP)
    with pytest.raises(TreeParseError) as excinfo:
        parse_ptb(text[:-1])
    # The innermost unclosed node is the outermost S.
    assert excinfo.value.position == 0
    with pytest.raises(TreeParseError) as excinfo:
        parse_ptb(text.replace("(NN dog)", "()"))
    assert excinfo.value.position == 3 * DEEP
