import random

import pytest

from discoparse import parse_ptb

import fixture_corpus
from support import random_tree_text, walk


@pytest.fixture
def reference_tree():
    return parse_ptb(fixture_corpus.REFERENCE_BRACKETING)


@pytest.fixture
def reference_document():
    return fixture_corpus.reference_document()


@pytest.fixture
def corpus_documents():
    return fixture_corpus.corpus_documents()


@pytest.fixture
def corpus_gold():
    return fixture_corpus.corpus_gold()


@pytest.fixture(scope="session")
def random_trees():
    """200 seeded random trees (depth <= 8, branching <= 4), built once and
    shared: trees are never mutated after parse_ptb."""
    rng = random.Random(20150526)
    return tuple(parse_ptb(random_tree_text(rng)) for _ in range(200))


def nodes_by_label(tree):
    """label -> list of non-terminal nodes, in document order."""
    table = {}
    for node in walk(tree):
        if not node.is_terminal:
            table.setdefault(node.label, []).append(node)
    return table
