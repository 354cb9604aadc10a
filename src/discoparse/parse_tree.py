"""Immutable constituency trees parsed from PTB bracketings.

Provides what every syntactic feature reads: covered token spans, the
exact-cover chain of a span, paths to the root, and node_context, the one
reader of parent and sibling labels.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import TreeParseError

NULL_LABEL = "null"


class ConstituentNode:
    """One node of a constituency tree.

    Terminals carry the token surface as their label; the POS tag is the
    label of the terminal's parent. parse_ptb fills in children (a tuple,
    empty on terminals), parents and covered token ranges once; trees are
    never mutated after that, so they are safe to share between threads.
    """

    __slots__ = ("label", "children", "is_terminal", "parent",
                 "token_begin", "token_end")

    def __init__(self, label, is_terminal=False):
        self.label = label
        self.children = ()
        self.is_terminal = is_terminal
        self.parent = None
        self.token_begin = -1
        self.token_end = -1

    def to_bracketing(self):
        """PTB bracketing of the subtree, at any depth (explicit stack, not recursion)."""
        parts = []
        stack = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.is_terminal:
                parts.append(item.label)
            else:
                parts.append(f"({item.label} ")
                stack.append(")")
                for child in reversed(item.children[1:]):
                    stack += (child, " ")
                stack.extend(item.children[:1])
        return "".join(parts)

    def __repr__(self):
        kind = "terminal" if self.is_terminal else "node"
        return f"<{kind} {self.label!r} [{self.token_begin},{self.token_end})>"


# A token is a bracket or a maximal run of other non-space characters.
_TOKEN = r"[()]|[^\s()]+"


def _tokenize(text):
    """The tokens of _TOKEN, in order; splitting is faster than matching."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _char_position(text, token_index):
    """Character position of the token_index-th token of text."""
    return next(islice(re.finditer(_TOKEN, text), token_index, None)).start()


def _parse_tokens(text, tokens):
    """Build the tree of the bracketing that starts at tokens[0], a '(',
    in one pass: parents, children and covered token spans are set as
    nodes open and close.

    Returns the root, its leaves (terminals) in order and the index of the
    first token after it. Open nodes wait on an explicit stack as (node,
    label, token index, children), so nesting depth is not bounded by the
    interpreter's recursion limit.
    """
    size = len(tokens)
    stack = []
    leaves = []
    index = 0
    while True:
        value = tokens[index]
        index += 1
        if value == ")":
            node, label, opened, children = stack.pop()
            if not children:
                raise TreeParseError(f"node '{label}' has no children",
                                     position=_char_position(text, opened))
            node.children = tuple(children)
            node.token_begin = children[0].token_begin
            node.token_end = children[-1].token_end
            if not stack:
                return node, leaves, index
        else:
            if value == "(":
                opened = index - 1
                label = ""
                if index < size and tokens[index] not in "()":
                    label = tokens[index]
                    index += 1
                # Unlabeled wrappers emitted by some parsers become an explicit ROOT.
                node = ConstituentNode(label or "ROOT")
            else:
                node = ConstituentNode(value, is_terminal=True)
                node.token_begin = len(leaves)
                node.token_end = len(leaves) + 1
                leaves.append(node)
            if stack:
                parent, _, _, siblings = stack[-1]
                node.parent = parent
                siblings.append(node)
            if value == "(":
                stack.append((node, label, opened, []))
        if index >= size:
            raise TreeParseError("unbalanced bracketing, missing ')'",
                                 position=_char_position(text, stack[-1][2]))


def parse_ptb(bracketing):
    """Parse a PTB s-expression into a finalized ConstituentNode tree.

    Raises TreeParseError on input that is not a string, and (with a
    character position) on empty input, unbalanced parentheses, childless
    nodes or trailing content.
    """
    return _parse_ptb_leaves(bracketing)[0]


def _parse_ptb_leaves(bracketing):
    """The root of parse_ptb and its leaves in order, from one pass."""
    if not isinstance(bracketing, str):
        raise TreeParseError(f"bracketing is not a string: {bracketing!r}")
    if not bracketing.strip():
        raise TreeParseError("empty bracketing", position=0)
    tokens = _tokenize(bracketing)
    if tokens[0] != "(":
        raise TreeParseError("expected '('", position=_char_position(bracketing, 0))
    root, leaves, next_index = _parse_tokens(bracketing, tokens)
    if next_index != len(tokens):
        raise TreeParseError("trailing content after tree",
                             position=_char_position(bracketing, next_index))
    return root, leaves


def _validate_range(tree, token_range):
    begin, end = token_range
    if not (0 <= begin < end <= tree.token_end):
        raise ValueError(
            f"token range [{begin}, {end}) outside sentence of "
            f"{tree.token_end} tokens")
    return begin, end


def exact_cover_chain(tree, token_range):
    """Non-terminal nodes covering exactly token_range, bottom to top.

    Exact covers of one span always form a chain of unary ancestors, e.g.
    a POS node and a phrase node wrapping only it. When nothing covers the
    span exactly (a multiword span crossing constituent boundaries) the
    lowest node covering a superset of the span is returned alone.

    Sibling spans are disjoint, so at most one child of a node covers the
    span: the search descends from the root along that child to the lowest
    cover, recording the nodes it passes. The exact covers are the trailing
    run of those nodes.
    """
    begin, end = _validate_range(tree, token_range)
    descent = [tree]
    while True:
        # The first child ending after begin is the only one that can cover.
        child = next(child for child in descent[-1].children if child.token_end > begin)
        if child.is_terminal or child.token_end < end:
            break
        descent.append(child)
    chain = []
    while descent and descent[-1].token_begin == begin and descent[-1].token_end == end:
        chain.append(descent.pop())
    return chain or descent[-1:]


def path_to_root(node):
    """The node sequence [node, parent(node), ..., root]."""
    path = [node]
    while path[-1].parent is not None:
        path.append(path[-1].parent)
    return path


def node_context(node):
    """(label, parent label, left sibling label, right sibling label).

    Absent relatives are rendered as the literal text "null".
    """
    parent = node.parent
    if parent is None:
        return (node.label, NULL_LABEL, NULL_LABEL, NULL_LABEL)
    siblings = parent.children
    index = siblings.index(node)  # by identity: nodes define no __eq__
    left = siblings[index - 1].label if index else NULL_LABEL
    right = siblings[index + 1].label if index + 1 < len(siblings) else NULL_LABEL
    return (node.label, parent.label, left, right)
