"""Frozen reference for the bracketed-tree reader and the leaf alignment.

A character scanner: whitespace is skipped with ``str.isspace`` one character
at a time, labels and tokens are read up to the next bracket or space, and
leaf spans come from joining the tokens with single spaces.  The alignment
collects every leaf's span in one walk and rebuilds the tree in a second.
The differential tests compare ``graphqa.intent.parse_bracketed`` and
``align_to_question`` with the functions here, so any change in the tree they
build, or in the error they raise, shows up.  Only the result types
(``ParseTree``, ``TreeSyntaxError``, ``AlignmentError``) and ``MAX_TREE_DEPTH``
are shared with the engine.
"""

import re

from graphqa.intent import MAX_TREE_DEPTH, AlignmentError, ParseTree, TreeSyntaxError

_TOKEN_SPLIT_RE = re.compile(r"[()\s]")


def parse_bracketed(text):
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_atom():
        nonlocal pos
        start = pos
        while pos < n and not _TOKEN_SPLIT_RE.match(text[pos]):
            pos += 1
        if pos == start:
            raise TreeSyntaxError(pos, "expected a label or token")
        return text[start:pos]

    offset = 0

    def read_node(depth):
        nonlocal pos, offset
        if depth > MAX_TREE_DEPTH:
            raise TreeSyntaxError(pos, f"tree nested deeper than {MAX_TREE_DEPTH} levels")
        skip_ws()
        if pos >= n or text[pos] != "(":
            raise TreeSyntaxError(pos, "expected '('")
        pos += 1
        skip_ws()
        label = read_atom()
        children = []
        leaf_token = None
        while True:
            skip_ws()
            if pos >= n:
                raise TreeSyntaxError(pos, "unbalanced brackets")
            if text[pos] == ")":
                pos += 1
                break
            if text[pos] == "(":
                if leaf_token is not None:
                    raise TreeSyntaxError(pos, "mixed token and constituent content")
                children.append(read_node(depth + 1))
            else:
                if leaf_token is not None or children:
                    raise TreeSyntaxError(pos, "mixed token and constituent content")
                leaf_token = read_atom()
                leaf_start = offset
                offset = leaf_start + len(leaf_token)
                leaf_end = offset
                offset += 1  # single joining space
        if leaf_token is not None:
            return ParseTree(label, (), leaf_token, leaf_start, leaf_end)
        if not children:
            raise TreeSyntaxError(pos, f"empty constituent ({label})")
        return ParseTree(label, tuple(children), None, children[0].start, children[-1].end)

    skip_ws()
    root = read_node(1)
    skip_ws()
    if pos != n:
        raise TreeSyntaxError(pos, "trailing content after tree")
    return root


def align_to_question(tree, question):
    cursor = 0
    spans = []
    for leaf in tree.leaves():
        token = leaf.token
        if re.fullmatch(r"\w+", token):
            match = re.compile(rf"\b{re.escape(token)}\b").search(question, cursor)
            found = match.start() if match else -1
        else:
            found = question.find(token, cursor)
        if found < 0:
            raise AlignmentError(f"token {token!r} not found in question after offset {cursor}")
        spans.append((found, found + len(token)))
        cursor = found + len(token)

    it = iter(spans)

    def rebuild(node):
        if node.is_leaf:
            start, end = next(it)
            return ParseTree(node.label, (), node.token, start, end)
        kids = tuple(rebuild(c) for c in node.children)
        return ParseTree(node.label, kids, None, kids[0].start, kids[-1].end)

    return rebuild(tree)
