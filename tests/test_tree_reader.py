"""Differential tests: the token-pass tree reader and the one-walk alignment
against the frozen character scanner in ``tests/tree_reference.py``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqa.intent import (
    MAX_TREE_DEPTH,
    AlignmentError,
    TreeSyntaxError,
    align_to_question,
    parse_bracketed,
)
from tests import tree_reference
from tests.conftest import fixture_path
from tests.test_intent import ALL_CASES

# ASCII and Unicode spaces that str.isspace() accepts; U+200B is not one.
SPACES = [" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
ATOMS = ["NP", "NN", "dog", "?", ".", "\u00e9t\u00e9", "\u200b"]
TOKENS = ["(", ")", *ATOMS, *SPACES]
CHARS = ["(", ")", "a", "N", "?", "\u200b", *SPACES]

with open(fixture_path("golden.jsonl"), encoding="utf-8") as handle:
    GOLDEN_CASES = [(r["question"], r["tree"]) for r in map(json.loads, handle)]
CASES = ALL_CASES + GOLDEN_CASES


def outcome(parse, align, tree_text, question=None):
    try:
        tree = parse(tree_text)
        if question is not None:
            tree = align(tree, question)
        return ("ok", repr(tree))
    except TreeSyntaxError as exc:
        return ("TreeSyntaxError", exc.position, str(exc))
    except AlignmentError as exc:
        return ("AlignmentError", str(exc))


def assert_same(tree_text, question=None):
    got = outcome(parse_bracketed, align_to_question, tree_text, question)
    want = outcome(tree_reference.parse_bracketed, tree_reference.align_to_question, tree_text, question)
    assert got == want


def edit(text, position, op, char):
    """``text`` with ``char`` inserted at, or replacing, or the character at
    ``position`` deleted."""
    position %= len(text) + (op == "insert")
    tail = text[position:] if op == "insert" else text[position + 1:]
    return text[:position] + ("" if op == "delete" else char) + tail


_space = st.sampled_from(["", *SPACES])
_leaf = st.tuples(
    _space, st.sampled_from(ATOMS), st.sampled_from(SPACES), st.sampled_from(ATOMS), _space
).map(lambda t: "({}{}{}{}{})".format(*t))
_tree = st.recursive(
    _leaf,
    lambda kids: st.tuples(st.sampled_from(ATOMS), st.lists(st.tuples(_space, kids), max_size=3)).map(
        lambda t: "(" + t[0] + "".join(space + kid for space, kid in t[1]) + ")"
    ),
    max_leaves=8,
)
_edit = st.tuples(st.integers(0, 400), st.sampled_from(["insert", "delete", "replace"]), st.sampled_from(CHARS))


@settings(max_examples=400, derandomize=True)
@given(st.lists(st.sampled_from(TOKENS), max_size=16).map("".join))
def test_token_soup_parses_as_the_reference(text):
    assert_same(text)


@settings(max_examples=300, derandomize=True)
@given(st.tuples(_space, _tree, _space).map("".join), _edit, st.booleans())
def test_generated_trees_parse_and_align_as_the_reference(tree_text, change, edited):
    if edited:
        tree_text = edit(tree_text, *change)
    assert_same(tree_text)
    try:
        words = tree_reference.parse_bracketed(tree_text).text()
    except TreeSyntaxError:
        return
    assert_same(tree_text, words)
    assert_same(tree_text, edit(words, *change))


@pytest.mark.parametrize("depth", [MAX_TREE_DEPTH, MAX_TREE_DEPTH + 1])
@pytest.mark.parametrize("innermost, closing", [
    ("(NN dog)", 0), ("(NN dog)", -1), ("(NN dog)", 1), ("(NN dog cat)", 0), ("(NN)", 0), ("()", 0),
])
def test_nesting_at_and_beyond_the_cap(depth, innermost, closing):
    assert_same("(X " * (depth - 1) + innermost + ")" * (depth - 1 + closing))


@settings(max_examples=300, derandomize=True)
@given(st.sampled_from(CASES), _edit)
def test_fixture_trees_with_one_character_edited(case, change):
    question, tree_text = case
    assert_same(tree_text)
    assert_same(tree_text, question)
    assert_same(edit(tree_text, *change))
    assert_same(edit(tree_text, *change), question)


@settings(max_examples=300, derandomize=True)
@given(st.sampled_from(CASES), _edit)
def test_fixture_questions_with_one_character_edited(case, change):
    question, tree_text = case
    assert_same(tree_text, edit(question, *change))
