"""The exit-code contract as a property: the fixture documents, edited at
random, run through every subcommand that reads their kind.

An edit walks from the top of a document to a value and retypes, deletes,
renames or duplicates it. Retyped values are drawn from atoms that broke
the contract in the past: a value of another JSON type, among them long
integer literals (one beyond the digit limit of ``int``, which
``json.dumps`` cannot write), NaN, the infinities, 1e308 and an array
nested 100,000 deep. Every mutant without that nesting is JSON as Python's
``json`` module reads it; the nesting exhausts its recursion limit.
Whatever the mutant, a command exits 0, 1 or 2, never reports an internal
error, leaves stdout empty when it exits 2, and rejects the document as
invalid JSON exactly when it holds the deep nesting.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from catspan import cli
from catspan.corpus import fixture_path

FIXTURES = fixture_path("z2.category.json").parent
DOCUMENTS = {path.name: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
BY_KIND = {
    kind: sorted(name for name, doc in DOCUMENTS.items() if doc["kind"] == kind)
    for kind in ("category", "functor", "metric")
}
# A literal past int's default limit of 4,300 digits, written in place of
# this marker once the rest of the document is serialised.
LONG = "\x00long"
LONG_LITERAL = "9" * 5000
# Arrays nested 100,000 deep, written in place of this marker in the same way.
DEEP = "\x00deep"
DEEP_LITERAL = "[" * 100_000 + "]" * 100_000
STRINGS = ["", "x", "*", "id", "co", "contra"]
# The atoms of a retyped value, by JSON type; containers, the deep nesting
# among them, are added per edit.
ATOMS = [
    (bool | None, [None, True, False]),
    (int | float, [LONG, 10**400, float("nan"), float("inf"), float("-inf"), 1e308, 0, -1, 2.5]),
    (str, STRINGS),
]
# Every command runs under this budget, so that no mutant searches for long.
BUDGET = ["--budget", "20000"]


def _labels(value) -> list[str]:
    """Every string in a document, keys included, in sorted order; not the
    markers of the long literal and the deep nesting, which are written as
    a number and as arrays."""
    found = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            found.add(node)
        elif isinstance(node, dict):
            found.update(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return sorted(found - {LONG, DEEP})


def _edit(draw, doc: dict) -> None:
    """One edit of ``doc``, in place, at a value reached by walking down
    from the top; each step goes one level deeper with probability 3/4."""
    parent = doc
    key = draw(st.sampled_from(list(doc)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.integers(0, 3)):
        parent = parent[key]
        key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
    node = parent[key]
    # Half the edits retype, the edit with the most outcomes.
    action = draw(st.sampled_from(["retype", "retype", "retype", "delete", "rename", "duplicate"]))
    labels = STRINGS + _labels(doc)
    if action == "retype":  # to a value of another JSON type
        kinds = [atoms for t, atoms in ATOMS if not isinstance(node, t)]
        if not isinstance(node, (list, dict)):
            kinds.append([[], {}, [node], {"x": node}, DEEP])
        parent[key] = draw(st.sampled_from(draw(st.sampled_from(kinds))))
    elif action == "delete":
        del parent[key]
    elif action == "rename" and isinstance(parent, dict):
        parent[draw(st.sampled_from(labels))] = parent.pop(key)
    elif action == "rename":
        parent[key] = draw(st.sampled_from(labels))
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(labels))] = copy.deepcopy(node)
    else:
        parent.insert(key, copy.deepcopy(node))


@st.composite
def mutants(draw, kind: str) -> tuple[str, str]:
    """A fixture document of ``kind`` with up to three edits, most often
    one, since an edit often hides the next behind its error: its name and
    its text."""
    name = draw(st.sampled_from(BY_KIND[kind]))
    doc = copy.deepcopy(DOCUMENTS[name])
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):
        if doc:
            _edit(draw, doc)
    return name, json.dumps(doc).replace(json.dumps(LONG), LONG_LITERAL).replace(json.dumps(DEEP), DEEP_LITERAL)


def _commands(kind: str, name: str, path: str, partner: str) -> list[list[str]]:
    """Every subcommand that reads a document of ``kind``, on the mutant at
    ``path``; the arguments besides are read off the original ``name``."""
    original = DOCUMENTS[name]
    if kind == "category":
        obj = original["objects"][0]
        return [
            ["validate-cat", path], ["hom", path, obj, obj], ["yoneda", path, obj],
            ["reflexive-scan", path, "--max-set-size", "1"],
        ]
    if kind == "functor":
        obj = next(iter(original["objects"]))
        return [
            ["validate-fun", path], ["nat", path, partner], ["sum", path, partner], ["yoneda-check", path, obj],
            ["conjugate", path], ["unit", path], ["adjunction-check", path, partner],
            ["adjunction-check", partner, path],
        ]
    values = ["1"] * len(original["points"])
    return [
        ["metric-validate", path], ["tripod", path], ["project", path, *values],
        ["geodesic-check", path, *values], ["geodesic-check", path, "--samples", "2"],
        ["sample-span", path, "--count", "2"],
    ]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A copy of the fixtures, so that a mutant functor written next to them
    finds the category it names."""
    target = tmp_path_factory.mktemp("mutants") / "fixtures"
    shutil.copytree(FIXTURES, target)
    return target


def _check_contract(workdir, kind: str, mutant: tuple[str, str], partner: str) -> None:
    name, text = mutant
    path = workdir / f"mutant.{name}"
    path.write_text(text)
    for argv in _commands(kind, name, str(path), str(workdir / partner)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, *BUDGET])
        assert code in (0, 1, 2), (argv, text, err.getvalue())
        assert "internal error" not in err.getvalue(), (argv, text, err.getvalue())
        assert ("invalid JSON" in err.getvalue()) == (DEEP_LITERAL in text), (argv, text, err.getvalue())
        assert code != 2 or out.getvalue() == "", (argv, text)


def contract_settings(examples: int):
    return settings(
        max_examples=examples, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow],
    )


# Most examples go to categories: a past break of the contract there sat
# in one field of six, which few edits reach.
@contract_settings(300)
@given(mutants("category"))
def test_edited_categories_keep_the_exit_contract(workdir, mutant):
    _check_contract(workdir, "category", mutant, "")


@contract_settings(60)
@given(mutants("functor"), st.sampled_from(BY_KIND["functor"]))
def test_edited_functors_keep_the_exit_contract(workdir, mutant, partner):
    """Two-functor commands pair the mutant with an unedited fixture functor,
    often over another base or of the other variance."""
    _check_contract(workdir, "functor", mutant, partner)


@contract_settings(80)
@given(mutants("metric"))
def test_edited_metrics_keep_the_exit_contract(workdir, mutant):
    _check_contract(workdir, "metric", mutant, "")
