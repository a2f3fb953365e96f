import dataclasses

import pytest

from catspan import (
    CompositionError,
    FinCategory,
    Morphism,
    StructuralError,
    UnknownObjectError,
    generators,
    opposite,
    validate_category,
)


def one_object_nonassoc():
    """{e, a, b} on one object with (a.a).b != a.(a.b)."""
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("b", "e"): "b",
        ("a", "a"): "e", ("a", "b"): "a",
        ("b", "a"): "b", ("b", "b"): "e",
    }
    return FinCategory(
        objects=("*",),
        morphisms=(Morphism("e", "*", "*"), Morphism("a", "*", "*"), Morphism("b", "*", "*")),
        identity={"*": "e"},
        table=table,
    )


def test_terminal_category_valid(categories):
    report = validate_category(categories["terminal"])
    assert report.ok and report.violations == ()


def test_all_corpus_categories_valid(categories):
    for name, cat in categories.items():
        assert validate_category(cat).ok, name


def test_missing_compose_entry_reported():
    arrow = FinCategory(
        objects=("A", "B"),
        morphisms=(Morphism("id_A", "A", "A"), Morphism("id_B", "B", "B"), Morphism("f", "A", "B")),
        identity={"A": "id_A", "B": "id_B"},
        table={
            ("id_A", "id_A"): "id_A",
            ("id_B", "id_B"): "id_B",
            ("id_B", "f"): "f",
            # ("f", "id_A") deliberately missing
        },
    )
    report = validate_category(arrow)
    assert not report.ok
    assert any(v.law == "composition-totality" and v.witness == ("f", "id_A") for v in report.violations)


def test_associativity_violation_with_witness():
    candidate = one_object_nonassoc()
    report = validate_category(candidate)
    assert not report.ok
    witnesses = {v.witness for v in report.violations if v.law == "associativity"}
    assert ("a", "a", "b") in witnesses
    # oracle: recompute every violating triple by direct loops
    t = candidate.table
    direct = {
        (h, g, f)
        for h in ("e", "a", "b")
        for g in ("e", "a", "b")
        for f in ("e", "a", "b")
        if t[(t[(h, g)], f)] != t[(h, t[(g, f)])]
    }
    assert witnesses == direct


def test_structural_errors_distinct_from_law_failures():
    dangling = FinCategory(
        objects=("A",),
        morphisms=(Morphism("id_A", "A", "A"), Morphism("f", "A", "B")),
        identity={"A": "id_A"},
        table={("id_A", "id_A"): "id_A"},
    )
    with pytest.raises(StructuralError):
        validate_category(dangling)
    duplicate = FinCategory(
        objects=("A",),
        morphisms=(Morphism("id_A", "A", "A"), Morphism("id_A", "A", "A")),
        identity={"A": "id_A"},
        table={("id_A", "id_A"): "id_A"},
    )
    with pytest.raises(StructuralError):
        validate_category(duplicate)


def test_opposite_reverses_arrow(categories):
    op = opposite(categories["arrow"])
    f = op.morphism("f")
    assert (f.src, f.tgt) == ("B", "A")
    assert validate_category(op).ok


def test_opposite_involution(categories):
    for name, cat in categories.items():
        assert opposite(opposite(cat)) == cat, name


def test_opposite_z2_is_itself(categories):
    # the monoid is commutative so reversal leaves everything unchanged
    z2 = categories["z2"]
    assert opposite(z2) == z2


def test_hom_sets(categories):
    terminal = categories["terminal"]
    assert terminal.hom_set("*", "*") == ["id"]
    arrow = categories["arrow"]
    assert arrow.hom_set("A", "B") == ["f"]
    assert arrow.hom_set("B", "A") == []
    assert categories["z2"].hom_set("*", "*") == ["e", "s"]
    with pytest.raises(UnknownObjectError):
        arrow.hom_set("A", "nope")


def test_hom_sets_partition_morphisms(categories):
    for name, cat in categories.items():
        total = sum(len(cat.hom_set(a, x)) for a in cat.objects for x in cat.objects)
        assert total == len(cat.morphisms), name


def test_compose(categories):
    arrow = categories["arrow"]
    assert arrow.compose("id_B", "f") == "f"
    assert categories["z2"].compose("s", "s") == "e"
    with pytest.raises(CompositionError):
        arrow.compose("f", "id_B")


def test_associativity_of_corpus_categories(categories):
    for name, cat in categories.items():
        for h in cat.morphisms:
            for g in cat.morphisms:
                if g.tgt != h.src:
                    continue
                for f in cat.morphisms:
                    if f.tgt != g.src:
                        continue
                    lhs = cat.compose(cat.compose(h.label, g.label), f.label)
                    rhs = cat.compose(h.label, cat.compose(g.label, f.label))
                    assert lhs == rhs, (name, h.label, g.label, f.label)


def test_generators_of_corpus_categories(categories):
    square = categories["square"]
    assert generators(square) == (("ab", "ac", "bd", "cd"), (("ad", "bd", "ab"),))
    assert generators(square) is generators(square)
    assert generators(categories["z2"]) == (("s",), ())
    assert generators(categories["terminal"]) == ((), ())
    # Declared before its factors, the diagonal is still dropped.
    diagonal_first = dataclasses.replace(square, morphisms=square.morphisms[-1:] + square.morphisms[:-1])
    assert generators(diagonal_first) == (("ab", "ac", "bd", "cd"), (("ad", "bd", "ab"),))
