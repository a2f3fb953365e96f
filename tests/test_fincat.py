import copy
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from catspan import (
    AdjunctionWitness,
    Bijection,
    CompositionError,
    ConjugatePair,
    DefectReport,
    DistanceFunction,
    FinCategory,
    FiniteMetricSpace,
    FinSet,
    Morphism,
    NatTransformation,
    ReflexiveVerdict,
    SetFunction,
    SetValuedFunctor,
    StructuralError,
    TripodResult,
    UnknownObjectError,
    ValidationReport,
    Violation,
    YonedaWitness,
    adjunction_transpose,
    conjugate_presheaf,
    generators,
    identity_nat,
    opposite,
    validate_category,
    yoneda_lemma_bijection,
)
from catspan.fincat import Frozen


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
    diagonal_first = FinCategory(square.objects, square.morphisms[-1:] + square.morphisms[:-1], square.identity, square.table)
    assert generators(diagonal_first) == (("ab", "ac", "bd", "cd"), (("ad", "bd", "ab"),))


# ---------------------------------------------------------- records


def _records(categories, presheaves, copresheaves, metrics):
    """One keyword constructor call per record class, as (class, kwargs)."""
    arrow, z2 = categories["arrow"], categories["z2"]
    functor, copresheaf = presheaves["z2"][0], copresheaves["z2"][0]
    a, b = FinSet(("a", "b")), FinSet(("x", "y"))
    swap = SetFunction(a, b, {"a": "y", "b": "x"})
    yoneda_witness = yoneda_lemma_bijection(functor, "*")
    pair = conjugate_presheaf(functor)
    adjunction = adjunction_transpose(functor, copresheaf)
    space = metrics["two_point"]
    hub = DistanceFunction(space, np.array([1.0, 1.0]))

    def fields(record, *names):
        return {name: getattr(record, name) for name in names}

    return [
        (Morphism, dict(label="f", src="A", tgt="B")),
        (Violation, dict(law="identity-law", witness=("f", "id_A"))),
        (ValidationReport, dict(ok=False, violations=(Violation("associativity", ("h", "g", "f")),))),
        (FinCategory, fields(arrow, "objects", "morphisms", "identity", "table")),
        (FinSet, dict(elements=("a", "b"))),
        (SetFunction, dict(dom=a, cod=b, mapping={"a": "y", "b": "x"})),
        (SetValuedFunctor, fields(functor, "base", "variance", "on_objects", "on_morphisms")),
        (NatTransformation, dict(source=functor, target=functor, slots=identity_nat(functor).slots)),
        (Bijection, dict(forward=swap, backward=SetFunction(b, a, {"x": "b", "y": "a"}))),
        (YonedaWitness, fields(yoneda_witness, "transformations", "labels", "bijection")),
        (ConjugatePair, fields(pair, "original", "conjugate", "evaluation_tables", "index")),
        (AdjunctionWitness, fields(
            adjunction, "presheaf", "copresheaf", "left_homset", "right_homset", "transpose",
            "presheaf_pair", "copresheaf_pair",
        )),
        (ReflexiveVerdict, dict(functor=functor, description="*=2", reflexive=True)),
        (FiniteMetricSpace, dict(points=space.points, dist=space.dist)),
        (DistanceFunction, dict(space=space, values=np.array([1.0, 1.0]))),
        (DefectReport, dict(defect=0.5, slack=0.0, gap=0.5, admissible=True)),
        (TripodResult, dict(legs=(1.0, 2.0, 3.0), hub=hub)),
    ]


IDENTITY_COMPARED = {"FiniteMetricSpace", "DistanceFunction"}


def test_records_are_frozen_values(categories, presheaves, copresheaves, metrics):
    records = _records(categories, presheaves, copresheaves, metrics)
    assert {cls for cls, _ in records} == set(Frozen.__subclasses__())
    assert len(records) == 17
    for cls, kwargs in records:
        first, second = cls(**kwargs), cls(**kwargs)
        assert first == first
        if cls.__name__ in IDENTITY_COMPARED:
            assert first != second and len({first, second}) == 2
        else:
            assert first == second and not first != second, cls
            try:
                assert hash(first) == hash(second), cls
            except TypeError:  # a dict or list field
                with pytest.raises(TypeError):
                    hash(second)
        assert first != SimpleNamespace(**kwargs) and first != tuple(kwargs.values()), cls
        name = next(iter(kwargs))
        for bad_args, bad_kwargs in [
            ((), {k: v for k, v in kwargs.items() if k != name}),  # a missing field
            ((*kwargs.values(), None), {}),  # a surplus positional
            ((), dict(kwargs, extra=1)),  # an unknown keyword
            ((kwargs[name],), kwargs),  # a positional repeated as a keyword
        ]:
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)
        with pytest.raises(AttributeError):
            setattr(first, name, kwargs[name])
        with pytest.raises(AttributeError):
            setattr(first, "extra", 1)
        with pytest.raises(AttributeError):
            delattr(first, name)
        assert repr(first).startswith(f"{cls.__name__}(")
        for clone in (copy.copy(first), pickle.loads(pickle.dumps(first))):
            assert type(clone) is cls and repr(clone) == repr(first), cls


def test_record_equality_reads_every_field_and_only_fields(categories):
    assert Morphism("f", "A", "B") != Morphism("f", "A", "C")
    assert FinSet(("a", "b")) != FinSet(("b", "a"))
    arrow = categories["arrow"]
    rebuilt = FinCategory(arrow.objects, arrow.morphisms, dict(arrow.identity), dict(arrow.table))
    assert rebuilt == arrow and rebuilt._memo is not arrow._memo
    assert rebuilt._by_label is rebuilt._by_label


def test_cached_properties_survive_freezing(presheaves):
    functor = presheaves["square"][0]
    assert functor.first is functor.first
    assert functor.first == {obj: functor.block(obj).start for obj in functor.base.objects}
