import gc
import tracemalloc
from pathlib import Path

import pytest

from catspan import (
    CONTRAVARIANT,
    Budget,
    BudgetExceeded,
    InputError,
    adjunction_transpose,
    component_signature,
    compose_nat,
    conjugate_copresheaf,
    conjugate_presheaf,
    conjugate_transform,
    double_conjugate,
    coyoneda,
    enumerate_nat,
    identity_nat,
    is_natural_iso,
    iso_check,
    naturality_witness,
    pointwise_sum,
    reflexive_scan,
    unit,
    validate_functor,
    yoneda,
)

from catspan import isbell
from catspan.corpus import load_corpus_category
from catspan.fileformat import load_functor, load_lawful_category
from catspan.setfunc import NatTransformation, SetFunction

from oracles import brute_force_nat, family_key, family_of, isomorphism_class_count

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def two_representables(n: int):
    """y + y over the cyclic group Z_n."""
    return load_functor(GOLDEN_INPUTS / f"z{n}_yy.presheaf.json")


# ---------------------------------------------------------- conjugates


def test_terminal_two_element_conjugate_is_singleton(presheaves):
    pair = conjugate_presheaf(presheaves["terminal"][0])
    assert pair.conjugate.at("*").elements == ("t0",)


def test_empty_presheaf_conjugate_is_singleton(presheaves):
    pair = conjugate_presheaf(presheaves["terminal"][1])
    assert pair.conjugate.at("*").elements == ("t0",)
    assert len(pair.evaluation_tables["*"]) == 1


def test_conjugate_labels_match_tables(categories, presheaves):
    for name in categories:
        for functor in presheaves[name]:
            pair = conjugate_presheaf(functor)
            for obj in categories[name].objects:
                assert len(pair.conjugate.at(obj)) == len(pair.evaluation_tables[obj]), (name, obj)


def test_representable_presheaf_conjugates_to_corepresentable(categories):
    for name, cat in categories.items():
        for x in cat.objects:
            pair = conjugate_presheaf(yoneda(cat, x))
            assert iso_check(pair.conjugate, coyoneda(cat, x)) is not None, (name, x)


def test_corepresentable_conjugates_to_representable(categories):
    for name, cat in categories.items():
        for x in cat.objects:
            pair = conjugate_copresheaf(coyoneda(cat, x))
            assert iso_check(pair.conjugate, yoneda(cat, x)) is not None, (name, x)


def test_terminal_copresheaf_conjugate_singleton(categories):
    term = categories["terminal"]
    g = validate_functor(term, "covariant", {"*": ["t"]}, {})
    pair = conjugate_copresheaf(g)
    assert pair.conjugate.at("*").elements == ("t0",)


def test_copresheaf_conjugate_tables_match_oracle(categories, copresheaves):
    for name, cat in categories.items():
        for g in copresheaves[name]:
            pair = conjugate_copresheaf(g)
            assert pair.conjugate.base is cat
            for x in cat.objects:
                z = coyoneda(cat, x)
                oracle = [family_key(fam) for fam in brute_force_nat(g, z)]
                table = pair.evaluation_tables[x]
                assert all(t.source is g and t.target is z for t in table), (name, x)
                assert [family_key(family_of(t)) for t in table] == oracle, (name, x)
                assert len(pair.conjugate.at(x)) == len(oracle), (name, x)


def test_arrow_terminal_copresheaf_sizes_match_oracle(categories, copresheaves):
    arrow = categories["arrow"]
    g = copresheaves["arrow"][1]  # terminal copresheaf on the walking arrow
    pair = conjugate_copresheaf(g)
    for x in arrow.objects:
        oracle = brute_force_nat(g, coyoneda(arrow, x))
        assert len(pair.conjugate.at(x)) == len(oracle), x


def test_conjugate_budget_propagates(presheaves):
    with pytest.raises(BudgetExceeded):
        conjugate_presheaf(presheaves["z2"][0], budget=Budget(2))


# ------------------------------------------------- functoriality of conjugation


def test_conjugation_of_identity_is_identity(categories, presheaves, copresheaves):
    for name in categories:
        pairs = [conjugate_presheaf(f) for f in presheaves[name]]
        pairs += [conjugate_copresheaf(g) for g in copresheaves[name]]
        for pair in pairs:
            transformed = conjugate_transform(identity_nat(pair.original), pair, pair)
            assert transformed.components == identity_nat(pair.conjugate).components, name


def test_conjugation_on_transformations_is_natural(categories, presheaves):
    for name in categories:
        f, g = presheaves[name]
        pair_f, pair_g = conjugate_presheaf(f), conjugate_presheaf(g)
        for h in enumerate_nat(g, f):  # h: G => F gives F* => G*
            star = conjugate_transform(h, pair_f, pair_g)
            assert naturality_witness(star) is None, name


def test_conjugate_transform_rejects_mismatched_pairs(presheaves):
    f, g = presheaves["arrow"]
    h = enumerate_nat(g, f)[0]  # h: G => F gives F* => G*, not G* => F*
    with pytest.raises(ValueError, match="endpoints differ"):
        conjugate_transform(h, conjugate_presheaf(g), conjugate_presheaf(f))


# ---------------------------------------------------------- adjunction


def test_adjunction_terminal_example(categories, presheaves, copresheaves):
    w = adjunction_transpose(presheaves["terminal"][0], copresheaves["terminal"][0])
    assert len(w.left_homset) == len(w.right_homset) == 1
    assert w.transpose.forward.mapping == {"l0": "r0"}


def test_adjunction_cardinality_identity(categories, presheaves, copresheaves):
    for name in categories:
        for f in presheaves[name]:
            for g in copresheaves[name]:
                w = adjunction_transpose(f, g)
                assert len(w.left_homset) == len(w.right_homset), name


def test_adjunction_double_transpose_is_identity(categories, presheaves, copresheaves):
    for name in categories:
        for f in presheaves[name]:
            for g in copresheaves[name]:
                w = adjunction_transpose(f, g)
                fwd, bwd = w.transpose.forward.mapping, w.transpose.backward.mapping
                assert all(bwd[fwd[k]] == k for k in fwd), name
                assert all(fwd[bwd[k]] == k for k in bwd), name


def _realizer(pair, obj, label):
    """The evaluation-table family realizing element ``label`` of the conjugate at obj."""
    return family_of(pair.evaluation_tables[obj][pair.conjugate.at(obj).elements.index(label)])


def _assert_curried_pairing(h, pair, transposed, other_pair):
    """``transposed``: F => G* is h: G => F* curried, where pair is (F, F*) and
    other_pair is (G, G*): the realizer of transposed_X(s) sends g in G(Y) to
    alpha_X(s), where alpha realizes h_Y(g)."""
    f, g = pair.original, other_pair.original
    objects = f.base.objects
    for x in objects:
        for s in f.at(x).elements:
            expected = {
                y: {e: _realizer(pair, y, h.components[y](e))[x][s] for e in g.at(y).elements}
                for y in objects
            }
            assert _realizer(other_pair, x, transposed.components[x](s)) == expected, (x, s)


def test_transpose_is_the_curried_pairing(categories, presheaves, copresheaves):
    for name in categories:
        for f in presheaves[name]:
            for g in copresheaves[name]:
                w = adjunction_transpose(f, g)
                fpair, gpair = w.presheaf_pair, w.copresheaf_pair
                for h, j in zip(w.left_homset, w.transpose.forward.images):
                    _assert_curried_pairing(h, fpair, w.right_homset[j], gpair)
                for h, i in zip(w.right_homset, w.transpose.backward.images):
                    _assert_curried_pairing(h, gpair, w.left_homset[i], fpair)


def test_unit_is_evaluation(categories, presheaves):
    # unit(F)_X(s) is realized by the transformation F* => z(X) that
    # evaluates each alpha at s
    for name in categories:
        for f in presheaves[name]:
            u = unit(f)
            star, dstar = double_conjugate(f)
            assert u.target == dstar.conjugate, name
            for x in f.base.objects:
                for s in f.at(x).elements:
                    expected = {
                        y: {a: _realizer(star, y, a)[x][s] for a in star.conjugate.at(y).elements}
                        for y in f.base.objects
                    }
                    assert _realizer(dstar, x, u.components[x](s)) == expected, (name, x, s)


def test_adjunction_representable_right_homset_size(categories, copresheaves):
    # with a representable presheaf the right hom-set collapses to the
    # conjugate's value at the representing object
    for name, cat in categories.items():
        for g in copresheaves[name]:
            gstar = conjugate_copresheaf(g)
            for x in cat.objects:
                w = adjunction_transpose(yoneda(cat, x), g)
                assert len(w.right_homset) == len(gstar.conjugate.at(x)), (name, x)
                assert len(w.left_homset) == len(w.right_homset), (name, x)


def test_transpose_commutes_with_precomposition(categories, presheaves, copresheaves):
    # h: F' => F induces F* => F'*; transposing after acting on the left
    # hom-set must agree with precomposing the transposed map by h.
    for name in ("arrow", "z2"):
        f = presheaves[name][0]
        f_prime = presheaves[name][1]
        g = copresheaves[name][0]
        homs = enumerate_nat(f_prime, f)
        if not homs:
            continue
        pair_f, pair_fp = conjugate_presheaf(f), conjugate_presheaf(f_prime)
        w_f = adjunction_transpose(f, g)
        w_fp = adjunction_transpose(f_prime, g)
        left_index_fp = {component_signature(t): i for i, t in enumerate(w_fp.left_homset)}
        left_index_f = {component_signature(t): i for i, t in enumerate(w_f.left_homset)}
        for h in homs:
            h_star = conjugate_transform(h, pair_f, pair_fp)
            for i, phi in enumerate(w_f.left_homset):
                shifted = compose_nat(h_star, phi)  # G => F'*
                j = left_index_fp[component_signature(shifted)]
                psi_prime = w_fp.right_homset[int(w_fp.transpose.forward.mapping[f"l{j}"][1:])]
                psi = w_f.right_homset[int(w_f.transpose.forward.mapping[f"l{i}"][1:])]
                assert component_signature(psi_prime) == component_signature(compose_nat(psi, h)), name


@pytest.mark.parametrize("n", [3, 4])
def test_conjugate_of_two_representables_matches_oracle(n):
    # y+y as a presheaf and z+z as a copresheaf, each against its representables
    for f, conjugate, representable in (
        (two_representables(n), conjugate_presheaf, yoneda),
        (load_functor(GOLDEN_INPUTS / f"z{n}_zz.copresheaf.json"), conjugate_copresheaf, coyoneda),
    ):
        pair = conjugate(f)
        for x in f.base.objects:
            expected = {family_key(fam) for fam in brute_force_nat(f, representable(f.base, x))}
            actual = [family_key(family_of(t)) for t in pair.evaluation_tables[x]]
            assert len(set(actual)) == len(actual) == len(pair.conjugate.at(x))
            assert set(actual) == expected


@pytest.mark.parametrize("n", [3, 4])
def test_double_conjugate_of_two_representables_has_n_to_the_n_elements(n):
    star, dstar = double_conjugate(two_representables(n))
    assert len(star.conjugate.at("*")) == n * n
    assert len(dstar.conjugate.at("*")) == n**n


def test_double_conjugate_keeps_each_table_once():
    """y + y over Z5, where F* has 25 elements and F** 3,125: each pair
    keeps its table as slot tuples with their index, and F* and F** retain
    about 1.61 MB. Keeping F**'s table a second time, as transformations
    into z(X), retained 1.79 MB."""
    presheaf = two_representables(5)
    double_conjugate(presheaf)  # build the memoised representables first
    gc.collect()
    tracemalloc.start()
    try:
        pairs = double_conjugate(presheaf)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1_700_000
    assert [len(pair.rows["*"]) for pair in pairs] == [25, 3125]
    for pair in pairs:
        assert all(type(slots) is tuple and pair.index["*"][slots] == i for i, slots in enumerate(pair.rows["*"]))


def test_label_of_rejects_absent_transformation(categories):
    z2 = categories["z2"]
    regular = validate_functor(z2, CONTRAVARIANT, {"*": ["0", "1"]}, {"s": {"0": "1", "1": "0"}})
    pair = conjugate_presheaf(regular)
    target = yoneda(z2, "*")
    images = target.at("*").elements
    t = pair.evaluation_tables["*"][0]
    assert pair.label_of("*", t) == "t0"
    # a constant map is not equivariant, so no table entry realizes it
    constant = SetFunction(regular.at("*"), target.at("*"), {"0": images[0], "1": images[0]})
    with pytest.raises(RuntimeError, match="not present"):
        pair.label_of("*", NatTransformation(regular, target, constant.images))


# ---------------------------------------------------------- unit


def test_unit_is_iso_on_representables(categories):
    for name, cat in categories.items():
        for x in cat.objects:
            u = unit(yoneda(cat, x))
            assert is_natural_iso(u), (name, x)


def test_unit_not_injective_on_terminal_two_element(presheaves):
    u = unit(presheaves["terminal"][0])
    assert len(u.target.at("*")) == 1
    assert u.components["*"].mapping == {"a": "t0", "b": "t0"}
    assert not u.components["*"].is_bijection()


def test_unit_not_surjective_on_empty_presheaf(presheaves):
    u = unit(presheaves["terminal"][1])
    assert len(u.source.at("*")) == 0
    assert len(u.target.at("*")) == 1  # the double conjugate is nonempty


def test_unit_passes_naturality_recheck(categories, presheaves):
    for name in categories:
        for functor in presheaves[name]:
            u = unit(functor)
            assert naturality_witness(u) is None, name


# ---------------------------------------------------------- reflexive scan


def test_scan_terminal_size_one(categories):
    verdicts = reflexive_scan(categories["terminal"], 1)
    assert [(v.description, v.reflexive) for v in verdicts] == [
        ("*=0", False),
        ("*=1", True),
    ]


def test_scan_arrow_size_zero(categories):
    verdicts = reflexive_scan(categories["arrow"], 0)
    assert len(verdicts) == 1
    assert verdicts[0].reflexive is False  # double conjugate is nonempty


def test_scan_reports_representable_shapes_reflexive(categories):
    # entries structurally matching y(A) and y(B) on the walking arrow
    verdicts = {v.description: v.reflexive for v in reflexive_scan(categories["arrow"], 1)}
    assert verdicts["A=1,B=0; f:[]"] is True
    assert verdicts["A=1,B=1; f:[x0>x0]"] is True
    verdicts_z2 = {v.description: v.reflexive for v in reflexive_scan(categories["z2"], 2)}
    assert verdicts_z2["*=2; s:[x0>x1,x1>x0]"] is True  # regular representable


def test_scan_is_deterministic(categories):
    first = [(v.description, v.reflexive) for v in reflexive_scan(categories["z2"], 2)]
    second = [(v.description, v.reflexive) for v in reflexive_scan(categories["z2"], 2)]
    assert first == second


def test_negative_scan_size_is_an_input_error(categories):
    with pytest.raises(InputError, match="max_set_size"):
        reflexive_scan(categories["z2"], -1)


def test_scan_budget(categories):
    with pytest.raises(BudgetExceeded):
        reflexive_scan(categories["square"], 2, budget=Budget(50))


def test_scan_budget_bounds_memory(categories):
    """A size vector's candidates are charged before any is built. At set
    size 7 a generator of the square has up to 7**7 actions, and the
    budget stops the scan before any size vector's are materialized."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            reflexive_scan(categories["square"], 7, budget=Budget(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _scan_category(categories, name):
    """A corpus category, or Z3 from the golden inputs."""
    return load_lawful_category(GOLDEN_INPUTS / "z3.category.json") if name == "Z3" else categories[name]


@pytest.mark.parametrize("name,size,classes", [("square", 2, 69), ("arrow", 3, 18), ("z2", 3, 6)])
def test_scan_compares_once_per_isomorphism_class(categories, monkeypatch, name, size, classes):
    calls = []

    def counted(functor, budget=None):
        calls.append(functor)
        return unit(functor, budget)

    monkeypatch.setattr(isbell, "unit", counted)
    reflexive_scan(categories[name], size)
    assert len(calls) == isomorphism_class_count(categories[name], size) == classes


@pytest.mark.parametrize("name,size,reflexive", [("square", 2, 4), ("arrow", 3, 2), ("z2", 3, 3), ("Z3", 3, 4)])
def test_scan_verdicts_match_direct_comparison(categories, name, size, reflexive):
    verdicts = reflexive_scan(_scan_category(categories, name), size)
    for v in verdicts:
        assert v.reflexive == is_natural_iso(unit(v.functor)), v.description
    assert sum(v.reflexive for v in verdicts) == reflexive


def test_library_functors_are_not_revalidated(monkeypatch):
    """validate_functor is for outside input only. With it made to raise,
    the scan, representables, sums and the unit still work over freshly
    loaded categories, whose representables are not memoised yet."""
    loaded = two_representables(3)

    def refuse(*args):
        raise AssertionError("validate_functor called on a functor the library built")

    monkeypatch.setattr("catspan.setfunc.validate_functor", refuse)
    assert sum(v.reflexive for v in reflexive_scan(load_corpus_category("square"), 2)) == 4
    y = yoneda(load_lawful_category(GOLDEN_INPUTS / "z3.category.json"), "*")
    yy = pointwise_sum(y, y)
    assert yy == loaded
    assert unit(yy).slots == unit(loaded).slots
