import pytest

from catspan import (
    CONTRAVARIANT,
    COVARIANT,
    Budget,
    BudgetExceeded,
    FinCategory,
    FinSet,
    FunctorLawError,
    InputError,
    SetFunction,
    UnknownObjectError,
    compose_nat,
    coyoneda,
    coyoneda_on_morphism,
    dual,
    enumerate_nat,
    identity_nat,
    iso_check,
    make_transformation,
    naturality_witness,
    opposite,
    pointwise_sum,
    validate_functor,
    yoneda,
    yoneda_lemma_bijection,
    yoneda_on_morphism,
)
from catspan.setfunc import NaturalityError

from oracles import brute_force_nat, family_is_natural, family_key, family_of, unpruned_family_count


# ---------------------------------------------------------------- functors


def test_set_function_checks_every_image():
    dom, cod = FinSet(("a", "b")), FinSet(("x", "y"))
    with pytest.raises(ValueError, match="outside the codomain"):
        SetFunction(dom, cod, {"a": "x", "b": "z"})
    with pytest.raises(ValueError, match="has no image"):
        SetFunction(dom, cod, {"a": "x"})
    with pytest.raises(ValueError, match="outside the domain"):
        SetFunction(dom, cod, {"a": "x", "b": "x", "c": "y"})
    fn = SetFunction(dom, cod, {"b": "x", "a": "y"})
    assert fn.images == (1, 0)
    assert fn.mapping == {"a": "y", "b": "x"}
    assert fn("b") == "x"


def test_constant_singleton_presheaf_valid(categories):
    for name, cat in categories.items():
        objects = {obj: ["pt"] for obj in cat.objects}
        actions = {m.label: {"pt": "pt"} for m in cat.morphisms}
        functor = validate_functor(cat, CONTRAVARIANT, objects, actions)
        assert all(len(functor.at(obj)) == 1 for obj in cat.objects), name


def test_arrow_presheaf_valid(presheaves):
    functor = presheaves["arrow"][0]
    assert functor.at("A").elements == ("p", "q")
    assert functor.act("f").mapping == {"r": "p"}


def test_z2_constant_action_breaks_composition(categories):
    z2 = categories["z2"]
    with pytest.raises(FunctorLawError) as err:
        validate_functor(z2, COVARIANT, {"*": ["0", "1"]}, {"s": {"0": "0", "1": "0"}})
    assert err.value.law == "composition"
    assert ("s", "s", "e") == err.value.witness


@pytest.mark.parametrize("variance", [COVARIANT, CONTRAVARIANT])
def test_composition_witness_is_the_first_failing_entry_in_base_order(categories, variance):
    """Over the square, the table lists (bd, ab) -> ad before (cd, ac) ->
    ad. The witness is (g, f, g . f) in the base's terms whichever way the
    actions point."""
    square = categories["square"]
    objects = {obj: ["0", "1"] for obj in square.objects}
    keep, swap = {"0": "0", "1": "1"}, {"0": "1", "1": "0"}
    actions = {"ab": keep, "ac": keep, "bd": keep, "cd": keep, "ad": swap}
    with pytest.raises(FunctorLawError) as err:
        validate_functor(square, variance, objects, actions)
    assert err.value.law == "composition" and err.value.witness == ("bd", "ab", "ad")
    with pytest.raises(FunctorLawError) as err:
        validate_functor(square, variance, objects, dict(actions, bd=swap))
    assert err.value.law == "composition" and err.value.witness == ("cd", "ac", "ad")


def test_identity_action_enforced(categories):
    arrow = categories["arrow"]
    with pytest.raises(FunctorLawError) as err:
        validate_functor(
            arrow,
            CONTRAVARIANT,
            {"A": ["p", "q"], "B": ["r"]},
            {"f": {"r": "p"}, "id_A": {"p": "q", "q": "p"}},
        )
    assert err.value.law == "identity"


def test_typing_mismatch_detected(categories):
    arrow = categories["arrow"]
    with pytest.raises(FunctorLawError) as err:
        validate_functor(
            arrow,
            CONTRAVARIANT,
            {"A": ["p"], "B": ["r"]},
            {"f": {"p": "r"}},  # wrong direction for a contravariant functor
        )
    assert err.value.law == "typing"


# ---------------------------------------------------------- enumeration


def test_terminal_presheaf_has_one_endomorphism(categories, presheaves):
    for name, cat in categories.items():
        objects = {obj: ["pt"] for obj in cat.objects}
        actions = {m.label: {"pt": "pt"} for m in cat.morphisms}
        terminal = validate_functor(cat, CONTRAVARIANT, objects, actions)
        assert len(enumerate_nat(terminal, terminal)) == 1, name


def test_discrete_two_object_count(categories):
    d2 = categories["discrete2"]
    f = validate_functor(d2, CONTRAVARIANT, {"X": ["a"], "Y": ["b"]}, {})
    g = validate_functor(d2, CONTRAVARIANT, {"X": ["0", "1"], "Y": ["0"]}, {})
    assert len(enumerate_nat(f, g)) == 2


def test_z2_regular_self_transformations(presheaves):
    regular = presheaves["z2"][0]
    nats = enumerate_nat(regular, regular)
    assert len(nats) == 2
    mappings = {tuple(sorted(t.components["*"].mapping.items())) for t in nats}
    assert mappings == {(("0", "0"), ("1", "1")), (("0", "1"), ("1", "0"))}


def test_empty_source_has_exactly_one_transformation(categories):
    term = categories["terminal"]
    empty = validate_functor(term, CONTRAVARIANT, {"*": []}, {})
    nonempty = validate_functor(term, CONTRAVARIANT, {"*": ["a"]}, {})
    assert len(enumerate_nat(empty, nonempty)) == 1
    assert len(enumerate_nat(empty, empty)) == 1
    assert len(enumerate_nat(nonempty, empty)) == 0


def test_enumerated_transformations_pass_independent_recheck(categories, presheaves, copresheaves):
    for name in categories:
        for group in (presheaves[name], copresheaves[name]):
            for f in group:
                for g in group:
                    for t in enumerate_nat(f, g):
                        assert naturality_witness(t) is None
                        assert family_is_natural(f, g, family_of(t)), name


def test_enumeration_matches_brute_force_oracle(categories, presheaves, copresheaves):
    checked = 0
    for name in categories:
        pool = presheaves[name] + copresheaves[name]
        reps = [yoneda(categories[name], x) for x in categories[name].objects]
        reps += [coyoneda(categories[name], x) for x in categories[name].objects]
        for f in pool + reps:
            for g in pool + reps:
                if f.variance != g.variance:
                    continue
                if unpruned_family_count(f, g) > 10**6:
                    continue
                expected = {family_key(fam) for fam in brute_force_nat(f, g)}
                actual = {family_key(family_of(t)) for t in enumerate_nat(f, g)}
                assert actual == expected, name
                checked += 1
    assert checked >= 40


def test_enumeration_is_deterministic(presheaves):
    f = presheaves["square"][0]
    first = [family_of(t) for t in enumerate_nat(f, f)]
    second = [family_of(t) for t in enumerate_nat(f, f)]
    assert first == second


def test_budget_exceeded_reports_cap(presheaves):
    f = presheaves["z2"][0]
    with pytest.raises(BudgetExceeded) as err:
        enumerate_nat(f, f, budget=Budget(1))
    assert err.value.cap == 1


@pytest.mark.parametrize("cap", [0.5, float("nan"), float("inf"), "10", 0, -1])
def test_budget_cap_must_be_a_positive_integer(cap):
    """A cap that is not an integer is an input error, as one below 1 is;
    an int cap is kept as given."""
    with pytest.raises(InputError, match="budget cap must be"):
        Budget(cap)
    assert Budget(10).cap == 10


def test_budget_cap_is_exact(categories, presheaves, copresheaves):
    # A search that used n units finishes under cap n and raises under n - 1.
    checked = 0
    for name, category in categories.items():
        pool = presheaves[name] + copresheaves[name]
        pool += [yoneda(category, x) for x in category.objects] + [coyoneda(category, x) for x in category.objects]
        for f in pool:
            for g in pool:
                if f.variance != g.variance:
                    continue
                budget = Budget()
                expected = [family_of(t) for t in enumerate_nat(f, g, budget)]
                if budget.used < 2:
                    continue
                exact = Budget(budget.used)
                assert [family_of(t) for t in enumerate_nat(f, g, exact)] == expected
                assert exact.used == budget.used
                with pytest.raises(BudgetExceeded):
                    enumerate_nat(f, g, Budget(budget.used - 1))
                checked += 1
    assert checked >= 40


# ---------------------------------------------------------- representables


def test_yoneda_walking_arrow(categories):
    arrow = categories["arrow"]
    y_b = yoneda(arrow, "B")
    assert y_b.at("A").elements == ("f",)
    assert y_b.at("B").elements == ("id_B",)
    y_a = yoneda(arrow, "A")
    assert y_a.at("B").elements == ()


def test_yoneda_z2_action_is_right_multiplication(categories):
    y = yoneda(categories["z2"], "*")
    assert y.at("*").elements == ("e", "s")
    assert y.act("s").mapping == {"e": "s", "s": "e"}


def test_coyoneda_walking_arrow(categories):
    arrow = categories["arrow"]
    z_a = coyoneda(arrow, "A")
    assert z_a.at("B").elements == ("f",)
    z_b = coyoneda(arrow, "B")
    assert z_b.at("A").elements == ()


def test_coyoneda_z2_action_is_left_multiplication(categories):
    z = coyoneda(categories["z2"], "*")
    assert z.act("s").mapping == {"e": "s", "s": "e"}


@pytest.mark.parametrize("representable", [yoneda, coyoneda])
def test_representable_of_an_unknown_object_raises(categories, representable):
    """Also over a category without objects, where no hom-set is read, and
    nothing is memoised for the unknown object."""
    empty = FinCategory(objects=(), morphisms=(), identity={}, table={})
    for category in (categories["z2"], empty):
        for _ in range(2):
            with pytest.raises(UnknownObjectError, match="'X'"):
                representable(category, "X")


def test_yoneda_on_identity_is_identity(categories):
    for name, cat in categories.items():
        for obj in cat.objects:
            t = yoneda_on_morphism(cat, cat.identity_of(obj))
            assert t.components == identity_nat(yoneda(cat, obj)).components, name


def test_yoneda_on_morphism_arrow(categories):
    t = yoneda_on_morphism(categories["arrow"], "f")
    assert t.components["A"].mapping == {"id_A": "f"}


def test_yoneda_on_morphism_z2(categories):
    t = yoneda_on_morphism(categories["z2"], "s")
    assert t.components["*"].mapping == {"e": "s", "s": "e"}


def test_representables_on_morphisms_read_the_table(categories):
    # y(u) postcomposes and z(u) precomposes, straight from the table
    for name, cat in categories.items():
        for m in cat.morphisms:
            y_u, z_u = yoneda_on_morphism(cat, m.label), coyoneda_on_morphism(cat, m.label)
            assert z_u.source is coyoneda(cat, m.tgt) and z_u.target is coyoneda(cat, m.src)
            for a in cat.objects:
                assert y_u.components[a].mapping == {h: cat.table[(m.label, h)] for h in cat.hom_set(a, m.src)}
                assert z_u.components[a].mapping == {h: cat.table[(h, m.label)] for h in cat.hom_set(m.tgt, a)}, (name, m.label, a)
            assert naturality_witness(z_u) is None


def test_dual_is_the_same_table_over_the_opposite(categories, presheaves, copresheaves):
    for name, cat in categories.items():
        for f in presheaves[name] + copresheaves[name]:
            d = dual(f)
            assert d.base is opposite(cat) and d.variance != f.variance
            assert dual(d).base is f.base and dual(d) == f
            # an independent re-check of the laws over C^op
            actions = {m: d.act(m).mapping for m in d.actions}
            assert validate_functor(d.base, d.variance, d.on_objects, actions) == d, name
        for x in cat.objects:
            assert coyoneda(cat, x) == dual(yoneda(opposite(cat), x)), (name, x)


def test_yoneda_is_functorial(categories):
    for name, cat in categories.items():
        for g, f in cat.table:  # every composable pair
            lhs = yoneda_on_morphism(cat, cat.compose(g, f))
            rhs = compose_nat(yoneda_on_morphism(cat, g), yoneda_on_morphism(cat, f))
            assert lhs.components == rhs.components, (name, g, f)


# ---------------------------------------------------------- representable bijection


def test_yoneda_lemma_on_representables(categories):
    for name, cat in categories.items():
        for x in cat.objects:
            for y_obj in cat.objects:
                wit = yoneda_lemma_bijection(yoneda(cat, y_obj), x)
                assert len(wit.transformations) == len(cat.hom_set(x, y_obj)), (name, x, y_obj)


def test_yoneda_lemma_arrow_example(presheaves):
    functor = presheaves["arrow"][0]
    wit = yoneda_lemma_bijection(functor, "A")
    assert len(wit.transformations) == 2 == len(functor.at("A"))


def test_yoneda_lemma_empty_presheaf(presheaves):
    empty = presheaves["terminal"][1]
    wit = yoneda_lemma_bijection(empty, "*")
    assert wit.transformations == [] and len(wit.labels) == 0


def test_yoneda_lemma_round_trips(categories, presheaves):
    for name, cat in categories.items():
        for functor in presheaves[name]:
            for x in cat.objects:
                wit = yoneda_lemma_bijection(functor, x)
                fwd, bwd = wit.bijection.forward.mapping, wit.bijection.backward.mapping
                assert all(bwd[fwd[k]] == k for k in fwd), (name, x)
                assert all(fwd[bwd[k]] == k for k in bwd), (name, x)


def test_yoneda_lemma_is_evaluation_and_action(categories, presheaves):
    # forward is evaluation at the identity, backward a -> (u -> F(u)(a));
    # the round trips alone would pass a consistently permuted bijection
    for name, cat in categories.items():
        for functor in presheaves[name]:
            for x in cat.objects:
                wit = yoneda_lemma_bijection(functor, x)
                forward, backward = wit.bijection.forward, wit.bijection.backward
                ident = cat.identity_of(x)
                for label, t in zip(wit.labels.elements, wit.transformations):
                    assert forward(label) == t.components[x].mapping[ident], (name, x, label)
                for a in functor.at(x).elements:
                    t = wit.transformations[wit.labels.elements.index(backward(a))]
                    expected = {w: {u: functor.act(u)(a) for u in cat.hom_set(w, x)} for w in cat.objects}
                    assert family_of(t) == expected, (name, x, a)


# ---------------------------------------------------------------- sums


def test_sum_with_empty_is_isomorphic(categories, presheaves):
    term = categories["terminal"]
    f = presheaves["terminal"][0]
    empty = presheaves["terminal"][1]
    total = pointwise_sum(f, empty)
    assert iso_check(total, f) is not None


def test_sum_cardinalities(categories, presheaves, copresheaves):
    for name, cat in categories.items():
        f, g = presheaves[name]
        total = pointwise_sum(f, g)
        for obj in cat.objects:
            assert len(total.at(obj)) == len(f.at(obj)) + len(g.at(obj)), name


def test_sum_of_z2_regular_acts_within_tags(presheaves):
    regular = presheaves["z2"][0]
    total = pointwise_sum(regular, regular)
    assert total.at("*").elements == ("L.0", "L.1", "R.0", "R.1")
    assert total.act("s").mapping == {"L.0": "L.1", "L.1": "L.0", "R.0": "R.1", "R.1": "R.0"}


# ---------------------------------------------------------------- iso_check


def test_iso_check_identity(presheaves):
    f = presheaves["arrow"][0]
    iso = iso_check(f, f)
    assert iso is not None
    assert iso.components == identity_nat(f).components


def test_iso_check_cardinality_obstruction(categories):
    term = categories["terminal"]
    f = validate_functor(term, CONTRAVARIANT, {"*": ["a"]}, {})
    g = validate_functor(term, CONTRAVARIANT, {"*": ["a", "b"]}, {})
    assert iso_check(f, g) is None


def test_iso_check_representables_of_arrow_differ(categories):
    arrow = categories["arrow"]
    assert iso_check(yoneda(arrow, "A"), yoneda(arrow, "B")) is None


def test_make_transformation_rejects_non_natural(categories):
    z2 = categories["z2"]
    regular = validate_functor(z2, CONTRAVARIANT, {"*": ["0", "1"]}, {"s": {"0": "1", "1": "0"}})
    # a constant component cannot commute with the swap action
    bad = {"*": SetFunction(FinSet(("0", "1")), FinSet(("0", "1")), {"0": "0", "1": "0"})}
    with pytest.raises(NaturalityError):
        make_transformation(regular, regular, bad)
