"""Properties over generated categories: random posets on at most four
objects, one-object submonoids of the transformation monoid T_3, the
opposites of both, and products of a poset with a monoid, which have
several objects and hom-sets of more than one morphism.

The strategies build the composition tables directly and import nothing
from the library's search code. Morphisms are declared in a random order,
so a composite is often declared before its factors. The properties check
``generators`` against a composition closure computed here, and
``enumerate_nat`` and ``reflexive_scan`` against the unpruned oracles.
Over representables and their sums they check the Yoneda count, the
adjunction's transpose, the reflexivity of representables and the
triangle identity of the conjugation adjunction; over scanned functors,
that reflexivity is invariant under isomorphism.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from catspan import (
    CONTRAVARIANT,
    FinCategory,
    Morphism,
    adjunction_transpose,
    component_signature,
    compose_nat,
    conjugate_presheaf,
    conjugate_transform,
    coyoneda,
    double_conjugate,
    dual,
    enumerate_nat,
    generators,
    identity_nat,
    is_natural_iso,
    iso_check,
    make_transformation,
    pointwise_sum,
    reflexive_scan,
    unit,
    validate_category,
    validate_functor,
    yoneda,
    yoneda_lemma_bijection,
)

from oracles import (
    brute_force_nat,
    composition_closure,
    family_of,
    full_product_count,
    full_product_scan,
    unpruned_family_count,
)

# Largest numbers of component families and of scan candidates that the
# unpruned oracles are asked to try.
FAMILY_CAP = 1_000
CANDIDATE_CAP = 50_000
# Largest number of candidates a scan is run on just to draw one functor.
RELABEL_CANDIDATE_CAP = 500
# Largest total number of elements of a sum of two representables that the
# conjugation properties take. The triangle identity conjugates three times,
# and the third conjugate of y + y over a 3-element monoid already exceeds
# two million search steps.
SUM_ELEMENT_CAP = 6
TRIANGLE_ELEMENT_CAP = 4


@st.composite
def posets(draw, max_objects=4) -> FinCategory:
    """The transitive closure of a random DAG on at most four objects."""
    n = draw(st.integers(1, max_objects))
    objects = draw(st.permutations([f"p{i}" for i in range(n)]))
    below = {(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    below |= {(i, i) for i in range(n)}
    while True:
        longer = {(i, k) for i, j in below for j2, k in below if j == j2} - below
        if not longer:
            break
        below |= longer
    pairs = draw(st.permutations(sorted(below)))
    label = {(i, j): f"{objects[i]}{objects[j]}" if i != j else f"id_{objects[i]}" for i, j in pairs}
    return FinCategory(
        objects=tuple(objects),
        morphisms=tuple(Morphism(label[(i, j)], objects[i], objects[j]) for i, j in pairs),
        identity={objects[i]: label[(i, i)] for i in range(n)},
        table={
            (label[(j, k)], label[(i, j2)]): label[(i, k)]
            for j, k in pairs
            for i, j2 in pairs
            if j2 == j
        },
    )


@st.composite
def t3_submonoids(draw, max_generators=2) -> FinCategory:
    """The one-object category of the maps {0,1,2} -> {0,1,2} generated by
    one or two random maps; composition is composition of maps."""
    maps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=max_generators))
    identity = (0, 1, 2)
    elements = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in maps:
            y = tuple(x[g[k]] for k in range(3))
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    order = draw(st.permutations(sorted(elements)))

    def label(t):
        return "m" + "".join(map(str, t))

    return FinCategory(
        objects=("*",),
        morphisms=tuple(Morphism(label(t), "*", "*") for t in order),
        identity={"*": label(identity)},
        table={
            (label(g), label(f)): label(tuple(g[f[k]] for k in range(3)))
            for g in elements
            for f in elements
        },
    )


def opposite_of(category: FinCategory) -> FinCategory:
    """The opposite category, read off the table: every morphism reversed
    and every composite g . f recorded as f . g."""
    return FinCategory(
        objects=category.objects,
        morphisms=tuple(Morphism(m.label, m.tgt, m.src) for m in category.morphisms),
        identity=dict(category.identity),
        table={(f, g): r for (g, f), r in category.table.items()},
    )


@st.composite
def products(draw) -> FinCategory:
    """A poset on at most three objects times a monoid generated by one map
    of T_3 (at most three elements): pairs of objects and of morphisms,
    composed componentwise, morphisms declared in a random order."""
    left, right = draw(posets(max_objects=3)), draw(t3_submonoids(max_generators=1))

    def pair(a, b):
        return f"{a},{b}"

    morphisms = draw(st.permutations([(f, g) for f in left.morphisms for g in right.morphisms]))
    return FinCategory(
        objects=tuple(pair(a, b) for a in left.objects for b in right.objects),
        morphisms=tuple(Morphism(pair(f.label, g.label), pair(f.src, g.src), pair(f.tgt, g.tgt)) for f, g in morphisms),
        identity={pair(a, b): pair(left.identity[a], right.identity[b]) for a in left.objects for b in right.objects},
        table={
            (pair(g1, g2), pair(f1, f2)): pair(r1, r2)
            for (g1, f1), r1 in left.table.items()
            for (g2, f2), r2 in right.table.items()
        },
    )


categories = st.one_of(
    posets(),
    t3_submonoids(),
    posets().map(opposite_of),
    t3_submonoids().map(opposite_of),
    products(),
)


def small_functors(representables, cap=SUM_ELEMENT_CAP):
    """The representables, and the sums of two of them with at most
    ``cap`` elements in all."""
    sums = [pointwise_sum(f, g) for f in representables for g in representables]
    return representables + [s for s in sums if sum(len(s.at(obj)) for obj in s.base.objects) <= cap]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(categories)
def test_generators_are_an_irredundant_generating_set(category):
    assert validate_category(category).ok
    gens, derivations = generators(category)
    identities = set(category.identity.values())
    non_identity = [m.label for m in category.morphisms if m.label not in identities]
    assert list(gens) == [label for label in non_identity if label in gens]
    assert sorted([*gens, *(r for r, _, _ in derivations)]) == sorted(non_identity)
    assert composition_closure(category, gens) >= set(non_identity)
    for g in gens:
        assert g not in composition_closure(category, set(gens) - {g}), g
    earlier = set(gens)
    for r, g, f in derivations:
        assert g in earlier and f in earlier
        assert category.table[(g, f)] == r
        earlier.add(r)
    assert generators(category) is generators(category)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(categories, st.data())
def test_enumerate_nat_matches_brute_force_on_representables_and_sums(category, data):
    representables = [yoneda(category, obj) for obj in category.objects]
    functors = representables + [pointwise_sum(f, g) for f in representables for g in representables]
    pairs = [(f, g) for f in functors for g in functors if unpruned_family_count(f, g) <= FAMILY_CAP]
    assume(pairs)
    source, target = data.draw(st.sampled_from(pairs))
    found = [family_of(t) for t in enumerate_nat(source, target)]
    assert found == brute_force_nat(source, target)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(categories, st.integers(1, 2))
def test_reflexive_scan_matches_full_product(category, max_set_size):
    while full_product_count(category, max_set_size) > CANDIDATE_CAP:
        max_set_size -= 1
    scanned = [v.description for v in reflexive_scan(category, max_set_size)]
    assert scanned == full_product_scan(category, max_set_size)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(categories, st.data())
def test_yoneda_count_equals_value_count(category, data):
    functor = data.draw(st.sampled_from(small_functors([yoneda(category, x) for x in category.objects])))
    obj = data.draw(st.sampled_from(category.objects))
    witness = yoneda_lemma_bijection(functor, obj)
    assert len(witness.transformations) == len(functor.at(obj))
    assert witness.bijection.forward.is_bijection()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(categories, st.data())
def test_adjunction_hom_sets_are_in_bijection(category, data):
    presheaf = data.draw(st.sampled_from(small_functors([yoneda(category, x) for x in category.objects])))
    copresheaf = data.draw(st.sampled_from(small_functors([coyoneda(category, x) for x in category.objects])))
    witness = adjunction_transpose(presheaf, copresheaf)
    assert len(witness.left_homset) == len(witness.right_homset)
    assert witness.transpose.forward.is_bijection()
    assert witness.transpose.backward.is_bijection()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(categories)
def test_representables_are_reflexive(category):
    for obj in category.objects:
        assert is_natural_iso(unit(yoneda(category, obj))), obj


@settings(max_examples=100, deadline=None, derandomize=True)
@given(categories, st.data())
def test_triangle_identity(category, data):
    """(eta_F)* . eta'_{F*} = id_{F*}, where eta is the unit of a presheaf
    and eta' that of a copresheaf, read over the opposite category."""
    representables = [yoneda(category, x) for x in category.objects]
    presheaf = data.draw(st.sampled_from(small_functors(representables, TRIANGLE_ELEMENT_CAP)))
    star, dstar = double_conjugate(presheaf)
    tstar = conjugate_presheaf(dstar.conjugate)
    # eta' of the copresheaf F* is the unit of the presheaf dual(F*) over
    # C^op; its components are read back as F* => F*** over C.
    over_op = unit(dual(star.conjugate))
    eta_prime = make_transformation(
        star.conjugate,
        tstar.conjugate,
        {obj: over_op.component(obj) for obj in category.objects},
    )
    eta_star = conjugate_transform(unit(presheaf), tstar, star)
    composite = compose_nat(eta_star, eta_prime)
    assert component_signature(composite) == component_signature(identity_nat(star.conjugate))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(categories, st.data())
def test_reflexivity_is_invariant_under_relabelling(category, data):
    """Permuting each value set of a scanned functor F, and conjugating its
    actions to match, gives an isomorphic functor that the scan also
    reports, with the same verdict."""
    assume(full_product_count(category, 2) <= RELABEL_CANDIDATE_CAP)
    verdicts = reflexive_scan(category, 2)
    movable = [v for v in verdicts if any(len(v.functor.at(obj)) == 2 for obj in category.objects)]
    assume(movable)
    verdict = data.draw(st.sampled_from(movable))
    functor = verdict.functor
    # Value sets have at most two elements, so a permutation is the identity
    # or the swap; at least one object is swapped.
    pairs = [obj for obj in category.objects if len(functor.at(obj)) == 2]
    swapped = data.draw(st.sets(st.sampled_from(pairs), min_size=1))
    perm = {obj: [1, 0] if obj in swapped else list(range(len(functor.at(obj)))) for obj in category.objects}
    on_morphisms = {}
    for m in category.morphisms:
        action = functor.act(m.label)
        dom, cod = perm[m.tgt], perm[m.src]  # contravariant action
        on_morphisms[m.label] = {
            action.dom.elements[dom[k]]: action.cod.elements[cod[p]] for k, p in enumerate(action.images)
        }
    relabelled = validate_functor(category, CONTRAVARIANT, functor.on_objects, on_morphisms)
    assert is_natural_iso(unit(relabelled)) == verdict.reflexive
    assert iso_check(functor, relabelled) is not None
    assert relabelled in [v.functor for v in verdicts]
