"""Properties over generated categories: random posets on at most four
objects and one-object submonoids of the transformation monoid T_3.

The strategies build the composition tables directly and import nothing
from the library's search code. Morphisms are declared in a random order,
so a composite is often declared before its factors. The properties check
``generators`` against a composition closure computed here, and
``enumerate_nat`` and ``reflexive_scan`` against the unpruned oracles.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from catspan import (
    FinCategory,
    Morphism,
    enumerate_nat,
    generators,
    pointwise_sum,
    reflexive_scan,
    validate_category,
    yoneda,
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


@st.composite
def posets(draw) -> FinCategory:
    """The transitive closure of a random DAG on at most four objects."""
    n = draw(st.integers(1, 4))
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
def t3_submonoids(draw) -> FinCategory:
    """The one-object category of the maps {0,1,2} -> {0,1,2} generated by
    one or two random maps; composition is composition of maps."""
    maps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=2))
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


categories = st.one_of(posets(), t3_submonoids())


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
