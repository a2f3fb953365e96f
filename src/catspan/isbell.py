"""Conjugation between presheaves and copresheaves, the adjunction
transpose, the comparison map into the double conjugate, and a scanner
for functors on which that comparison is an isomorphism.

Convention, fixed once and used everywhere: the conjugate of a presheaf F
takes an object X to the transformations F => y(X); the conjugate of a
copresheaf G takes X to the transformations G => z(X). As z_C(X) =
y_{C^op}(X), that is presheaf conjugation over C^op: G* = dual((dual G)*).
Hom-sets between a conjugate and a copresheaf are read in the opposite
functor category, so "hom(F*, G)" is computed as transformations G => F*.
With this reading the two conjugations are adjoint on the right and the
transpose below is a bijection.

The element at position i of a conjugate at X is realized by the i-th
transformation into the representable, labeled ``t<i>`` only at the edge.
A ConjugatePair keeps each table once, as slot tuples in enumeration
order (``rows``) and a slots -> position ``index`` over the same tuples.
The conjugate's action, conjugate_transform and the transpose read only
these; ``evaluation_tables`` builds the transformations on read.
One transpose routine serves both directions of the adjunction, and the
unit is the transpose of the identity of the conjugate. A transpose is
accepted by finding its slots in the enumerated hom-set, whose entries are
all natural; the unit, which no table lists, is checked once.

Actions are computed on the generating morphisms of the base
(``fincat.generators``) only: the conjugate's action, and each candidate
of the reflexive scan, which charges one unit of budget per candidate, a
choice of action for each generator. ``setfunc.from_generators`` derives
the rest and checks the relations, the only laws this leaves open.
"""

from __future__ import annotations

import itertools
import math

from .fincat import FinCategory, Frozen, generators
from .setfunc import (
    CONTRAVARIANT,
    COVARIANT,
    Bijection,
    Budget,
    FinSet,
    InputError,
    NatTransformation,
    SetFunction,
    SetValuedFunctor,
    _composite,
    _offsets,
    _shape,
    coyoneda,
    dual,
    enumerate_nat,
    from_generators,
    identity_nat,
    is_natural_iso,
    yoneda,
    yoneda_on_morphism,
)


class ConjugatePair(Frozen):
    """A functor together with its conjugate and, for every object, the
    slot tuples of the transformations realizing the conjugate's elements.
    Element ``t<i>``, at position i of the conjugate at X, is realized by
    rows[X][i], and index[X] maps that same tuple back to i, as a FinSet
    keeps its elements and their index. ``evaluation_tables`` is a view
    built on read; ``label_of`` is the label view of the lookup."""

    __slots__ = _fields = ("original", "conjugate", "rows", "index")

    @property
    def evaluation_tables(self) -> dict[str, list[NatTransformation]]:
        """The realizing transformations, built on read: into y(X) for a
        presheaf's pair, into z(X) for a copresheaf's."""
        f = self.original
        into = yoneda if f.variance == CONTRAVARIANT else coyoneda
        return {x: [NatTransformation(f, into(f.base, x), s) for s in rows] for x, rows in self.rows.items()}

    def label_of(self, obj: str, t: NatTransformation) -> str:
        return f"t{_locate(self.index, obj, t.slots)}"


def _locate(index: dict[str, dict[tuple[int, ...], int]], obj: str, slots: tuple[int, ...]) -> int:
    """The position at ``obj`` of the transformation with these slots."""
    i = index[obj].get(slots)
    if i is None:
        raise RuntimeError(f"transformation not present in the evaluation table at {obj!r}")
    return i


def _conjugate(presheaf: SetValuedFunctor, budget: Budget) -> ConjugatePair:
    """Object X carries the transformations presheaf => y(X), labeled t0,
    t1, ... in enumeration order. A generating morphism u: X -> Y acts by
    postcomposition with y(u): y(X) => y(Y), slot by slot; from_generators
    derives the other actions and checks the relations."""
    base = presheaf.base
    rows = {obj: tuple(t.slots for t in enumerate_nat(presheaf, yoneda(base, obj), budget)) for obj in base.objects}
    # Slot tuples are distinct, so each index lists them in row order.
    index = {obj: {slots: i for i, slots in enumerate(entries)} for obj, entries in rows.items()}
    images = []
    for label in generators(base)[0]:
        m = base.morphism(label)
        u = yoneda_on_morphism(base, label)
        offsets = _offsets(presheaf, u.source)
        images.append(tuple(_locate(index, m.tgt, _composite(u.slots, offsets, slots)) for slots in rows[m.src]))
    on_objects = {obj: FinSet(tuple(f"t{i}" for i in range(len(rows[obj])))) for obj in base.objects}
    return ConjugatePair(presheaf, from_generators(base, COVARIANT, on_objects, images), rows, index)


def conjugate_presheaf(presheaf: SetValuedFunctor, budget: Budget | None = None) -> ConjugatePair:
    """The covariant conjugate: object X carries the transformations from
    the presheaf into the representable y(X), labeled t0, t1, ... in
    enumeration order; a morphism acts by postcomposition with the induced
    transformation between representables."""
    if presheaf.variance != CONTRAVARIANT:
        raise InputError("presheaf conjugation needs a contravariant functor")
    return _conjugate(presheaf, Budget.coerce(budget))


def conjugate_copresheaf(copresheaf: SetValuedFunctor, budget: Budget | None = None) -> ConjugatePair:
    """The contravariant conjugate: object X carries the transformations
    from the copresheaf into the representable z(X); a morphism acts by
    postcomposition with the precomposition transformation it induces.
    Computed as dual((dual G)*), whose rows and index are G*'s: a slot
    tuple into y_{C^op}(X) is the same tuple into z(X)."""
    if copresheaf.variance != COVARIANT:
        raise InputError("copresheaf conjugation needs a covariant functor")
    over_op = _conjugate(dual(copresheaf), Budget.coerce(budget))
    return ConjugatePair(copresheaf, dual(over_op.conjugate), over_op.rows, over_op.index)


def conjugate_transform(
    h: NatTransformation,
    source_pair: ConjugatePair,
    target_pair: ConjugatePair,
) -> NatTransformation:
    """Conjugation applied to a transformation h: F' => F, yielding the
    precomposition map F* => F'* (likewise for copresheaf conjugates); slot
    (a, k) of t . h holds t_a(h_a(k))."""
    if h.target != source_pair.original or h.source != target_pair.original:
        raise ValueError("transformations not composable: endpoints differ")
    offsets = _offsets(h.source, h.target)
    slots = tuple(
        _locate(target_pair.index, obj, _composite(slots, offsets, h.slots))
        for obj in h.source.base.objects
        for slots in source_pair.rows[obj]
    )
    return NatTransformation._checked(source_pair.conjugate, target_pair.conjugate, slots)


class AdjunctionWitness(Frozen):
    """Both hom-sets of the conjugation adjunction for a presheaf F and a
    copresheaf G, with the transpose bijection between them. Left entries
    (transformations G => F*) are labeled l0, l1, ...; right entries
    (F => G*) r0, r1, ...; round trips are identities by construction."""

    __slots__ = _fields = (
        "presheaf", "copresheaf", "left_homset", "right_homset", "transpose", "presheaf_pair", "copresheaf_pair",
    )


def _transpose(h: NatTransformation, pair: ConjugatePair, other_pair: ConjugatePair) -> tuple[int, ...]:
    """The slots of the transpose F => G* of h: G => F*, where pair is
    (F, F*) and other_pair is (G, G*).

    Through the pairing p(X, Y)(s, t) = alpha_X(s), where alpha realizes
    h_Y(t), curried in the first variable: the curried transformation of s
    in F(X) has, at the slot of t in G(Y), the position alpha_X(s) in the
    hom-set between X and Y, which G*'s representable at X lists at Y in
    the same declaration order. Its slots are located in G*'s table at X;
    the curried transformation itself is never built.
    """
    f, g = pair.original, h.source
    objects = f.base.objects
    rows = pair.rows
    # The realizer alpha of each slot of h, in h's slot order; the curried
    # transformation of the element at slot k of F reads slot k of each.
    realizers = [rows[y][i] for y in objects for i in h.slots[g.block(y)]]
    return tuple(
        _locate(other_pair.index, x, tuple(alpha[k] for alpha in realizers))
        for x in objects
        for k in range(f.first[x], f.first[x] + len(f.at(x)))
    )


def _transposes(homset, pair: ConjugatePair, other_pair: ConjugatePair, targets) -> tuple[int, ...]:
    """The position in ``targets`` of the transpose of each entry of
    ``homset``. Every enumerated entry is natural, so finding a transpose
    among them is its naturality check; a miss raises."""
    index = {t.slots: i for i, t in enumerate(targets)}
    images = []
    for h in homset:
        i = index.get(_transpose(h, pair, other_pair))
        if i is None:
            raise RuntimeError("transpose produced a transformation outside the enumerated hom-set")
        images.append(i)
    return tuple(images)


def adjunction_transpose(
    presheaf: SetValuedFunctor,
    copresheaf: SetValuedFunctor,
    budget: Budget | None = None,
) -> AdjunctionWitness:
    """Compute both hom-sets of the adjunction and the transpose between
    them, verifying every round trip element by element."""
    if presheaf.variance != CONTRAVARIANT or copresheaf.variance != COVARIANT:
        raise InputError("adjunction needs a contravariant and a covariant functor")
    if presheaf.base != copresheaf.base:
        raise InputError("functors live over different base categories")
    b = Budget.coerce(budget)

    presheaf_pair = conjugate_presheaf(presheaf, b)
    copresheaf_pair = conjugate_copresheaf(copresheaf, b)
    left = enumerate_nat(copresheaf, presheaf_pair.conjugate, b)
    right = enumerate_nat(presheaf, copresheaf_pair.conjugate, b)

    left_labels = FinSet(tuple(f"l{i}" for i in range(len(left))))
    right_labels = FinSet(tuple(f"r{j}" for j in range(len(right))))
    transpose = Bijection(
        SetFunction._trusted(left_labels, right_labels, _transposes(left, presheaf_pair, copresheaf_pair, right)),
        SetFunction._trusted(right_labels, left_labels, _transposes(right, copresheaf_pair, presheaf_pair, left)),
    )
    return AdjunctionWitness(
        presheaf, copresheaf, left, right, transpose, presheaf_pair, copresheaf_pair
    )


def double_conjugate(presheaf: SetValuedFunctor, budget: Budget | None = None) -> tuple[ConjugatePair, ConjugatePair]:
    """The pair (F*, F**) with their evaluation tables."""
    b = Budget.coerce(budget)
    star = conjugate_presheaf(presheaf, b)
    dstar = conjugate_copresheaf(star.conjugate, b)
    return star, dstar


def unit(presheaf: SetValuedFunctor, budget: Budget | None = None) -> NatTransformation:
    """The canonical comparison from a presheaf into its double conjugate:
    the transpose of the identity of the conjugate.

    At an object X, a value s is sent to the transformation from the
    conjugate into z(X) that evaluates each realizing alpha at s; the
    result is located in the double conjugate's evaluation table, and its
    naturality is checked once.
    """
    star, dstar = double_conjugate(presheaf, budget)
    return NatTransformation._checked(presheaf, dstar.conjugate, _transpose(identity_nat(star.conjugate), star, dstar))


class ReflexiveVerdict(Frozen):
    __slots__ = _fields = ("functor", "description", "reflexive")


def _describe(head: str, actions: dict[str, tuple[int, ...]], labels: list[str]) -> str:
    """The size vector ``head``, then each labelled action as x<k>>x<p>,
    read off its image tuple."""
    if not labels:
        return head
    body = (f"{u}:[" + ",".join(f"x{k}>x{p}" for k, p in enumerate(actions[u])) + "]" for u in labels)
    return f"{head}; {' '.join(body)}"


def _size_vectors(count: int, ends: list[tuple[int, int]], top: int):
    """The value-set size vectors with at least one candidate, in
    lexicographic order. A vector has none exactly when a generator runs
    from a nonempty value set to an empty one, or, closing the generators
    transitively, when a nonempty one reaches an empty one. The sweep
    assigns the objects in order and never lets an assigned nonempty
    object reach an assigned empty one; such a prefix always extends to a
    vector, so the sweep never dead-ends."""
    reach = [{cod for dom, cod in ends if dom == i} for i in range(count)]
    for k in range(count):  # transitive closure, in Warshall's order
        for targets in reach:
            if k in targets:
                targets |= reach[k]
    sizes: list[int] = []
    options = []  # options[k]: the sizes object k has left to take
    while True:
        k = len(sizes)
        if k == count:
            yield tuple(sizes)
        else:
            # Nonempty if an assigned nonempty object reaches object k, and
            # empty if object k reaches an assigned empty one.
            low = int(any(sizes[j] and k in reach[j] for j in range(k)))
            high = 0 if any(not sizes[j] and j in reach[k] for j in range(k)) else top
            options.append(iter(range(low, high + 1)))
        while options:  # advance the last object, dropping exhausted ones
            size = next(options[-1], None)
            del sizes[len(options) - 1:]
            if size is not None:
                sizes.append(size)
                break
            options.pop()
        else:
            return


def _isomorphism_class(key: tuple, swaps: list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]]) -> set[tuple]:
    """Every key reachable from ``key`` by the relabellings ``swaps``.

    A key is the tuple of the generators' image tuples. A swap lists, for
    each generator it moves, (j, positions, values): the j-th image tuple
    becomes values[images[p]] for p in positions. The swaps of a size
    vector are the adjacent transpositions of each value set, which
    generate every per-object relabelling, so the search visits each key
    of the class once and tries every swap on it.
    """
    found = {key}
    frontier = [key]
    while frontier:
        current = frontier.pop()
        for swap in swaps:
            moved = list(current)
            for j, positions, values in swap:
                images = current[j]
                moved[j] = tuple(values[images[p]] for p in positions)
            moved = tuple(moved)
            if moved not in found:
                found.add(moved)
                frontier.append(moved)
    return found


def reflexive_scan(
    category: FinCategory,
    max_set_size: int = 2,
    budget: Budget | None = None,
) -> list[ReflexiveVerdict]:
    """Enumerate every contravariant functor with value sets of at most the
    given size (structural duplicates included, isomorphic ones not merged),
    and report whether the comparison into its double conjugate is an
    isomorphism.

    A candidate picks an action for each generating morphism of the
    category; ``from_generators`` derives every other action along its
    derivation, F(g . f) = F(f) . F(g), and keeps the candidate when it
    meets every relation of the composition table. Each candidate costs one
    unit of budget, charged for a whole size vector before its candidates
    are built, so the budget bounds the memory they take. The value-set
    size vectors with candidates are swept in lexicographic order, each
    costing at least one unit, so the budget bounds the sweep too; within
    one the functors are reported in lexicographic order of the actions of
    every non-identity morphism in declaration order, so the report order
    is deterministic.

    Whether the comparison is an isomorphism does not change under
    isomorphism of functors, so it is computed once per isomorphism class:
    for the first functor of the class in report order, whose verdict is
    recorded for every member. Two functors of one size vector are
    isomorphic exactly when a permutation of each value set carries the
    generators' actions of one to the other's. The class is found by
    closing the representative's actions under the adjacent transpositions
    of each value set; for a generator u: X -> Y, a transposition at Y
    swaps two positions of F(u) and one at X swaps two of its values.
    """
    if max_set_size < 0:
        raise InputError("max_set_size must be nonnegative")
    b = Budget.coerce(budget)
    gens = generators(category)[0]
    non_identity = [m.label for m in category.morphisms if not category.is_identity(m.label)]
    objects = category.objects
    # The action of a generator runs from the value set at dom to the one at cod.
    ends = [(objects.index(m.src), objects.index(m.tgt)) for m in map(_shape(category, CONTRAVARIANT).morphism, gens)]
    verdicts: list[ReflexiveVerdict] = []

    for sizes in _size_vectors(len(objects), ends, max_set_size):
        # Every candidate of the size vector is charged before any is built.
        b.charge(math.prod(sizes[cod] ** sizes[dom] for dom, cod in ends))
        head = ",".join(f"{obj}={n}" for obj, n in zip(objects, sizes))
        on_objects = {obj: FinSet(tuple(f"x{k}" for k in range(n))) for obj, n in zip(objects, sizes)}
        choices = [itertools.product(range(sizes[cod]), repeat=sizes[dom]) for dom, cod in ends]
        built = (from_generators(category, CONTRAVARIANT, on_objects, picks) for picks in itertools.product(*choices))
        functors = sorted(filter(None, built), key=lambda f: tuple(f.actions[label] for label in non_identity))
        swaps = []
        for obj, n in enumerate(sizes):
            for k in range(n - 1):
                swap = []
                for j, (dom, cod) in enumerate(ends):
                    if obj in (dom, cod):
                        positions, values = list(range(sizes[dom])), list(range(sizes[cod]))
                        if dom == obj:
                            positions[k], positions[k + 1] = k + 1, k
                        if cod == obj:
                            values[k], values[k + 1] = k + 1, k
                        swap.append((j, tuple(positions), tuple(values)))
                swaps.append(swap)
        verdict_of: dict[tuple, bool] = {}
        for functor in functors:
            key = tuple(functor.actions[label] for label in gens)
            reflexive = verdict_of.get(key)
            if reflexive is None:
                reflexive = is_natural_iso(unit(functor, b))
                verdict_of.update(dict.fromkeys(_isomorphism_class(key, swaps), reflexive))
            verdicts.append(ReflexiveVerdict(functor, _describe(head, functor.actions, non_identity), reflexive))
    return verdicts
