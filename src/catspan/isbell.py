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

The element at position i of a conjugate at X is the i-th transformation
of its evaluation table, labeled ``t<i>`` only at the edge. A
ConjugatePair keeps the slots -> position index built with each table;
the conjugate's action, conjugate_transform and the transpose read and
write slot tuples (``NatTransformation.slots``) and locate them there.
One transpose routine serves both directions of the adjunction, and the
unit is the transpose of the identity of the conjugate.

Actions are computed on the generating morphisms of the base
(``fincat.generators``) and composed along the derivations for the rest:
the conjugate's action, and each candidate of the reflexive scan, which
charges one unit of budget per candidate, a choice of action for each
generator. The functor-law check that follows covers every composite.
"""

from __future__ import annotations

import itertools

from .fincat import FinCategory, Frozen, generators
from .setfunc import (
    CONTRAVARIANT,
    COVARIANT,
    Bijection,
    Budget,
    FinSet,
    FunctorLawError,
    NatTransformation,
    SetFunction,
    SetValuedFunctor,
    _composite,
    _offsets,
    compose_functions,
    coyoneda,
    dual,
    enumerate_nat,
    identity_nat,
    is_natural_iso,
    validate_functor,
    yoneda,
    yoneda_on_morphism,
)


class ConjugatePair(Frozen):
    """A functor together with its conjugate and, for every object, the
    transformations realizing the conjugate's elements. Element ``t<i>``,
    at position i of the conjugate at X, is evaluation_tables[X][i], and
    index[X] maps that transformation's slots back to i. Downstream
    consumers locate slot tuples there; ``label_of`` is the label view of
    that lookup."""

    __slots__ = _fields = ("original", "conjugate", "evaluation_tables", "index")

    def label_of(self, obj: str, t: NatTransformation) -> str:
        return f"t{_locate(self.index, obj, t.slots)}"


def _locate(index: dict[str, dict[tuple[int, ...], int]], obj: str, slots: tuple[int, ...]) -> int:
    """The position at ``obj`` of the transformation with these slots."""
    i = index[obj].get(slots)
    if i is None:
        raise RuntimeError(f"transformation not present in the evaluation table at {obj!r}")
    return i


def _labels(n: int) -> FinSet:
    return FinSet(tuple(f"t{i}" for i in range(n)))


def _conjugate(presheaf: SetValuedFunctor, budget: Budget) -> ConjugatePair:
    """Object X carries the transformations presheaf => y(X), labeled t0,
    t1, ... in enumeration order. A generating morphism u: X -> Y acts by
    postcomposition with y(u): y(X) => y(Y), slot by slot; every other
    action is the composite along its derivation, and validate_functor
    checks every composite."""
    base = presheaf.base
    gens, derivations = generators(base)
    tables = {obj: enumerate_nat(presheaf, yoneda(base, obj), budget) for obj in base.objects}
    # Slot tuples are distinct, so each index lists them in table order.
    index = {obj: {t.slots: i for i, t in enumerate(entries)} for obj, entries in tables.items()}
    on_objects = {obj: _labels(len(tables[obj])) for obj in base.objects}
    on_morphisms = {}
    for label in gens:
        m = base.morphism(label)
        u = yoneda_on_morphism(base, label)
        offsets = _offsets(presheaf, u.source)
        images = tuple(_locate(index, m.tgt, _composite(u.slots, offsets, slots)) for slots in index[m.src])
        on_morphisms[label] = SetFunction._trusted(on_objects[m.src], on_objects[m.tgt], images)
    for r, g, f in derivations:
        on_morphisms[r] = compose_functions(on_morphisms[g], on_morphisms[f])
    conjugate = validate_functor(base, COVARIANT, on_objects, on_morphisms)
    return ConjugatePair(presheaf, conjugate, tables, index)


def conjugate_presheaf(presheaf: SetValuedFunctor, budget: Budget | int | None = None) -> ConjugatePair:
    """The covariant conjugate: object X carries the transformations from
    the presheaf into the representable y(X), labeled t0, t1, ... in
    enumeration order; a morphism acts by postcomposition with the induced
    transformation between representables."""
    if presheaf.variance != CONTRAVARIANT:
        raise ValueError("presheaf conjugation needs a contravariant functor")
    return _conjugate(presheaf, Budget.coerce(budget))


def conjugate_copresheaf(copresheaf: SetValuedFunctor, budget: Budget | int | None = None) -> ConjugatePair:
    """The contravariant conjugate: object X carries the transformations
    from the copresheaf into the representable z(X); a morphism acts by
    postcomposition with the precomposition transformation it induces.
    Computed as dual((dual G)*); table entries are re-tagged as the
    transformations G => z(X) they are, so that they compose over C."""
    if copresheaf.variance != COVARIANT:
        raise ValueError("copresheaf conjugation needs a covariant functor")
    base = copresheaf.base
    over_op = _conjugate(dual(copresheaf), Budget.coerce(budget))
    tables = {}
    for obj, entries in over_op.evaluation_tables.items():
        z = coyoneda(base, obj)
        tables[obj] = [NatTransformation(copresheaf, z, t.slots) for t in entries]
    return ConjugatePair(copresheaf, dual(over_op.conjugate), tables, over_op.index)


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
        _locate(target_pair.index, obj, _composite(t.slots, offsets, h.slots))
        for obj in h.source.base.objects
        for t in source_pair.evaluation_tables[obj]
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


def _transpose(h: NatTransformation, pair: ConjugatePair, other_pair: ConjugatePair) -> NatTransformation:
    """The transpose F => G* of h: G => F*, where pair is (F, F*) and
    other_pair is (G, G*).

    Through the pairing p(X, Y)(s, t) = alpha_X(s), where alpha realizes
    h_Y(t), curried in the first variable: the curried transformation of s
    in F(X) has, at the slot of t in G(Y), the position alpha_X(s) in the
    hom-set between X and Y, which G*'s representable at X lists at Y in
    the same declaration order. Its slots are located in G*'s table at X;
    the curried transformation itself is never built.
    """
    f, g = pair.original, h.source
    objects = f.base.objects
    tables = pair.evaluation_tables
    # The realizer alpha of each slot of h, in h's slot order; the curried
    # transformation of the element at slot k of F reads slot k of each.
    realizers = [tables[y][i].slots for y in objects for i in h.slots[g.block(y)]]
    slots = tuple(
        _locate(other_pair.index, x, tuple(alpha[k] for alpha in realizers))
        for x in objects
        for k in range(f.first[x], f.first[x] + len(f.at(x)))
    )
    return NatTransformation._checked(f, other_pair.conjugate, slots)


def _transposes(homset, pair: ConjugatePair, other_pair: ConjugatePair, targets) -> tuple[int, ...]:
    """The position in ``targets`` of the transpose of each entry of ``homset``."""
    index = {t.slots: i for i, t in enumerate(targets)}
    images = []
    for h in homset:
        i = index.get(_transpose(h, pair, other_pair).slots)
        if i is None:
            raise RuntimeError("transpose produced a transformation outside the enumerated hom-set")
        images.append(i)
    return tuple(images)


def adjunction_transpose(
    presheaf: SetValuedFunctor,
    copresheaf: SetValuedFunctor,
    budget: Budget | int | None = None,
) -> AdjunctionWitness:
    """Compute both hom-sets of the adjunction and the transpose between
    them, verifying every round trip element by element."""
    if presheaf.variance != CONTRAVARIANT or copresheaf.variance != COVARIANT:
        raise ValueError("adjunction needs a contravariant and a covariant functor")
    if presheaf.base != copresheaf.base:
        raise ValueError("functors live over different base categories")
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


def double_conjugate(presheaf: SetValuedFunctor, budget: Budget | int | None = None) -> tuple[ConjugatePair, ConjugatePair]:
    """The pair (F*, F**) with their evaluation tables."""
    b = Budget.coerce(budget)
    star = conjugate_presheaf(presheaf, b)
    dstar = conjugate_copresheaf(star.conjugate, b)
    return star, dstar


def unit(presheaf: SetValuedFunctor, budget: Budget | int | None = None) -> NatTransformation:
    """The canonical comparison from a presheaf into its double conjugate:
    the transpose of the identity of the conjugate.

    At an object X, a value s is sent to the transformation from the
    conjugate into z(X) that evaluates each realizing alpha at s; the
    result is located in the double conjugate's evaluation table.
    """
    star, dstar = double_conjugate(presheaf, budget)
    return _transpose(identity_nat(star.conjugate), star, dstar)


class ReflexiveVerdict(Frozen):
    __slots__ = _fields = ("functor", "description", "reflexive")


def _describe(base: FinCategory, functor: SetValuedFunctor, action_morphisms: list[str]) -> str:
    sizes = ",".join(f"{obj}={len(functor.at(obj))}" for obj in base.objects)
    if not action_morphisms:
        return sizes
    actions = []
    for label in action_morphisms:
        body = ",".join(f"{e}>{img}" for e, img in functor.act(label).mapping.items())
        actions.append(f"{label}:[{body}]")
    return f"{sizes}; {' '.join(actions)}"


def reflexive_scan(
    category: FinCategory,
    max_set_size: int = 2,
    budget: Budget | int | None = None,
) -> list[ReflexiveVerdict]:
    """Enumerate every contravariant functor with value sets of at most the
    given size (structural duplicates included, isomorphic ones not merged),
    compute the comparison into its double conjugate, and report whether it
    is an isomorphism.

    A candidate picks an action for each generating morphism of the
    category, derives every other action along its derivation, F(g . f) =
    F(f) . F(g), and is kept when validate_functor accepts it, which checks
    every relation of the composition table. Each candidate costs one unit
    of budget. Value-set size vectors are swept in lexicographic order, and
    within one the functors are reported in lexicographic order of the
    actions of every non-identity morphism in declaration order, so the
    report order is deterministic.
    """
    if max_set_size < 0:
        raise ValueError("max_set_size must be nonnegative")
    b = Budget.coerce(budget)
    gens, derivations = generators(category)
    non_identity = [m.label for m in category.morphisms if not category.is_identity(m.label)]
    verdicts: list[ReflexiveVerdict] = []

    for sizes in itertools.product(range(max_set_size + 1), repeat=len(category.objects)):
        on_objects = {
            obj: FinSet(tuple(f"x{k}" for k in range(n)))
            for obj, n in zip(category.objects, sizes)
        }
        choice_lists = []
        for label in gens:
            m = category.morphism(label)
            dom, cod = on_objects[m.tgt], on_objects[m.src]  # contravariant action
            functions = [
                SetFunction._trusted(dom, cod, pick)
                for pick in itertools.product(range(len(cod)), repeat=len(dom))
            ]
            if not functions:
                break
            choice_lists.append(functions)
        else:
            functors = []
            for picks in itertools.product(*choice_lists):
                b.charge()
                on_morphisms = dict(zip(gens, picks))
                for r, g, f in derivations:
                    on_morphisms[r] = compose_functions(on_morphisms[f], on_morphisms[g])
                try:
                    functors.append(validate_functor(category, CONTRAVARIANT, on_objects, on_morphisms))
                except FunctorLawError:
                    continue
            functors.sort(key=lambda functor: tuple(functor.act(label).images for label in non_identity))
            for functor in functors:
                comparison = unit(functor, b)
                verdicts.append(
                    ReflexiveVerdict(functor, _describe(category, functor, non_identity), is_natural_iso(comparison))
                )
    return verdicts
