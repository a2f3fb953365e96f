"""Finite set-valued functors and exhaustive natural-transformation search.

A contravariant functor here is an object of the presheaf category over its
base; a covariant one is an object of the copresheaf category. Enumeration
of natural transformations is a backtracking search over component values
with forward propagation of the naturality constraints along the base's
generating morphisms (``fincat.generators``), which imply the others,
guarded by an explicit budget that counts the slots assigned or forced.

Labels live at the edge, positions inside. A FinSet indexes its labels
once; a SetFunction stores the codomain position of each image and builds
its label view ``mapping`` only when asked; a transformation is its flat
slot tuple in the layout its source functor decides (``first``), and its
``components`` are a view built on read. Outside input is checked where
it enters (``SetFunction(dom, cod, mapping)``, ``validate_functor``,
``make_transformation``); composites and search results, correct by
construction, skip that re-check. Representables are built once per
category and memoised on it.

A copresheaf on C is a presheaf on C^op: ``dual`` reads the same value
table over ``opposite(C)`` with the other variance, and the copresheaf
side is derived through it, z_C(X) = y_{C^op}(X).
"""

from __future__ import annotations

import functools
from functools import cached_property
from itertools import chain
from operator import add, itemgetter

from .fincat import FinCategory, Frozen, StructuralError, generators, opposite

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

DEFAULT_BUDGET = 10_000_000


class BudgetExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"enumeration budget exceeded (cap {cap} node expansions)")
        self.cap = cap


class Budget:
    """Mutable node-expansion counter shared across nested enumerations."""

    __slots__ = ("cap", "used")

    def __init__(self, cap: int = DEFAULT_BUDGET):
        if cap <= 0:
            raise ValueError("budget cap must be positive")
        self.cap = int(cap)
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceeded(self.cap)

    @classmethod
    def coerce(cls, budget: "Budget | int | None") -> "Budget":
        if budget is None:
            return cls()
        if isinstance(budget, Budget):
            return budget
        return cls(int(budget))


class FunctorLawError(ValueError):
    """A functor candidate that breaks typing, identity, or composition."""

    def __init__(self, law: str, witness: tuple[str, ...], detail: str):
        super().__init__(f"functor law {law!r} fails at {witness}: {detail}")
        self.law = law
        self.witness = witness


class NaturalityError(ValueError):
    """A component family that fails some naturality square."""

    def __init__(self, morphism: str, detail: str):
        super().__init__(f"naturality fails at morphism {morphism!r}: {detail}")
        self.morphism = morphism


class FinSet(Frozen):
    """A finite set of labels in a fixed order, with a label -> position
    index built once; compared by its elements alone."""

    __slots__ = ("elements", "index")
    _fields = ("elements",)

    def __init__(self, elements: tuple[str, ...]):
        index = {e: i for i, e in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError(f"duplicate element labels in {elements}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item) -> bool:
        return item in self.index


def _gather(table: tuple, positions: tuple[int, ...]) -> tuple:
    """``table[p]`` for every p in ``positions``, as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)(table)
    return tuple(table[p] for p in positions)


class SetFunction(Frozen):
    """A function between finite sets. ``images[i]`` is the codomain
    position of the image of the i-th domain element; ``mapping`` is the
    label view, built on each access for callers that read labels.

    ``SetFunction(dom, cod, mapping)`` checks every image; the library's
    own composites and search results are built by ``_trusted``.
    """

    __slots__ = _fields = ("dom", "cod", "images")

    def __init__(self, dom: FinSet, cod: FinSet, mapping: dict[str, str]):
        for e in dom.elements:
            if e not in mapping:
                raise ValueError(f"element {e!r} has no image")
        for e, img in mapping.items():
            if e not in dom:
                raise ValueError(f"mapping defined on {e!r} outside the domain")
            if img not in cod:
                raise ValueError(f"image {img!r} of {e!r} lies outside the codomain")
        position = cod.index
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "images", tuple(position[mapping[e]] for e in dom.elements))

    @classmethod
    def _trusted(cls, dom: FinSet, cod: FinSet, images: tuple[int, ...]) -> "SetFunction":
        """Internal constructor for values correct by construction: ``images``
        are codomain positions in domain order and are not re-checked."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "dom", dom)
        object.__setattr__(fn, "cod", cod)
        object.__setattr__(fn, "images", images)
        return fn

    def __reduce__(self):
        return SetFunction._trusted, (self.dom, self.cod, self.images)

    @property
    def mapping(self) -> dict[str, str]:
        cod = self.cod.elements
        return {e: cod[p] for e, p in zip(self.dom.elements, self.images)}

    def __call__(self, element: str) -> str:
        return self.cod.elements[self.images[self.dom.index[element]]]

    def is_bijection(self) -> bool:
        return len(self.dom) == len(self.cod) == len(set(self.images))


def identity_function(carrier: FinSet) -> SetFunction:
    return SetFunction._trusted(carrier, carrier, tuple(range(len(carrier))))


def compose_functions(second: SetFunction, first: SetFunction) -> SetFunction:
    if first.cod != second.dom:
        raise ValueError("functions not composable")
    return SetFunction._trusted(first.dom, second.cod, _gather(second.images, first.images))


class SetValuedFunctor(Frozen):
    """A functor from a finite category into finite sets: a value set for
    each object and an action for each morphism. Unslotted: the cached slot
    layout ``first`` lives in the instance dict."""

    _fields = ("base", "variance", "on_objects", "on_morphisms")

    # This constructor and NatTransformation's are written out: a functor is
    # built per scan candidate and a transformation per search solution, and
    # there Frozen's generic constructor measured slower.
    def __init__(
        self,
        base: FinCategory,
        variance: str,
        on_objects: dict[str, FinSet],
        on_morphisms: dict[str, SetFunction],
    ):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "on_objects", on_objects)
        object.__setattr__(self, "on_morphisms", on_morphisms)

    def at(self, obj: str) -> FinSet:
        return self.on_objects[obj]

    def act(self, morphism: str) -> SetFunction:
        return self.on_morphisms[morphism]

    @cached_property
    def first(self) -> dict[str, int]:
        """Slot layout of a transformation out of this functor: objects in
        base declaration order, each one's elements in value-set order."""
        first, n = {}, 0
        for obj in self.base.objects:
            first[obj] = n
            n += len(self.on_objects[obj])
        return first

    def block(self, obj: str) -> slice:
        """The slots of obj's elements."""
        lo = self.first[obj]
        return slice(lo, lo + len(self.on_objects[obj]))


def dual(functor: SetValuedFunctor) -> SetValuedFunctor:
    """The same value table read over the opposite category with the other
    variance; the functor laws carry over, and ``dual(dual(F)).base is
    F.base``."""
    variance = CONTRAVARIANT if functor.variance == COVARIANT else COVARIANT
    return SetValuedFunctor(opposite(functor.base), variance, functor.on_objects, functor.on_morphisms)


def validate_functor(
    base: FinCategory,
    variance: str,
    on_objects: dict,
    on_morphisms: dict,
) -> SetValuedFunctor:
    """Build a functor after exhaustively checking the functor laws.

    ``on_objects`` values may be FinSets or plain label sequences, and
    ``on_morphisms`` values FinSet functions or plain mapping dicts.
    Identity actions may be omitted; they are filled in as identities.
    Raises FunctorLawError with a witness morphism on the first law failure.
    """
    if variance not in (COVARIANT, CONTRAVARIANT):
        raise ValueError(f"variance must be {COVARIANT!r} or {CONTRAVARIANT!r}, got {variance!r}")

    objects: dict[str, FinSet] = {}
    for obj in base.objects:
        if obj not in on_objects:
            raise StructuralError(f"no value set declared for object {obj!r}")
        value = on_objects[obj]
        objects[obj] = value if isinstance(value, FinSet) else FinSet(tuple(value))
    for obj in on_objects:
        if obj not in objects:
            raise StructuralError(f"value set declared for undeclared object {obj!r}")

    morphisms: dict[str, SetFunction] = {}
    for m in base.morphisms:
        dom_obj, cod_obj = (m.src, m.tgt) if variance == COVARIANT else (m.tgt, m.src)
        dom, cod = objects[dom_obj], objects[cod_obj]
        if m.label not in on_morphisms:
            if base.is_identity(m.label):
                morphisms[m.label] = identity_function(dom)
                continue
            raise StructuralError(f"no action declared for morphism {m.label!r}")
        raw = on_morphisms[m.label]
        if isinstance(raw, SetFunction):
            if raw.dom != dom or raw.cod != cod:
                raise FunctorLawError("typing", (m.label,), f"action endpoints do not match value sets of {dom_obj!r} -> {cod_obj!r}")
            morphisms[m.label] = raw
        else:
            try:
                morphisms[m.label] = SetFunction(dom, cod, dict(raw))
            except ValueError as exc:
                raise FunctorLawError("typing", (m.label,), str(exc)) from None
    for label in on_morphisms:
        if label not in morphisms:
            raise StructuralError(f"action declared for undeclared morphism {label!r}")

    for obj in base.objects:
        ident = base.identity[obj]
        if morphisms[ident].images != tuple(range(len(objects[obj]))):
            raise FunctorLawError("identity", (ident,), f"action of {ident!r} is not the identity on the value set of {obj!r}")

    for (g, f), r in base.table.items():
        if variance == COVARIANT:
            expected = _gather(morphisms[g].images, morphisms[f].images)
        else:
            expected = _gather(morphisms[f].images, morphisms[g].images)
        if morphisms[r].images != expected:
            raise FunctorLawError("composition", (g, f, r), "action of the composite differs from the composite of the actions")

    return SetValuedFunctor(base, variance, objects, morphisms)


class NatTransformation(Frozen):
    """``slots[source.first[obj] + k]`` is the target position of the
    image of the k-th element of ``source.at(obj)``; ``component(obj)`` and
    ``components`` are views. The constructor trusts its slots."""

    __slots__ = _fields = ("source", "target", "slots")

    def __init__(self, source: SetValuedFunctor, target: SetValuedFunctor, slots: tuple[int, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "slots", slots)

    def component(self, obj: str) -> SetFunction:
        return SetFunction._trusted(self.source.at(obj), self.target.at(obj), self.slots[self.source.block(obj)])

    @property
    def components(self) -> dict[str, SetFunction]:
        return {obj: self.component(obj) for obj in self.source.base.objects}

    @classmethod
    def _checked(cls, source: SetValuedFunctor, target: SetValuedFunctor, slots: tuple[int, ...]) -> "NatTransformation":
        """Build from slots and verify every naturality square."""
        t = cls(source, target, slots)
        witness = naturality_witness(t)
        if witness is not None:
            raise NaturalityError(witness[0], f"square fails on element {witness[1]!r}")
        return t


def component_signature(t: NatTransformation) -> tuple[int, ...]:
    """The flat slot tuple. Equal iff structurally equal (for
    transformations between the same pair of functors)."""
    return t.slots


def _offsets(source: SetValuedFunctor, middle: SetValuedFunctor) -> list[int]:
    """For each slot out of ``source``, middle.first at its object."""
    first = middle.first
    return [first[obj] for obj in source.base.objects for _ in source.at(obj).elements]


def _composite(second: tuple[int, ...], offsets: list[int], first: tuple[int, ...]) -> tuple[int, ...]:
    """The slots of second . first, given _offsets(first's source, second's
    source): slot i is second's slot at the image of first's slot i."""
    return tuple(map(second.__getitem__, map(add, offsets, first)))


def _require_parallel(source: SetValuedFunctor, target: SetValuedFunctor) -> None:
    if source.base != target.base:
        raise ValueError("functors live over different base categories")
    if source.variance != target.variance:
        raise ValueError("functors have different variance")


def naturality_witness(t: NatTransformation) -> tuple[str, str] | None:
    """First (morphism, element) pair whose naturality square fails, or None."""
    source, target, slots = t.source, t.target, t.slots
    covariant = source.variance == COVARIANT
    for m in source.base.morphisms:
        start, end = (m.src, m.tgt) if covariant else (m.tgt, m.src)
        fu, gu = source.act(m.label).images, target.act(m.label).images
        comp_start, comp_end = slots[source.block(start)], slots[source.block(end)]
        around, across = _gather(comp_end, fu), _gather(gu, comp_start)
        if around != across:
            k = next(k for k, (a, b) in enumerate(zip(around, across)) if a != b)
            return m.label, source.at(start).elements[k]
    return None


def make_transformation(
    source: SetValuedFunctor,
    target: SetValuedFunctor,
    components: dict[str, SetFunction],
) -> NatTransformation:
    """Construct a transformation and verify every naturality square."""
    _require_parallel(source, target)
    slots = []
    for obj in source.base.objects:
        if obj not in components:
            raise ValueError(f"missing component at object {obj!r}")
        comp = components[obj]
        if comp.dom != source.at(obj) or comp.cod != target.at(obj):
            raise ValueError(f"component at {obj!r} has wrong endpoints")
        slots.extend(comp.images)
    return NatTransformation._checked(source, target, tuple(slots))


def identity_nat(functor: SetValuedFunctor) -> NatTransformation:
    slots = chain.from_iterable(range(len(functor.at(obj))) for obj in functor.base.objects)
    return NatTransformation(functor, functor, tuple(slots))


def compose_nat(second: NatTransformation, first: NatTransformation) -> NatTransformation:
    """Vertical composite: first then second."""
    if first.target != second.source:
        raise ValueError("transformations not composable: endpoints differ")
    offsets = _offsets(first.source, second.source)
    return NatTransformation(first.source, second.target, _composite(second.slots, offsets, first.slots))


def is_natural_iso(t: NatTransformation) -> bool:
    """Bijective components and commuting squares: a natural bijection's
    inverse is natural."""
    return all(comp.is_bijection() for comp in t.components.values()) and naturality_witness(t) is None


def enumerate_nat(
    source: SetValuedFunctor,
    target: SetValuedFunctor,
    budget: Budget | int | None = None,
) -> list[NatTransformation]:
    """All natural transformations source => target, in canonical order.

    The search assigns component values slot by slot (in the layout of
    ``source.first``, candidate images in target-set order) and propagates
    each assignment along every generating morphism of the base before
    descending, so inconsistent branches are pruned at the first definite
    conflict; naturality along the generators implies it along their
    composites. Every forced or
    attempted assignment costs one unit of budget, charged once per
    propagation, so the budget counts forces along generating morphisms;
    exhausting it raises BudgetExceeded rather than truncating silently.
    """
    _require_parallel(source, target)
    b = Budget.coerce(budget)
    base = source.base
    covariant = source.variance == COVARIANT

    # Slot i (layout source.first) holds the target position assigned to
    # one source element, one of choices[i] values.
    first = source.first
    choices = [len(target.at(obj)) for obj in base.objects for _ in source.at(obj).elements]
    n = len(choices)

    # Assigning eta(obj)(e) = v forces, along each generating morphism u
    # leaving obj (entering, for contravariant), the value eta(end)(F(u)(e))
    # = G(u)(v). F and G are functors, so a family natural along the
    # generators is natural along their composites, and forcing along the
    # generators reaches the same slots with the same values as forcing
    # along every morphism. edges[i] lists (forced slot, G(u) images) in
    # declaration order of the generators.
    edges: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for label in generators(base)[0]:
        m = base.morphism(label)
        start, end = (m.src, m.tgt) if covariant else (m.tgt, m.src)
        gu = target.act(label).images
        lo, end_lo = first[start], first[end]
        for k, p in enumerate(source.act(label).images):
            edges[lo + k].append((end_lo + p, gu))

    values: list[int | None] = [None] * n
    results: list[NatTransformation] = []

    def force(slot: int, value: int, trail: list[int]) -> bool:
        stack = [(slot, value)]
        count = 0
        while stack:
            i, v = stack.pop()
            count += 1
            current = values[i]
            if current is not None:
                if current != v:
                    b.charge(count)
                    return False
                continue
            values[i] = v
            trail.append(i)
            for j, gu in edges[i]:
                stack.append((j, gu[v]))
        b.charge(count)
        return True

    def snapshot() -> NatTransformation:
        return NatTransformation(source, target, tuple(values))

    def next_free(i: int) -> int:
        while i < n and values[i] is not None:
            i += 1
        return i

    # Depth-first over the free slots. Each frame is [slot, next candidate,
    # trail of the candidate last tried]; the stack is explicit so that the
    # depth is limited by the budget, not by the interpreter's recursion limit.
    i = next_free(0)
    if i == n:
        return [snapshot()]
    frames = [[i, 0, []]]
    while frames:
        frame = frames[-1]
        i, v, trail = frame
        for j in trail:
            values[j] = None
        if v == choices[i]:
            frames.pop()
            continue
        trail = []
        frame[1], frame[2] = v + 1, trail
        if force(i, v, trail):
            j = next_free(i + 1)
            if j == n:
                results.append(snapshot())
            else:
                frames.append([j, 0, []])
    return results


def _per_category(build):
    """Memoise ``build(category, *args)`` on the category. A category is not
    changed once validated, so whatever is built from it alone stays valid;
    each representable is then built and checked once per category."""
    name = build.__name__

    @functools.wraps(build)
    def memoised(category: FinCategory, *args):
        memo = category._memo
        key = (name, *args)
        if key not in memo:
            memo[key] = build(category, *args)
        return memo[key]

    return memoised


@_per_category
def yoneda(category: FinCategory, obj: str) -> SetValuedFunctor:
    """The representable presheaf of morphisms into ``obj``."""
    on_objects = {a: FinSet(tuple(category.hom_set(a, obj))) for a in category.objects}
    on_morphisms = {}
    for m in category.morphisms:
        # contravariant: hom(tgt(u), obj) -> hom(src(u), obj), h -> h . u
        on_morphisms[m.label] = {h: category.compose(h, m.label) for h in on_objects[m.tgt].elements}
    return validate_functor(category, CONTRAVARIANT, on_objects, on_morphisms)


@_per_category
def coyoneda(category: FinCategory, obj: str) -> SetValuedFunctor:
    """The representable copresheaf of morphisms out of ``obj``, z_C(obj) =
    y_{C^op}(obj); z(X)(Y) lists hom(X, Y) in the order y(Y)(X) does."""
    return dual(yoneda(opposite(category), obj))


@_per_category
def yoneda_on_morphism(category: FinCategory, morphism: str) -> NatTransformation:
    """Postcomposition transformation y(src(u)) => y(tgt(u)) induced by u."""
    m = category.morphism(morphism)
    src_f, tgt_f = yoneda(category, m.src), yoneda(category, m.tgt)
    comps = {
        a: SetFunction(
            src_f.at(a),
            tgt_f.at(a),
            {h: category.compose(morphism, h) for h in src_f.at(a).elements},
        )
        for a in category.objects
    }
    return make_transformation(src_f, tgt_f, comps)


@_per_category
def coyoneda_on_morphism(category: FinCategory, morphism: str) -> NatTransformation:
    """Precomposition transformation z(tgt(u)) => z(src(u)) induced by u:
    postcomposition with u in C^op, whose naturality squares are the same."""
    m = category.morphism(morphism)
    over_op = yoneda_on_morphism(opposite(category), morphism)
    return NatTransformation(coyoneda(category, m.tgt), coyoneda(category, m.src), over_op.slots)


class Bijection(Frozen):
    """Two mutually inverse functions; both round trips are checked."""

    __slots__ = _fields = ("forward", "backward")

    def __init__(self, forward: SetFunction, backward: SetFunction):
        if forward.dom != backward.cod or forward.cod != backward.dom:
            raise ValueError("forward and backward endpoints do not match")
        there, back = forward.images, backward.images
        for i, p in enumerate(there):
            if back[p] != i:
                raise ValueError(f"backward . forward is not the identity at {forward.dom.elements[i]!r}")
        for i, p in enumerate(back):
            if there[p] != i:
                raise ValueError(f"forward . backward is not the identity at {backward.dom.elements[i]!r}")
        super().__init__(forward, backward)


class YonedaWitness(Frozen):
    """The bijection nat(y(X), F) <-> F(X), with the realizing
    transformations kept in enumeration order under labels n0, n1, ..."""

    __slots__ = _fields = ("transformations", "labels", "bijection")


def yoneda_lemma_bijection(
    presheaf: SetValuedFunctor,
    obj: str,
    budget: Budget | int | None = None,
) -> YonedaWitness:
    """Exhibit nat(y(obj), F) <-> F(obj).

    Forward evaluates a transformation at the identity of ``obj``; backward
    sends a value a to the transformation u -> F(u)(a), whose slot tuple is
    read off the functor's action and located among the enumerated ones.
    Both round trips are verified.
    """
    if presheaf.variance != CONTRAVARIANT:
        raise ValueError("the representable comparison needs a contravariant functor")
    base = presheaf.base
    hom_into = yoneda(base, obj)
    nats = enumerate_nat(hom_into, presheaf, budget)
    labels = FinSet(tuple(f"n{i}" for i in range(len(nats))))
    index = {t.slots: i for i, t in enumerate(nats)}
    at_identity = hom_into.first[obj] + hom_into.at(obj).index[base.identity_of(obj)]

    forward = tuple(t.slots[at_identity] for t in nats)
    actions = [presheaf.act(u).images for w in base.objects for u in hom_into.at(w).elements]
    backward = []
    for k in range(len(presheaf.at(obj))):
        i = index.get(tuple(action[k] for action in actions))
        if i is None:
            raise RuntimeError("enumeration missed a transformation required by the representable bijection")
        backward.append(i)

    bijection = Bijection(
        SetFunction._trusted(labels, presheaf.at(obj), forward),
        SetFunction._trusted(presheaf.at(obj), labels, tuple(backward)),
    )
    return YonedaWitness(nats, labels, bijection)


def pointwise_sum(left: SetValuedFunctor, right: SetValuedFunctor) -> SetValuedFunctor:
    """Objectwise disjoint union, elements tagged ``L.`` / ``R.``."""
    _require_parallel(left, right)
    base = left.base
    on_objects = {
        obj: FinSet(
            tuple(f"L.{e}" for e in left.at(obj).elements)
            + tuple(f"R.{e}" for e in right.at(obj).elements)
        )
        for obj in base.objects
    }
    on_morphisms = {}
    for m in base.morphisms:
        lf, rf = left.act(m.label), right.act(m.label)
        mapping = {f"L.{e}": f"L.{img}" for e, img in lf.mapping.items()}
        mapping.update({f"R.{e}": f"R.{img}" for e, img in rf.mapping.items()})
        on_morphisms[m.label] = mapping
    return validate_functor(base, left.variance, on_objects, on_morphisms)


def iso_check(
    left: SetValuedFunctor,
    right: SetValuedFunctor,
    budget: Budget | int | None = None,
) -> NatTransformation | None:
    """First natural isomorphism left => right in canonical order, if any."""
    _require_parallel(left, right)
    if any(len(left.at(obj)) != len(right.at(obj)) for obj in left.base.objects):
        return None  # cardinality obstruction, no search needed
    for t in enumerate_nat(left, right, budget):
        if is_natural_iso(t):
            return t
    return None
