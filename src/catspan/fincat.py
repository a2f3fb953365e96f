"""Finite categories presented by explicit composition tables.

Objects and morphisms are identified by string labels. Composition is a
total lookup table over composable pairs, keyed ``(g, f)`` and read as
"g after f": the entry exists exactly when ``tgt(f) == src(g)``.
"""

from __future__ import annotations

from functools import cached_property

# Defined in the leaf module ``core`` and re-exported here.
from .core import Frozen, StructuralError, UnknownObjectError


class CompositionError(ValueError):
    """Composition requested for a pair whose endpoints do not match."""


class Morphism(Frozen):
    __slots__ = _fields = ("label", "src", "tgt")


class Violation(Frozen):
    __slots__ = _fields = ("law", "witness")


class ValidationReport(Frozen):
    __slots__ = _fields = ("ok", "violations")


class FinCategory(Frozen):
    """A finite category: objects, morphisms, identities, and a dense
    composition table. Treated as immutable once validated. Unslotted: the
    cached properties live in the instance dict."""

    _fields = ("objects", "morphisms", "identity", "table")

    @cached_property
    def _by_label(self) -> dict[str, Morphism]:
        return {m.label: m for m in self.morphisms}

    @cached_property
    def _memo(self) -> dict:
        """Structures built from this category alone: its opposite, and the
        representable functors filled in by ``setfunc``."""
        return {}

    def morphism(self, label: str) -> Morphism:
        try:
            return self._by_label[label]
        except KeyError:
            raise StructuralError(f"unknown morphism id {label!r}") from None

    def identity_of(self, obj: str) -> str:
        if obj not in self.identity:
            raise UnknownObjectError(f"unknown object id {obj!r}")
        return self.identity[obj]

    def is_identity(self, label: str) -> bool:
        m = self.morphism(label)
        return self.identity.get(m.src) == label

    def compose(self, g: str, f: str) -> str:
        """Composite ``g after f``; the pair must satisfy tgt(f) == src(g)."""
        mf, mg = self.morphism(f), self.morphism(g)
        if mf.tgt != mg.src:
            raise CompositionError(
                f"cannot compose {g!r} after {f!r}: "
                f"{f!r} ends at {mf.tgt!r} but {g!r} starts at {mg.src!r}"
            )
        return self.table[(g, f)]

    def hom_set(self, src_obj: str, tgt_obj: str) -> list[str]:
        """All morphisms src_obj -> tgt_obj, in declaration order."""
        for obj in (src_obj, tgt_obj):
            if obj not in self.objects:
                raise UnknownObjectError(f"unknown object id {obj!r}")
        return [m.label for m in self.morphisms if m.src == src_obj and m.tgt == tgt_obj]


def _check_structure(candidate: FinCategory) -> None:
    seen_obj: set[str] = set()
    for obj in candidate.objects:
        if not obj:
            raise StructuralError("empty object label")
        if obj in seen_obj:
            raise StructuralError(f"duplicate object label {obj!r}")
        seen_obj.add(obj)
    seen_mor: set[str] = set()
    for m in candidate.morphisms:
        if not m.label:
            raise StructuralError("empty morphism label")
        if m.label in seen_mor:
            raise StructuralError(f"duplicate morphism label {m.label!r}")
        seen_mor.add(m.label)
        for end in (m.src, m.tgt):
            if end not in seen_obj:
                raise StructuralError(f"morphism {m.label!r} references undeclared object {end!r}")
    for obj in candidate.objects:
        if obj not in candidate.identity:
            raise StructuralError(f"object {obj!r} has no identity morphism assigned")
    for obj, label in candidate.identity.items():
        if obj not in seen_obj:
            raise StructuralError(f"identity entry for undeclared object {obj!r}")
        if label not in seen_mor:
            raise StructuralError(f"identity of {obj!r} references undeclared morphism {label!r}")
    for (g, f), r in candidate.table.items():
        for label in (g, f, r):
            if label not in seen_mor:
                raise StructuralError(f"compose entry ({g!r}, {f!r}) references undeclared morphism {label!r}")


def validate_category(candidate: FinCategory) -> ValidationReport:
    """Check every category law exhaustively.

    Structural problems (labels that do not resolve) raise StructuralError;
    law failures are collected into the report, one witness per failure.
    """
    _check_structure(candidate)
    violations: list[Violation] = []

    for obj in candidate.objects:
        ident = candidate.morphism(candidate.identity[obj])
        if ident.src != obj or ident.tgt != obj:
            violations.append(Violation("identity-typing", (obj, ident.label)))

    # Definedness: an entry exists iff the pair is composable.
    for g in candidate.morphisms:
        for f in candidate.morphisms:
            key = (g.label, f.label)
            if f.tgt == g.src:
                if key not in candidate.table:
                    violations.append(Violation("composition-totality", key))
                else:
                    r = candidate.morphism(candidate.table[key])
                    if r.src != f.src or r.tgt != g.tgt:
                        violations.append(Violation("composition-typing", (g.label, f.label, r.label)))
            elif key in candidate.table:
                violations.append(Violation("composition-spurious", key))

    for f in candidate.morphisms:
        left_id = candidate.identity.get(f.tgt)
        right_id = candidate.identity.get(f.src)
        if left_id is not None and candidate.table.get((left_id, f.label)) not in (None, f.label):
            violations.append(Violation("identity-law", (left_id, f.label)))
        if right_id is not None and candidate.table.get((f.label, right_id)) not in (None, f.label):
            violations.append(Violation("identity-law", (f.label, right_id)))

    for h in candidate.morphisms:
        for g in candidate.morphisms:
            if g.tgt != h.src:
                continue
            hg = candidate.table.get((h.label, g.label))
            if hg is None:
                continue
            for f in candidate.morphisms:
                if f.tgt != g.src:
                    continue
                gf = candidate.table.get((g.label, f.label))
                if gf is None:
                    continue
                left = candidate.table.get((hg, f.label))
                right = candidate.table.get((h.label, gf))
                if left is None or right is None:
                    continue  # already flagged by totality
                if left != right:
                    violations.append(Violation("associativity", (h.label, g.label, f.label)))

    return ValidationReport(ok=not violations, violations=tuple(violations))


def opposite(category: FinCategory) -> FinCategory:
    """Reverse every morphism and swap the order of composition. Built once
    per category and linked back: ``opposite(opposite(C)) is C``."""
    if "opposite" not in category._memo:
        op = FinCategory(
            objects=category.objects,
            morphisms=tuple(Morphism(m.label, m.tgt, m.src) for m in category.morphisms),
            identity=dict(category.identity),
            table={(f, g): r for (g, f), r in category.table.items()},
        )
        op._memo["opposite"], category._memo["opposite"] = category, op
    return category._memo["opposite"]


def generators(category: FinCategory) -> tuple[tuple[str, ...], tuple[tuple[str, str, str], ...]]:
    """An irredundant set of non-identity morphisms whose composites give
    every non-identity morphism, in declaration order, and each other
    non-identity morphism r as a derivation ``(r, g, f)`` with
    ``table[(g, f)] == r``, where g and f are generators or derived earlier.

    Built by deletion: walking the non-identity morphisms in declaration
    order, a morphism is dropped when the composites of the morphisms still
    kept reach it. (Keeping a morphism unless those kept before it reach it
    would keep a composite declared before its factors.) Built once per
    category.
    """
    if "generators" not in category._memo:
        kept = [m.label for m in category.morphisms if not category.is_identity(m.label)]
        for label in tuple(kept):
            others = [k for k in kept if k != label]
            if label in _derivations(category, others):
                kept = others
        category._memo["generators"] = (tuple(kept), tuple(_derivations(category, kept).values()))
    return category._memo["generators"]


def _derivations(category: FinCategory, gens: list[str]) -> dict[str, tuple[str, str, str]]:
    """Every non-identity morphism outside ``gens`` that composites of
    ``gens`` reach, mapped to a derivation (r, g, f): f in ``gens`` and g in
    ``gens`` or reached before r."""
    reached = set(gens)
    derived: dict[str, tuple[str, str, str]] = {}
    queue = list(gens)
    for g in queue:  # the queue grows while it is walked
        src = category.morphism(g).src
        for f in gens:
            if category.morphism(f).tgt != src:
                continue
            r = category.table[(g, f)]
            if r not in reached and not category.is_identity(r):
                reached.add(r)
                derived[r] = (r, g, f)
                queue.append(r)
    return derived
