"""Independent oracles used to cross-check the library's search paths.

Nothing here calls the pruned enumerator or the library's naturality
validator; transformations are represented as plain per-object mapping
dicts and every square is checked by direct loops. The scan oracle tries
every action on every morphism and checks the composition table entry by
entry, and the isomorphism-class count relabels each functor it finds by
every choice of per-object permutations. The Dedekind-MacNeille oracle
reads a poset's order off its morphisms and closes each down-set under
upper and lower bounds by direct loops. The metric oracles import
nothing from catspan: the axioms are checked by a scalar loop over every
entry, pair and triple, and the reference projection recomputes the full
defect, slack included, on every round.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from catspan import COVARIANT


def family_is_natural(source, target, family: dict[str, dict[str, str]]) -> bool:
    """Direct check of every naturality square for a raw component family."""
    covariant = source.variance == COVARIANT
    for m in source.base.morphisms:
        start, end = (m.src, m.tgt) if covariant else (m.tgt, m.src)
        fu = source.act(m.label).mapping
        gu = target.act(m.label).mapping
        for e in source.at(start).elements:
            if family[end][fu[e]] != gu[family[start][e]]:
                return False
    return True


def unpruned_family_count(source, target) -> int:
    count = 1
    for obj in source.base.objects:
        count *= len(target.at(obj)) ** len(source.at(obj))
    return count


def brute_force_nat(source, target) -> list[dict[str, dict[str, str]]]:
    """All natural families by unpruned exhaustion over every component
    choice, objects and elements in declaration order."""
    per_object = []
    for obj in source.base.objects:
        dom = source.at(obj).elements
        cod = target.at(obj).elements
        per_object.append([dict(zip(dom, pick)) for pick in itertools.product(cod, repeat=len(dom))])
    found = []
    for picks in itertools.product(*per_object):
        family = dict(zip(source.base.objects, picks))
        if family_is_natural(source, target, family):
            found.append(family)
    return found


def family_of(t) -> dict[str, dict[str, str]]:
    """Raw component family of a library transformation, for set comparison."""
    return {obj: dict(t.components[obj].mapping) for obj in t.source.base.objects}


def family_key(family: dict[str, dict[str, str]]) -> tuple:
    return tuple(
        (obj, tuple(sorted(mapping.items()))) for obj, mapping in sorted(family.items())
    )


def composition_closure(category, labels) -> set[str]:
    """Every morphism that is a composite of one or more of ``labels``,
    found by composing pairs until nothing new appears."""
    reached = set(labels)
    while True:
        new = {
            r for (g, f), r in category.table.items() if g in reached and f in reached
        } - reached
        if not new:
            return reached
        reached |= new


def _non_identity(category) -> list:
    identities = set(category.identity.values())
    return [m for m in category.morphisms if m.label not in identities]


def _full_product_functors(category, max_set_size: int):
    """(size, action) for every contravariant functor with value sets
    0, 1, ... of at most ``max_set_size`` elements, found by trying every
    action on every non-identity morphism and keeping the choices that
    satisfy every entry of the composition table. ``action`` maps each
    morphism label to its image tuple. Size vectors and actions are swept
    in lexicographic order."""
    moving = _non_identity(category)
    for sizes in itertools.product(range(max_set_size + 1), repeat=len(category.objects)):
        size = dict(zip(category.objects, sizes))
        # contravariant: a morphism acts from the value set of its target
        # to that of its source
        choices = [itertools.product(range(size[m.src]), repeat=size[m.tgt]) for m in moving]
        for picks in itertools.product(*choices):
            action = {m.label: pick for m, pick in zip(moving, picks)}
            for obj in category.objects:
                action[category.identity[obj]] = tuple(range(size[obj]))
            if all(
                action[r] == tuple(action[f][action[g][e]] for e in range(len(action[g])))
                for (g, f), r in category.table.items()
            ):
                yield size, action


def full_product_scan(category, max_set_size: int) -> list[str]:
    """The functor descriptions a reflexive scan reports, value sets
    labelled x0, x1, ..., in the order ``_full_product_functors`` finds
    them."""
    moving = _non_identity(category)
    found = []
    for size, action in _full_product_functors(category, max_set_size):
        head = ",".join(f"{obj}={size[obj]}" for obj in category.objects)
        body = " ".join(
            f"{m.label}:[" + ",".join(f"x{e}>x{v}" for e, v in enumerate(action[m.label])) + "]"
            for m in moving
        )
        found.append(f"{head}; {body}" if moving else head)
    return found


def isomorphism_class_count(category, max_set_size: int) -> int:
    """The number of isomorphism classes among the functors
    ``full_product_scan`` finds. Relabelling by a permutation p_X of each
    value set sends the action a of u: X -> Y to the action b with
    b[p_Y[e]] = p_X[a[e]]; a class is named by its size vector and the
    least relabelled action tuple over every choice of permutations."""
    moving = _non_identity(category)
    names = set()
    for size, action in _full_product_functors(category, max_set_size):
        relabellings = itertools.product(*(itertools.permutations(range(size[obj])) for obj in category.objects))
        forms = []
        for perms in relabellings:
            p = dict(zip(category.objects, perms))
            form = []
            for m in moving:
                images = [0] * size[m.tgt]
                for e, v in enumerate(action[m.label]):
                    images[p[m.tgt][e]] = p[m.src][v]
                form.append(tuple(images))
            forms.append(tuple(form))
        names.add((tuple(size.values()), min(forms)))
    return len(names)


def full_product_count(category, max_set_size: int) -> int:
    """The number of candidates ``full_product_scan`` tries."""
    moving = _non_identity(category)
    total = 0
    for sizes in itertools.product(range(max_set_size + 1), repeat=len(category.objects)):
        size = dict(zip(category.objects, sizes))
        total += math.prod(size[m.src] ** size[m.tgt] for m in moving)
    return total


def dedekind_macneille_cuts(poset) -> dict[frozenset, bool]:
    """Every down-set D of a thin category, read from its morphisms as the
    order x <= y iff there is a morphism x -> y, mapped to whether D is a
    cut of the Dedekind-MacNeille completion: D = (D^u)^l, the lower bounds
    of the upper bounds of D."""
    objects = list(poset.objects)
    leq = {(m.src, m.tgt) for m in poset.morphisms}
    cuts = {}
    for picks in itertools.product((False, True), repeat=len(objects)):
        down = frozenset(x for x, p in zip(objects, picks) if p)
        if any((x, y) in leq and x not in down for y in down for x in objects):
            continue
        upper = [u for u in objects if all((d, u) in leq for d in down)]
        closure = frozenset(x for x in objects if all((x, u) in leq for u in upper))
        cuts[down] = closure == down
    return cuts


# An eighth of the largest float: sums of a few such distances stay finite.
MAX_DISTANCE = sys.float_info.max / 8


def brute_force_metric_violations(labels, d, tol) -> list[tuple[str, tuple[str, ...]]]:
    """Every metric axiom violation, checked entry by entry and triple by
    triple, in the order the library reports them."""
    n = len(labels)
    d = [[float(x) for x in row] for row in d]
    violations = [
        ("finite", (labels[i], labels[j]))
        for i in range(n)
        for j in range(n)
        if not math.isfinite(d[i][j])
    ]
    violations += [
        ("oversized-entry", (labels[i], labels[j]))
        for i in range(n)
        for j in range(n)
        if math.isfinite(d[i][j]) and d[i][j] > MAX_DISTANCE
    ]
    for i in range(n):
        for j in range(n):
            if d[i][j] < -tol:
                violations.append(("negative-entry", (labels[i], labels[j])))
    for i in range(n):
        if abs(d[i][i]) > tol:
            violations.append(("nonzero-diagonal", (labels[i],)))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i][j] - d[j][i]) > tol:
                violations.append(("asymmetry", (labels[i], labels[j])))
            if d[i][j] <= tol:
                violations.append(("zero-distance", (labels[i], labels[j])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                if d[i][k] > d[i][j] + d[j][k] + tol:
                    violations.append(("triangle", (labels[i], labels[j], labels[k])))
    return violations


def reference_projection(d, values, tol, max_iterations) -> tuple[np.ndarray, float, bool]:
    """Average f with its conjugate E(f)(x) = max_y (d(x, y) - f(y)),
    clamped at 0, until max(slack, gap) <= tol, recomputing both in full
    on every round. Returns the last iterate, its defect, and whether it
    converged within max_iterations rounds."""
    d = np.asarray(d, dtype=float)

    def defect(h):
        slack = max(0.0, float((d - h[:, None] - h[None, :]).max()))
        gap = float((h - (d - h[None, :]).max(axis=1)).max())
        return max(slack, gap)

    h = np.array(values, dtype=float)
    rounds = 0
    while defect(h) > tol:
        if rounds == max_iterations:
            return h, defect(h), False
        h = np.maximum(0.5 * (h + (d - h[None, :]).max(axis=1)), 0.0)
        rounds += 1
    return h, defect(h), True
