"""Seeded input documents, task lists and output checks for each workload.

Everything here is independent of the catspan package: documents are
built from first principles (composition tables, orbit decompositions,
point clouds) and every expected value comes from a closed-form fact
(Yoneda counts, orbit counts, chain formulas, metric geometry), never
from library code. The program only ever sees the written documents.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("duality", "scan", "metric", "cli-small")
WITNESS_TOL = 1e-6

# A check gets the task's parsed report (None when stdout was not JSON) and
# the reports of the tasks before it in the same pass, by task name. It
# returns None when the output is right, else a one-line reason.
Check = Callable[["dict | None", dict], "str | None"]


@dataclass
class Task:
    name: str
    argv: list[str]
    check: Check | None = None
    expect_exit: int | None = 0  # None: any exit code is acceptable
    structured: bool = True  # False for error paths, which print no report


@dataclass
class Cat:
    """A finite category as plain data: declaration-ordered morphisms and
    a composition table (g, f) -> g.f. ``omap``/``mmap`` send canonical
    object and morphism names to the names written to disk."""

    objects: list[str]
    morphisms: list[tuple[str, str, str]]  # (label, src, tgt)
    identities: dict[str, str]
    compose: dict[tuple[str, str], str]
    omap: dict[str, str] = field(default_factory=dict)
    mmap: dict[str, str] = field(default_factory=dict)
    file: str = ""

    def hom(self, a: str, b: str) -> list[str]:
        return [m for m, s, t in self.morphisms if s == a and t == b]

    def doc(self, rng: random.Random) -> dict:
        entries = [[g, f, r] for (g, f), r in self.compose.items()]
        rng.shuffle(entries)
        return {
            "format": 1,
            "kind": "category",
            "objects": list(self.objects),
            "morphisms": [{"id": m, "src": s, "tgt": t} for m, s, t in self.morphisms],
            "identities": dict(self.identities),
            "compose": entries,
        }


@dataclass
class Fun:
    """A set-valued functor as plain data. ``action[m]`` is the map on the
    value set at tgt(m) for a presheaf ("contra"), at src(m) for a
    copresheaf ("co")."""

    cat: Cat
    variance: str
    sets: dict[str, list[str]]
    action: dict[str, dict[str, str]]

    def size(self, obj: str) -> int:
        return len(self.sets[obj])

    def doc(self) -> dict:
        return {
            "format": 1,
            "kind": "functor",
            "category": Path(self.cat.file).name,
            "variance": self.variance,
            "objects": {o: list(self.sets[o]) for o in self.cat.objects},
            "morphisms": {m: dict(self.action[m]) for m, _, _ in self.cat.morphisms},
        }


# ---------------------------------------------------------------- categories


def relabel(cat: Cat, rng: random.Random, prefix: str) -> Cat:
    """Rename objects and morphisms and shuffle their declaration order."""
    onames = rng.sample(range(100, 1000), len(cat.objects))
    mnames = rng.sample(range(100, 10000), len(cat.morphisms))
    omap = {old: f"{prefix}O{k}" for old, k in zip(cat.objects, onames)}
    mmap = {old: f"{prefix}m{k}" for (old, _, _), k in zip(cat.morphisms, mnames)}
    objects = [omap[x] for x in cat.objects]
    morphisms = [(mmap[lab], omap[s], omap[t]) for lab, s, t in cat.morphisms]
    rng.shuffle(objects)
    rng.shuffle(morphisms)
    return Cat(
        objects,
        morphisms,
        {omap[x]: mmap[i] for x, i in cat.identities.items()},
        {(mmap[g], mmap[f]): mmap[r] for (g, f), r in cat.compose.items()},
        omap,
        mmap,
    )


def cyclic(n: int) -> Cat:
    """Z_n as a one-object category; g_a . g_b = g_(a+b mod n)."""
    g = [f"g{k}" for k in range(n)]
    return Cat(
        ["*"],
        [(lab, "*", "*") for lab in g],
        {"*": "g0"},
        {(g[a], g[b]): g[(a + b) % n] for a in range(n) for b in range(n)},
    )


def forest_poset(parent: list[int | None]) -> Cat:
    """The poset whose Hasse diagram is the forest i < parent[i]. Between
    comparable elements there is exactly one chain of covers, so every
    choice of actions on the covers extends to exactly one presheaf."""
    above = []
    for i in range(len(parent)):
        chain, j = [i], parent[i]
        while j is not None:
            chain.append(j)
            j = parent[j]
        above.append(chain)
    lab = {(a, b): f"p{a}_{b}" for a in range(len(parent)) for b in above[a]}
    return Cat(
        [f"x{i}" for i in range(len(parent))],
        [(lab[(a, b)], f"x{a}", f"x{b}") for (a, b) in lab],
        {f"x{i}": lab[(i, i)] for i in range(len(parent))},
        {(lab[(b, c)], lab[(a, b)]): lab[(a, c)] for (a, b) in lab for (b2, c) in lab if b2 == b},
    )


def cat_from_doc(doc: dict) -> Cat:
    return Cat(
        list(doc["objects"]),
        [(m["id"], m["src"], m["tgt"]) for m in doc["morphisms"]],
        dict(doc["identities"]),
        {(g, f): r for g, f, r in doc["compose"]},
    )


# ------------------------------------------------------------------ functors


def representable(cat: Cat, x: str, variance: str, tag: str = "") -> Fun:
    """y(x) = hom(-, x) ("contra") or z(x) = hom(x, -) ("co"); elements are
    morphism labels with an optional tag."""
    if variance == "contra":
        sets = {a: [tag + h for h in cat.hom(a, x)] for a in cat.objects}
        action = {u: {tag + h: tag + cat.compose[(h, u)] for h in cat.hom(t, x)} for u, s, t in cat.morphisms}
    else:
        sets = {a: [tag + h for h in cat.hom(x, a)] for a in cat.objects}
        action = {u: {tag + h: tag + cat.compose[(u, h)] for h in cat.hom(x, s)} for u, s, t in cat.morphisms}
    return Fun(cat, variance, sets, action)


def disjoint_sum(parts: list[Fun]) -> Fun:
    first = parts[0]
    return Fun(
        first.cat,
        first.variance,
        {o: [e for p in parts for e in p.sets[o]] for o in first.cat.objects},
        {m: {k: v for p in parts for k, v in p.action[m].items()} for m, _, _ in first.cat.morphisms},
    )


def orbits(zn: Cat, n: int, sizes: list[int], variance: str, rng: random.Random) -> Fun:
    """A Z_n-set made of orbits of the given sizes (each divides n); g_k
    moves an element k steps around its orbit. Z_n is abelian, so the same
    table is a presheaf and a copresheaf."""
    names = iter(rng.sample(range(100, 1000), sum(sizes)))
    elems_all, action = [], {zn.mmap[f"g{k}"]: {} for k in range(n)}
    for size in sizes:
        elems = [f"e{next(names)}" for _ in range(size)]
        elems_all.extend(elems)
        for k in range(n):
            for i, e in enumerate(elems):
                action[zn.mmap[f"g{k}"]][e] = elems[(i + k) % size]
    rng.shuffle(elems_all)
    return Fun(zn, variance, {zn.objects[0]: elems_all}, action)


def forest_presheaf(poset: Cat, parent: list[int | None], rng: random.Random) -> Fun:
    """Random value sets of size 1..3 and random maps along each
    cover of a relabelled forest poset; longer relations act by the
    composite along their unique chain of covers."""
    n = len(parent)
    sets = {i: [f"v{k}" for k in rng.sample(range(100, 1000), rng.randint(1, 3))] for i in range(n)}
    cover = {i: {e: rng.choice(sets[i]) for e in sets[parent[i]]} for i in range(n) if parent[i] is not None}
    index = {poset.omap[f"x{i}"]: i for i in range(n)}
    action = {}
    for m, s, t in poset.morphisms:
        a, b = index[s], index[t]
        chain, j = [], a
        while j != b:
            chain.append(j)
            j = parent[j]
        mapping = {}
        for e in sets[b]:  # F(a <= b): F(b) -> F(a), down the chain of covers
            v = e
            for j in reversed(chain):
                v = cover[j][v]
            mapping[e] = v
        action[m] = mapping
    return Fun(poset, "contra", {poset.omap[f"x{i}"]: sets[i] for i in range(n)}, action)


# ------------------------------------------------------------------ metrics


def point_cloud(rng: random.Random, n: int, norm: str) -> tuple[list[str], list[list[float]]]:
    """n random points of [0, 10)^3 under the L1 or Euclidean distance."""
    pts = [tuple(rng.uniform(0.0, 10.0) for _ in range(3)) for _ in range(n)]
    labels = [f"q{k}" for k in rng.sample(range(1000, 10000), n)]
    if norm == "l1":
        d = [[sum(abs(a - b) for a, b in zip(p, q)) for q in pts] for p in pts]
    else:
        d = [[math.dist(p, q) for q in pts] for p in pts]
    return labels, d


def metric_doc(labels, d) -> dict:
    return {"format": 1, "kind": "metric", "points": list(labels), "d": d}


def admissible_start(d: list[list[float]], rng: random.Random) -> list[float]:
    """A row of d plus a nonnegative perturbation, admissible by the triangle inequality."""
    row = d[rng.randrange(len(d))]
    diameter = max(max(r) for r in d)
    return [x + rng.uniform(0.0, diameter) for x in row]


def extremal_defect(d, values) -> str | None:
    """Why ``values`` is not an extremal function on d within the witness
    tolerance: admissible (f(x) + f(y) >= d(x, y)) and, for every x, some y
    with f(x) + f(y) = d(x, y)."""
    import numpy as np

    f = np.asarray(values, dtype=float)
    sums = f[:, None] + f[None, :]
    gap = sums - np.asarray(d, dtype=float)
    if float(gap.min()) < -WITNESS_TOL:
        return f"not admissible (slack {-float(gap.min()):.3g})"
    worst = float(np.abs(gap).min(axis=1).max())
    if worst > WITNESS_TOL:
        return f"no distance-sum witness (residual {worst:.3g})"
    return None


# -------------------------------------------------------------------- checks


def _results(report: dict | None) -> dict:
    return (report or {}).get("results") or {}


def expect(**fields) -> Check:
    """Every named result field equals the given value."""

    def check(report, _done):
        res = _results(report)
        for key, want in fields.items():
            if res.get(key) != want:
                return f"results.{key} = {res.get(key)!r}, expected {want!r}"
        return None

    return check


def is_bijection(mapping: dict, size: int) -> bool:
    return len(mapping) == size == len(set(mapping.values()))


def check_yoneda(count: int) -> Check:
    def check(report, _done):
        res = _results(report)
        if not (res.get("counts_equal") and res.get("round_trips_ok")):
            return "counts_equal/round_trips_ok not both true"
        if res.get("transformation_count") != count or res.get("value_count") != count:
            return f"counts {res.get('transformation_count')}/{res.get('value_count')}, expected {count}"
        fwd, bwd = res.get("forward", {}), res.get("backward", {})
        if not is_bijection(fwd, count) or any(fwd.get(bwd[v]) != v for v in bwd):
            return "forward and backward are not mutually inverse"
        return None

    return check


def check_adjunction(count: int) -> Check:
    def check(report, _done):
        res = _results(report)
        if not (res.get("counts_equal") and res.get("round_trip_ok")):
            return "counts_equal/round_trip_ok not both true"
        if res.get("left_count") != count or res.get("right_count") != count:
            return f"hom-set sizes {res.get('left_count')}/{res.get('right_count')}, expected {count}"
        if not is_bijection(res.get("transpose", {}), count):
            return "transpose is not a bijection"
        return None

    return check


def check_unit(sizes: dict[str, int], iso: bool) -> Check:
    return expect(double_conjugate_sizes=sizes, is_isomorphism=iso)


def check_sizes(key: str, sizes: dict[str, int]) -> Check:
    """The functor emitted under results[key] has these value-set sizes."""

    def check(report, _done):
        got = {o: len(v) for o, v in _results(report).get(key, {}).get("objects", {}).items()}
        return None if got == sizes else f"{key} sizes {got}, expected {sizes}"

    return check


def check_scan(total: int) -> Check:
    def check(report, _done):
        res = _results(report)
        entries = res.get("entries", [])
        if res.get("total") != total or len(entries) != total:
            return f"{res.get('total')} functors, expected {total}"
        if res.get("reflexive_count") != sum(1 for e in entries if e["reflexive"]):
            return "reflexive_count disagrees with the entries"
        return None

    return check


def check_samples(labels, d, count: int) -> Check:
    def check(report, _done):
        samples = _results(report).get("samples", [])
        if len(samples) != count:
            return f"{len(samples)} samples, expected {count}"
        for i, s in enumerate(samples):
            reason = extremal_defect(d, [s[p] for p in labels])
            if reason:
                return f"sample {i}: {reason}"
        return None

    return check


def check_geodesic(labels, d, sampler: str, count: int) -> Check:
    """Recompute every witness against the samples that ``sampler`` (a
    sample-span task on the same metric with the same seed and count)
    reported earlier in the pass."""
    index = {p: i for i, p in enumerate(labels)}

    def check(report, done):
        res = _results(report)
        if not res.get("all_ok") or res.get("failures"):
            return "geodesic-check reported failures"
        pairs = count * len(labels)
        if res.get("pairs_checked") != pairs or len(res.get("witnesses", [])) != pairs:
            return f"{res.get('pairs_checked')} pairs checked, expected {pairs}"
        samples = _results(done.get(sampler)).get("samples", [])
        if len(samples) != count:
            return f"no samples from {sampler} to check the witnesses against"
        for w in res["witnesses"]:
            f, x, y = samples[w["sample"]], w["point"], w["witness"]
            if abs(f[x] + f[y] - d[index[x]][index[y]]) > WITNESS_TOL:
                return f"witness {y} of {x} in sample {w['sample']} does not realise d"
        return None

    return check


def check_projection(labels, d, start: list[float]) -> Check:
    def check(report, _done):
        res = _results(report)
        if not res.get("converged"):
            return "projection did not converge"
        out = [res["output"][p] for p in labels]
        if any(o > s + 1e-9 for o, s in zip(out, start)):
            return "projection increased a value"
        return extremal_defect(d, out)

    return check


def check_valid_metric(n: int, d) -> Check:
    diameter = max(max(row) for row in d)

    def check(report, _done):
        res = _results(report)
        if res.get("valid") is not True or res.get("points") != n:
            return "valid metric not accepted"
        if abs(res.get("diameter", -1.0) - diameter) > 1e-9:
            return f"diameter {res.get('diameter')}, expected {diameter}"
        return None

    return check


def check_violation(triple: list[str]) -> Check:
    def check(report, _done):
        res = _results(report)
        if res.get("valid") is not False:
            return "planted violation not reported"
        if {"axiom": "triangle", "witness": triple} not in res.get("violations", []):
            return f"planted triangle {triple} missing from the witnesses"
        return None

    return check


def check_not_valid(report, _done):
    return "a non-finite matrix was reported as a valid metric" if _results(report).get("valid") is True else None


# ------------------------------------------------------------------ builders


class Writer:
    """Writes documents under one directory and returns their paths, as
    given to the CLI (relative to the directory the benchmark runs in)."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, doc: dict | str) -> str:
        path = self.root / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def cat(self, name: str, cat: Cat, rng: random.Random) -> Cat:
        cat.file = self.put(f"{name}.category.json", cat.doc(rng))
        return cat

    def fun(self, name: str, fun: Fun) -> str:
        return self.put(f"{name}.{'presheaf' if fun.variance == 'contra' else 'copresheaf'}.json", fun.doc())


def _touch(w: Writer, rng: random.Random) -> list[Task]:
    """Three tiny tasks that reach every traced layer, so that no layer's
    time reads a constant zero on any workload."""
    arrow = w.cat("touch_arrow", relabel(forest_poset([1, None]), rng, "t"), rng)
    lo, hi = arrow.omap["x0"], arrow.omap["x1"]
    y_lo = w.fun("touch_y", representable(arrow, lo, "contra"))
    z_hi = w.fun("touch_z", representable(arrow, hi, "co"))
    labels, d = point_cloud(rng, 5, "l1")
    m = w.put("touch5.metric.json", metric_doc(labels, d))
    return [
        Task("touch-unit", ["unit", y_lo], check_unit({o: len(arrow.hom(o, lo)) for o in arrow.objects}, True)),
        Task("touch-adjunction", ["adjunction-check", y_lo, z_hi], check_adjunction(1)),
        Task("touch-geodesic", ["geodesic-check", m, "--samples", "3"], expect(all_ok=True, pairs_checked=15)),
    ]


def _duality(w: Writer, rng: random.Random) -> list[Task]:
    """About 40 tasks: two heavy anchors, a few medium ones and many light
    ones, so that the median and the 90th percentile of the task latencies
    both fall among many tasks of like cost and hold steady from run to run."""
    tasks: list[Task] = []
    for n in (5, 4, 3):
        zn = w.cat(f"z{n}", relabel(cyclic(n), rng, f"z{n}"), rng)
        star = zn.objects[0]
        yy = w.fun(f"yy{n}", disjoint_sum([representable(zn, star, "contra", t) for t in ("a.", "b.")]))
        zz = w.fun(f"zz{n}", disjoint_sum([representable(zn, star, "co", t) for t in ("a.", "b.")]))
        divisors = [k for k in range(1, n + 1) if n % k == 0]

        def orbit_conjugate(sizes):  # equivariant maps into the regular orbit: n per free orbit, none otherwise
            return {star: n ** len(sizes) if all(s == n for s in sizes) else 0}

        # Double conjugate of y+y over Z_n: n^n elements; both adjunction
        # hom-sets of (y+y, z+z): (n^2)^2 elements; (z+z)* has n^2.
        tasks += [
            Task(f"unit-yy{n}", ["unit", yy], check_unit({star: n**n}, False)),
            Task(f"adjunction-yy{n}-zz{n}", ["adjunction-check", yy, zz], check_adjunction(n**4)),
        ]
        if n < 5:
            tasks.append(Task(f"conjugate-zz{n}", ["conjugate", zz], check_sizes("conjugate", {star: n * n})))
        if n == 3:
            continue
        for k in range(3):
            sizes = [rng.choice(divisors) for _ in range(rng.randint(2, 3))]
            f = w.fun(f"f{n}_{k}", orbits(zn, n, sizes, "contra", rng))
            tasks += [
                Task(f"nat-yy{n}-f{n}_{k}", ["nat", yy, f], expect(count=sum(sizes) ** 2)),
                Task(f"yoneda-check-f{n}_{k}", ["yoneda-check", f, star], check_yoneda(sum(sizes))),
                Task(f"conjugate-f{n}_{k}", ["conjugate", f], check_sizes("conjugate", orbit_conjugate(sizes))),
            ]
        sizes = [n] * rng.randint(1, 2) + [rng.choice(divisors)]
        g = w.fun(f"g{n}", orbits(zn, n, sizes, "co", rng))
        tasks.append(Task(f"conjugate-g{n}", ["conjugate", g], check_sizes("conjugate", orbit_conjugate(sizes))))

    parent = [1, 3, 3, None]  # Y-shaped: x0 < x1 < x3 > x2
    poset = w.cat("poset", relabel(forest_poset(parent), rng, "p"), rng)
    x = [poset.omap[f"x{i}"] for i in range(4)]
    ysum = w.fun("ysum", disjoint_sum([representable(poset, x[0], "contra", "a."), representable(poset, x[2], "contra", "b.")]))
    ypaths = {i: w.fun(f"y{i}", representable(poset, x[i], "contra")) for i in (1, 3)}
    z3 = w.fun("z3top", representable(poset, x[3], "co"))
    for i in (1, 3):
        sizes = {o: len(poset.hom(o, x[i])) for o in poset.objects}
        tasks.append(Task(f"unit-y{i}", ["unit", ypaths[i]], check_unit(sizes, True)))
    for k in range(3):
        h = forest_presheaf(poset, parent, rng)
        hpath = w.fun(f"h{k}", h)
        tasks += [
            Task(f"yoneda-check-h{k}", ["yoneda-check", hpath, x[1]], check_yoneda(h.size(x[1]))),
            Task(f"nat-ysum-h{k}", ["nat", ysum, hpath], expect(count=h.size(x[0]) * h.size(x[2]))),
        ]
    tasks += [
        Task(
            "conjugate-ysum",
            ["conjugate", ysum],
            check_sizes("conjugate", {o: len(poset.hom(x[0], o)) * len(poset.hom(x[2], o)) for o in poset.objects}),
        ),
        Task("adjunction-y1-z3", ["adjunction-check", ypaths[1], z3], check_adjunction(len(poset.hom(x[1], x[3])))),
    ]
    return tasks + _touch(w, rng)


# Forest posets scanned, with the largest value-set size. On a forest
# every choice of maps along the covers is a presheaf, so the number of
# labelled presheaves with value sets of size <= k is a sum over size
# vectors s of prod s_a ** s_b over the covers a < b. The 4-object ones
# are the heavy scans; the smaller ones put the median among many like tasks.
SCAN_FORESTS = {
    "chain4": ([1, 2, 3, None], 2),
    "costar4": ([None, 0, 0, 0], 2),
    "two-chains4": ([1, None, 3, None], 2),
    "chain3": ([1, 2, None], 2),
    "v3": ([2, 2, None], 2),
    "costar3": ([None, 0, 0], 2),
    "arrow-point3": ([1, None, None], 2),
    "discrete3": ([None, None, None], 2),
    "arrow": ([1, None], 3),
    "discrete2": ([None, None], 3),
}
# Cyclic groups scanned: (n, largest value-set size).
SCAN_CYCLIC = [(4, 3), (2, 3), (3, 3), (5, 2), (6, 2)]


def forest_count(parent: list[int | None], k: int) -> int:
    total = 0
    for sizes in itertools.product(range(k + 1), repeat=len(parent)):
        prod = 1
        for a, b in enumerate(parent):
            if b is not None:
                prod *= sizes[a] ** sizes[b]
        total += prod
    return total


def cyclic_count(n: int, k: int) -> int:
    """Presheaves on Z_n with s <= k labelled elements: the permutations of
    s elements whose n-th power is the identity."""
    total = 0
    for s in range(k + 1):
        for perm in itertools.permutations(range(s)):
            x = list(range(s))
            for _ in range(n):
                x = [perm[i] for i in x]
            total += x == list(range(s))
    return total


def _scan(w: Writer, rng: random.Random, fixtures: Path) -> list[Task]:
    square = w.cat("square", relabel(cat_from_doc(json.loads((fixtures / "square.category.json").read_text())), rng, "s"), rng)
    tasks = [Task("scan-square-2", ["reflexive-scan", square.file, "--max-set-size", "2"], check_scan(249))]
    for n, k in SCAN_CYCLIC:
        zn = w.cat(f"z{n}", relabel(cyclic(n), rng, "z"), rng)
        tasks.append(Task(f"scan-z{n}-{k}", ["reflexive-scan", zn.file, "--max-set-size", str(k)], check_scan(cyclic_count(n, k))))
    for name, (parent, k) in SCAN_FORESTS.items():
        cat = w.cat(name, relabel(forest_poset(parent), rng, "f"), rng)
        tasks.append(Task(f"scan-{name}-{k}", ["reflexive-scan", cat.file, "--max-set-size", str(k)], check_scan(forest_count(parent, k))))
    return tasks + _touch(w, rng)


def _metric(w: Writer, rng: random.Random) -> list[Task]:
    """One n=200 validation, seven tasks of about a second (sampling,
    witnesses, planted violations) and many light projections, so that the
    90th percentile falls inside the middle group and the median among the
    projections."""

    def cloud(name: str, n: int, norm: str | None = None):
        labels, d = point_cloud(rng, n, norm or rng.choice(("l1", "euclidean")))
        return labels, d, w.put(f"{name}.metric.json", metric_doc(labels, d))

    tasks = []
    labels, d, path = cloud("v200", 200)
    tasks.append(Task("validate-200", ["metric-validate", path], check_valid_metric(200, d)))

    labels, d, path = cloud("s50", 50)
    seed = str(rng.randrange(10_000))
    tasks.append(Task("sample-50x500", ["sample-span", path, "--count", "500", "--seed", seed], check_samples(labels, d, 500)))

    for norm in ("l1", "euclidean"):
        labels, d, path = cloud(f"g100-{norm}", 100, norm)
        seed, count, sampler = str(rng.randrange(10_000)), 20, f"sample-100x20-{norm}"
        tasks += [
            Task(sampler, ["sample-span", path, "--count", str(count), "--seed", seed], check_samples(labels, d, count)),
            Task(
                f"geodesic-100x20-{norm}",
                ["geodesic-check", path, "--samples", str(count), "--seed", seed],
                check_geodesic(labels, d, sampler, count),
            ),
        ]

        labels, d = point_cloud(rng, 100, norm)
        i, j, k = rng.sample(range(100), 3)
        d[i][k] = d[k][i] = d[i][j] + d[j][k] + 1.0
        path = w.put(f"bad100-{norm}.metric.json", metric_doc(labels, d))
        triple = [labels[i], labels[j], labels[k]]
        tasks.append(Task(f"validate-planted-{norm}", ["metric-validate", path], check_violation(triple), expect_exit=1))

    for c in range(5):
        labels, d, path = cloud(f"p50-{c}", 50)
        for k in range(5):
            start = admissible_start(d, rng)
            tasks.append(Task(f"project-50-{c}{k}", ["project", path, *map(repr, start)], check_projection(labels, d, start)))
    return tasks + _touch(w, rng)


# The criterion-7 CLI suite over the bundled corpus.
CORPUS_SUITE = [
    ["validate-cat", "terminal.category.json"],
    ["validate-cat", "discrete2.category.json"],
    ["validate-cat", "arrow.category.json"],
    ["validate-cat", "z2.category.json"],
    ["validate-cat", "square.category.json"],
    ["validate-fun", "arrow_pq_r.presheaf.json"],
    ["validate-fun", "square_hom_from_a.copresheaf.json"],
    ["hom", "z2.category.json", "*", "*"],
    ["nat", "z2_regular.presheaf.json", "z2_regular.presheaf.json"],
    ["yoneda", "arrow.category.json", "B"],
    ["yoneda-check", "arrow_pq_r.presheaf.json", "A"],
    ["sum", "z2_regular.presheaf.json", "z2_two_fixed.presheaf.json"],
    ["conjugate", "terminal_pair.presheaf.json"],
    ["conjugate", "z2_regular.copresheaf.json"],
    ["adjunction-check", "z2_regular.presheaf.json", "z2_regular.copresheaf.json"],
    ["adjunction-check", "square_hom_to_d.presheaf.json", "square_hom_from_a.copresheaf.json"],
    ["unit", "terminal_pair.presheaf.json"],
    ["unit", "arrow_pq_r.presheaf.json"],
    ["reflexive-scan", "terminal.category.json", "--max-set-size", "1"],
    ["reflexive-scan", "z2.category.json", "--max-set-size", "2"],
    ["metric-validate", "two_point.metric.json"],
    ["metric-validate", "triangle345.metric.json"],
    ["metric-validate", "equilateral3.metric.json"],
    ["metric-validate", "collinear3.metric.json"],
    ["metric-validate", "random5.metric.json"],
    ["tripod", "triangle345.metric.json"],
    ["tripod", "collinear3.metric.json"],
    ["project", "two_point.metric.json", "2", "2"],
    ["project", "triangle345.metric.json", "3", "3", "3"],
    ["geodesic-check", "two_point.metric.json", "--samples", "100"],
    ["geodesic-check", "random5.metric.json", "--samples", "100"],
    ["sample-span", "triangle345.metric.json", "--count", "10"],
]


def _cli_small(w: Writer, rng: random.Random, fixtures: Path) -> tuple[list[Task], list[Task]]:
    tasks = [
        Task(f"corpus-{k:02d}-{argv[0]}", [str(fixtures / a) if a.endswith(".json") else a for a in argv])
        for k, argv in enumerate(CORPUS_SUITE)
    ]

    parent = [2, 2, None]  # V-shaped: x0 < x2 > x1
    poset = w.cat("v3", relabel(forest_poset(parent), rng, "v"), rng)
    x = [poset.omap[f"x{i}"] for i in range(3)]
    f, g = forest_presheaf(poset, parent, rng), forest_presheaf(poset, parent, rng)
    fpath, gpath = w.fun("f", f), w.fun("g", g)
    tasks += [
        Task("tiny-validate-cat", ["validate-cat", poset.file], expect(valid=True, objects=3, morphisms=len(poset.morphisms))),
        Task("tiny-validate-fun", ["validate-fun", fpath], expect(valid=True, value_sizes={o: f.size(o) for o in poset.objects})),
        Task("tiny-hom", ["hom", poset.file, x[0], x[2]], expect(morphisms=poset.hom(x[0], x[2]))),
        Task("tiny-yoneda", ["yoneda", poset.file, x[2]], check_sizes("functor", {o: len(poset.hom(o, x[2])) for o in poset.objects})),
        Task("tiny-sum", ["sum", fpath, gpath], check_sizes("functor", {o: f.size(o) + g.size(o) for o in poset.objects})),
    ]

    labels, d = point_cloud(rng, 3, "euclidean")
    legs = [(d[a][b] + d[a][c] - d[b][c]) / 2.0 for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    tri = w.put("tri.metric.json", metric_doc(labels, d))

    def check_legs(report, _done):
        got = _results(report).get("legs", [])
        return None if len(got) == 3 and all(abs(a - b) <= 1e-9 for a, b in zip(got, legs)) else f"legs {got}, expected {legs}"

    labels4, d4 = point_cloud(rng, 4, "l1")
    quad = w.put("quad.metric.json", metric_doc(labels4, d4))
    start = admissible_start(d4, rng)
    tasks += [
        Task("tiny-tripod", ["tripod", tri], check_legs),
        Task("tiny-project", ["project", quad, *map(repr, start)], check_projection(labels4, d4, start)),
    ]

    # Error paths: malformed JSON and an exhausted budget exit 2, a law-violating functor exits 1.
    broken = w.put("broken.category.json", json.dumps(poset.doc(rng))[:-7])
    chain = w.cat("chain3", relabel(forest_poset([1, 2, None]), rng, "c"), rng)
    composite = chain.mmap["p0_2"]  # acts by a swap while the covers act by identities
    bad = Fun(
        chain,
        "contra",
        {o: ["u", "w"] for o in chain.objects},
        {m: {"u": "w", "w": "u"} if m == composite else {"u": "u", "w": "w"} for m, _, _ in chain.morphisms},
    )
    term = w.cat("terminal", Cat(["*"], [("id", "*", "*")], {"*": "id"}, {("id", "id"): "id"}), rng)

    def discrete(name: str, size: int) -> str:
        elems = [f"e{k}" for k in range(size)]
        return w.fun(name, Fun(term, "contra", {"*": elems}, {"id": {e: e for e in elems}}))

    t12 = discrete("t12", 12)
    tasks += [
        Task("error-malformed-json", ["validate-cat", broken], expect_exit=2, structured=False),
        Task("error-law-violation", ["validate-fun", w.fun("bad", bad)], expect(valid=False, law="composition"), expect_exit=1),
        Task("error-budget", ["nat", t12, t12, "--budget", "10"], expect_exit=2, structured=False),
    ]

    # Known defects, run apart from the timed tasks; each probe passes once
    # its defect is fixed. A presheaf on the terminal category with 1,500
    # elements has exactly one transformation to a 1-element presheaf, and
    # a NaN distance is not a metric.
    nan = w.put("nan.metric.json", metric_doc(["a", "b", "c"], [[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]]))
    probes = [
        Task("probe-deep-nat", ["nat", discrete("big", 1500), discrete("one", 1)], expect(count=1)),
        Task("probe-nan-metric", ["metric-validate", nan], check_not_valid, expect_exit=None),
    ]
    return tasks, probes


def build(workload: str, seed: int, root: Path, fixtures: Path) -> tuple[list[Task], list[Task]]:
    """Write the workload's documents for ``seed`` under ``root``; return
    its timed task list and its robustness probes."""
    rng = random.Random(f"{workload}/{seed}")
    w = Writer(root)
    if workload == "duality":
        return _duality(w, rng), []
    if workload == "scan":
        return _scan(w, rng, fixtures), []
    if workload == "metric":
        return _metric(w, rng), []
    if workload == "cli-small":
        return _cli_small(w, rng, fixtures)
    raise ValueError(f"unknown workload {workload!r}")
