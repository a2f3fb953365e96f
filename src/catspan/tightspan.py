"""Finite metric spaces and their tight spans, represented by extremal
distance functions under the sup metric.

A function f on the points is admissible when f(x) + f(x') >= d(x, x') for
every pair, and extremal when in addition every x has a partner x' making
that an equality. The extremal functions are exactly the points of the
injective hull; membership is measured by a two-part defect (admissibility
slack and tightness gap) and reached from an admissible function through
its conjugate E(f)(x) = max_x' (d(x, x') - f(x')): by averaging the two
in extremal_project, by lowering f to E(f) point by point in
sample_tight_span.

The tolerance is decided once, where the metric enters: validate_metric
raises the caller's tolerance to a floor of TOL_SPACINGS float spacings of
the largest entry and stores it on the space, and every later stage reads
it from there.

Distances and function values are tuples of Python floats, and every step
runs on them in plain Python, except in two kernels once a space has
NUMPY_FROM points: the triangle check of validate_metric, one n x n numpy
comparison per row, and the averaging rounds of extremal_project. Below
that size importing numpy costs more than the work, so a command on a
small metric never imports it; the triangle check also runs in numpy
wherever numpy is loaded already. Both kernels of a pair round every sum
in the same order and so return the same bits. Projection checks
admissibility once on entry, then follows only the O(n^2) gap per round,
since averaging an admissible function with its conjugate stays
admissible. Sampling needs no rounds: it lowers each admissible start to
an extremal function in one O(n^2) pass, in Python at every size, from
the draws of Python's random.Random(seed), whose sequence Python keeps
across versions.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import add, sub

from .core import DEFAULT_TOL, Frozen, InputError, StructuralError, as_integer  # DEFAULT_TOL is re-exported

WITNESS_TOL = 1e-6
# The tolerance floor, in float spacings of the largest entry: above the few
# roundings in a triangle sum, a slack or an average of function values.
TOL_SPACINGS = 8
MAX_ITERATIONS = 10_000
# The largest distance accepted, checked where distances and function values
# enter, so that every sum this module forms stays finite. A sample start adds
# up to the diameter to a row of distances, so function values may reach
# 2 * MAX_DISTANCE. The widest sum is then the slack d(x, y) - f(x) - f(y),
# of magnitude at most 5 * MAX_DISTANCE, below the largest float.
MAX_DISTANCE = sys.float_info.max / 8
# The number of points from which the triangle check and the averaging
# rounds run in numpy. In a fresh process the Python triangle check costs
# as much as importing numpy and running the numpy check at about this size
# (both near 108 ms at 100 points on a 2-core VM; 16 ms against 120 ms at
# 50). One projection alone would pay for the import only near 200 points,
# but from this size on validation has imported numpy already.
NUMPY_FROM = 100


class MetricError(ValueError):
    """Metric axiom violations, each with a witness point tuple. The message
    names the first few, since an n-point matrix can break O(n^3) triangles;
    ``violations`` holds them all."""

    SHOWN = 5

    def __init__(self, violations: list[tuple[str, tuple[str, ...]]]):
        lines = ", ".join(f"{axiom} at {witness}" for axiom, witness in violations[: self.SHOWN])
        if len(violations) > self.SHOWN:
            lines += f", and {len(violations) - self.SHOWN} more ({len(violations)} in all)"
        super().__init__(f"not a metric: {lines}")
        self.violations = violations


class InadmissibleError(ValueError):
    def __init__(self, slack: float, witness: tuple[str, str]):
        super().__init__(
            f"function is inadmissible: pair {witness} falls short of the distance by {slack:.6g}"
        )
        self.slack = slack
        self.witness = witness


class ProjectionError(RuntimeError):
    def __init__(self, iterations: int, defect: float):
        super().__init__(
            f"projection did not converge within {iterations} iterations (final defect {defect:.3e})"
        )
        self.iterations = iterations
        self.defect = defect


class NoWitnessError(RuntimeError):
    def __init__(self, point: str, residual: float):
        super().__init__(
            f"no geodesic witness for {point!r} within tolerance (best residual {residual:.3e}); "
            "the function is not extremal"
        )
        self.point = point
        self.residual = residual


class FiniteMetricSpace(Frozen):
    """Points in a fixed order, their distance matrix as a tuple of rows of
    floats, the absolute tolerance every comparison on the space uses, and
    a point -> position index built once. Compared by identity."""

    __slots__ = ("points", "dist", "tol", "_positions")
    _fields = ("points", "dist", "tol")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, points: tuple[str, ...], dist: tuple[tuple[float, ...], ...], tol: float):
        positions = {p: i for i, p in enumerate(points)}
        if len(positions) != len(points):
            first = next(p for i, p in enumerate(points) if positions[p] != i)
            raise StructuralError(f"duplicate point labels, first {first!r}")
        super().__init__(points, dist, tol)
        object.__setattr__(self, "_positions", positions)

    def index(self, point: str) -> int:
        try:
            return self._positions[point]
        except KeyError:
            raise KeyError(f"unknown point {point!r}") from None

    def distance(self, a: str, b: str) -> float:
        return self.dist[self.index(a)][self.index(b)]

    @property
    def diameter(self) -> float:
        return max(map(max, self.dist)) if self.points else 0.0

    def __len__(self) -> int:
        return len(self.points)


def _same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
    return a.points == b.points and a.dist == b.dist


class DistanceFunction(Frozen):
    """A candidate point of the tight span: its nonnegative distance to
    every point, at most 2 * MAX_DISTANCE, as a tuple of floats. Values
    that do not fit the space raise InputError. Compared by identity."""

    __slots__ = _fields = ("space", "values")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, space: FiniteMetricSpace, values):
        values = tuple(map(float, values))
        if len(values) != len(space.points):
            raise InputError(f"expected {len(space.points)} values, got {len(values)}")
        if not all(map(math.isfinite, values)):
            raise InputError("distance values must be finite")
        if values and min(values) < 0.0:
            raise InputError("distance values must be nonnegative")
        if values and max(values) > 2 * MAX_DISTANCE:
            raise InputError(f"distance values must be at most {2 * MAX_DISTANCE:.6g}")
        super().__init__(space, values)

    def value(self, point: str) -> float:
        return self.values[self.space.index(point)]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.space.points, self.values))


def validate_metric(points, matrix, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Check the metric axioms exhaustively, within tolerance.

    The tolerance is ``tol`` raised to TOL_SPACINGS float spacings of the
    largest entry of magnitude at most MAX_DISTANCE, so that it scales with
    the distances once they are large; the returned space carries it.

    A NaN, infinite or negative ``tol`` raises InputError, as a NaN one
    would pass every comparison; a matrix that is not n x n and repeated
    point labels raise StructuralError. Axiom failures raise MetricError
    carrying every violation with a witness tuple. Non-finite entries come
    first, as axiom ``finite`` with their (row, column) points, and finite
    entries above MAX_DISTANCE next, as ``oversized-entry``; then
    ``negative-entry`` in row-major order, ``nonzero-diagonal``, per pair
    i < j ``asymmetry`` before ``zero-distance``, and ``triangle`` in
    (i, j, k) order.

    Every axiom but the triangle is O(n^2) in Python. The triangle compares
    all n^3 triples, in Python below NUMPY_FROM points and in numpy from
    there on: n = 200 takes tens of milliseconds.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tolerance must be finite and nonnegative, got {tol}")
    labels = tuple(points)
    n = len(labels)
    d = tuple(tuple(map(float, row)) for row in matrix)
    if len(d) != n:
        where = f"no row for {labels[len(d)]!r}" if len(d) < n else f"{len(d)} rows"
        raise StructuralError(f"distance matrix must be {n}x{n}: {where}")
    for point, row in zip(labels, d):
        if len(row) != n:
            raise StructuralError(f"distance matrix must be {n}x{n}: the row of {point!r} has length {len(row)}")

    scale = max(map(_largest_entry, d), default=0.0)
    tol = max(tol, TOL_SPACINGS * math.ulp(scale))
    # Built before the axioms are checked, so that repeated labels fail first.
    space = FiniteMetricSpace(labels, d, tol)

    # The entry axioms look entry by entry only in a row that breaks one of
    # them. NaN compares false with everything, so no later axiom would
    # catch it; inf - inf is NaN and a sum past the float range is inf, and
    # the comparisons below read NaN as "no violation".
    rows = [
        i for i, row in enumerate(d)
        if not (all(map(math.isfinite, row)) and -tol <= min(row) and max(row) <= MAX_DISTANCE)
    ]

    def entries(axiom: str, broken) -> list[tuple[str, tuple[str, ...]]]:
        return [(axiom, (labels[i], labels[j])) for i in rows for j, x in enumerate(d[i]) if broken(x)]

    violations = entries("finite", lambda x: not math.isfinite(x))
    violations += entries("oversized-entry", lambda x: MAX_DISTANCE < x < math.inf)
    violations += entries("negative-entry", lambda x: x < -tol)
    violations += [("nonzero-diagonal", (labels[i],)) for i in range(n) if abs(d[i][i]) > tol]
    for i, row in enumerate(d):
        for j in range(i + 1, n):
            if abs(row[j] - d[j][i]) > tol:
                violations.append(("asymmetry", (labels[i], labels[j])))
            if row[j] <= tol:
                violations.append(("zero-distance", (labels[i], labels[j])))
    # Where numpy is loaded already, its check is the cheaper at any size.
    triangles = _triangle_numpy(d, tol) if n >= NUMPY_FROM or "numpy" in sys.modules else _triangle(d, tol)
    violations += [("triangle", (labels[i], labels[j], labels[k])) for i, j, k in triangles]
    if violations:
        raise MetricError(violations)
    return space


def _largest_entry(row) -> float:
    """max(abs(x) for x in row if abs(x) <= MAX_DISTANCE), default 0.0, read
    off the row's max and min when both are within MAX_DISTANCE. A NaN
    compares false, so max and min skip it, unless it comes first and is
    returned, which fails the bounds; rows that fail them are filtered
    entry by entry."""
    low, high = min(row, default=0.0), max(row, default=0.0)
    if -MAX_DISTANCE <= low and high <= MAX_DISTANCE:
        return max(high, -low)
    return max((abs(x) for x in row if abs(x) <= MAX_DISTANCE), default=0.0)


def _triangle(d, tol: float) -> list[tuple[int, int, int]]:
    """The triples (i, j, k) of distinct positions with d[i][k] > (d[i][j] +
    d[j][k]) + tol, in (i, j, k) order, in a Python loop over all n^3."""
    found = []
    for i, row_i in enumerate(d):
        for j, (dij, row_j) in enumerate(zip(row_i, d)):
            if j == i:
                continue
            for k, (dik, djk) in enumerate(zip(row_i, row_j)):
                if dik > (dij + djk) + tol and k != i and k != j:
                    found.append((i, j, k))
    return found


def _triangle_numpy(d, tol: float) -> list[tuple[int, int, int]]:
    """What _triangle returns, one row i at a time as an n x n numpy array:
    bad[j, k] is d[i, k] > (d[i, j] + d[j, k]) + tol, the same sum in the
    same order, so borderline cases round the same way. O(n^3) comparisons
    in O(n^2) memory; np.argwhere keeps (j, k) order, and is skipped on a
    row without violations, the common case."""
    import numpy as np

    a = np.array(d, dtype=float)
    found = []
    # inf - inf is NaN and sums past the float range are inf; neither is
    # worth a warning, and NaN compares as "no violation".
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(len(d)):
            bad = a[i][None, :] > (a[i][:, None] + a) + tol
            if bad.any():
                found += [(i, j, k) for j, k in np.argwhere(bad).tolist() if i != j and j != k and i != k]
    return found


def kuratowski_embed(space: FiniteMetricSpace, point: str) -> DistanceFunction:
    """The canonical isometric copy of a point: its row of the matrix."""
    return DistanceFunction(space, space.dist[space.index(point)])


def conjugate_values(space: FiniteMetricSpace, values) -> tuple[float, ...]:
    """E(f)(x) = max over x' of (d(x, x') - f(x'))."""
    return tuple([max(map(sub, row, values)) for row in space.dist])


def _slacks(d, v):
    """The rows of (d(x, y) - f(x)) - f(y), summed in that order."""
    return (map(sub, map(sub, row, repeat(fx)), v) for row, fx in zip(d, v))


class DefectReport(Frozen):
    """defect = max(slack, gap). Slack measures admissibility failures,
    gap measures how far each coordinate sits above its best witness."""

    __slots__ = _fields = ("defect", "slack", "gap", "admissible")


def extremality_defect(f: DistanceFunction) -> DefectReport:
    v = f.values
    if not v:
        return DefectReport(0.0, 0.0, 0.0, True)
    slack = max(0.0, max(map(max, _slacks(f.space.dist, v))))
    gap = max(map(sub, v, conjugate_values(f.space, v)))
    return DefectReport(max(slack, gap), slack, gap, slack <= f.space.tol)


def extremal_project(f: DistanceFunction) -> DistanceFunction:
    """Project an admissible function onto the extremal set by repeatedly
    averaging it with its conjugate, for at most MAX_ITERATIONS rounds. The
    defect halves each round, values only ever decrease, and
    already-extremal input is returned unchanged.

    Admissibility is checked once, on entry. Averaging keeps it: if f is
    admissible then E(f)(x) >= d(x, y) - f(y) for every y, so (f + E f) / 2
    is admissible too, and the O(n^2) slack need not be recomputed per
    round. Each round computes the conjugate once, tests only the gap, and
    feeds the same conjugate into the next average; the full defect,
    slack included, is checked on an iterate whose gap passes. Below
    NUMPY_FROM points this runs on Python floats, from there on in numpy.

    Lowering, as sample_tight_span does, would need no rounds, but its
    result depends on the order of the points; the average does not.
    """
    return _project_numpy(f) if len(f.values) >= NUMPY_FROM else _project(f)


def _project(f: DistanceFunction) -> DistanceFunction:
    """extremal_project's steps on Python floats."""
    space, tol = f.space, f.space.tol
    report = extremality_defect(f)
    if not report.admissible:
        # The first largest slack in row-major order, as numpy's argmax picks it.
        slacks = [s for row in _slacks(space.dist, f.values) for s in row]
        i, j = divmod(slacks.index(max(slacks)), len(f.values))
        raise InadmissibleError(report.slack, (space.points[i], space.points[j]))
    if report.defect <= tol:
        return f
    h = f.values
    c = conjugate_values(space, h)
    for _ in range(MAX_ITERATIONS):
        # Clamped as np.maximum(m, 0.0) clamps, which makes -0.0 into 0.0.
        h = tuple([m if m > 0.0 else 0.0 for m in [0.5 * (a + b) for a, b in zip(h, c)]])
        c = conjugate_values(space, h)
        # defect = max(slack, gap), so a gap above tol already fails the check.
        if max(map(sub, h, c)) <= tol:
            candidate = DistanceFunction(space, h)
            if extremality_defect(candidate).defect <= tol:
                return candidate
    raise ProjectionError(MAX_ITERATIONS, extremality_defect(DistanceFunction(space, h)).defect)


def _project_numpy(f: DistanceFunction) -> DistanceFunction:
    """_project's steps on numpy arrays, each sum in the same order, so the
    same bits."""
    import numpy as np

    space, tol = f.space, f.space.tol
    d = np.array(space.dist, dtype=float)

    def conjugate(h):
        return (d - h[None, :]).max(axis=1)

    def defect(h, c):
        slack = max(0.0, float((d - h[:, None] - h[None, :]).max()))
        return max(slack, float((h - c).max())), slack

    v = np.array(f.values, dtype=float)
    c = conjugate(v)
    start, slack = defect(v, c)
    if slack > tol:
        gaps = d - v[:, None] - v[None, :]
        i, j = np.unravel_index(int(gaps.argmax()), gaps.shape)
        raise InadmissibleError(slack, (space.points[i], space.points[j]))
    if start <= tol:
        return f
    h = v
    for _ in range(MAX_ITERATIONS):
        h = np.maximum(0.5 * (h + c), 0.0)
        c = conjugate(h)
        if float((h - c).max()) <= tol and defect(h, c)[0] <= tol:
            return DistanceFunction(space, h.tolist())
    raise ProjectionError(MAX_ITERATIONS, defect(h, c)[0])


def tight_span_distance(f: DistanceFunction, g: DistanceFunction) -> float:
    """Sup metric between two distance functions over the same space."""
    if not _same_space(f.space, g.space):
        raise ValueError("distance functions live over different spaces")
    return max(map(abs, map(sub, f.values, g.values)), default=0.0)


def geodesic_witness(f: DistanceFunction, point: str) -> str:
    """A point x' with f(x) + f(x') equal to d(x, x') within the larger of
    WITNESS_TOL and the space's tolerance.

    For an extremal f such a partner exists for every x; failure to find
    one signals the input was not actually extremal.
    """
    space = f.space
    i = space.index(point)
    fx = f.values[i]
    witness_tol = max(WITNESS_TOL, space.tol)
    # f(x) - (d(x, x') - f(x')), rounded as the gap of extremality_defect
    # is, so that a gap within tolerance leaves a residual within it too.
    for partner, dxy, fy in zip(space.points, space.dist[i], f.values):
        if abs(fx - (dxy - fy)) <= witness_tol:
            return partner
    raise NoWitnessError(point, min([abs(fx - (dxy - fy)) for dxy, fy in zip(space.dist[i], f.values)]))


class TripodResult(Frozen):
    __slots__ = _fields = ("legs", "hub")


def tripod(space: FiniteMetricSpace) -> TripodResult:
    """Closed form for three points: the hub of the tripod, whose legs
    a_i = (d(i, j) + d(i, k) - d(j, k)) / 2 realize all three pair
    distances exactly. A leg is clamped at 0: a metric valid within tol can
    make it as low as -tol / 2."""
    if len(space.points) != 3:
        raise InputError(f"tripod needs exactly 3 points, got {len(space.points)}")
    d = space.dist
    legs = (
        max(0.0, (d[0][1] + d[0][2] - d[1][2]) / 2.0),
        max(0.0, (d[1][0] + d[1][2] - d[0][2]) / 2.0),
        max(0.0, (d[2][0] + d[2][1] - d[0][1]) / 2.0),
    )
    return TripodResult(legs, DistanceFunction(space, legs))


def sample_tight_span(space: FiniteMetricSpace, count: int, seed: int) -> list[DistanceFunction]:
    """Deterministically seeded extremal samples: an embedded point plus a
    nonnegative per-coordinate perturbation (admissible by construction),
    lowered onto the extremal set. Every draw is r =
    random.Random(seed).random(), whose sequence for an int seed Python
    keeps across versions (the random module's notes on reproducibility):
    the anchor row is int(n * r), exact for n below 2**53, and each
    perturbation is diameter * r.

    A start is lowered in one pass, largest value first with ties in point
    order: f(x) becomes min(f(x), max(0, E(f)(x))), the conjugate read off
    the values lowered so far. Lowering keeps f admissible and leaves x
    tight with some partner, or with itself at 0, and no later step undoes
    that: a partner y of x has E(f)(y) >= d(y, x) - f(x) = f(y) and so
    keeps its value. The result is extremal after n steps, with no rounds.
    The min only stops rounding from raising a value."""
    count, seed = as_integer(count, "count"), as_integer(seed, "seed")
    if count < 0:
        raise InputError("count must be nonnegative")
    if seed < 0:
        raise InputError("seed must be a nonnegative integer")
    if count == 0:
        return []
    n = len(space.points)
    if n == 0:
        raise InputError("cannot sample from an empty space")
    # Imported here: a command that samples nothing does not load it.
    import random

    draw = random.Random(seed).random
    d, diameter = space.dist, space.diameter
    samples = []
    for _ in range(count):
        row = d[int(n * draw())]
        # With a diameter of 0 nothing is drawn; adding 0.0 still makes -0.0 into 0.0.
        perturbation = [diameter * draw() for _ in range(n)] if diameter > 0 else repeat(0.0)
        f = list(map(add, row, perturbation))
        # The term y = x is -f(x) <= 0, never above the floor, so it stays in.
        for x in sorted(range(n), key=f.__getitem__, reverse=True):
            f[x] = min(f[x], max(0.0, max(map(sub, d[x], f))))
        samples.append(DistanceFunction(space, f))
    return samples
