"""Finite metric spaces and their tight spans, represented by extremal
distance functions under the sup metric.

A function f on the points is admissible when f(x) + f(x') >= d(x, x') for
every pair, and extremal when in addition every x has a partner x' making
that an equality. The extremal functions are exactly the points of the
injective hull; membership is measured by a two-part defect (admissibility
slack and tightness gap) and reached by averaging a function with its
conjugate E(f)(x) = max_x' (d(x, x') - f(x')).

Metric validation is broadcast numpy: the triangle axiom is one n x n
comparison per row, O(n^3) work in O(n^2) memory. Projection checks
admissibility once on entry, then follows only the O(n^2) gap per round,
since averaging an admissible function with its conjugate stays admissible.
"""

from __future__ import annotations

import numpy as np

from .fincat import Frozen

DEFAULT_TOL = 1e-9
WITNESS_TOL = 1e-6
MAX_ITERATIONS = 10_000


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
    """Points in a fixed order, their distance matrix, and a point ->
    position index built once. Compared by identity."""

    __slots__ = ("points", "dist", "_positions")
    _fields = ("points", "dist")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, points: tuple[str, ...], dist: np.ndarray):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "_positions", {p: i for i, p in enumerate(points)})

    def index(self, point: str) -> int:
        try:
            return self._positions[point]
        except KeyError:
            raise KeyError(f"unknown point {point!r}") from None

    def distance(self, a: str, b: str) -> float:
        return float(self.dist[self.index(a), self.index(b)])

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if len(self.points) else 0.0

    def __len__(self) -> int:
        return len(self.points)


def _same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
    return a.points == b.points and np.array_equal(a.dist, b.dist)


class DistanceFunction(Frozen):
    """A candidate point of the tight span: its finite, nonnegative distance
    to every point. Compared by identity."""

    __slots__ = _fields = ("space", "values")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, space: FiniteMetricSpace, values: np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.shape != (len(space.points),):
            raise ValueError(
                f"expected {len(space.points)} values, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("distance values must be finite")
        if arr.size and arr.min() < 0.0:
            raise ValueError("distance values must be nonnegative")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def value(self, point: str) -> float:
        return float(self.values[self.space.index(point)])

    def as_dict(self) -> dict[str, float]:
        return {p: float(v) for p, v in zip(self.space.points, self.values)}


def validate_metric(points, matrix, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Check the metric axioms exhaustively, within tolerance.

    Shape mismatches raise ValueError; axiom failures raise MetricError
    carrying every violation with a witness tuple. Non-finite entries come
    first, as axiom ``finite`` with their (row, column) points; then
    ``negative-entry`` in row-major order, ``nonzero-diagonal``, per pair
    i < j ``asymmetry`` before ``zero-distance``, and ``triangle`` in
    (i, j, k) order.

    The triangle check compares all n^3 triples, one row i at a time as an
    n x n array, so memory stays O(n^2): n = 200 takes tens of milliseconds.
    """
    labels = tuple(points)
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate point labels")
    d = np.asarray(matrix, dtype=float)
    n = len(labels)
    if d.shape != (n, n):
        raise ValueError(f"distance matrix must be {n}x{n}, got {d.shape}")

    # NaN compares false with everything, so no later axiom would catch it.
    violations: list[tuple[str, tuple[str, ...]]] = [
        ("finite", (labels[i], labels[j])) for i, j in zip(*np.nonzero(~np.isfinite(d)))
    ]
    # inf - inf and inf + -inf are NaN (entries already reported as ``finite``)
    # and sums past the float range are inf; neither is worth a warning. The
    # comparisons below read NaN as "no violation", as the scalar axioms do.
    with np.errstate(invalid="ignore", over="ignore"):
        violations += [
            ("negative-entry", (labels[i], labels[j])) for i, j in np.argwhere(d < -tol).tolist()
        ]
        violations += [
            ("nonzero-diagonal", (labels[i],)) for i in np.flatnonzero(np.abs(d.diagonal()) > tol)
        ]
        asymmetric = np.abs(d - d.T) > tol
        zero = d <= tol
        for i, j in np.argwhere(asymmetric | zero).tolist():
            if i < j:
                if asymmetric[i, j]:
                    violations.append(("asymmetry", (labels[i], labels[j])))
                if zero[i, j]:
                    violations.append(("zero-distance", (labels[i], labels[j])))
        # Triangle, one row i at a time: bad[j, k] is d[i,k] > (d[i,j] + d[j,k]) + tol,
        # summed in the scalar order so borderline cases round the same way.
        # O(n^3) comparisons in O(n^2) memory; np.argwhere keeps (j, k) order.
        for i in range(n):
            bad = d[i][None, :] > (d[i][:, None] + d) + tol
            for j, k in np.argwhere(bad).tolist():
                if i != j and j != k and i != k:
                    violations.append(("triangle", (labels[i], labels[j], labels[k])))
    if violations:
        raise MetricError(violations)
    d = d.copy()
    d.setflags(write=False)
    return FiniteMetricSpace(labels, d)


def kuratowski_embed(space: FiniteMetricSpace, point: str) -> DistanceFunction:
    """The canonical isometric copy of a point: its row of the matrix."""
    return DistanceFunction(space, space.dist[space.index(point)].copy())


def conjugate_values(space: FiniteMetricSpace, values: np.ndarray) -> np.ndarray:
    """E(f)(x) = max over x' of (d(x, x') - f(x'))."""
    return (space.dist - values[None, :]).max(axis=1)


class DefectReport(Frozen):
    """defect = max(slack, gap). Slack measures admissibility failures,
    gap measures how far each coordinate sits above its best witness."""

    __slots__ = _fields = ("defect", "slack", "gap", "admissible")

    def __init__(self, defect: float, slack: float, gap: float, admissible: bool):
        object.__setattr__(self, "defect", defect)
        object.__setattr__(self, "slack", slack)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "admissible", admissible)


def extremality_defect(f: DistanceFunction, tol: float = DEFAULT_TOL) -> DefectReport:
    d = f.space.dist
    v = f.values
    if v.size == 0:
        return DefectReport(0.0, 0.0, 0.0, True)
    slack = max(0.0, float((d - v[:, None] - v[None, :]).max()))
    gap = float((v - conjugate_values(f.space, v)).max())
    return DefectReport(max(slack, gap), slack, gap, slack <= tol)


def extremal_project(
    f: DistanceFunction,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> DistanceFunction:
    """Project an admissible function onto the extremal set by repeatedly
    averaging it with its conjugate. The defect halves each round, values
    only ever decrease, and already-extremal input is returned unchanged.

    Admissibility is checked once, on entry. Averaging keeps it: if f is
    admissible then E(f)(x) >= d(x, y) - f(y) for every y, so (f + E f) / 2
    is admissible too, and the O(n^2) slack need not be recomputed per
    round. Each round computes the conjugate once, tests only the gap, and
    feeds the same conjugate into the next average; the full defect,
    slack included, is checked on an iterate whose gap passes.
    """
    report = extremality_defect(f, tol)
    if not report.admissible:
        d = f.space.dist
        v = f.values
        gaps = d - v[:, None] - v[None, :]
        i, j = np.unravel_index(int(gaps.argmax()), gaps.shape)
        raise InadmissibleError(report.slack, (f.space.points[i], f.space.points[j]))
    if report.defect <= tol:
        return f
    h = f.values
    c = conjugate_values(f.space, h)
    for _ in range(max_iterations):
        h = np.maximum(0.5 * (h + c), 0.0)
        c = conjugate_values(f.space, h)
        # defect = max(slack, gap), so a gap above tol already fails the check.
        if float((h - c).max()) <= tol:
            candidate = DistanceFunction(f.space, h)
            if extremality_defect(candidate, tol).defect <= tol:
                return candidate
    raise ProjectionError(max_iterations, extremality_defect(DistanceFunction(f.space, h), tol).defect)


def tight_span_distance(f: DistanceFunction, g: DistanceFunction) -> float:
    """Sup metric between two distance functions over the same space."""
    if not _same_space(f.space, g.space):
        raise ValueError("distance functions live over different spaces")
    if f.values.size == 0:
        return 0.0
    return float(np.abs(f.values - g.values).max())


def geodesic_witness(
    f: DistanceFunction,
    point: str,
    witness_tol: float = WITNESS_TOL,
) -> str:
    """A point x' with f(x) + f(x') equal to d(x, x') within tolerance.

    For an extremal f such a partner exists for every x; failure to find
    one signals the input was not actually extremal.
    """
    space = f.space
    i = space.index(point)
    residuals = np.abs(f.values[i] + f.values - space.dist[i])
    for j, r in enumerate(residuals):
        if r <= witness_tol:
            return space.points[j]
    raise NoWitnessError(point, float(residuals.min()))


class TripodResult(Frozen):
    __slots__ = _fields = ("legs", "hub")

    def __init__(self, legs: tuple[float, float, float], hub: DistanceFunction):
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "hub", hub)


def tripod(space: FiniteMetricSpace) -> TripodResult:
    """Closed form for three points: the hub of the tripod, whose legs
    a_i = (d(i, j) + d(i, k) - d(j, k)) / 2 realize all three pair
    distances exactly."""
    if len(space.points) != 3:
        raise ValueError(f"tripod needs exactly 3 points, got {len(space.points)}")
    d = space.dist
    legs = (
        float((d[0, 1] + d[0, 2] - d[1, 2]) / 2.0),
        float((d[1, 0] + d[1, 2] - d[0, 2]) / 2.0),
        float((d[2, 0] + d[2, 1] - d[0, 1]) / 2.0),
    )
    return TripodResult(legs, DistanceFunction(space, np.array(legs)))


def sample_tight_span(
    space: FiniteMetricSpace,
    count: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> list[DistanceFunction]:
    """Deterministically seeded extremal samples: an embedded point plus a
    nonnegative per-coordinate perturbation (admissible by construction),
    projected onto the extremal set."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    if len(space.points) == 0:
        raise ValueError("cannot sample from an empty space")
    rng = np.random.default_rng(seed)
    diameter = space.diameter
    samples = []
    for _ in range(count):
        anchor = int(rng.integers(len(space.points)))
        perturbation = rng.uniform(0.0, diameter, size=len(space.points)) if diameter > 0 else np.zeros(len(space.points))
        start = DistanceFunction(space, space.dist[anchor] + perturbation)
        samples.append(extremal_project(start, tol, max_iterations))
    return samples
