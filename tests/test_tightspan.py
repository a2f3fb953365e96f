import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from catspan import (
    DistanceFunction,
    InadmissibleError,
    InputError,
    MetricError,
    NoWitnessError,
    ProjectionError,
    extremal_project,
    extremality_defect,
    geodesic_witness,
    kuratowski_embed,
    sample_tight_span,
    tight_span_distance,
    tripod,
    validate_metric,
)
from catspan import tightspan
from catspan.tightspan import MAX_DISTANCE, NUMPY_FROM, TOL_SPACINGS, FiniteMetricSpace, conjugate_values
from oracles import brute_force_metric_violations, reference_projection

TOL = 1e-9


# ---------------------------------------------------------- validation


def test_two_point_metric_valid():
    space = validate_metric(["x1", "x2"], [[0, 2], [2, 0]])
    assert space.distance("x1", "x2") == 2.0


def test_triangle_violation_witness():
    with pytest.raises(MetricError) as err:
        validate_metric(["1", "2", "3"], [[0, 1, 10], [1, 0, 1], [10, 1, 0]])
    assert ("triangle", ("1", "2", "3")) in err.value.violations


def test_345_metric_valid():
    space = validate_metric(["x1", "x2", "x3"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    assert len(space) == 3


def test_axiom_violations_named():
    with pytest.raises(MetricError) as err:
        validate_metric(["a", "b"], [[0, -1], [-1, 0]])
    assert any(v[0] == "negative-entry" for v in err.value.violations)
    with pytest.raises(MetricError) as err:
        validate_metric(["a", "b"], [[0, 1], [2, 0]])
    assert any(v[0] == "asymmetry" for v in err.value.violations)
    with pytest.raises(MetricError) as err:
        validate_metric(["a", "b"], [[1, 2], [2, 0]])
    assert any(v[0] == "nonzero-diagonal" for v in err.value.violations)
    with pytest.raises(MetricError) as err:
        validate_metric(["a", "b"], [[0, 0], [0, 0]])
    assert any(v[0] == "zero-distance" for v in err.value.violations)
    with pytest.raises(MetricError) as err:
        validate_metric(["a", "b"], [[0, math.nan], [1, 0]])
    assert err.value.violations[0] == ("finite", ("a", "b"))


def test_entries_whose_sums_overflow_are_violations():
    with pytest.raises(MetricError) as err:
        validate_metric(["a", "b", "c"], [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]])
    assert err.value.violations == [
        ("oversized-entry", pair) for pair in [("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b")]
    ]
    # Just below the bound every sum the module forms stays finite; tier-1
    # turns an overflow warning into an error.
    big = MAX_DISTANCE * (1 - 1e-15)
    space = validate_metric(["a", "b", "c"], [[0, big, big], [big, 0, big], [big, big, 0]])
    assert tripod(space).legs == (big / 2,) * 3
    for f in sample_tight_span(space, 5, seed=1):
        assert extremality_defect(f).defect <= space.tol
        assert [geodesic_witness(f, x) for x in space.points]


def test_shape_mismatch_is_not_an_axiom_failure():
    with pytest.raises(ValueError):
        validate_metric(["a", "b"], [[0, 1, 2], [1, 0, 1]])


def _violations(labels, d):
    try:
        validate_metric(labels, d)
    except MetricError as err:
        return err.violations
    return []


# Non-finite, oversized, negative, near-zero, exact-zero and ordinary entries;
# drawn independently they also give asymmetric pairs and triangle failures.
ENTRY_POOL = [math.nan, math.inf, -math.inf, 1e308, -1e308, -1.0, -1e-10, 0.0, 1e-10, 1.0, 2.0, 3.5]


@st.composite
def raw_matrices(draw):
    n = draw(st.integers(0, 7))
    entries = draw(st.lists(st.sampled_from(ENTRY_POOL), min_size=n * n, max_size=n * n))
    d = np.array(entries, dtype=float).reshape(n, n)
    if draw(st.booleans()):
        below = np.arange(n)[:, None] > np.arange(n)[None, :]
        d = np.where(below, d.T, d)
    if draw(st.booleans()):
        np.fill_diagonal(d, 0.0)
    return d


# d(x, z) = (0.1 + 0.2) + tol exactly: a metric when the triangle sum is
# associated as (d(x,y) + d(y,z)) + tol, a violation under 0.1 + (0.2 + tol).
BORDERLINE_TRIANGLE = np.array([[0.0, 0.1, 0.1 + 0.2 + TOL], [0.1, 0.0, 0.2], [0.1 + 0.2 + TOL, 0.2, 0.0]])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_matrices())
@example(BORDERLINE_TRIANGLE)
def test_violations_match_loop_oracle(d):
    labels = [f"p{i}" for i in range(len(d))]
    assert _violations(labels, d) == brute_force_metric_violations(labels, d, TOL)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(raw_matrices(), st.sampled_from([0, 100, 300]), st.sampled_from([TOL, 0.0]))
def test_tolerance_is_the_entrywise_scale(d, exponent, tol):
    # The tolerance as validate_metric computed it entry by entry, written
    # out here; scaled up to 1e300, entries pass MAX_DISTANCE and overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _rows(d * 10.0**exponent)
    scale = max((abs(x) for row in rows for x in row if abs(x) <= MAX_DISTANCE), default=0.0)
    expected = max(tol, TOL_SPACINGS * math.ulp(scale))
    found = max(map(tightspan._largest_entry, rows), default=0.0)
    assert found == scale
    try:
        space = validate_metric([f"p{i}" for i in range(len(rows))], rows, tol)
    except MetricError:
        return
    assert space.tol.hex() == expected.hex()


def test_triangle_kernel_follows_what_is_loaded(monkeypatch):
    # numpy's triangle check from NUMPY_FROM points on, or at any size once
    # numpy is loaded; the Python check otherwise.
    used = []
    for name in ("_triangle", "_triangle_numpy"):
        monkeypatch.setattr(tightspan, name, lambda d, tol, kernel=getattr(tightspan, name): used.append(kernel.__name__) or kernel(d, tol))
    line = [[float(abs(i - j)) for j in range(5)] for i in range(5)]
    validate_metric([f"p{i}" for i in range(5)], line)
    monkeypatch.delitem(sys.modules, "numpy")
    validate_metric([f"p{i}" for i in range(5)], line)
    assert used == ["_triangle_numpy", "_triangle"]


def test_violations_match_loop_oracle_on_planted_l1_cloud():
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 10.0, size=(100, 3))
    d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    d[17, 62] = d[62, 17] = 3.0 * d[17, 62]
    labels = [f"q{i}" for i in range(100)]
    violations = _violations(labels, d)
    assert violations and {axiom for axiom, _ in violations} == {"triangle"}
    assert violations == brute_force_metric_violations(labels, d, TOL)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # d(a, c) = 5 > d(a, b) + d(b, c) = 2, yet a NaN tolerance passes every
    # comparison and would report the matrix a metric.
    with pytest.raises(InputError, match="tolerance"):
        validate_metric(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]], tol)


def test_metric_error_message_is_bounded():
    rng = np.random.default_rng(0)
    d = rng.uniform(1.0, 10.0, size=(80, 80))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    labels = [f"p{i}" for i in range(80)]
    with pytest.raises(MetricError) as err:
        validate_metric(labels, d)
    expected = brute_force_metric_violations(labels, d, TOL)
    assert err.value.violations == expected
    assert len(expected) > 1000
    message = str(err.value)
    assert len(message) < 400
    assert message.startswith(f"not a metric: {expected[0][0]} at {expected[0][1]}, ")
    assert message.endswith(f", and {len(expected) - MetricError.SHOWN} more ({len(expected)} in all)")
    # Up to SHOWN violations are all named, with no count.
    with pytest.raises(MetricError, match=r"^not a metric: triangle at \('1', '2', '3'\), triangle at \('3', '2', '1'\)$"):
        validate_metric(["1", "2", "3"], [[0, 1, 10], [1, 0, 1], [10, 1, 0]])


def test_unknown_point_raises_key_error(metrics):
    space = metrics["two_point"]
    assert space.index("x2") == 1
    with pytest.raises(KeyError, match="unknown point 'nowhere'"):
        space.index("nowhere")
    with pytest.raises(KeyError, match="unknown point 'nowhere'"):
        space.distance("x1", "nowhere")


# ---------------------------------------------------------- embedding


def test_embed_reads_matrix_row(metrics):
    f = kuratowski_embed(metrics["two_point"], "x1")
    assert list(f.values) == [0.0, 2.0]


def test_embeds_are_extremal(metrics):
    for name, space in metrics.items():
        for x in space.points:
            report = extremality_defect(kuratowski_embed(space, x))
            assert report.admissible and report.defect <= TOL, (name, x)


def test_embedding_isometry_exact(metrics):
    for name, space in metrics.items():
        for i, x in enumerate(space.points):
            for j, y in enumerate(space.points):
                d = tight_span_distance(kuratowski_embed(space, x), kuratowski_embed(space, y))
                assert d == space.dist[i][j], (name, x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distance_function_rejects_non_finite_values(metrics, bad):
    with pytest.raises(ValueError, match="finite"):
        DistanceFunction(metrics["two_point"], np.array([1.0, bad]))


def test_distance_function_rejects_values_whose_sums_overflow(metrics):
    space = metrics["two_point"]
    with pytest.raises(ValueError, match="at most"):
        DistanceFunction(space, np.array([1e308, 1e308]))
    f = DistanceFunction(space, np.array([2 * MAX_DISTANCE, 2 * MAX_DISTANCE]))
    assert extremal_project(f).as_dict() == {"x1": 1.0, "x2": 1.0}


# ---------------------------------------------------------- defect


def test_defect_of_all_twos(metrics):
    f = DistanceFunction(metrics["two_point"], np.array([2.0, 2.0]))
    report = extremality_defect(f)
    assert report.admissible
    assert report.slack == 0.0
    assert report.gap == 2.0
    assert report.defect == 2.0


def test_inadmissible_when_sum_below_distance(metrics):
    f = DistanceFunction(metrics["two_point"], np.array([0.5, 1.0]))
    report = extremality_defect(f)
    assert not report.admissible
    assert math.isclose(report.slack, 0.5)


# ---------------------------------------------------------- projection


def test_project_all_twos_to_midpoint(metrics):
    f = DistanceFunction(metrics["two_point"], np.array([2.0, 2.0]))
    g = extremal_project(f)
    assert np.allclose(g.values, [1.0, 1.0])


def test_project_returns_extremal_input_unchanged(metrics):
    hub = DistanceFunction(metrics["two_point"], np.array([1.0, 1.0]))
    assert extremal_project(hub) is hub


def test_project_rejects_inadmissible(metrics):
    f = DistanceFunction(metrics["two_point"], np.array([0.5, 1.0]))
    with pytest.raises(InadmissibleError):
        extremal_project(f)


def _admissible_start(n, seed):
    """An L1 cloud in the plane and an embedded point raised by a
    nonnegative perturbation, which keeps it admissible."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    space = validate_metric(
        [f"q{i}" for i in range(n)], np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    )
    anchor = int(rng.integers(n))
    return DistanceFunction(space, space.dist[anchor] + rng.uniform(0.0, space.diameter, n))


@pytest.mark.parametrize("n", [3, 10, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_matches_full_defect_oracle(n, seed):
    f = _admissible_start(n, seed)
    expected, _, converged = reference_projection(f.space.dist, f.values, f.space.tol, 10_000)
    assert converged
    assert np.array_equal(extremal_project(f).values, expected)


@pytest.mark.parametrize("max_iterations", [0, 1, 3])
def test_projection_error_matches_full_defect_oracle(monkeypatch, max_iterations):
    f = _admissible_start(10, 4)
    _, defect, converged = reference_projection(f.space.dist, f.values, f.space.tol, max_iterations)
    assert not converged
    monkeypatch.setattr(tightspan, "MAX_ITERATIONS", max_iterations)
    with pytest.raises(ProjectionError) as err:
        extremal_project(f)
    assert err.value.iterations == max_iterations
    assert err.value.defect == defect


def test_project_345_postconditions(metrics):
    space = metrics["triangle345"]
    f = DistanceFunction(space, np.array([3.0, 3.0, 3.0]))
    g = extremal_project(f)
    report = extremality_defect(g)
    assert report.admissible and report.defect <= TOL
    assert all(a <= b + TOL for a, b in zip(g.values, f.values))
    # every point has an equality witness
    for x in space.points:
        geodesic_witness(g, x)


# ---------------------------------------------------------- sup metric


def test_distance_to_self_is_zero(metrics):
    f = kuratowski_embed(metrics["random5"], "p0")
    assert tight_span_distance(f, f) == 0.0


def test_distance_example(metrics):
    space = metrics["two_point"]
    a = DistanceFunction(space, np.array([1.0, 1.0]))
    b = DistanceFunction(space, np.array([0.0, 2.0]))
    assert tight_span_distance(a, b) == 1.0


def test_distance_requires_same_space(metrics):
    f = kuratowski_embed(metrics["two_point"], "x1")
    g = kuratowski_embed(metrics["triangle345"], "x1")
    with pytest.raises(ValueError):
        tight_span_distance(f, g)


def test_distance_triangle_inequality_on_samples(metrics):
    for name, space in metrics.items():
        fs = sample_tight_span(space, 8, seed=3)
        for a in fs:
            for b in fs:
                for c in fs:
                    assert tight_span_distance(a, c) <= (
                        tight_span_distance(a, b) + tight_span_distance(b, c) + TOL
                    ), name


# ---------------------------------------------------------- witnesses


def test_witness_two_point_hub(metrics):
    hub = DistanceFunction(metrics["two_point"], np.array([1.0, 1.0]))
    assert geodesic_witness(hub, "x1") == "x2"
    assert geodesic_witness(hub, "x2") == "x1"


def test_witness_on_embedded_point(metrics):
    space = metrics["random5"]
    f = kuratowski_embed(space, "p3")
    for x in space.points:
        assert geodesic_witness(f, x) == "p3" or math.isclose(
            f.value(x) + f.value(geodesic_witness(f, x)), space.distance(x, geodesic_witness(f, x)), abs_tol=1e-6
        )


def test_witness_at_steiner_point(metrics):
    space = metrics["triangle345"]
    f = DistanceFunction(space, np.array([1.0, 2.0, 3.0]))
    assert geodesic_witness(f, "x1") == "x2"  # 1 + 2 = d(x1, x2)


@pytest.mark.parametrize("cloud_seed, scale, dim, seed", [(1, 1e10, 2, 1), (14, 1e10, 1, 2), (40, 1e14, 1, 0)])
def test_witnesses_of_samples_at_large_scale(cloud_seed, scale, dim, seed):
    # A projection stops with its gap just within the tolerance. On these
    # 6-point L1 clouds, f(x) + f(x') - d(x, x') rounded in another order
    # than the gap exceeds the tolerance by a float spacing.
    rng = random.Random(cloud_seed)
    coords = np.array([[rng.uniform(0, scale) for _ in range(dim)] for _ in range(6)])
    space = validate_metric([f"p{i}" for i in range(6)], np.abs(coords[:, None] - coords[None]).sum(axis=2))
    for f in sample_tight_span(space, 10, seed):
        assert [geodesic_witness(f, x) for x in space.points]


def test_no_witness_signals_not_extremal(metrics):
    fat = DistanceFunction(metrics["two_point"], np.array([2.0, 2.0]))
    with pytest.raises(NoWitnessError):
        geodesic_witness(fat, "x1")


# ---------------------------------------------------------- tripod


def test_tripod_345(metrics):
    result = tripod(metrics["triangle345"])
    assert result.legs == (1.0, 2.0, 3.0)
    assert extremality_defect(result.hub).defect <= TOL


def test_tripod_hub_equalities(metrics):
    for name in ("triangle345", "equilateral3", "collinear3"):
        space = metrics[name]
        legs = tripod(space).legs
        for i in range(3):
            for j in range(i + 1, 3):
                assert math.isclose(legs[i] + legs[j], space.dist[i][j], abs_tol=TOL), name


def test_tripod_collinear_hub_is_middle_point(metrics):
    space = metrics["collinear3"]
    result = tripod(space)
    assert result.legs == (1.0, 0.0, 1.0)
    assert tight_span_distance(result.hub, kuratowski_embed(space, "x2")) == 0.0


def test_tripod_equilateral(metrics):
    assert tripod(metrics["equilateral3"]).legs == (1.0, 1.0, 1.0)


def test_tripod_wrong_point_count(metrics):
    with pytest.raises(ValueError):
        tripod(metrics["two_point"])


def test_tripod_legs_are_clamped_on_a_metric_valid_within_tol():
    # d(a, c) exceeds d(a, b) + d(b, c) by 5e-10, within the default
    # tolerance, so leg b works out at -2.5e-10 before the clamp.
    space = validate_metric(["a", "b", "c"], [[0, 1, 2 + 5e-10], [1, 0, 1], [2 + 5e-10, 1, 0]])
    result = tripod(space)
    assert result.legs[1] == 0.0
    assert result.legs[0] == result.legs[2] == (2 + 5e-10) / 2
    assert extremality_defect(result.hub).defect <= space.tol


# ---------------------------------------------------------- sampling


def test_sample_zero_count(metrics):
    assert sample_tight_span(metrics["two_point"], 0, seed=0) == []


def test_samples_are_extremal_and_fix_the_averaging_map(metrics):
    from catspan.tightspan import conjugate_values

    for name, space in metrics.items():
        for f in sample_tight_span(space, 20, seed=1):
            assert extremality_defect(f).defect <= TOL, name
            averaged = 0.5 * (np.array(f.values) + conjugate_values(space, f.values))
            assert np.max(np.abs(averaged - f.values)) <= TOL, name


def test_sampling_deterministic(metrics):
    for name, space in metrics.items():
        a = sample_tight_span(space, 10, seed=7)
        b = sample_tight_span(space, 10, seed=7)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b)), name


def test_projection_nonexpansive_on_samples(metrics):
    space = metrics["random5"]
    rng = np.random.default_rng(5)
    for _ in range(10):
        i, j = rng.integers(len(space.points), size=2)
        f = DistanceFunction(space, space.dist[i] + rng.uniform(0, 3, len(space.points)))
        g = DistanceFunction(space, space.dist[j] + rng.uniform(0, 3, len(space.points)))
        assert tight_span_distance(extremal_project(f), extremal_project(g)) <= (
            tight_span_distance(f, g) + TOL
        )


# ---------------------------------------------------------- sampling
# Sampling draws from random.Random(seed): the anchor row int(n * r), then
# a perturbation diameter * r per point.


def test_negative_seed_is_rejected(metrics):
    with pytest.raises(ValueError):
        sample_tight_span(metrics["two_point"], 1, seed=-1)


@pytest.mark.parametrize("count,seed", [(0, -1), (-1, 0)])
def test_arguments_are_checked_before_nothing_is_drawn(metrics, count, seed):
    """A negative count or seed is an input error even where no sample
    would be drawn."""
    with pytest.raises(InputError, match="nonnegative"):
        sample_tight_span(metrics["two_point"], count, seed)


@pytest.mark.parametrize("count,seed,name", [(1, 0.5, "seed"), (0.5, 0, "count")])
def test_count_and_seed_that_are_not_integers_are_input_errors(metrics, count, seed, name):
    with pytest.raises(InputError, match=f"^{name} must be an integer, got float$"):
        sample_tight_span(metrics["two_point"], count, seed)


def _sample_starts(space, count, seed):
    """The starts sample_tight_span lowers, drawn independently of it:
    random.Random(seed) gives the anchor row, then a perturbation of
    diameter * r per point."""
    draw = random.Random(seed).random
    n = len(space.points)
    starts = []
    for _ in range(count):
        row = space.dist[int(n * draw())]
        starts.append([row[i] + (space.diameter * draw() if space.diameter > 0 else 0.0) for i in range(n)])
    return starts


def _lowered_samples(space, count, seed):
    """sample_tight_span's samples written out independently, in plain
    Python: each start, visited largest value first with ties in point
    order, each value lowered to the largest of 0 and every d(x, y) - f(y)
    when that is lower."""
    samples = []
    for f in _sample_starts(space, count, seed):
        for x in sorted(range(len(f)), key=lambda i: (-f[i], i)):
            lowered = 0.0
            for dxy, fy in zip(space.dist[x], f):
                if dxy - fy > lowered:
                    lowered = dxy - fy
            if lowered < f[x]:
                f[x] = lowered
        samples.append(f)
    return samples


@pytest.mark.parametrize("n, count", [(1, 3), (5, 3), (30, None), (NUMPY_FROM - 1, 1), (NUMPY_FROM, 1)])
@pytest.mark.parametrize("seed", [0, 2**130 + 7], ids=["seed-0", "seed-2^130+7"])
def test_samples_are_numpys_whichever_kernel_projects(n, count, seed):
    """The samples have the bits of the independent oracle's
    (``_lowered_samples``) on both sides of NUMPY_FROM; with no count given,
    for two runs of one stream, the shorter a prefix of the longer."""
    space = _admissible_start(n, seed % 97).space
    for count in [count] if count else [39, 40]:
        expected = [[v.hex() for v in f] for f in _lowered_samples(space, count, seed)]
        assert [[v.hex() for v in f.values] for f in sample_tight_span(space, count, seed)] == expected


def test_one_point_samples_make_a_negative_zero_diagonal_zero():
    # The diameter is -0.0, so nothing is drawn; the sampler adds zeros,
    # which makes a -0.0 on the diagonal into 0.0.
    space = validate_metric(["a"], [[-0.0]])
    expected = [[v.hex() for v in f] for f in _lowered_samples(space, 3, 5)]
    assert [[v.hex() for v in f.values] for f in sample_tight_span(space, 3, 5)] == expected == [["0x0.0p+0"]] * 3


# ---------------------------------------------------------- properties


@st.composite
def euclidean_points(draw, n_min=3, n_max=6):
    n = draw(st.integers(n_min, n_max))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(0, 10, allow_nan=False, allow_infinity=False),
                st.floats(0, 10, allow_nan=False, allow_infinity=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    for i in range(n):
        for j in range(i + 1, n):
            dx = coords[i][0] - coords[j][0]
            dy = coords[i][1] - coords[j][1]
            assume(dx * dx + dy * dy > 1e-2)
    return coords


def _euclidean_matrix(coords):
    n = len(coords)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = math.hypot(coords[i][0] - coords[j][0], coords[i][1] - coords[j][1])
    return d


def _metric_from_points(coords):
    return validate_metric([f"q{i}" for i in range(len(coords))], _euclidean_matrix(coords))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(euclidean_points())
def test_euclidean_configurations_validate(coords):
    space = _metric_from_points(coords)
    assert len(space) == len(coords)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(euclidean_points(n_min=3, n_max=3))
def test_tripod_legs_nonnegative_and_tight(coords):
    space = _metric_from_points(coords)
    result = tripod(space)
    assert all(leg >= -TOL for leg in result.legs)
    assert extremality_defect(result.hub).defect <= 1e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(euclidean_points(), st.integers(0, 2**16))
def test_projected_perturbations_are_extremal_with_witnesses(coords, seed):
    space = _metric_from_points(coords)
    rng = np.random.default_rng(seed)
    anchor = int(rng.integers(len(space.points)))
    f = DistanceFunction(space, space.dist[anchor] + rng.uniform(0, space.diameter, len(space.points)))
    g = extremal_project(f)
    assert all(a <= b + TOL for a, b in zip(g.values, f.values))
    report = extremality_defect(g)
    assert report.admissible and report.defect <= TOL
    for x in space.points:
        w = geodesic_witness(g, x)
        assert abs(g.value(x) + g.value(w) - space.distance(x, w)) <= 1e-6


@st.composite
def far_l1_clouds(draw):
    """The distance matrix of 3-6 points in 1-3 dimensions under the L1
    norm, with a largest entry of at least 1e10, so that the float spacing,
    not DEFAULT_TOL, decides the tolerance; sometimes with one pair tripled,
    which plants triangle violations."""
    n, dim = draw(st.integers(3, 6)), draw(st.integers(1, 3))
    coords = np.array(draw(st.lists(st.floats(0, 1e11), min_size=n * dim, max_size=n * dim, unique=True)))
    coords = coords.reshape(n, dim)
    d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    assume(d.max() >= 1e10)
    if draw(st.booleans()):
        d[0, 1] = d[1, 0] = 3.0 * d[0, 1]
    return d


@settings(max_examples=25, deadline=None, derandomize=True)
@given(far_l1_clouds(), st.integers(0, 2**16))
def test_scaling_by_a_power_of_two_scales_every_result(d, seed):
    # Float spacing scales exactly with a power of two, and so do the
    # tolerance, every sum and average, and the sampler's uniform draws.
    labels = [f"q{i}" for i in range(len(d))]
    violations = _violations(labels, d)
    if not violations:
        space = validate_metric(labels, d)
        start = np.array(space.dist[0]) + space.diameter  # admissible: a raised row
        projected = np.array(extremal_project(DistanceFunction(space, start)).values)
        samples = [np.array(f.values) for f in sample_tight_span(space, 3, seed)]
    for k in range(21):
        scale = 2.0**k
        assert _violations(labels, d * scale) == violations, k
        if violations:
            continue
        scaled = validate_metric(labels, d * scale)
        assert scaled.tol == space.tol * scale, k
        assert np.array_equal(extremal_project(DistanceFunction(scaled, start * scale)).values, projected * scale), k
        for f, values in zip(sample_tight_span(scaled, 3, seed), samples):
            assert np.array_equal(f.values, values * scale), k


# ---------------------------------------------------------- conjugation laws
# E is conjugate_values. For a symmetric d, EE(f) <= f; E reverses order, so
# EEE = E; and f is extremal exactly when it is a fixed point of E.


@st.composite
def cloud_spaces(draw):
    """A valid metric from either cloud strategy above."""
    if draw(st.booleans()):
        return _metric_from_points(draw(euclidean_points()))
    d = draw(far_l1_clouds())
    labels = [f"q{i}" for i in range(len(d))]
    assume(not _violations(labels, d))
    return validate_metric(labels, d)


def _nonnegative_values(draw, space):
    fractions = draw(st.lists(st.floats(0, 2), min_size=len(space), max_size=len(space)))
    return np.array(fractions) * space.diameter


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_double_conjugate_lies_below(data):
    space = data.draw(cloud_spaces())
    f = _nonnegative_values(data.draw, space)
    assert np.all(conjugate_values(space, conjugate_values(space, f)) <= f + space.tol)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_triple_conjugate_is_conjugate(data):
    space = data.draw(cloud_spaces())
    f = _nonnegative_values(data.draw, space)
    once = conjugate_values(space, f)
    thrice = conjugate_values(space, conjugate_values(space, once))
    assert np.max(np.abs(np.subtract(thrice, once))) <= space.tol


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_extremal_exactly_when_fixed_by_conjugation(data):
    # Embedded points and samples are extremal; a drawn function mostly is not.
    space = data.draw(cloud_spaces())
    candidates = [kuratowski_embed(space, x) for x in space.points]
    candidates += sample_tight_span(space, 2, data.draw(st.integers(0, 2**16)))
    candidates.append(DistanceFunction(space, _nonnegative_values(data.draw, space)))
    for f in candidates:
        fixed = np.max(np.abs(np.subtract(conjugate_values(space, f.values), f.values))) <= space.tol
        assert (extremality_defect(f).defect <= space.tol) == fixed


def _witness_oracle(f, i):
    """The first partner whose residual is within tolerance, or the least
    residual: every residual computed first."""
    residuals = [abs(f.values[i] - (dxy - fy)) for dxy, fy in zip(f.space.dist[i], f.values)]
    within = [p for p, r in zip(f.space.points, residuals) if r <= max(tightspan.WITNESS_TOL, f.space.tol)]
    return ("witness", within[0]) if within else ("none", min(residuals).hex())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_witnesses_match_the_eager_oracle(data):
    # Samples have a witness at every point; a drawn function mostly lacks
    # some, and then the error carries the least residual.
    space = data.draw(cloud_spaces())
    candidates = sample_tight_span(space, 2, data.draw(st.integers(0, 2**16)))
    candidates.append(DistanceFunction(space, _nonnegative_values(data.draw, space)))
    for f in candidates:
        for i, x in enumerate(space.points):
            try:
                found = ("witness", geodesic_witness(f, x))
            except NoWitnessError as exc:
                found = ("none", exc.residual.hex())
            assert found == _witness_oracle(f, i)


# ---------------------------------------------------------- lowering
# A sample is its start lowered in one pass. The result is extremal, lies
# below the start value by value, and lands on a point of X (some value 0)
# no more often than the average of the same start does.


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_samples_are_extremal_below_their_starts_with_witnesses(data):
    space = data.draw(cloud_spaces())
    count, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2**16))
    for f, start in zip(sample_tight_span(space, count, seed), _sample_starts(space, count, seed)):
        assert extremality_defect(f).defect <= space.tol
        assert all(a <= b for a, b in zip(f.values, start))
        assert [geodesic_witness(f, x) for x in space.points]


@pytest.mark.parametrize("n", [3, 5, 20, 50])
@pytest.mark.parametrize("norm", ["l1", "euclidean"])
def test_lowered_samples_land_on_x_no_more_often_than_averaged_ones(n, norm):
    rng = random.Random(n)
    coords = np.array([(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(n)])
    d = np.abs(coords[:, None] - coords[None]).sum(axis=2) if norm == "l1" else _euclidean_matrix(coords)
    space = validate_metric([f"q{i}" for i in range(n)], d)
    lowered = sample_tight_span(space, 200, 1)
    # The numpy kernel averages to the same bits as extremal_project, in less time.
    averaged = [tightspan._project_numpy(DistanceFunction(space, start)) for start in _sample_starts(space, 200, 1)]

    def on_x(samples):
        return sum(min(f.values) <= space.tol for f in samples)

    assert on_x(lowered) <= on_x(averaged)


# ---------------------------------------------------------- both kernels
# From NUMPY_FROM points on, the triangle check and the averaging rounds run
# in numpy. Each pair of kernels must return the same bits, so that the size
# of a metric never changes a verdict, a witness or a printed value.


def _rows(d):
    return tuple(map(tuple, np.asarray(d, dtype=float).tolist()))


def _triangles_agree(d, tol=TOL):
    rows = _rows(d)
    found = tightspan._triangle(rows, tol)
    assert found == tightspan._triangle_numpy(rows, tol)
    return found


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw_matrices(), st.sampled_from([0, 100, 300]))
@example(BORDERLINE_TRIANGLE, 0)
def test_triangle_kernels_agree_on_raw_matrices(d, exponent):
    # NaN, infinities, oversized entries, and once scaled up to 1e300 sums
    # past the float range.
    with np.errstate(over="ignore", invalid="ignore"):
        _triangles_agree(d * 10.0**exponent, TOL * 10.0**exponent)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.one_of(euclidean_points().map(_euclidean_matrix), far_l1_clouds()), st.sampled_from([1.0, 1e150, 1e290]))
def test_triangle_kernels_agree_on_clouds(d, scale):
    scaled = d * scale
    _triangles_agree(scaled, max(TOL, TOL_SPACINGS * math.ulp(float(scaled.max()))))


@pytest.mark.parametrize("n", [NUMPY_FROM - 1, NUMPY_FROM])
@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_triangle_kernels_agree_on_planted_violations(n, scale):
    rng = np.random.default_rng(n)
    coords = rng.uniform(0.0, 10.0, size=(n, 3))
    d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2) * scale
    d[17, 62] = d[62, 17] = 3.0 * d[17, 62]
    tol = max(TOL, TOL_SPACINGS * math.ulp(float(d.max())))
    found = _triangles_agree(d, tol)
    assert found
    labels = [f"q{i}" for i in range(n)]
    assert _violations(labels, d) == [("triangle", (labels[i], labels[j], labels[k])) for i, j, k in found]
    # Non-finite and oversized entries make triangles of their own.
    d[3, 5], d[8, 2], d[9, 9], d[20, 21] = math.nan, math.inf, -math.inf, 1e308
    _triangles_agree(d, tol)


def test_violations_below_numpy_from_match_loop_oracle():
    n = NUMPY_FROM - 1
    rng = np.random.default_rng(6)
    d = np.abs(rng.uniform(0.0, 10.0, size=(n, 1)) - rng.uniform(0.0, 10.0, size=(1, n)))
    d = np.minimum(d, d.T)
    d[0, 1], d[4, 4], d[7, 3], d[9, 2], d[11, 12] = math.nan, 1.0, -1.0, 1e308, math.inf
    labels = [f"q{i}" for i in range(n)]
    violations = _violations(labels, d)
    assert {axiom for axiom, _ in violations} >= {"finite", "oversized-entry", "negative-entry", "nonzero-diagonal"}
    assert violations == brute_force_metric_violations(labels, d, TOL)


def _projections_agree(f):
    """Run both projection kernels on f; return the shared outcome."""
    outcomes = []
    for project in (tightspan._project, tightspan._project_numpy):
        try:
            g = project(f)
        except InadmissibleError as exc:
            outcomes.append(("inadmissible", exc.slack.hex(), exc.witness))
        except ProjectionError as exc:
            outcomes.append(("iteration-cap", exc.iterations, exc.defect.hex()))
        else:
            outcomes.append(("extremal", g is f, [v.hex() for v in g.values]))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_projection_kernels_agree_on_clouds(data):
    space = data.draw(cloud_spaces())
    raised = [x + space.diameter for x in space.dist[0]]
    drawn = _nonnegative_values(data.draw, space)
    for values in (raised, drawn, space.dist[-1], [0.0] * len(space)):
        _projections_agree(DistanceFunction(space, values))


@pytest.mark.parametrize("n", [3, NUMPY_FROM - 1, NUMPY_FROM])
@pytest.mark.parametrize("seed", [0, 1])
def test_projection_kernels_agree_on_both_sides_of_numpy_from(n, seed):
    f = _admissible_start(n, seed)
    assert _projections_agree(f)[0] == "extremal"
    assert extremal_project(f).values == tightspan._project(f).values
    # Every pair falls short of its distance; the widest is the first
    # largest distance in row-major order.
    assert _projections_agree(DistanceFunction(f.space, [0.0] * n))[0] == "inadmissible"
    shrunk = DistanceFunction(f.space, [v / 4 for v in f.values])
    assert _projections_agree(shrunk)[0] in ("inadmissible", "extremal")


@pytest.mark.parametrize("max_iterations", [0, 1, 3])
@pytest.mark.parametrize("n", [10, NUMPY_FROM])
def test_projection_kernels_agree_at_the_iteration_cap(monkeypatch, max_iterations, n):
    monkeypatch.setattr(tightspan, "MAX_ITERATIONS", max_iterations)
    assert _projections_agree(_admissible_start(n, 4))[:2] == ("iteration-cap", max_iterations)


def test_metric_space_rejects_repeated_labels():
    with pytest.raises(ValueError, match="duplicate point labels"):
        FiniteMetricSpace(("a", "a"), np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-9)
    # validate_metric raises it before any axiom is checked.
    with pytest.raises(ValueError, match="duplicate point labels"):
        validate_metric(["a", "a"], [[0.0, -1.0], [2.0, 1.0]])
