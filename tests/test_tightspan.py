import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from catspan import (
    DistanceFunction,
    InadmissibleError,
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
from catspan.tightspan import MAX_DISTANCE
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
    tol = TOL * big  # an absolute 1e-9 is below the float spacing here
    for f in sample_tight_span(space, 5, seed=1, tol=tol):
        assert extremality_defect(f, tol).defect <= tol
        assert [geodesic_witness(f, x, witness_tol=tol) for x in space.points]


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


def test_violations_match_loop_oracle_on_planted_l1_cloud():
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 10.0, size=(100, 3))
    d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    d[17, 62] = d[62, 17] = 3.0 * d[17, 62]
    labels = [f"q{i}" for i in range(100)]
    violations = _violations(labels, d)
    assert violations and {axiom for axiom, _ in violations} == {"triangle"}
    assert violations == brute_force_metric_violations(labels, d, TOL)


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
                assert d == space.dist[i, j], (name, x, y)


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
    expected, _, converged = reference_projection(f.space.dist, f.values, TOL, 10_000)
    assert converged
    assert np.array_equal(extremal_project(f, TOL).values, expected)


@pytest.mark.parametrize("max_iterations", [0, 1, 3])
def test_projection_error_matches_full_defect_oracle(max_iterations):
    f = _admissible_start(10, 4)
    _, defect, converged = reference_projection(f.space.dist, f.values, TOL, max_iterations)
    assert not converged
    with pytest.raises(ProjectionError) as err:
        extremal_project(f, TOL, max_iterations)
    assert err.value.iterations == max_iterations
    assert err.value.defect == defect


def test_project_345_postconditions(metrics):
    space = metrics["triangle345"]
    f = DistanceFunction(space, np.array([3.0, 3.0, 3.0]))
    g = extremal_project(f)
    report = extremality_defect(g)
    assert report.admissible and report.defect <= TOL
    assert np.all(g.values <= f.values + TOL)
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
                assert math.isclose(legs[i] + legs[j], space.dist[i, j], abs_tol=TOL), name


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


# ---------------------------------------------------------- sampling


def test_sample_zero_count(metrics):
    assert sample_tight_span(metrics["two_point"], 0, seed=0) == []


def test_samples_are_extremal_and_fix_the_averaging_map(metrics):
    from catspan.tightspan import conjugate_values

    for name, space in metrics.items():
        for f in sample_tight_span(space, 20, seed=1):
            assert extremality_defect(f).defect <= TOL, name
            averaged = 0.5 * (f.values + conjugate_values(space, f.values))
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


def _metric_from_points(coords):
    n = len(coords)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = math.hypot(coords[i][0] - coords[j][0], coords[i][1] - coords[j][1])
    return validate_metric([f"q{i}" for i in range(n)], d)


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
    assert np.all(g.values <= f.values + TOL)
    report = extremality_defect(g)
    assert report.admissible and report.defect <= TOL
    for x in space.points:
        w = geodesic_witness(g, x)
        assert abs(g.value(x) + g.value(w) - space.distance(x, w)) <= 1e-6
