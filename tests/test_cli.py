import argparse
import hashlib
import json
import math
import random
import time
import warnings
from pathlib import Path

import pytest

from catspan import cli
from catspan.cli import main
from catspan.corpus import fixture_path
from catspan.core import InputError, StructuralError, UnknownObjectError
from catspan.fileformat import ParseError, load_functor, recording_reads


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name):
    return str(fixture_path(name))


def test_validate_cat_ok(capsys):
    code, out, err = run(capsys, "validate-cat", fx("terminal.category.json"))
    assert code == 0
    assert "valid: true" in out


# The walking arrow without the entry f . id_A: it breaks composition-totality
# at (f, id_A) and no other law.
BROKEN_CATEGORY = {
    "format": 1,
    "kind": "category",
    "objects": ["A", "B"],
    "morphisms": [
        {"id": "id_A", "src": "A", "tgt": "A"},
        {"id": "id_B", "src": "B", "tgt": "B"},
        {"id": "f", "src": "A", "tgt": "B"},
    ],
    "identities": {"A": "id_A", "B": "id_B"},
    "compose": [["id_A", "id_A", "id_A"], ["id_B", "id_B", "id_B"], ["id_B", "f", "f"]],
}


def test_validate_cat_law_failure(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_CATEGORY))
    code, out, err = run(capsys, "validate-cat", str(path), "--format", "structured")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    witnesses = [v["witness"] for v in report["results"]["violations"]]
    assert ["f", "id_A"] in witnesses  # concrete witness required on exit 1


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "{cat}", "A", "B"],
        ["yoneda", "{cat}", "A"],
        ["reflexive-scan", "{cat}"],
        ["validate-fun", "{fun}"],
        ["nat", "{fun}", "{fun}"],
    ],
    ids=lambda argv: argv[0],
)
def test_law_violating_category_exits_two(capsys, tmp_path, argv):
    (tmp_path / "broken.json").write_text(json.dumps(BROKEN_CATEGORY))
    functor = {
        "format": 1,
        "kind": "functor",
        "category": "broken.json",
        "variance": "contra",
        "objects": {"A": [], "B": []},
        "morphisms": {},
    }
    (tmp_path / "over_broken.json").write_text(json.dumps(functor))
    paths = {"cat": tmp_path / "broken.json", "fun": tmp_path / "over_broken.json"}
    code, out, err = run(capsys, *[a.format(**paths) for a in argv], "--format", "structured")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "'composition-totality'" in err and "('f', 'id_A')" in err


def test_parse_error_names_offending_field(capsys, tmp_path):
    doc = {
        "format": 1,
        "kind": "category",
        "objects": ["A"],
        "morphisms": [{"id": "f", "src": "A", "tgt": "Ghost"}],
        "identities": {"A": "f"},
        "compose": [],
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate-cat", str(path))
    assert code == 2
    assert "f" in err and "Ghost" in err


def test_validate_fun_ok(capsys):
    code, out, err = run(capsys, "validate-fun", fx("arrow_pq_r.presheaf.json"))
    assert code == 0


def test_validate_fun_law_failure(capsys, tmp_path):
    doc = {
        "format": 1,
        "kind": "functor",
        "category": str(fixture_path("z2.category.json")),
        "variance": "co",
        "objects": {"*": ["0", "1"]},
        "morphisms": {"s": {"0": "0", "1": "0"}},
    }
    path = tmp_path / "badfun.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate-fun", str(path), "--format", "structured")
    assert code == 1
    report = json.loads(out)
    assert report["results"]["law"] == "composition"
    assert report["results"]["witness"]


def test_variance_mismatch_diagnostic(capsys):
    code, out, err = run(capsys, "unit", fx("z2_single.copresheaf.json"))
    assert code == 2
    assert "contra" in err


def test_hom(capsys):
    code, out, err = run(capsys, "hom", fx("z2.category.json"), "*", "*", "--format", "structured")
    assert code == 0
    assert json.loads(out)["results"]["morphisms"] == ["e", "s"]


def test_hom_unknown_object(capsys):
    code, out, err = run(capsys, "hom", fx("z2.category.json"), "*", "nope")
    assert code == 2


def test_nat(capsys):
    code, out, err = run(
        capsys, "nat", fx("z2_regular.presheaf.json"), fx("z2_regular.presheaf.json"),
        "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["results"]["count"] == 2


def test_nat_base_mismatch(capsys):
    code, out, err = run(capsys, "nat", fx("z2_regular.presheaf.json"), fx("arrow_pq_r.presheaf.json"))
    assert code == 2


def test_yoneda(capsys):
    code, out, err = run(capsys, "yoneda", fx("arrow.category.json"), "B", "--format", "structured")
    assert code == 0
    functor = json.loads(out)["results"]["functor"]
    assert functor["objects"] == {"A": ["f"], "B": ["id_B"]}


def test_yoneda_check(capsys):
    code, out, err = run(
        capsys, "yoneda-check", fx("arrow_pq_r.presheaf.json"), "A", "--format", "structured"
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["transformation_count"] == results["value_count"] == 2


def test_sum(capsys):
    code, out, err = run(
        capsys, "sum", fx("z2_regular.presheaf.json"), fx("z2_regular.presheaf.json"),
        "--format", "structured",
    )
    assert code == 0
    functor = json.loads(out)["results"]["functor"]
    assert functor["objects"]["*"] == ["L.0", "L.1", "R.0", "R.1"]


def test_conjugate(capsys):
    code, out, err = run(capsys, "conjugate", fx("terminal_pair.presheaf.json"), "--format", "structured")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["direction"] == "presheaf-to-copresheaf"
    assert results["conjugate"]["objects"]["*"] == ["t0"]


def test_adjunction_check(capsys):
    code, out, err = run(
        capsys, "adjunction-check", fx("arrow_pq_r.presheaf.json"), fx("arrow_point.copresheaf.json"),
        "--format", "structured",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["counts_equal"] and results["round_trip_ok"]
    assert results["left_count"] == results["right_count"]


def test_unit(capsys):
    code, out, err = run(capsys, "unit", fx("terminal_pair.presheaf.json"), "--format", "structured")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["is_isomorphism"] is False
    assert results["components"]["*"] == {"a": "t0", "b": "t0"}


def test_reflexive_scan(capsys):
    code, out, err = run(
        capsys, "reflexive-scan", fx("terminal.category.json"), "--max-set-size", "1",
        "--format", "structured",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["total"] == 2 and results["reflexive_count"] == 1


def test_reflexive_scan_budget_bounds_the_sweep(capsys):
    """Only the size vectors with candidates are swept, and each costs at
    least one unit, so a small budget stops a scan at any set size at once.
    Sweeping every vector, (0, *, *, *) included, takes about 10 s here."""
    start = time.perf_counter()
    code, out, err = run(
        capsys, "reflexive-scan", fx("square.category.json"), "--max-set-size", "150", "--budget", "1000",
    )
    assert code == 2 and not out and "budget exceeded" in err
    assert time.perf_counter() - start < 1.0


def test_metric_validate_ok(capsys):
    code, out, err = run(capsys, "metric-validate", fx("random5.metric.json"))
    assert code == 0


def test_metric_validate_violation(capsys, tmp_path):
    doc = {
        "format": 1,
        "kind": "metric",
        "points": ["1", "2", "3"],
        "d": [[0, 1, 10], [1, 0, 1], [10, 1, 0]],
    }
    path = tmp_path / "badmetric.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "metric-validate", str(path), "--format", "structured")
    assert code == 1
    report = json.loads(out)
    assert any(v["axiom"] == "triangle" for v in report["results"]["violations"])


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_a_usage_error(capsys, tmp_path, tol):
    # d(a, c) = 5 > d(a, b) + d(b, c) = 2: no tolerance may call this a metric
    doc = {"format": 1, "kind": "metric", "points": ["a", "b", "c"], "d": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
    path = tmp_path / "notmetric.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "metric-validate", str(path), "--tol", tol, "--format", "structured")
    assert code == 2
    assert out == ""
    assert err.startswith("catspan: error: tolerance must be finite and nonnegative")


def test_zero_tolerance_is_raised_to_the_floor(capsys):
    # validate_metric alone decides which tolerances fit; 0 is raised to TOL_SPACINGS spacings.
    code, out, err = run(capsys, "metric-validate", fx("two_point.metric.json"), "--tol", "0", "--format", "structured")
    assert code == 0
    assert json.loads(out)["config"] == {"budget": cli.DEFAULT_BUDGET, "tol": 0.0}


@pytest.mark.parametrize(
    "argv",
    [
        ["reflexive-scan", fx("terminal.category.json"), "--max-set-size", "-1"],
        ["sample-span", fx("two_point.metric.json"), "--count", "-1"],
        ["geodesic-check", fx("two_point.metric.json"), "--samples", "-1"],
        ["sample-span", fx("two_point.metric.json"), "--seed", "-1"],
    ],
    ids=lambda argv: argv[-2],
)
def test_negative_integer_option_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 2
    assert out == ""
    assert "must be nonnegative" in err and "internal error" not in err


NON_FINITE = [
    ([[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]], [["a", "b"], ["b", "a"]]),
    ([[0, 1, 1], [1, 0, math.inf], [1, 1, 0]], [["b", "c"]]),
    ([[0, 1, 1], [1, 0, math.inf], [1, math.inf, 0]], [["b", "c"], ["c", "b"]]),
    ([[0, 1, 1], [1, 0, -math.inf], [1, -math.inf, 0]], [["b", "c"], ["c", "b"]]),
    # JSON integers beyond the float range read as infinities, as 1e400 does
    ([[0, 10**400, 1], [10**400, 0, 1], [1, 1, 0]], [["a", "b"], ["b", "a"]]),
    ([[0, 1, -10**400], [1, 0, 1], [-10**400, 1, 0]], [["a", "c"], ["c", "a"]]),
]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("matrix,witnesses", NON_FINITE)
def test_non_finite_distances_are_violations(capsys, tmp_path, matrix, witnesses):
    path = tmp_path / "nonfinite.metric.json"
    path.write_text(json.dumps({"format": 1, "kind": "metric", "points": ["a", "b", "c"], "d": matrix}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "metric-validate", str(path), "--format", "structured")
    assert code == 1
    assert err == "" and caught == []  # no numpy RuntimeWarning from inf - inf
    violations = json.loads(out, parse_constant=_reject_constant)["results"]["violations"]
    assert violations[: len(witnesses)] == [{"axiom": "finite", "witness": w} for w in witnesses]
    assert all(v["axiom"] != "finite" for v in violations[len(witnesses):])

    code, out, err = run(capsys, "sample-span", str(path), "--format", "structured")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("subcommand", ["project", "geodesic-check"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_function_values_are_usage_errors(capsys, subcommand, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, subcommand, "--format", "structured", fx("two_point.metric.json"), "--", value, value,
        )
    assert code == 2
    assert out == "" and caught == []
    assert err.startswith("catspan: error: ") and err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("subcommand", ["project", "geodesic-check"])
def test_function_values_whose_sums_overflow_are_usage_errors(capsys, subcommand):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, subcommand, "--format", "structured", fx("two_point.metric.json"), "1e308", "1e308")
    assert code == 2
    assert out == "" and caught == []
    assert err.startswith("catspan: error: distance values must be at most ") and err.count("\n") == 1


def test_distances_whose_sums_overflow_are_violations(capsys, tmp_path):
    path = tmp_path / "huge.metric.json"
    d = [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]
    path.write_text(json.dumps({"format": 1, "kind": "metric", "points": ["a", "b", "c"], "d": d}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "metric-validate", str(path), "--format", "structured")
        assert code == 1 and err == ""
        violations = json.loads(out)["results"]["violations"]
        assert violations[0] == {"axiom": "oversized-entry", "witness": ["a", "b"]}
        assert {v["axiom"] for v in violations} == {"oversized-entry"} and len(violations) == 6
        for subcommand in ("tripod", "sample-span"):
            code, out, err = run(capsys, subcommand, str(path), "--format", "structured")
            assert code == 2 and out == ""
            assert err == f"catspan: error: {path}: not a valid metric (oversized-entry at ('a', 'b')); run metric-validate\n"
    assert caught == []


@pytest.mark.parametrize(
    "argv", [["sample-span", "--count", "10"], ["geodesic-check", "--samples", "10"]], ids=["sample-span", "geodesic-check"]
)
def test_sampling_does_not_read_the_iteration_cap(capsys, monkeypatch, argv):
    # Sampling lowers each start in one pass, with no rounds to cap.
    from catspan import tightspan

    path = fx("random5.metric.json")
    uncapped = run(capsys, *argv, path, "--format", "structured")
    assert uncapped[0] == 0
    monkeypatch.setattr(tightspan, "MAX_ITERATIONS", 0)
    assert run(capsys, *argv, path, "--format", "structured") == uncapped


def test_projection_stopped_at_the_iteration_cap_reports_it(capsys, monkeypatch):
    # (3, 3, 3) is admissible on the 3-4-5 triangle but not extremal: its
    # conjugate is (1, 2, 2), so the defect of the start is 2.
    from catspan import tightspan

    monkeypatch.setattr(tightspan, "MAX_ITERATIONS", 0)
    code, out, err = run(capsys, "project", fx("triangle345.metric.json"), "3", "3", "3", "--format", "structured")
    assert (code, err) == (1, "")
    assert json.loads(out)["results"] == {
        "converged": False, "reason": "iteration-cap", "iterations": 0, "final_defect": 2.0,
    }


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("scale", [1e10, 1e14])
def test_metrics_with_large_coordinates_validate_and_sample(capsys, tmp_path, scale, dim):
    # Six points under the L1 norm: float spacing at these distances lies
    # far above the default tolerance, which the tolerance floor absorbs.
    rng = random.Random(3)
    coords = [[rng.uniform(0, scale) for _ in range(dim)] for _ in range(6)]
    d = [[sum(abs(a - b) for a, b in zip(p, q)) for q in coords] for p in coords]
    path = tmp_path / "far.metric.json"
    path.write_text(json.dumps({"format": 1, "kind": "metric", "points": [f"p{i}" for i in range(6)], "d": d}))
    for argv in (["metric-validate"], ["sample-span", "--count", "10"], ["geodesic-check", "--samples", "10"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:], "--format", "structured")
        assert (code, err) == (0, ""), argv
        assert json.loads(out)["ok"] is True, argv


DUPLICATE_LABEL_FUNCTOR = {
    "format": 1, "kind": "functor", "category": "terminal.category.json", "variance": "contra",
    "objects": {"*": ["a", "a"]}, "morphisms": {},
}


@pytest.mark.parametrize(
    "subcommand,doc,field,detail",
    [
        ("validate-fun", DUPLICATE_LABEL_FUNCTOR, "objects.*", "duplicate element label 'a'"),
        ("metric-validate", {"format": 1, "kind": "metric", "points": ["a", "a"], "d": [[0, 1], [1, 0]]},
         "points", "duplicate point label 'a'"),
        ("metric-validate", {"format": 1, "kind": "metric", "points": [], "d": []}, "points", "at least one point"),
        ("validate-cat", {**BROKEN_CATEGORY, "identities": {"A": ["id_A"], "B": "id_B"}},
         "identities.A", "expected a morphism id"),
        # every JSON number reads as a float, also where a message echoes it
        ("validate-cat", {**BROKEN_CATEGORY, "format": 2}, "format", "expected format 1, got 2.0"),
        ("validate-cat", {**BROKEN_CATEGORY, "format": True}, "format", "expected format 1, got True"),
        ("validate-cat", {**BROKEN_CATEGORY, "objects": 3}, "objects", "expected list of labels, got float"),
        ("metric-validate", {"format": 1, "kind": "metric", "points": ["a", "b"], "d": [[0, 1], [1, True]]},
         "d[1][1]", "expected a number"),
    ],
    ids=["functor-duplicate", "metric-duplicate", "metric-empty", "identity-not-a-string",
         "format-integer", "format-boolean", "objects-integer", "distance-not-a-number"],
)
def test_bad_labels_are_parse_errors(capsys, tmp_path, subcommand, doc, field, detail):
    (tmp_path / "terminal.category.json").write_text(fixture_path("terminal.category.json").read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, subcommand, str(path), "--format", "structured")
    assert code == 2
    assert out == ""
    assert err.startswith(f"catspan: error: {path}: {field}: ") and detail in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("subcommand", ["metric-validate", "validate-cat"])
@pytest.mark.parametrize(
    "data,detail",
    [
        (b"\xff\xfe", "can't decode byte 0xff"),
        (b"[" * 100_000, "recursion"),
    ],
    ids=["not-utf8", "deep-nesting"],
)
def test_undecodable_documents_are_parse_errors(capsys, tmp_path, subcommand, data, detail):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, subcommand, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"catspan: error: {path}: <file>: invalid JSON: ") and detail in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("subcommand", ["metric-validate", "validate-cat"])
def test_long_integer_header_is_a_parse_error(capsys, tmp_path, subcommand):
    """A literal past Python's digit limit for int reads as a float, so the
    header check, not the JSON reader, rejects it."""
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"format": ' + b"7" * 5000 + b"}")
    code, out, err = run(capsys, subcommand, str(path))
    assert (code, out) == (2, "")
    assert err == f"catspan: error: {path}: format: expected format 1, got inf\n"


@pytest.mark.parametrize("digits", [400, 5000])
def test_long_integer_distances_are_not_finite(capsys, tmp_path, digits):
    """One verdict for an integer literal beyond the float range, whether or
    not it also passes Python's digit limit for int."""
    big = "7" * digits
    path = tmp_path / "long.metric.json"
    path.write_text(f'{{"format": 1, "kind": "metric", "points": ["a", "b"], "d": [[0, {big}], [{big}, 0]]}}')
    code, out, err = run(capsys, "metric-validate", str(path), "--format", "structured")
    assert (code, err) == (1, "")
    violations = json.loads(out, parse_constant=_reject_constant)["results"]["violations"]
    assert violations == [{"axiom": "finite", "witness": w} for w in (["a", "b"], ["b", "a"])]


def test_integer_and_float_literals_read_alike(capsys, tmp_path):
    """One metric written with int literals and with float literals: the
    same results, valid and projected."""
    d = [[0, 3, 4, 5], [3, 0, 5, 4], [4, 5, 0, 3], [5, 4, 3, 0]]
    results = {}
    for spelling, convert in (("int", int), ("float", float)):
        path = tmp_path / f"{spelling}.metric.json"
        doc = {"format": 1, "kind": "metric", "points": list("abcd"), "d": [[convert(x) for x in row] for row in d]}
        path.write_text(json.dumps(doc))
        assert (".0" in path.read_text()) == (spelling == "float")
        for argv in (["metric-validate"], ["project", "3", "3", "3", "4"]):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:], "--format", "structured")
            assert (code, err) == (0, ""), argv
            results[spelling, argv[0]] = json.loads(out)["results"]
    for command in ("metric-validate", "project"):
        assert results["int", command] == results["float", command]


def test_tripod(capsys):
    code, out, err = run(capsys, "tripod", fx("triangle345.metric.json"), "--format", "structured")
    assert code == 0
    assert json.loads(out)["results"]["legs"] == [1.0, 2.0, 3.0]


def test_tripod_of_a_metric_valid_within_tol(capsys, tmp_path):
    # d(a, c) exceeds d(a, b) + d(b, c) by 5e-10: leg b is clamped at 0.
    path = tmp_path / "almost.metric.json"
    d = [[0, 1, 2 + 5e-10], [1, 0, 1], [2 + 5e-10, 1, 0]]
    path.write_text(json.dumps({"format": 1, "kind": "metric", "points": ["a", "b", "c"], "d": d}))
    assert run(capsys, "metric-validate", str(path))[0] == 0
    code, out, err = run(capsys, "tripod", str(path), "--format", "structured")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["legs"][1] == 0.0


def test_tripod_wrong_point_count(capsys):
    code, out, err = run(capsys, "tripod", fx("two_point.metric.json"))
    assert code == 2


def test_project(capsys):
    code, out, err = run(
        capsys, "project", fx("two_point.metric.json"), "2", "2", "--format", "structured"
    )
    assert code == 0
    assert json.loads(out)["results"]["output"] == {"x1": 1.0, "x2": 1.0}


def test_project_inadmissible_exit_one(capsys):
    code, out, err = run(
        capsys, "project", fx("two_point.metric.json"), "0.5", "1.0", "--format", "structured"
    )
    assert code == 1
    results = json.loads(out)["results"]
    assert results["reason"] == "inadmissible" and results["witness"]


def test_geodesic_check_samples(capsys):
    code, out, err = run(
        capsys, "geodesic-check", fx("triangle345.metric.json"), "--samples", "10",
        "--format", "structured",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["all_ok"] and results["pairs_checked"] == 30


def test_geodesic_check_explicit_not_extremal(capsys):
    code, out, err = run(
        capsys, "geodesic-check", fx("two_point.metric.json"), "2", "2", "--format", "structured"
    )
    assert code == 1
    assert json.loads(out)["results"]["reason"] == "input-not-extremal"


def test_sample_span(capsys):
    code, out, err = run(
        capsys, "sample-span", fx("two_point.metric.json"), "--count", "5", "--format", "structured"
    )
    assert code == 0
    assert len(json.loads(out)["results"]["samples"]) == 5


def test_unknown_subcommand(capsys):
    assert main(["no-such-command"]) == 2


def test_budget_exceeded_exit_two(capsys):
    code, out, err = run(
        capsys, "nat", fx("z2_regular.presheaf.json"), fx("z2_regular.presheaf.json"),
        "--budget", "1",
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_non_positive_budget_is_a_usage_error(capsys, budget):
    code, out, err = run(capsys, "nat", fx("z2_regular.presheaf.json"), fx("z2_regular.presheaf.json"), "--budget", budget)
    assert code == 2
    assert out == ""
    assert err == "catspan: error: budget cap must be positive\n"


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "tripod", fx("triangle345.metric.json"), "--format", "structured",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["results"]["legs"] == [1.0, 2.0, 3.0]


def test_structured_reports_byte_identical(capsys):
    args = ["geodesic-check", fx("random5.metric.json"), "--samples", "25", "--format", "structured"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_input_digest_covers_the_referenced_category(capsys, tmp_path):
    # Byte-identical functor files in two directories, each referencing its
    # own c.json; the two c.json hold the same category, written differently.
    functor = json.dumps({
        "format": 1, "kind": "functor", "category": "c.json", "variance": "contra",
        "objects": {"*": ["a"]}, "morphisms": {},
    }).encode()
    category = json.loads(fixture_path("terminal.category.json").read_text())
    digests = []
    for name, indent in (("one", None), ("two", 4)):
        (tmp_path / name).mkdir()
        f, c = tmp_path / name / "f.json", tmp_path / name / "c.json"
        f.write_bytes(functor)
        c.write_text(json.dumps(category, indent=indent))
        for argv, read in ((["validate-fun", str(f)], [f, c]), (["nat", str(f), str(f)], [f, c])):
            code, out, err = run(capsys, *argv, "--format", "structured")
            assert code == 0, err
            inputs = json.loads(out)["inputs"]
            assert inputs["paths"] == [str(path) for path in read]
            assert inputs["sha256"] == hashlib.sha256(b"".join(path.read_bytes() for path in read)).hexdigest()
        digests.append(inputs["sha256"])
    assert digests[0] != digests[1]


def test_shared_category_is_loaded_once(capsys):
    code, out, err = run(capsys, "nat", fx("z2_regular.presheaf.json"), fx("z2_two_fixed.presheaf.json"), "--format", "structured")
    assert code == 0, err
    paths = json.loads(out)["inputs"]["paths"]
    assert paths == [fx("z2_regular.presheaf.json"), fx("z2.category.json"), fx("z2_two_fixed.presheaf.json")]
    with recording_reads():
        left, right = load_functor(fx("z2_regular.presheaf.json")), load_functor(fx("z2_regular.copresheaf.json"))
    assert left.base is right.base
    # Outside a block every load is its own.
    assert load_functor(fx("z2_regular.presheaf.json")).base is not left.base


def test_same_functor_document_is_loaded_once(capsys, tmp_path):
    f, c = tmp_path / "f.json", tmp_path / "c.json"
    c.write_bytes(Path(fx("z2.category.json")).read_bytes())
    f.write_text(json.dumps({**json.loads(Path(fx("z2_regular.presheaf.json")).read_text()), "category": "c.json"}))
    code, out, err = run(capsys, "nat", str(f), str(f), "--format", "structured")
    assert code == 0, err
    assert json.loads(out)["inputs"]["paths"] == [str(f), str(c)]
    with recording_reads():
        left, right = load_functor(f), load_functor(tmp_path / "." / "f.json")
    assert left is right
    assert load_functor(f) is not left


def test_deep_nat_is_not_limited_by_recursion(capsys, tmp_path):
    # 1,500 free slots and exactly one transformation into a singleton.
    paths = []
    for name, size in (("big", 1500), ("one", 1)):
        doc = {
            "format": 1,
            "kind": "functor",
            "category": fx("terminal.category.json"),
            "variance": "contra",
            "objects": {"*": [f"e{i}" for i in range(size)]},
            "morphisms": {},
        }
        paths.append(tmp_path / f"{name}.presheaf.json")
        paths[-1].write_text(json.dumps(doc))
    code, out, err = run(capsys, "nat", *map(str, paths), "--format", "structured")
    assert code == 0, err
    assert json.loads(out)["results"]["count"] == 1


def test_unexpected_error_exits_two_with_one_line(capsys, monkeypatch):
    def broken_handler(args, budget):
        raise RuntimeError("handler failed")

    help_line, arguments, _ = cli.COMMANDS["tripod"]
    monkeypatch.setitem(cli.COMMANDS, "tripod", (help_line, arguments, broken_handler))
    code, out, err = run(capsys, "tripod", fx("triangle345.metric.json"))
    assert code == 2
    assert err.startswith("catspan: ") and err.count("\n") == 1
    assert err == "catspan: internal error: RuntimeError: handler failed\n" and out == ""


def test_a_run_builds_the_parser_of_its_subcommand_alone(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    code, out, err = run(capsys, "validate-cat", fx("terminal.category.json"))
    assert (code, err) == (0, "")
    assert built == ["catspan", "catspan validate-cat"]


@pytest.mark.parametrize("target", ["directory", "missing/report.json"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, target):
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / target)
    code, out, err = run(capsys, "tripod", fx("triangle345.metric.json"), "--output", path)
    assert code == 2 and out == ""
    assert err.startswith(f"catspan: error: {path}: ") and err.count("\n") == 1, err


LOCAL_DOCUMENTS = {
    "empty.category.json": {"format": 1, "kind": "category", "objects": [], "morphisms": [], "identities": {}, "compose": []},
    "empty.presheaf.json": {
        "format": 1, "kind": "functor", "category": "empty.category.json", "variance": "contra",
        "objects": {}, "morphisms": {},
    },
    "repeated.category.json": {
        "format": 1, "kind": "category", "objects": ["A", "A"], "morphisms": [{"id": "id_A", "src": "A", "tgt": "A"}],
        "identities": {"A": "id_A"}, "compose": [["id_A", "id_A", "id_A"]],
    },
}


def test_usage_errors_are_input_errors():
    for error in (ParseError, StructuralError, UnknownObjectError):
        assert issubclass(error, InputError), error


@pytest.mark.parametrize(
    "argv,keyword",
    [
        (["nat", "z2_regular.presheaf.json", "arrow_pq_r.presheaf.json"], "base"),
        (["nat", "z2_regular.presheaf.json", "z2_regular.copresheaf.json"], "variance"),
        (["sum", "z2_regular.presheaf.json", "arrow_pq_r.presheaf.json"], "base"),
        (["sum", "z2_regular.presheaf.json", "z2_regular.copresheaf.json"], "variance"),
        (["unit", "z2_single.copresheaf.json"], "variant"),
        (["yoneda-check", "z2_single.copresheaf.json", "*"], "variant"),
        (["adjunction-check", "z2_regular.copresheaf.json", "z2_regular.copresheaf.json"], "variant"),
        (["adjunction-check", "z2_regular.presheaf.json", "z2_regular.presheaf.json"], "variant"),
        (["adjunction-check", "z2_regular.presheaf.json", "arrow_point.copresheaf.json"], "base"),
        (["yoneda", "z2.category.json", "nope"], "unknown object"),
        (["yoneda-check", "z2_regular.presheaf.json", "nope"], "unknown object"),
        (["yoneda", "empty.category.json", "nope"], "unknown object"),
        (["yoneda-check", "empty.presheaf.json", "nope"], "unknown object"),
        (["tripod", "two_point.metric.json"], "tripod"),
        (["tripod", "random5.metric.json"], "tripod"),
        (["project", "two_point.metric.json", "1", "2", "3"], "values"),
        (["geodesic-check", "two_point.metric.json", "1"], "values"),
        (["validate-cat", "repeated.category.json"], "duplicate object label 'A'"),
    ],
)
def test_arguments_that_do_not_fit_are_usage_errors(capsys, tmp_path, argv, keyword):
    """Functors over different bases or of the wrong variance, an unknown
    object (also in a category without objects), a tripod on other than
    three points, a function with the wrong number of values and a category
    that does not resolve: exit 2 with one diagnostic line and no report."""
    for name, doc in LOCAL_DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    subcommand, *rest = argv
    paths = [str(tmp_path / a) if a in LOCAL_DOCUMENTS else fx(a) if a.endswith(".json") else a for a in rest]
    code, out, err = run(capsys, subcommand, *paths)
    assert (code, out) == (2, "")
    assert err.startswith("catspan: error: ") and err.count("\n") == 1, err
    assert "internal error" not in err and keyword in err, err
