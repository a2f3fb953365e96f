"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line. Everything runs off the bundled fixture corpus."""

import time
from contextlib import contextmanager

from catspan import (
    adjunction_transpose,
    conjugate_presheaf,
    coyoneda,
    enumerate_nat,
    extremality_defect,
    geodesic_witness,
    is_natural_iso,
    iso_check,
    kuratowski_embed,
    sample_tight_span,
    tight_span_distance,
    tripod,
    unit,
    yoneda,
    yoneda_lemma_bijection,
)
from catspan.cli import main
from catspan.corpus import fixture_path

from oracles import brute_force_nat, family_key, family_of, unpruned_family_count


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_yoneda_lemma_suite(categories, presheaves):
    started = time.perf_counter()
    with criterion(1, "representable bijection exact on every (category, object, presheaf)"):
        checked = 0
        for name, cat in categories.items():
            for functor in presheaves[name]:
                assert all(len(functor.at(obj)) <= 3 for obj in cat.objects)
                for x in cat.objects:
                    wit = yoneda_lemma_bijection(functor, x)
                    assert len(wit.transformations) == len(functor.at(x)), (name, x)
                    fwd = wit.bijection.forward.mapping
                    bwd = wit.bijection.backward.mapping
                    assert all(bwd[fwd[k]] == k for k in fwd), (name, x)
                    assert all(fwd[bwd[k]] == k for k in bwd), (name, x)
                    checked += 1
        assert checked == sum(len(cat.objects) * 2 for cat in categories.values())
    assert time.perf_counter() - started < 60.0


def test_criterion_2_adjunction_suite(categories, presheaves, copresheaves):
    started = time.perf_counter()
    with criterion(2, "hom-set cardinalities equal and transpose involutive on every corpus pair"):
        pairs = 0
        for name in categories:
            for f in presheaves[name]:
                for g in copresheaves[name]:
                    w = adjunction_transpose(f, g)
                    assert len(w.left_homset) == len(w.right_homset), name
                    fwd = w.transpose.forward.mapping
                    bwd = w.transpose.backward.mapping
                    for i in range(len(w.left_homset)):
                        assert bwd[fwd[f"l{i}"]] == f"l{i}", (name, i)
                    for j in range(len(w.right_homset)):
                        assert fwd[bwd[f"r{j}"]] == f"r{j}", (name, j)
                    pairs += 1
        assert pairs >= 20
    assert time.perf_counter() - started < 300.0


def test_criterion_3_representable_fixed_points(categories):
    with criterion(3, "conjugate of a representable is corepresentable and its unit is an isomorphism"):
        for name, cat in categories.items():
            for x in cat.objects:
                pair = conjugate_presheaf(yoneda(cat, x))
                assert iso_check(pair.conjugate, coyoneda(cat, x)) is not None, (name, x)
                assert is_natural_iso(unit(yoneda(cat, x))), (name, x)


def test_criterion_4_enumeration_matches_oracle(categories, presheaves, copresheaves):
    with criterion(4, "pruned enumerator agrees with the unpruned oracle on every feasible instance"):
        instances = 0
        for name, cat in categories.items():
            pool = presheaves[name] + copresheaves[name]
            pool += [yoneda(cat, x) for x in cat.objects]
            pool += [coyoneda(cat, x) for x in cat.objects]
            for f in pool:
                for g in pool:
                    if f.variance != g.variance:
                        continue
                    if unpruned_family_count(f, g) > 10**6:
                        continue
                    expected = {family_key(fam) for fam in brute_force_nat(f, g)}
                    actual = {family_key(family_of(t)) for t in enumerate_nat(f, g)}
                    assert actual == expected, (name, instances)
                    instances += 1
        assert instances >= 100


def test_criterion_5_non_reflexive_witnesses(categories, presheaves):
    with criterion(5, "two-element presheaf loses injectivity, empty presheaf loses surjectivity"):
        two_element = presheaves["terminal"][0]
        u = unit(two_element)
        assert len(u.target.at("*")) == 1
        assert u.components["*"].mapping == {"a": "t0", "b": "t0"}  # not injective

        empty = presheaves["terminal"][1]
        u0 = unit(empty)
        assert len(u0.source.at("*")) == 0
        assert len(u0.target.at("*")) == 1  # nonempty target, empty image


def test_criterion_6_tight_span_suite(metrics):
    started = time.perf_counter()
    with criterion(6, "tripod legs, exact embedding isometry, geodesic witnesses, projection convergence"):
        legs = tripod(metrics["triangle345"]).legs
        assert max(abs(a - b) for a, b in zip(legs, (1.0, 2.0, 3.0))) <= 1e-9

        for name, space in metrics.items():
            for i, x in enumerate(space.points):
                ex = kuratowski_embed(space, x)
                for j, y in enumerate(space.points):
                    assert tight_span_distance(ex, kuratowski_embed(space, y)) == space.dist[i][j], name

        for name, space in metrics.items():
            samples = sample_tight_span(space, 100, seed=0)
            assert len(samples) == 100, name
            for k, f in enumerate(samples):
                assert extremality_defect(f).defect <= 1e-9, (name, k)
                for x in space.points:
                    w = geodesic_witness(f, x)
                    assert abs(f.value(x) + f.value(w) - space.distance(x, w)) <= 1e-6, (name, k, x)
    assert time.perf_counter() - started < 30.0


CLI_SUITE = [
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


def _run_cli_suite(capsys) -> bytes:
    chunks = []
    for entry in CLI_SUITE:
        argv = [
            arg if arg.startswith("--") or not arg.endswith(".json") else str(fixture_path(arg))
            for arg in entry
        ]
        code = main(argv + ["--format", "structured"])
        assert code == 0, entry
        chunks.append(capsys.readouterr().out)
    return "".join(chunks).encode()


def test_criterion_7_cli_determinism(capsys):
    with criterion(7, "full CLI suite is byte-deterministic in structured mode"):
        first = _run_cli_suite(capsys)
        second = _run_cli_suite(capsys)
        assert first == second
        assert len(first) > 0
