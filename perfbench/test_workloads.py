"""Tests of the benchmark's input generation.

    PYTHONPATH=src python3 -m pytest perfbench

Generation must be deterministic per seed, different across seeds, and
every generated document must parse and pass the library's own law
checks, so that the timed runs measure work rather than input errors.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from catspan.fileformat import ParseError, load_category, load_functor, load_metric_document  # noqa: E402
from catspan.fincat import validate_category  # noqa: E402
from catspan.setfunc import FunctorLawError  # noqa: E402

FIXTURES = HERE.parent / "src" / "catspan" / "fixtures"
# Documents that are malformed or law-breaking on purpose.
INVALID = {"broken.category.json", "bad.presheaf.json", "nan.metric.json"}


def generate(workload: str, seed: int, root: Path):
    tasks, probes = workloads.build(workload, seed, root, FIXTURES)
    docs = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
    return [(t.name, t.argv, t.expect_exit) for t in tasks + probes], docs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload, tmp_path):
    first = generate(workload, 7, tmp_path / "a")
    again = generate(workload, 7, tmp_path / "a")
    other = generate(workload, 8, tmp_path / "b")
    assert first == again
    assert first[1] != other[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_document_parses(workload, tmp_path):
    workloads.build(workload, 3, tmp_path, FIXTURES)
    for path in sorted(tmp_path.iterdir()):
        kind = path.name.split(".")[-2]
        if path.name in INVALID or path.name.startswith("bad100-"):
            continue
        if kind == "category":
            assert validate_category(load_category(path)).ok, path.name
        elif kind in ("presheaf", "copresheaf"):
            functor = load_functor(path)
            assert (functor.variance == "contravariant") == (kind == "presheaf"), path.name
        else:
            points, matrix = load_metric_document(path)
            assert len(matrix) == len(points)


def test_deliberately_invalid_documents_are_rejected(tmp_path):
    workloads.build("cli-small", 3, tmp_path, FIXTURES)
    with pytest.raises(ParseError):
        load_category(tmp_path / "broken.category.json")
    with pytest.raises(FunctorLawError):
        load_functor(tmp_path / "bad.presheaf.json")
    points, matrix = load_metric_document(tmp_path / "nan.metric.json")
    assert matrix[0][1] != matrix[0][1]


def test_task_names_are_unique_and_inputs_exist(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for workload in workloads.WORKLOADS:
        tasks, probes = workloads.build(workload, 1, Path("docs") / workload, FIXTURES)
        names = [t.name for t in tasks + probes]
        assert len(names) == len(set(names))
        for t in tasks + probes:
            for arg in t.argv:
                if arg.endswith(".json"):
                    assert Path(arg).is_file(), arg


def test_closed_forms():
    # Labelled presheaves with value sets of size <= 2 on a 4-chain, and on
    # an antichain, where there are no covers: 3^4 size vectors.
    assert workloads.forest_count([1, 2, 3, None], 2) == 211
    assert workloads.forest_count([None] * 4, 2) == 81
    # Z_4-sets on at most 3 labelled elements: 1 + 1 + 2 + 4 permutations.
    assert workloads.cyclic_count(4, 3) == 8
    z5 = workloads.cyclic(5)
    assert z5.compose[("g3", "g4")] == "g2"
    y = workloads.representable(z5, "*", "contra")
    assert y.action["g1"]["g4"] == "g0"


def test_geodesic_check_uses_the_paired_samples(tmp_path):
    tasks, _ = workloads.build("metric", 2, tmp_path, FIXTURES)
    by_name = {t.name: t for t in tasks}
    sampler = by_name["sample-100x20-l1"]
    geodesic = by_name["geodesic-100x20-l1"]
    seed = sampler.argv[sampler.argv.index("--seed") + 1]
    assert geodesic.argv[geodesic.argv.index("--seed") + 1] == seed
    doc = json.loads(Path(sampler.argv[1]).read_text())
    assert len(doc["points"]) == 100
