"""Start-up: numpy is imported only where the tight span works on a metric
of ``tightspan.NUMPY_FROM`` points or more or samples with a work of
``tightspan.SAMPLE_NUMPY_WORK`` or more, the conjugation module only by
the conjugation subcommands, the category modules by no
metric subcommand, and no subcommand imports ``dataclasses`` or, apart
from what numpy loads, ``inspect``.

Each check that depends on what a fresh interpreter has imported runs in a
subprocess, since this test process has long since loaded numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import catspan
import catspan.cli
from catspan.corpus import fixture_path
from catspan.tightspan import NUMPY_FROM, SAMPLE_NUMPY_WORK
from test_acceptance import CLI_SUITE

SRC = Path(catspan.__file__).resolve().parents[1]
METRIC_SUBCOMMANDS = {"metric-validate", "tripod", "project", "geodesic-check", "sample-span"}
CONJUGATION_SUBCOMMANDS = {"conjugate", "adjunction-check", "unit", "reflexive-scan"}
CATEGORY_COMMANDS = [argv for argv in CLI_SUITE if argv[0] not in METRIC_SUBCOMMANDS]
# Commands that read a category and check its laws, and nothing more.
CATEGORY_ONLY_SUBCOMMANDS = {"validate-cat", "hom"}
LIBRARY_MODULES = ("catspan.fincat", "catspan.setfunc", "catspan.isbell", "catspan.tightspan")
# Metric commands on the corpus, whose metrics are far below NUMPY_FROM
# points: they run on Python floats.
SMALL_METRIC_COMMANDS = [
    ["metric-validate", "random5.metric.json"],
    ["tripod", "triangle345.metric.json"],
    ["project", "triangle345.metric.json", "3", "3", "3"],
    ["geodesic-check", "triangle345.metric.json", "1", "2", "3"],
]
# Sampling: sample-span, and geodesic-check given no function values. On
# the corpus the jobs are small, so they draw and project without numpy.
SAMPLING_COMMANDS = [
    argv for argv in CLI_SUITE
    if argv[0] == "sample-span" or argv[0] == "geodesic-check" and argv[2] == "--samples"
]


def run_python(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=fixture_path("terminal.category.json").parent,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def line_metric(tmp_path, n: int) -> str:
    """The metric of n points on a line, one apart, written to a file."""
    d = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
    path = tmp_path / f"line{n}.metric.json"
    path.write_text(json.dumps({"format": 1, "kind": "metric", "points": [f"p{i}" for i in range(n)], "d": d}))
    return str(path)


def test_category_commands_do_not_import_numpy(tmp_path):
    """Nor do the metric commands on small metrics, sampling included, which
    also leave out ``inspect``, in one interpreter; validating a
    NUMPY_FROM-point metric then loads numpy."""
    script = """
import contextlib, io, json, sys
import catspan.cli
seen = [["import catspan.cli", 0, "numpy" in sys.modules, "inspect" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = catspan.cli.main(argv + ["--format", "structured"])
    seen.append([" ".join(argv), code, "numpy" in sys.modules, "inspect" in sys.modules])
print(json.dumps(seen))
"""
    large_metric = ["metric-validate", line_metric(tmp_path, NUMPY_FROM)]
    commands = [*CATEGORY_COMMANDS, *SMALL_METRIC_COMMANDS, *SAMPLING_COMMANDS, large_metric]
    seen = json.loads(run_python(script, json.dumps(commands)))
    assert {argv[0] for argv in CATEGORY_COMMANDS} == set(catspan.cli.COMMANDS) - METRIC_SUBCOMMANDS
    assert {argv[0] for argv in SMALL_METRIC_COMMANDS + SAMPLING_COMMANDS} == METRIC_SUBCOMMANDS
    assert [code for _, code, _, _ in seen] == [0] * len(seen)
    assert [command for command, _, numpy, _ in seen if numpy] == [" ".join(large_metric)]
    assert [command for command, _, _, inspect in seen[:-1] if inspect] == []


def test_each_command_imports_only_what_it_runs(tmp_path):
    """Every command of the suite in its own interpreter, none of which
    loads numpy, which itself imports ``inspect``; then a sampling job
    large enough to project in numpy, which loads it but not numpy.random."""
    script = """
import contextlib, io, json, sys
libraries = json.loads(sys.argv[1])
import catspan.cli
loaded_by_import = [name for name in libraries if name in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = catspan.cli.main(sys.argv[2:] + ["--format", "structured"])
names = ("dataclasses", "inspect", "numpy", "numpy.random", *libraries)
print(json.dumps([code, loaded_by_import, [name for name in names if name in sys.modules]]))
"""
    libraries = json.dumps(LIBRARY_MODULES)
    large_sampling = ["sample-span", line_metric(tmp_path, 50), "--count", "500"]
    assert 500 * 50 * 50 >= SAMPLE_NUMPY_WORK
    commands = [*CLI_SUITE, large_sampling]
    with ThreadPoolExecutor(max_workers=2) as pool:
        seen = list(pool.map(lambda argv: json.loads(run_python(script, libraries, *argv)), commands))
    for argv, (code, loaded_by_import, loaded) in zip(commands, seen):
        assert code == 0, argv
        assert loaded_by_import == [], argv
        assert "dataclasses" not in loaded, argv
        assert ("numpy" in loaded) == (argv is large_sampling), argv
        assert "numpy.random" not in loaded, argv
        assert "inspect" not in loaded or argv is large_sampling, argv
        assert ("catspan.isbell" in loaded) == (argv[0] in CONJUGATION_SUBCOMMANDS), argv
        assert ("catspan.tightspan" in loaded) == (argv[0] in METRIC_SUBCOMMANDS), argv
        assert ("catspan.fincat" in loaded) == (argv[0] not in METRIC_SUBCOMMANDS), argv
        setfunc = argv[0] not in METRIC_SUBCOMMANDS | CATEGORY_ONLY_SUBCOMMANDS
        assert ("catspan.setfunc" in loaded) == setfunc, argv
    commands = {argv[0] for argv in CLI_SUITE}
    assert {argv[0] for argv in SAMPLING_COMMANDS} == {"sample-span", "geodesic-check"}
    assert len(SAMPLING_COMMANDS) == 3
    assert CONJUGATION_SUBCOMMANDS | METRIC_SUBCOMMANDS | CATEGORY_ONLY_SUBCOMMANDS <= commands


def test_category_names_resolve_on_first_use():
    script = """
import sys
import catspan
assert not [name for name in sys.modules if name.startswith("catspan.")]
from catspan import FinCategory, Budget, enumerate_nat
assert "catspan.isbell" not in sys.modules and "numpy" not in sys.modules
core, fincat, setfunc = catspan.core, catspan.fincat, catspan.setfunc
assert FinCategory is fincat.FinCategory and enumerate_nat is setfunc.enumerate_nat
assert Budget is core.Budget is setfunc.Budget
assert core.StructuralError is fincat.StructuralError and core.Frozen is fincat.Frozen is setfunc.Frozen
import catspan.cli as cli
assert core.InputError is cli.InputError is setfunc.InputError
print(sorted(name for module in ("core", "fincat", "setfunc") for name in catspan._EXPORTS[module]
             if getattr(catspan, name) is getattr(getattr(catspan, module), name)))
"""
    names = [name for module in ("core", "fincat", "setfunc") for name in catspan._EXPORTS[module]]
    assert run_python(script).strip() == str(sorted(names))
    assert len(names) == 41


def test_tightspan_names_resolve_on_first_use():
    script = """
import sys
import catspan
assert "catspan.tightspan" not in sys.modules and "numpy" not in sys.modules
from catspan import DistanceFunction, validate_metric
tightspan = catspan.tightspan
assert tightspan is sys.modules["catspan.tightspan"]
assert "catspan.fincat" not in sys.modules and "catspan.setfunc" not in sys.modules
assert validate_metric is tightspan.validate_metric and DistanceFunction is tightspan.DistanceFunction
assert tightspan.DEFAULT_TOL is catspan.DEFAULT_TOL is catspan.core.DEFAULT_TOL
resolved = sorted(name for name in catspan._EXPORTS["tightspan"] if getattr(catspan, name) is getattr(tightspan, name))
assert "numpy" not in sys.modules
print(resolved)
"""
    resolved = run_python(script)
    assert resolved.strip() == str(sorted(catspan._EXPORTS["tightspan"]))
    assert len(catspan._EXPORTS["tightspan"]) == 18


def test_isbell_names_resolve_on_first_use():
    script = """
import sys
import catspan
assert "catspan.isbell" not in sys.modules
from catspan import unit
isbell = catspan.isbell
assert isbell is sys.modules["catspan.isbell"] and unit is isbell.unit
print(sorted(name for name in catspan._EXPORTS["isbell"] if getattr(catspan, name) is getattr(isbell, name)))
"""
    assert run_python(script).strip() == str(sorted(catspan._EXPORTS["isbell"]))
    assert len(catspan._EXPORTS["isbell"]) == 10


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        catspan.no_such_name
    assert not hasattr(catspan, "no_such_name")
