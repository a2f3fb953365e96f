"""Start-up: numpy is imported only by the tight span, the conjugation
module only by the conjugation subcommands, and no subcommand imports
``dataclasses`` or, apart from what numpy loads, ``inspect``.

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
from test_acceptance import CLI_SUITE

SRC = Path(catspan.__file__).resolve().parents[1]
METRIC_SUBCOMMANDS = {"metric-validate", "tripod", "project", "geodesic-check", "sample-span"}
CONJUGATION_SUBCOMMANDS = {"conjugate", "adjunction-check", "unit", "reflexive-scan"}
CATEGORY_COMMANDS = [argv for argv in CLI_SUITE if argv[0] not in METRIC_SUBCOMMANDS]


def run_python(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=fixture_path("terminal.category.json").parent,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_category_commands_do_not_import_numpy():
    script = """
import contextlib, io, json, sys
import catspan.cli
seen = [["import catspan.cli", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = catspan.cli.main(argv + ["--format", "structured"])
    seen.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(seen))
"""
    metric = ["metric-validate", "random5.metric.json"]
    seen = json.loads(run_python(script, json.dumps([*CATEGORY_COMMANDS, metric])))
    assert {argv[0] for argv in CATEGORY_COMMANDS} == set(catspan.cli.HANDLERS) - METRIC_SUBCOMMANDS
    assert [code for _, code, _ in seen] == [0] * len(seen)
    assert [command for command, _, numpy in seen if numpy] == [" ".join(metric)]


def test_each_command_imports_only_what_it_runs():
    """Every command of the suite in its own interpreter. numpy itself
    imports ``inspect``, so the metric subcommands are exempt from that one."""
    script = """
import contextlib, io, json, sys
import catspan.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = catspan.cli.main(sys.argv[1:] + ["--format", "structured"])
print(json.dumps([code] + [name in sys.modules for name in ("dataclasses", "inspect", "catspan.isbell")]))
"""
    with ThreadPoolExecutor(max_workers=2) as pool:
        seen = list(pool.map(lambda argv: json.loads(run_python(script, *argv)), CLI_SUITE))
    for argv, (code, dataclasses, inspect, isbell) in zip(CLI_SUITE, seen):
        assert code == 0, argv
        assert not dataclasses, argv
        assert not inspect or argv[0] in METRIC_SUBCOMMANDS, argv
        assert isbell == (argv[0] in CONJUGATION_SUBCOMMANDS), argv
    assert CONJUGATION_SUBCOMMANDS <= {argv[0] for argv in CLI_SUITE}


def test_tightspan_names_resolve_on_first_use():
    script = """
import sys
import catspan
assert "catspan.tightspan" not in sys.modules and "numpy" not in sys.modules
from catspan import DistanceFunction, validate_metric
tightspan = catspan.tightspan
assert tightspan is sys.modules["catspan.tightspan"] and "numpy" in sys.modules
assert validate_metric is tightspan.validate_metric and DistanceFunction is tightspan.DistanceFunction
print(sorted(name for name in catspan._TIGHTSPAN_NAMES if getattr(catspan, name) is getattr(tightspan, name)))
"""
    resolved = run_python(script)
    assert resolved.strip() == str(sorted(catspan._TIGHTSPAN_NAMES))
    assert len(catspan._TIGHTSPAN_NAMES) == 19


def test_isbell_names_resolve_on_first_use():
    script = """
import sys
import catspan
assert "catspan.isbell" not in sys.modules
from catspan import unit
isbell = catspan.isbell
assert isbell is sys.modules["catspan.isbell"] and unit is isbell.unit
print(sorted(name for name in catspan._ISBELL_NAMES if getattr(catspan, name) is getattr(isbell, name)))
"""
    assert run_python(script).strip() == str(sorted(catspan._ISBELL_NAMES))
    assert len(catspan._ISBELL_NAMES) == 10


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        catspan.no_such_name
    assert not hasattr(catspan, "no_such_name")
