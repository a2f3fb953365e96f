"""The ``python -m catspan.cli`` entry point, which flushes stdout and
stderr and leaves through ``os._exit``: piped, block-buffered output must
still carry every byte, and the exit code and stderr must be those of
``main``.

Each check runs a fresh interpreter with ``PYTHONUNBUFFERED`` unset, so
that stdout is buffered as it is for a user's pipe.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catspan
from catspan.corpus import fixture_path
from test_golden import CASES, GOLDEN

SRC = Path(catspan.__file__).resolve().parents[1]
FIXTURES = fixture_path("terminal.category.json").parent
CASE_BY_NAME = {name: (cwd, argv) for name, cwd, argv in CASES}


def cli(*argv: str, cwd: Path = FIXTURES, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "catspan.cli", *argv],
        cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
    )


@pytest.mark.parametrize("name", ["scan-square-2", "c7-30-geodesic-check-random5-metric-100"])
def test_piped_report_is_the_golden_bytes(name):
    cwd, argv = CASE_BY_NAME[name]
    done = cli(*argv, "--format", "structured", cwd=cwd)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_output_file_is_complete(tmp_path):
    target = tmp_path / "report.json"
    cwd, argv = CASE_BY_NAME["scan-square-2"]
    done = cli(*argv, "--format", "structured", "--output", str(target), cwd=cwd)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert target.read_bytes() == (GOLDEN / "scan-square-2.json").read_bytes()


def test_violation_exits_one_with_a_witness(tmp_path):
    path = tmp_path / "badfun.json"
    path.write_text(json.dumps({
        "format": 1,
        "kind": "functor",
        "category": str(fixture_path("z2.category.json")),
        "variance": "co",
        "objects": {"*": ["0", "1"]},
        "morphisms": {"s": {"0": "0", "1": "0"}},
    }))
    done = cli("validate-fun", str(path), "--format", "structured")
    assert (done.returncode, done.stderr) == (1, b"")
    results = json.loads(done.stdout)["results"]
    assert results["law"] == "composition" and results["witness"]


def test_malformed_document_exits_two_with_one_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    done = cli("validate-cat", str(path))
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode().startswith(f"catspan: error: {path}: <file>: invalid JSON: ")
    assert done.stderr.count(b"\n") == 1


def test_closed_stdout_exits_120():
    """A report that cannot be flushed, here into a pipe with no reader,
    exits 120, as the interpreter's own shutdown does."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = cli("validate-cat", "terminal.category.json", stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (120, b"")
