"""What the command line prints before it runs anything: the help of the
top level and of every subcommand, and the usage errors that argparse
reports, pinned byte for byte with their exit codes.

``cli_parse_time.txt`` holds the transcript, one record per command line
in the order of ``CASES``: a ``$ catspan ...`` line, the exit code, then
stdout and stderr. ``COLUMNS`` is fixed, so that argparse wraps the same
way on every terminal; the text is argparse's as Python 3.11 writes it.

    PYTHONPATH=src python tests/test_parse_time.py

rewrites the transcript from ``CASES`` with the code on PYTHONPATH, and
prints the command line of each record that changed, or that none changed.
Do that only for a change that alters this text on purpose, and record the
change.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from pathlib import Path

import pytest

from catspan.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_parse_time.txt")
SUBCOMMANDS = [
    "validate-cat", "validate-fun", "hom", "nat", "yoneda", "yoneda-check", "sum", "conjugate",
    "adjunction-check", "unit", "reflexive-scan", "metric-validate", "tripod", "project",
    "geodesic-check", "sample-span",
]
CASES = [
    ["--help"],
    *([name, "--help"] for name in SUBCOMMANDS),
    [],
    ["bogus"],
    ["nat"],
    ["nat", "a", "b", "--bogus"],
    ["nat", "a", "b", "--budget", "x"],
    ["reflexive-scan", "F", "--max-set-size", "-1"],
    ["sample-span", "F", "--seed", "-1"],
    ["unit", "F", "--seed", "3"],
    ["validate-cat", "F", "--tol", "0.5"],
]


def record(argv: list[str]) -> str:
    """The transcript record of one command line, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    header = " ".join(["$ catspan", *argv])
    return f"{header}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def expected_records() -> list[str]:
    return re.split(r"(?m)^(?=\$ catspan)", TRANSCRIPT.read_text())[1:]


def test_transcript_has_one_record_per_case():
    assert [text.split("\n", 1)[0] for text in expected_records()] == [
        " ".join(["$ catspan", *argv]) for argv in CASES
    ]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[" ".join(argv) or "<none>" for argv in CASES])
def test_parse_time_output_is_unchanged(monkeypatch, index):
    monkeypatch.setenv("COLUMNS", "80")
    assert record(CASES[index]) == expected_records()[index]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    before = {text.split("\n", 1)[0]: text for text in expected_records()} if TRANSCRIPT.exists() else {}
    records = [record(argv) for argv in CASES]
    TRANSCRIPT.write_text("".join(records))
    changed = [text.split("\n", 1)[0] for text in records if before.get(text.split("\n", 1)[0]) != text]
    print(f"wrote {len(records)} records to {TRANSCRIPT}")
    print("\n".join(changed) if changed else "no record changed")
