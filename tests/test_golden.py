"""Byte-for-byte golden outputs of the CLI in structured mode.

Each case runs ``catspan.cli.main`` from the directory holding its inputs,
so the reported input paths are the bare file names, and compares stdout
with ``tests/golden/<case>.json``. The corpus cases are the criterion-7
suite of ``test_acceptance``; the others run ``unit``, ``conjugate`` and
``adjunction-check`` on sums of two representables over Z3 and Z4,
``unit`` and ``conjugate`` on them over Z5, and
``reflexive-scan`` at set size 2 on ``square`` and on a 3-object chain
whose composite is declared before its two factors. The documents not in
the fixtures live in ``tests/golden/inputs``.

    PYTHONPATH=src python tests/test_golden.py

rewrites the input documents and every golden file from the code on
PYTHONPATH, and prints each file whose bytes changed with the top-level
report keys that differ (for example ``scan-square-2: budget``), or that
none changed. Do that only for a change that alters output on purpose,
and record the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

from catspan.cli import main
from catspan.corpus import fixture_path
from test_acceptance import CLI_SUITE

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
FIXTURES = fixture_path("terminal.category.json").parent


def _case_name(index: int, argv: list[str]) -> str:
    words = [a.removesuffix(".json").replace(".", "-") for a in argv if not a.startswith("--")]
    return re.sub(r"[^A-Za-z0-9_-]", "_", f"c7-{index:02d}-" + "-".join(words))


CASES: list[tuple[str, Path, list[str]]] = [
    (_case_name(i, argv), FIXTURES, argv) for i, argv in enumerate(CLI_SUITE)
]
for _n in (3, 4):
    CASES += [
        (f"z{_n}-unit-yy", INPUTS, ["unit", f"z{_n}_yy.presheaf.json"]),
        (f"z{_n}-conjugate-yy", INPUTS, ["conjugate", f"z{_n}_yy.presheaf.json"]),
        (f"z{_n}-conjugate-zz", INPUTS, ["conjugate", f"z{_n}_zz.copresheaf.json"]),
        (f"z{_n}-adjunction-yy-zz", INPUTS, ["adjunction-check", f"z{_n}_yy.presheaf.json", f"z{_n}_zz.copresheaf.json"]),
    ]
# Z5, the size the benchmark's duality workload runs at.
CASES += [
    ("z5-unit-yy", INPUTS, ["unit", "z5_yy.presheaf.json"]),
    ("z5-conjugate-yy", INPUTS, ["conjugate", "z5_yy.presheaf.json"]),
    ("z5-conjugate-zz", INPUTS, ["conjugate", "z5_zz.copresheaf.json"]),
]
CASES += [
    ("scan-square-2", FIXTURES, ["reflexive-scan", "square.category.json", "--max-set-size", "2"]),
    ("scan-chain3-2", INPUTS, ["reflexive-scan", "chain3.category.json", "--max-set-size", "2"]),
]


def run_case(cwd: Path, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--format", "structured"])
    finally:
        os.chdir(previous)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name,cwd,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, cwd, argv):
    code, produced = run_case(cwd, argv)
    assert code == 0, argv
    assert produced == (GOLDEN / f"{name}.json").read_bytes(), name


def _cyclic_documents(n: int) -> dict[str, dict]:
    """Z_n as a one-object category, y+y as a presheaf and z+z as a
    copresheaf on it; elements are tagged morphism labels."""
    g = [f"g{k}" for k in range(n)]
    category = {
        "format": 1,
        "kind": "category",
        "objects": ["*"],
        "morphisms": [{"id": lab, "src": "*", "tgt": "*"} for lab in g],
        "identities": {"*": "g0"},
        "compose": [[g[a], g[b], g[(a + b) % n]] for a in range(n) for b in range(n)],
    }

    def two_representables(variance: str) -> dict:
        # y(*): u acts by h -> h . u; z(*): u acts by h -> u . h. Z_n is
        # abelian, so both send g_b to g_(a+b) under u = g_a.
        action = {g[a]: {f"{tag}.{g[b]}": f"{tag}.{g[(a + b) % n]}" for tag in "LR" for b in range(n)} for a in range(n)}
        return {
            "format": 1,
            "kind": "functor",
            "category": f"z{n}.category.json",
            "variance": variance,
            "objects": {"*": [f"{tag}.{h}" for tag in "LR" for h in g]},
            "morphisms": action,
        }

    return {
        f"z{n}.category.json": category,
        f"z{n}_yy.presheaf.json": two_representables("contra"),
        f"z{n}_zz.copresheaf.json": two_representables("co"),
    }


def _chain_document() -> dict:
    """The poset a < b < c, with the composite ac declared before ab and bc."""
    objects = ["a", "b", "c"]
    pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("a", "c"), ("a", "b"), ("b", "c")]
    label = {pair: f"{pair[0]}{pair[1]}" if pair[0] != pair[1] else f"id_{pair[0]}" for pair in pairs}
    return {
        "format": 1,
        "kind": "category",
        "objects": objects,
        "morphisms": [{"id": label[(s, t)], "src": s, "tgt": t} for s, t in pairs],
        "identities": {x: label[(x, x)] for x in objects},
        "compose": [
            [label[(y, z)], label[(x, y2)], label[(x, z)]]
            for (y, z) in pairs for (x, y2) in pairs if y2 == y
        ],
    }


def _changed_keys(old: bytes, new: bytes) -> list[str]:
    """The top-level report keys whose values differ, in the new report's
    order, then any the new report dropped."""
    before, after, missing = json.loads(old), json.loads(new), object()
    keys = [*after, *(k for k in before if k not in after)]
    return [k for k in keys if before.get(k, missing) != after.get(k, missing)]


def _write(path: Path, data: bytes) -> bool:
    """Write ``data`` to ``path``; whether the bytes there changed."""
    if path.exists() and path.read_bytes() == data:
        return False
    path.write_bytes(data)
    return True


if __name__ == "__main__":
    INPUTS.mkdir(parents=True, exist_ok=True)
    documents = {"chain3.category.json": _chain_document()}
    for n in (3, 4, 5):
        documents.update(_cyclic_documents(n))
    changed = []
    for filename, doc in documents.items():
        if _write(INPUTS / filename, (json.dumps(doc, indent=1) + "\n").encode()):
            changed.append(f"inputs/{filename}")
    for name, cwd, argv in CASES:
        code, produced = run_case(cwd, argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        path = GOLDEN / f"{name}.json"
        old = path.read_bytes() if path.exists() else None
        if _write(path, produced):
            changed.append(f"{name}: {', '.join(_changed_keys(old, produced))}" if old else f"{name}: new")
    print(f"wrote {len(CASES)} golden files to {GOLDEN}")
    print("\n".join(changed) if changed else "no golden file changed")
