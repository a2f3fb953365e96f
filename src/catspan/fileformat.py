"""The on-disk document format shared by categories, functors, and metrics.

All three kinds are JSON documents with a versioned ``"format": 1`` header
and a ``"kind"`` field; every JSON number reads as a float. Structural
problems are reported as ParseError, an ``InputError``, with the offending
field path. Loaders other than ``load_category`` check the category laws
once, where a category enters, and report the first violation as a
ParseError at the pseudo-path ``<laws>``.

The category and functor parsers import ``fincat`` and ``setfunc`` when
called, so that reading a metric loads neither.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

from .core import CONTRAVARIANT, COVARIANT, InputError

# Type checkers read the block below; ``typing`` itself costs a command a few
# milliseconds of start-up.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .fincat import FinCategory
    from .setfunc import SetValuedFunctor

FORMAT_VERSION = 1

VARIANCE_CODES = {"co": COVARIANT, "contra": CONTRAVARIANT}
VARIANCE_NAMES = {v: k for k, v in VARIANCE_CODES.items()}


class ParseError(InputError):
    """A document that does not match the schema; the message names the
    offending field path."""

    def __init__(self, source: str, path: str, detail: str):
        super().__init__(f"{source}: {path}: {detail}")
        self.source = source
        self.path = path
        self.detail = detail


# The innermost ``recording_reads`` block, if any: its read log and the
# lawful categories and functors it has loaded, by kind and resolved path. A
# context variable, so that every loader and the category file a functor
# references are covered.
_session: ContextVar[tuple[list, dict] | None] = ContextVar("catspan_session", default=None)


@contextmanager
def recording_reads():
    """Collect ``(path, bytes)`` for every document read inside the block,
    in read order. Inside the block a category or functor file is read and
    law-checked once, however many arguments or documents name it: documents
    referencing one category share one base, and a functor named twice is
    one object."""
    reads: list[tuple[str, bytes]] = []
    token = _session.set((reads, {}))
    try:
        yield reads
    finally:
        _session.reset(token)


def _once(kind: str, path: str | Path, load):
    """``load()``, called once per kind and resolved path inside a
    ``recording_reads`` block and on every call outside one."""
    session = _session.get()
    if session is None:
        return load()
    loaded = session[1]
    key = (kind, Path(path).resolve())
    if key not in loaded:
        loaded[key] = load()
    return loaded[key]


def read_document(path: str | Path) -> dict:
    source = str(path)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(source, "<file>", str(exc)) from None
    session = _session.get()
    if session is not None:
        session[0].append((source, data))
    # UnicodeDecodeError is a ValueError too. No document of the schema nests
    # beyond a few levels, so one deep enough to exhaust the recursion limit
    # is invalid anyway. An integer literal reads as a float, which has no
    # digit limit: one beyond the float range is an infinity, as 1e400 is.
    try:
        doc = json.loads(data.decode(), parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise ParseError(source, "<file>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(source, "<file>", "top level must be an object")
    return doc


def _check_header(doc: dict, source: str, kind: str) -> None:
    version = doc.get("format")
    if version != FORMAT_VERSION or isinstance(version, bool):  # True == 1
        raise ParseError(source, "format", f"expected format {FORMAT_VERSION}, got {version!r}")
    if doc.get("kind") != kind:
        raise ParseError(source, "kind", f"expected {kind!r}, got {doc.get('kind')!r}")


def _expect(doc: dict, source: str, field: str, typ, type_name: str):
    if field not in doc:
        raise ParseError(source, field, "missing field")
    value = doc[field]
    if not isinstance(value, typ):
        raise ParseError(source, field, f"expected {type_name}, got {type(value).__name__}")
    return value


def _first_duplicate(labels: list[str]) -> str | None:
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            return label
        seen.add(label)
    return None


def parse_category(doc: dict, source: str = "<inline>") -> FinCategory:
    """Structural parse of a category document into an unvalidated candidate."""
    from .fincat import FinCategory, Morphism

    _check_header(doc, source, "category")
    objects = _expect(doc, source, "objects", list, "list of labels")
    for i, obj in enumerate(objects):
        if not isinstance(obj, str):
            raise ParseError(source, f"objects[{i}]", "object label must be a string")
    raw_morphisms = _expect(doc, source, "morphisms", list, "list of morphism records")
    morphisms = []
    for i, record in enumerate(raw_morphisms):
        if not isinstance(record, dict):
            raise ParseError(source, f"morphisms[{i}]", "expected an object with id/src/tgt")
        for key in ("id", "src", "tgt"):
            if key not in record or not isinstance(record[key], str):
                raise ParseError(source, f"morphisms[{i}].{key}", "missing or non-string")
        if record["src"] not in objects:
            raise ParseError(source, f"morphisms[{i}].src", f"morphism {record['id']!r} references undeclared object {record['src']!r}")
        if record["tgt"] not in objects:
            raise ParseError(source, f"morphisms[{i}].tgt", f"morphism {record['id']!r} references undeclared object {record['tgt']!r}")
        morphisms.append(Morphism(record["id"], record["src"], record["tgt"]))
    labels = {m.label for m in morphisms}
    identities = _expect(doc, source, "identities", dict, "object-to-morphism map")
    for obj, label in identities.items():
        if obj not in objects:
            raise ParseError(source, f"identities.{obj}", "undeclared object")
        if not isinstance(label, str):
            raise ParseError(source, f"identities.{obj}", "expected a morphism id")
        if label not in labels:
            raise ParseError(source, f"identities.{obj}", f"undeclared morphism {label!r}")
    table = {}
    raw_compose = _expect(doc, source, "compose", list, "list of [g, f, result] triples")
    for i, entry in enumerate(raw_compose):
        if not (isinstance(entry, list) and len(entry) == 3 and all(isinstance(x, str) for x in entry)):
            raise ParseError(source, f"compose[{i}]", "expected a [g, f, result] triple of morphism ids")
        g, f, r = entry
        for label in (g, f, r):
            if label not in labels:
                raise ParseError(source, f"compose[{i}]", f"undeclared morphism {label!r}")
        if (g, f) in table:
            raise ParseError(source, f"compose[{i}]", f"duplicate entry for pair ({g!r}, {f!r})")
        table[(g, f)] = r
    return FinCategory(tuple(objects), tuple(morphisms), dict(identities), table)


def load_category(path: str | Path) -> FinCategory:
    """Parse a category file; structural only, laws not yet checked."""
    return parse_category(read_document(path), str(path))


def _require_laws(category: FinCategory, source: str) -> FinCategory:
    from .fincat import validate_category

    report = validate_category(category)
    if not report.ok:
        first = report.violations[0]
        raise ParseError(
            source, "<laws>",
            f"category violates law {first.law!r} at {first.witness}; run validate-cat for the full report",
        )
    return category


def load_lawful_category(path: str | Path) -> FinCategory:
    """Parse a category file and check every category law; the first
    violation is a ParseError that names the law and its witness. Inside a
    ``recording_reads`` block each file is loaded once."""
    return _once("category", path, lambda: _require_laws(load_category(path), str(path)))


def parse_functor(doc: dict, source: str, base_dir: Path) -> SetValuedFunctor:
    """Parse and fully validate a functor document.

    The ``category`` field is either an inline category document or a path
    relative to ``base_dir``, the functor file's directory. Identity actions
    may be omitted.
    """
    from .setfunc import validate_functor

    _check_header(doc, source, "functor")
    raw_cat = _expect(doc, source, "category", (str, dict), "path or inline category")
    if isinstance(raw_cat, str):
        category = load_lawful_category(base_dir / raw_cat)
    else:
        category = _require_laws(parse_category(raw_cat, f"{source}:category"), f"{source}:category")
    variance_code = _expect(doc, source, "variance", str, "'co' or 'contra'")
    if variance_code not in VARIANCE_CODES:
        raise ParseError(source, "variance", f"expected 'co' or 'contra', got {variance_code!r}")
    raw_objects = _expect(doc, source, "objects", dict, "object-to-elements map")
    for obj, elems in raw_objects.items():
        if obj not in category.objects:
            raise ParseError(source, f"objects.{obj}", "undeclared object")
        if not (isinstance(elems, list) and all(isinstance(e, str) for e in elems)):
            raise ParseError(source, f"objects.{obj}", "expected a list of element labels")
        duplicate = _first_duplicate(elems)
        if duplicate is not None:
            raise ParseError(source, f"objects.{obj}", f"duplicate element label {duplicate!r}")
    for obj in category.objects:
        if obj not in raw_objects:
            raise ParseError(source, f"objects.{obj}", "missing value set")
    raw_morphisms = _expect(doc, source, "morphisms", dict, "morphism-to-action map")
    known = {m.label for m in category.morphisms}
    for label, action in raw_morphisms.items():
        if label not in known:
            raise ParseError(source, f"morphisms.{label}", "undeclared morphism")
        if not (isinstance(action, dict) and all(isinstance(k, str) and isinstance(v, str) for k, v in action.items())):
            raise ParseError(source, f"morphisms.{label}", "expected an element-to-element map")
    # Law checking (typing, identities, composition) happens here; callers
    # catch FunctorLawError separately from ParseError.
    return validate_functor(category, VARIANCE_CODES[variance_code], raw_objects, raw_morphisms)


def load_functor(path: str | Path) -> SetValuedFunctor:
    """Parse and validate a functor file. Inside a ``recording_reads`` block
    each file is loaded once."""
    p = Path(path)
    return _once("functor", path, lambda: parse_functor(read_document(path), str(p), p.parent))


def parse_metric(doc: dict, source: str) -> tuple[list[str], list[list[float]]]:
    """Structural parse of a metric document; axioms are checked separately."""
    _check_header(doc, source, "metric")
    points = _expect(doc, source, "points", list, "list of point labels")
    if not points:
        raise ParseError(source, "points", "expected at least one point")
    for i, p in enumerate(points):
        if not isinstance(p, str):
            raise ParseError(source, f"points[{i}]", "point label must be a string")
    duplicate = _first_duplicate(points)
    if duplicate is not None:
        raise ParseError(source, "points", f"duplicate point label {duplicate!r}")
    rows = _expect(doc, source, "d", list, "square matrix of numbers")
    if len(rows) != len(points):
        raise ParseError(source, "d", f"expected {len(points)} rows, got {len(rows)}")
    matrix = []
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == len(points)):
            raise ParseError(source, f"d[{i}]", f"expected a row of {len(points)} numbers")
        if set(map(type, row)) != {float}:  # every JSON number reads as a float
            j = next(j for j, x in enumerate(row) if type(x) is not float)
            raise ParseError(source, f"d[{i}][{j}]", "expected a number")
        matrix.append(row)
    return list(points), matrix


def load_metric_document(path: str | Path) -> tuple[list[str], list[list[float]]]:
    return parse_metric(read_document(path), str(path))


def category_to_dict(category: FinCategory) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "category",
        "objects": list(category.objects),
        "morphisms": [{"id": m.label, "src": m.src, "tgt": m.tgt} for m in category.morphisms],
        "identities": dict(category.identity),
        "compose": sorted([g, f, r] for (g, f), r in category.table.items()),
    }


def functor_to_dict(functor: SetValuedFunctor, category_ref: str | dict | None = None) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "functor",
        "category": category_ref if category_ref is not None else category_to_dict(functor.base),
        "variance": VARIANCE_NAMES[functor.variance],
        "objects": {obj: list(functor.at(obj).elements) for obj in functor.base.objects},
        "morphisms": {m.label: dict(functor.act(m.label).mapping) for m in functor.base.morphisms},
    }

