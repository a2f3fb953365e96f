"""Access to the bundled fixture corpus.

The corpus is the desk-scale test bed everything is exercised against:
five small categories, two presheaves and two copresheaves per category,
and five metric spaces. Files live under ``catspan/fixtures`` and use the
documented JSON format, so they double as CLI input examples. Each
presheaf and copresheaf names its category file; loads inside one
``fileformat.recording_reads()`` block share one category object.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .fileformat import load_functor, load_lawful_category, load_metric_document
from .fincat import FinCategory
from .setfunc import SetValuedFunctor
from .tightspan import FiniteMetricSpace, validate_metric

CATEGORIES = ("terminal", "discrete2", "arrow", "z2", "square")

PRESHEAVES = {
    "terminal": ("terminal_pair", "terminal_empty"),
    "discrete2": ("discrete2_ab", "discrete2_pair0"),
    "arrow": ("arrow_pq_r", "arrow_point"),
    "z2": ("z2_regular", "z2_two_fixed"),
    "square": ("square_hom_to_d", "square_point"),
}

COPRESHEAVES = {
    "terminal": ("terminal_single", "terminal_pair"),
    "discrete2": ("discrete2_ab", "discrete2_pair0"),
    "arrow": ("arrow_hom_from_a", "arrow_point"),
    "z2": ("z2_regular", "z2_single"),
    "square": ("square_hom_from_a", "square_point"),
}

METRICS = ("two_point", "triangle345", "equilateral3", "collinear3", "random5")


def fixture_path(filename: str) -> Path:
    path = Path(str(resources.files("catspan") / "fixtures" / filename))
    if not path.exists():
        raise FileNotFoundError(f"no bundled fixture {filename!r}")
    return path


def load_corpus_category(name: str) -> FinCategory:
    return load_lawful_category(fixture_path(f"{name}.category.json"))


def load_corpus_presheaf(name: str) -> SetValuedFunctor:
    return load_functor(fixture_path(f"{name}.presheaf.json"))


def load_corpus_copresheaf(name: str) -> SetValuedFunctor:
    return load_functor(fixture_path(f"{name}.copresheaf.json"))


def load_corpus_metric(name: str) -> FiniteMetricSpace:
    """A bundled metric, validated at DEFAULT_TOL."""
    return validate_metric(*load_metric_document(fixture_path(f"{name}.metric.json")))


def corpus_categories() -> dict[str, FinCategory]:
    return {name: load_corpus_category(name) for name in CATEGORIES}


def corpus_presheaves(name: str) -> list[SetValuedFunctor]:
    return [load_corpus_presheaf(f) for f in PRESHEAVES[name]]


def corpus_copresheaves(name: str) -> list[SetValuedFunctor]:
    return [load_corpus_copresheaf(f) for f in COPRESHEAVES[name]]


def corpus_metrics() -> dict[str, FiniteMetricSpace]:
    return {name: load_corpus_metric(name) for name in METRICS}
