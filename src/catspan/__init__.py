"""Finite categories, set-valued functors, conjugation between presheaf
and copresheaf categories, and tight spans of finite metric spaces, all
computed exhaustively at desk scale."""

import importlib

from .fincat import (
    CompositionError,
    FinCategory,
    Morphism,
    StructuralError,
    UnknownObjectError,
    ValidationReport,
    Violation,
    generators,
    opposite,
    validate_category,
)
from .setfunc import (
    CONTRAVARIANT,
    COVARIANT,
    DEFAULT_BUDGET,
    Bijection,
    Budget,
    BudgetExceeded,
    FinSet,
    FunctorLawError,
    NatTransformation,
    NaturalityError,
    SetFunction,
    SetValuedFunctor,
    YonedaWitness,
    component_signature,
    compose_functions,
    compose_nat,
    coyoneda,
    coyoneda_on_morphism,
    dual,
    enumerate_nat,
    identity_function,
    identity_nat,
    is_natural_iso,
    iso_check,
    make_transformation,
    naturality_witness,
    pointwise_sum,
    validate_functor,
    yoneda,
    yoneda_lemma_bijection,
    yoneda_on_morphism,
)
# The tight-span and conjugation names are served on first use (PEP 562):
# numpy is needed only by the tight span, so category commands never import
# it, and only the conjugation commands load the conjugation module.
_TIGHTSPAN_NAMES = frozenset({
    "DEFAULT_TOL",
    "MAX_ITERATIONS",
    "WITNESS_TOL",
    "DefectReport",
    "DistanceFunction",
    "FiniteMetricSpace",
    "InadmissibleError",
    "MetricError",
    "NoWitnessError",
    "ProjectionError",
    "TripodResult",
    "extremal_project",
    "extremality_defect",
    "geodesic_witness",
    "kuratowski_embed",
    "sample_tight_span",
    "tight_span_distance",
    "tripod",
    "validate_metric",
})
_ISBELL_NAMES = frozenset({
    "AdjunctionWitness",
    "ConjugatePair",
    "ReflexiveVerdict",
    "adjunction_transpose",
    "conjugate_copresheaf",
    "conjugate_presheaf",
    "conjugate_transform",
    "double_conjugate",
    "reflexive_scan",
    "unit",
})


def __getattr__(name: str):
    if name in ("tightspan", "isbell"):
        module = name
    elif name in _TIGHTSPAN_NAMES:
        module = "tightspan"
    elif name in _ISBELL_NAMES:
        module = "isbell"
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import ...``: the latter looks the name up
    # on this package first and would re-enter this function.
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


__version__ = "0.1.0"
