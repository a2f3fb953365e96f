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
from .isbell import (
    AdjunctionWitness,
    ConjugatePair,
    ReflexiveVerdict,
    adjunction_transpose,
    conjugate_copresheaf,
    conjugate_presheaf,
    conjugate_transform,
    double_conjugate,
    reflexive_scan,
    unit,
)

# numpy is needed only by the tight span, so the tight-span names are served
# on first use (PEP 562): category commands never import it.
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


def __getattr__(name: str):
    if name == "tightspan" or name in _TIGHTSPAN_NAMES:
        # import_module, not ``from . import tightspan``: the latter looks the
        # name up on this package first and would re-enter this function.
        tightspan = importlib.import_module(__name__ + ".tightspan")
        return tightspan if name == "tightspan" else getattr(tightspan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
