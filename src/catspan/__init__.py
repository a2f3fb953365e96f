"""Finite categories, set-valued functors, conjugation between presheaf
and copresheaf categories, and tight spans of finite metric spaces, all
computed exhaustively at desk scale."""

import importlib

# Every public name is served on first use (PEP 562), from the module that
# defines it, so that a command loads only the modules it runs: numpy is
# needed only on a large metric (``tightspan.NUMPY_FROM`` points or more,
# and never to sample the tight span), the conjugation module only by the
# conjugation commands, and the category modules by neither the metric
# commands nor the budget and error names, which live in the leaf ``core``.
_EXPORTS = {
    "core": (
        "CONTRAVARIANT",
        "COVARIANT",
        "DEFAULT_BUDGET",
        "DEFAULT_TOL",
        "Budget",
        "BudgetExceeded",
        "InputError",
        "StructuralError",
        "UnknownObjectError",
    ),
    "fincat": (
        "CompositionError",
        "FinCategory",
        "Morphism",
        "ValidationReport",
        "Violation",
        "generators",
        "opposite",
        "validate_category",
    ),
    "setfunc": (
        "Bijection",
        "FinSet",
        "FunctorLawError",
        "NatTransformation",
        "NaturalityError",
        "SetFunction",
        "SetValuedFunctor",
        "YonedaWitness",
        "component_signature",
        "compose_nat",
        "coyoneda",
        "coyoneda_on_morphism",
        "dual",
        "enumerate_nat",
        "identity_nat",
        "is_natural_iso",
        "iso_check",
        "make_transformation",
        "naturality_witness",
        "pointwise_sum",
        "validate_functor",
        "yoneda",
        "yoneda_lemma_bijection",
        "yoneda_on_morphism",
    ),
    "tightspan": (
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
    ),
    "isbell": (
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
    ),
}
# Public name -> the module that defines it; a module's own name maps to it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _HOME[name]
    # import_module, not ``from . import ...``: the latter looks the name up
    # on this package first and would re-enter this function.
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


__version__ = "0.1.0"
