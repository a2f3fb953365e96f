"""Command-line front end.

Every subcommand reads the documented JSON file formats, runs one
operation, and writes a report to stdout (or ``--output``). Structured
reports are byte-deterministic for fixed inputs and flags; wall-clock
time is therefore shown only in text mode. Exit codes: 0 the operation
succeeded and the checked property holds, 1 a law or property was
violated (the report carries a witness), 2 usage, parse, or budget
errors, and any unexpected internal error (one line on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from .fileformat import (
    VARIANCE_NAMES,
    ParseError,
    functor_to_dict,
    load_category,
    load_functor,
    load_lawful_category,
    load_metric_document,
    recording_reads,
)
from .fincat import StructuralError, UnknownObjectError, validate_category
from .setfunc import (
    CONTRAVARIANT,
    COVARIANT,
    Budget,
    BudgetExceeded,
    FunctorLawError,
    enumerate_nat,
    is_natural_iso,
    pointwise_sum,
    yoneda,
    yoneda_lemma_bijection,
)


class InputError(Exception):
    """User input that cannot be processed (usage-level, exit 2)."""


def _nat_to_dict(t) -> dict:
    return {obj: t.component(obj).mapping for obj in t.source.base.objects}


def _load_functor_checked(path: str):
    try:
        return load_functor(path)
    except FunctorLawError as exc:
        raise InputError(f"{path}: {exc}; run validate-fun for details") from None


def _load_parallel(left_path: str, right_path: str):
    left, right = _load_functor_checked(left_path), _load_functor_checked(right_path)
    if left.base != right.base:
        raise InputError("the two functors live over different base categories")
    if left.variance != right.variance:
        raise InputError("the two functors have different variance")
    return left, right


def _require_variance(functor, variance: str, path: str, subcommand: str):
    if functor.variance != variance:
        raise InputError(f"{path}: {subcommand} expects a {VARIANCE_NAMES[variance]}-variant functor")


# The metric handlers import ``.tightspan`` when called, so that only they
# pay for importing numpy; likewise the four conjugation handlers import
# ``.isbell``, which no other subcommand needs.


def _load_valid_metric(path: str, tol: float):
    from .tightspan import MetricError, validate_metric

    points, matrix = load_metric_document(path)
    try:
        return validate_metric(points, matrix, tol)
    except MetricError as exc:
        first = exc.violations[0]
        raise InputError(f"{path}: not a valid metric ({first[0]} at {first[1]}); run metric-validate") from None


def _parse_values(space, raw_values: list[float], path: str):
    from .tightspan import DistanceFunction

    if len(raw_values) != len(space.points):
        raise InputError(f"{path} has {len(space.points)} points but {len(raw_values)} values were given")
    try:
        return DistanceFunction(space, raw_values)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------- handlers


def _cmd_validate_cat(args, budget):
    candidate = load_category(args.file)
    report = validate_category(candidate)
    results = {
        "valid": report.ok,
        "objects": len(candidate.objects),
        "morphisms": len(candidate.morphisms),
        "violations": [{"law": v.law, "witness": list(v.witness)} for v in report.violations],
    }
    return report.ok, results


def _cmd_validate_fun(args, budget):
    try:
        functor = load_functor(args.file)
    except FunctorLawError as exc:
        return False, {
            "valid": False,
            "law": exc.law,
            "witness": list(exc.witness),
            "detail": str(exc),
        }
    return True, {
        "valid": True,
        "variance": VARIANCE_NAMES[functor.variance],
        "value_sizes": {obj: len(functor.at(obj)) for obj in functor.base.objects},
    }


def _cmd_hom(args, budget):
    category = load_lawful_category(args.file)
    morphisms = category.hom_set(args.src, args.tgt)
    return True, {"src": args.src, "tgt": args.tgt, "morphisms": morphisms}


def _cmd_nat(args, budget):
    left, right = _load_parallel(args.source, args.target)
    nats = enumerate_nat(left, right, budget)
    return True, {
        "count": len(nats),
        "transformations": [_nat_to_dict(t) for t in nats],
    }


def _cmd_yoneda(args, budget):
    category = load_lawful_category(args.file)
    if args.object not in category.objects:
        raise InputError(f"unknown object {args.object!r}")
    functor = yoneda(category, args.object)
    return True, {
        "object": args.object,
        "functor": functor_to_dict(functor, category_ref=args.file),
    }


def _cmd_yoneda_check(args, budget):
    functor = _load_functor_checked(args.file)
    _require_variance(functor, CONTRAVARIANT, args.file, "yoneda-check")
    if args.object not in functor.base.objects:
        raise InputError(f"unknown object {args.object!r}")
    witness = yoneda_lemma_bijection(functor, args.object, budget)
    counts_equal = len(witness.transformations) == len(functor.at(args.object))
    return counts_equal, {
        "object": args.object,
        "transformation_count": len(witness.transformations),
        "value_count": len(functor.at(args.object)),
        "counts_equal": counts_equal,
        "round_trips_ok": True,  # verified during construction
        "forward": dict(witness.bijection.forward.mapping),
        "backward": dict(witness.bijection.backward.mapping),
    }


def _cmd_sum(args, budget):
    left, right = _load_parallel(args.left, args.right)
    total = pointwise_sum(left, right)
    return True, {"functor": functor_to_dict(total)}


def _cmd_conjugate(args, budget):
    from .isbell import conjugate_copresheaf, conjugate_presheaf

    functor = _load_functor_checked(args.file)
    if functor.variance == CONTRAVARIANT:
        pair = conjugate_presheaf(functor, budget)
        direction = "presheaf-to-copresheaf"
    else:
        pair = conjugate_copresheaf(functor, budget)
        direction = "copresheaf-to-presheaf"
    return True, {
        "direction": direction,
        "conjugate": functor_to_dict(pair.conjugate),
        "evaluation_tables": {
            obj: [_nat_to_dict(t) for t in entries]
            for obj, entries in pair.evaluation_tables.items()
        },
    }


def _cmd_adjunction_check(args, budget):
    from .isbell import adjunction_transpose

    presheaf = _load_functor_checked(args.presheaf)
    copresheaf = _load_functor_checked(args.copresheaf)
    _require_variance(presheaf, CONTRAVARIANT, args.presheaf, "adjunction-check")
    _require_variance(copresheaf, COVARIANT, args.copresheaf, "adjunction-check")
    if presheaf.base != copresheaf.base:
        raise InputError("the two functors live over different base categories")
    witness = adjunction_transpose(presheaf, copresheaf, budget)
    counts_equal = len(witness.left_homset) == len(witness.right_homset)
    return counts_equal, {
        "left_count": len(witness.left_homset),
        "right_count": len(witness.right_homset),
        "counts_equal": counts_equal,
        "round_trip_ok": True,  # verified during construction
        "transpose": witness.transpose.forward.mapping,
        "left_homset": [_nat_to_dict(t) for t in witness.left_homset],
        "right_homset": [_nat_to_dict(t) for t in witness.right_homset],
    }


def _cmd_unit(args, budget):
    from .isbell import unit

    functor = _load_functor_checked(args.file)
    _require_variance(functor, CONTRAVARIANT, args.file, "unit")
    comparison = unit(functor, budget)
    return True, {
        "components": _nat_to_dict(comparison),
        "double_conjugate_sizes": {
            obj: len(comparison.target.at(obj)) for obj in functor.base.objects
        },
        "is_isomorphism": is_natural_iso(comparison),
    }


def _cmd_reflexive_scan(args, budget):
    from .isbell import reflexive_scan

    category = load_lawful_category(args.file)
    verdicts = reflexive_scan(category, args.max_set_size, budget)
    return True, {
        "max_set_size": args.max_set_size,
        "total": len(verdicts),
        "reflexive_count": sum(1 for v in verdicts if v.reflexive),
        "entries": [{"functor": v.description, "reflexive": v.reflexive} for v in verdicts],
    }


def _cmd_metric_validate(args, budget):
    from .tightspan import MetricError, validate_metric

    points, matrix = load_metric_document(args.file)
    try:
        space = validate_metric(points, matrix, args.tol)
    except MetricError as exc:
        return False, {
            "valid": False,
            "violations": [{"axiom": axiom, "witness": list(w)} for axiom, w in exc.violations],
        }
    return True, {"valid": True, "points": len(space.points), "diameter": space.diameter}


def _cmd_tripod(args, budget):
    from .tightspan import extremality_defect, tripod

    space = _load_valid_metric(args.file, args.tol)
    if len(space.points) != 3:
        raise InputError(f"tripod needs a 3-point metric, {args.file} has {len(space.points)} points")
    result = tripod(space)
    return True, {
        "legs": list(result.legs),
        "hub": result.hub.as_dict(),
        "hub_defect": extremality_defect(result.hub, args.tol).defect,
    }


def _cmd_project(args, budget):
    from .tightspan import InadmissibleError, ProjectionError, extremal_project, extremality_defect

    space = _load_valid_metric(args.file, args.tol)
    f = _parse_values(space, args.values, args.file)
    try:
        g = extremal_project(f, args.tol)
    except InadmissibleError as exc:
        return False, {
            "converged": False,
            "reason": "inadmissible",
            "slack": exc.slack,
            "witness": list(exc.witness),
        }
    except ProjectionError as exc:
        return False, {
            "converged": False,
            "reason": "iteration-cap",
            "iterations": exc.iterations,
            "final_defect": exc.defect,
        }
    return True, {
        "converged": True,
        "input": f.as_dict(),
        "output": g.as_dict(),
        "defect": extremality_defect(g, args.tol).defect,
    }


def _cmd_geodesic_check(args, budget):
    from .tightspan import NoWitnessError, extremality_defect, geodesic_witness, sample_tight_span

    space = _load_valid_metric(args.file, args.tol)
    if args.values:
        f = _parse_values(space, args.values, args.file)
        report = extremality_defect(f, args.tol)
        if report.defect > args.tol:
            return False, {
                "all_ok": False,
                "reason": "input-not-extremal",
                "defect": report.defect,
            }
        candidates = [f]
    else:
        candidates = sample_tight_span(space, args.samples, args.seed, args.tol)
    witnesses = []
    failures = []
    for i, f in enumerate(candidates):
        for x in space.points:
            try:
                witnesses.append({"sample": i, "point": x, "witness": geodesic_witness(f, x)})
            except NoWitnessError as exc:
                failures.append({"sample": i, "point": x, "best_residual": exc.residual})
    ok = not failures
    return ok, {
        "samples": len(candidates),
        "pairs_checked": len(candidates) * len(space.points),
        "all_ok": ok,
        "witnesses": witnesses,
        "failures": failures,
    }


def _cmd_sample_span(args, budget):
    from .tightspan import sample_tight_span

    space = _load_valid_metric(args.file, args.tol)
    samples = sample_tight_span(space, args.count, args.seed, args.tol)
    return True, {
        "count": len(samples),
        "seed": args.seed,
        "samples": [s.as_dict() for s in samples],
    }


HANDLERS = {
    "validate-cat": _cmd_validate_cat,
    "validate-fun": _cmd_validate_fun,
    "hom": _cmd_hom,
    "nat": _cmd_nat,
    "yoneda": _cmd_yoneda,
    "yoneda-check": _cmd_yoneda_check,
    "sum": _cmd_sum,
    "conjugate": _cmd_conjugate,
    "adjunction-check": _cmd_adjunction_check,
    "unit": _cmd_unit,
    "reflexive-scan": _cmd_reflexive_scan,
    "metric-validate": _cmd_metric_validate,
    "tripod": _cmd_tripod,
    "project": _cmd_project,
    "geodesic-check": _cmd_geodesic_check,
    "sample-span": _cmd_sample_span,
}


def nonnegative_int(text: str) -> int:
    """argparse type of a size, count or seed option; a negative value is a
    usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=10_000_000, help="node-expansion cap for enumerations")
    common.add_argument("--tol", type=float, default=1e-9, help="numeric validation tolerance")
    common.add_argument("--seed", type=nonnegative_int, default=0, help="seed for sampling subcommands")
    common.add_argument("--format", choices=("text", "structured"), default="text", dest="output_format")
    common.add_argument("--output", default=None, help="write the report to this path instead of stdout")

    parser = argparse.ArgumentParser(prog="catspan", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate-cat", parents=[common], help="check the category laws of a category file")
    p.add_argument("file")
    p = sub.add_parser("validate-fun", parents=[common], help="check the functor laws of a functor file")
    p.add_argument("file")
    p = sub.add_parser("hom", parents=[common], help="list the morphisms between two objects")
    p.add_argument("file")
    p.add_argument("src")
    p.add_argument("tgt")
    p = sub.add_parser("nat", parents=[common], help="enumerate natural transformations between two functors")
    p.add_argument("source")
    p.add_argument("target")
    p = sub.add_parser("yoneda", parents=[common], help="emit the representable presheaf of an object")
    p.add_argument("file")
    p.add_argument("object")
    p = sub.add_parser("yoneda-check", parents=[common], help="verify the representable bijection at an object")
    p.add_argument("file")
    p.add_argument("object")
    p = sub.add_parser("sum", parents=[common], help="pointwise disjoint union of two functors")
    p.add_argument("left")
    p.add_argument("right")
    p = sub.add_parser("conjugate", parents=[common], help="conjugate of a presheaf or copresheaf")
    p.add_argument("file")
    p = sub.add_parser("adjunction-check", parents=[common], help="verify both hom-sets and the transpose round trip")
    p.add_argument("presheaf")
    p.add_argument("copresheaf")
    p = sub.add_parser("unit", parents=[common], help="comparison map of a presheaf into its double conjugate")
    p.add_argument("file")
    p = sub.add_parser("reflexive-scan", parents=[common], help="scan all small presheaves for reflexivity")
    p.add_argument("file")
    p.add_argument("--max-set-size", type=nonnegative_int, default=2)
    p = sub.add_parser("metric-validate", parents=[common], help="check the metric axioms of a metric file")
    p.add_argument("file")
    p = sub.add_parser("tripod", parents=[common], help="closed-form hub and legs of a 3-point metric")
    p.add_argument("file")
    p = sub.add_parser("project", parents=[common], help="project an admissible function onto the extremal set")
    p.add_argument("file")
    p.add_argument("values", nargs="*", type=float)
    p = sub.add_parser("geodesic-check", parents=[common], help="verify distance-sum witnesses on extremal functions")
    p.add_argument("file")
    p.add_argument("values", nargs="*", type=float)
    p.add_argument("--samples", type=nonnegative_int, default=100)
    p = sub.add_parser("sample-span", parents=[common], help="deterministically sample extremal functions")
    p.add_argument("file")
    p.add_argument("--count", type=nonnegative_int, default=10)
    return parser


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(inner)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


def _emit(report: dict, args: argparse.Namespace, elapsed: float) -> None:
    if args.output_format == "structured":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = _render_text(report)
        lines.append(f"elapsed: {elapsed:.3f}s")
        text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    started = time.perf_counter()
    try:
        if args.budget <= 0:
            raise InputError("--budget must be positive")
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise InputError("--tol must be positive and finite")
        budget = Budget(args.budget)
        with recording_reads() as reads:
            ok, results = HANDLERS[args.subcommand](args, budget)
        report = {
            "format": 1,
            "subcommand": args.subcommand,
            "inputs": {
                "paths": [path for path, _ in reads],
                "sha256": hashlib.sha256(b"".join(data for _, data in reads)).hexdigest(),
            },
            "config": {"budget": args.budget, "tol": args.tol, "seed": args.seed},
            "ok": ok,
            "results": results,
            "budget": {"cap": budget.cap, "used": budget.used},
            "timing": None,  # suppressed for byte-deterministic reports; see text mode
        }
        _emit(report, args, time.perf_counter() - started)
    except (ParseError, StructuralError, InputError, UnknownObjectError) as exc:
        print(f"catspan: error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"catspan: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a violated property with a witness
        print(f"catspan: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
