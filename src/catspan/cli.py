"""Command-line front end.

Every subcommand reads the documented JSON file formats, runs one
operation, and writes a report to stdout (or ``--output``). Structured
reports are byte-deterministic for fixed inputs and flags; wall-clock
time is therefore shown only in text mode. Exit codes: 0 the operation
succeeded and the checked property holds, 1 a law or property was
violated (the report carries a witness), 2 usage, parse, or budget
errors, and any unexpected internal error (one line on stderr).

The library decides which arguments fit an operation and raises
``InputError``, of which a parse error is one; a handler does not check
again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from .core import (
    CONTRAVARIANT,
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    Budget,
    BudgetExceeded,
    InputError,
)
from .fileformat import (
    VARIANCE_NAMES,
    check_document,
    functor_to_dict,
    load_category,
    load_functor,
    load_lawful_category,
    load_metric_document,
    recording_reads,
)

# Each handler imports the library modules it runs when it is called, so
# that a command loads only those: ``.fincat`` for the category commands,
# ``.setfunc`` besides for the functor commands, ``.isbell`` besides for the
# four conjugation commands, and ``.tightspan`` for the metric commands
# alone. ``.tightspan`` imports numpy only on metrics of NUMPY_FROM points
# or more.


def _nat_to_dict(t) -> dict:
    return {obj: t.component(obj).mapping for obj in t.source.base.objects}


def _load_functor_checked(path: str):
    from .setfunc import FunctorLawError

    try:
        return load_functor(path)
    except FunctorLawError as exc:
        raise InputError(f"{path}: {exc}; run validate-fun for details") from None


def _load_valid_metric(path: str, tol: float):
    from .tightspan import MetricError, validate_metric

    try:
        return check_document(path, validate_metric, *load_metric_document(path), tol)
    except MetricError as exc:
        first = exc.violations[0]
        raise InputError(f"{path}: not a valid metric ({first[0]} at {first[1]}); run metric-validate") from None


# ---------------------------------------------------------------- handlers


def _cmd_validate_cat(args, budget):
    from .fincat import validate_category

    candidate = load_category(args.file)
    report = check_document(args.file, validate_category, candidate)
    results = {
        "valid": report.ok,
        "objects": len(candidate.objects),
        "morphisms": len(candidate.morphisms),
        "violations": [{"law": v.law, "witness": list(v.witness)} for v in report.violations],
    }
    return report.ok, results


def _cmd_validate_fun(args, budget):
    from .setfunc import FunctorLawError

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
    from .setfunc import enumerate_nat

    left, right = _load_functor_checked(args.source), _load_functor_checked(args.target)
    nats = enumerate_nat(left, right, budget)
    return True, {
        "count": len(nats),
        "transformations": [_nat_to_dict(t) for t in nats],
    }


def _cmd_yoneda(args, budget):
    from .setfunc import yoneda

    category = load_lawful_category(args.file)
    functor = yoneda(category, args.object)
    return True, {
        "object": args.object,
        "functor": functor_to_dict(functor, category_ref=args.file),
    }


def _cmd_yoneda_check(args, budget):
    from .setfunc import yoneda_lemma_bijection

    functor = _load_functor_checked(args.file)
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
    from .setfunc import pointwise_sum

    left, right = _load_functor_checked(args.left), _load_functor_checked(args.right)
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
    from .setfunc import is_natural_iso

    functor = _load_functor_checked(args.file)
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

    try:
        space = check_document(args.file, validate_metric, *load_metric_document(args.file), args.tol)
    except MetricError as exc:
        return False, {
            "valid": False,
            "violations": [{"axiom": axiom, "witness": list(w)} for axiom, w in exc.violations],
        }
    return True, {"valid": True, "points": len(space.points), "diameter": space.diameter}


def _cmd_tripod(args, budget):
    from .tightspan import extremality_defect, tripod

    space = _load_valid_metric(args.file, args.tol)
    result = tripod(space)
    return True, {
        "legs": list(result.legs),
        "hub": result.hub.as_dict(),
        "hub_defect": extremality_defect(result.hub).defect,
    }


def _cmd_project(args, budget):
    from .tightspan import DistanceFunction, InadmissibleError, ProjectionError, extremal_project, extremality_defect

    space = _load_valid_metric(args.file, args.tol)
    f = DistanceFunction(space, args.values)
    try:
        g = extremal_project(f)
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
        "defect": extremality_defect(g).defect,
    }


def _cmd_geodesic_check(args, budget):
    from .tightspan import DistanceFunction, NoWitnessError, extremality_defect, geodesic_witness, sample_tight_span

    space = _load_valid_metric(args.file, args.tol)
    if args.values:
        f = DistanceFunction(space, args.values)
        report = extremality_defect(f)
        if report.defect > space.tol:
            return False, {
                "all_ok": False,
                "reason": "input-not-extremal",
                "defect": report.defect,
            }
        candidates = [f]
    else:
        candidates = sample_tight_span(space, args.samples, args.seed)
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
    samples = sample_tight_span(space, args.count, args.seed)
    return True, {
        "count": len(samples),
        "samples": [s.as_dict() for s in samples],
    }


# Each subcommand once, in the order ``--help`` lists them: its help line,
# its arguments and its handler. An argument is a positional name, a name
# ending in ``*`` for any number of floats, or ``--option=default``: a float
# for ``--tol``, else a nonnegative integer. ``build_parser`` gives every
# subcommand ``--budget``, ``--format`` and ``--output`` first.
TOL, SEED = f"--tol={DEFAULT_TOL}", "--seed=0"
OPTION_HELP = {"--tol": "numeric validation tolerance", "--seed": "seed for sampling subcommands"}
COMMANDS = {
    "validate-cat": ("check the category laws of a category file", ("file",), _cmd_validate_cat),
    "validate-fun": ("check the functor laws of a functor file", ("file",), _cmd_validate_fun),
    "hom": ("list the morphisms between two objects", ("file", "src", "tgt"), _cmd_hom),
    "nat": ("enumerate natural transformations between two functors", ("source", "target"), _cmd_nat),
    "yoneda": ("emit the representable presheaf of an object", ("file", "object"), _cmd_yoneda),
    "yoneda-check": ("verify the representable bijection at an object", ("file", "object"), _cmd_yoneda_check),
    "sum": ("pointwise disjoint union of two functors", ("left", "right"), _cmd_sum),
    "conjugate": ("conjugate of a presheaf or copresheaf", ("file",), _cmd_conjugate),
    "adjunction-check": (
        "verify both hom-sets and the transpose round trip", ("presheaf", "copresheaf"), _cmd_adjunction_check,
    ),
    "unit": ("comparison map of a presheaf into its double conjugate", ("file",), _cmd_unit),
    "reflexive-scan": (
        "scan all small presheaves for reflexivity", ("file", "--max-set-size=2"), _cmd_reflexive_scan,
    ),
    "metric-validate": ("check the metric axioms of a metric file", ("file", TOL), _cmd_metric_validate),
    "tripod": ("closed-form hub and legs of a 3-point metric", ("file", TOL), _cmd_tripod),
    "project": ("project an admissible function onto the extremal set", ("file", "values*", TOL), _cmd_project),
    "geodesic-check": (
        "verify distance-sum witnesses on extremal functions", ("file", "values*", "--samples=100", TOL, SEED),
        _cmd_geodesic_check,
    ),
    "sample-span": ("deterministically sample extremal functions", ("file", "--count=10", TOL, SEED), _cmd_sample_span),
}


def nonnegative_int(text: str) -> int:
    """argparse type of a size, count or seed option; a negative value is a
    usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which reports an argument it does not take
    itself, with its own usage, instead of leaving it to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The top-level parser with the subparsers of ``names``, by default of
    every subcommand. A run builds the subparser of the subcommand it names
    alone; help and a missing or unknown subcommand go to the parser of
    every subcommand, whose usage lists them all."""
    parser = argparse.ArgumentParser(prog="catspan", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubcommandParser)
    for name in names:
        help_line, arguments, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        config = ["budget"]
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="node-expansion cap for enumerations")
        p.add_argument("--format", choices=("text", "structured"), default="text", dest="output_format")
        p.add_argument("--output", default=None, help="write the report to this path instead of stdout")
        for argument in arguments:
            if argument.startswith("--"):
                option, default = argument.split("=")
                kind = float if option == "--tol" else nonnegative_int
                config.append(p.add_argument(option, type=kind, default=kind(default), help=OPTION_HELP.get(option)).dest)
            elif argument.endswith("*"):
                p.add_argument(argument[:-1], nargs="*", type=float)
            else:
                p.add_argument(argument)
        p.set_defaults(config=config)  # the options a report echoes: all but --format and --output
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
        try:
            Path(args.output).write_text(text)
        except OSError as exc:  # a directory, a missing parent, no permission
            raise InputError(f"{args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    started = time.perf_counter()
    try:
        budget = Budget(args.budget)
        _, _, handler = COMMANDS[args.subcommand]
        with recording_reads() as reads:
            ok, results = handler(args, budget)
        report = {
            "format": 1,
            "subcommand": args.subcommand,
            "inputs": {
                "paths": [path for path, _ in reads],
                "sha256": hashlib.sha256(b"".join(data for _, data in reads)).hexdigest(),
            },
            "config": {dest: getattr(args, dest) for dest in args.config},
            "ok": ok,
            "results": results,
            "budget": {"cap": budget.cap, "used": budget.used},
            "timing": None,  # suppressed for byte-deterministic reports; see text mode
        }
        _emit(report, args, time.perf_counter() - started)
    except (InputError, BudgetExceeded) as exc:
        print(f"catspan: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a violated property with a witness
        print(f"catspan: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


def run() -> None:
    """Entry point of the ``catspan`` command and of ``python -m
    catspan.cli``: ``main()``, then flush stdout and stderr and leave with
    ``os._exit``. That skips the interpreter's teardown, which frees every
    module and object one by one: on a 2-core VM about 10 ms after a
    category command and 30 ms once numpy is loaded (by a metric of
    ``tightspan.NUMPY_FROM`` points or more), against commands that often
    compute for less. A failed flush exits 120, as the interpreter's
    own shutdown does. ``main`` returns its exit code instead, for callers
    in the same process."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):  # a closed pipe, or a closed stream
            code = 120
    os._exit(code)


if __name__ == "__main__":
    run()
