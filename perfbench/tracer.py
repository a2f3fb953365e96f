"""In-process traced run of one task list, for the per-layer metrics.

Run as ``python3 perfbench/tracer.py TASKS.json OUT.json`` with catspan on
PYTHONPATH. It imports ``catspan.cli`` (timed), runs every task once
through ``catspan.cli.main(argv)`` as a warm-up, and then runs each task
twice, untraced and traced, in alternating order. For the traced run it
rebinds the public functions below to span-recording wrappers in every
catspan module that holds them, and wraps ``ConjugatePair.label_of`` on
the class; the originals are put back after each task. No library file
changes. Spans are (name, start, end, parent) records kept in memory and
written out at the end; a layer's self time is its spans' durations
minus the time their children cover.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# (module, function) -> layer. Several functions can share a layer.
SPANS = {
    ("cli", "_emit"): "cli.render",
    ("fileformat", "load_category"): "fileformat.load",
    ("fileformat", "load_functor"): "fileformat.load",
    ("fileformat", "load_metric_document"): "fileformat.load",
    ("fincat", "validate_category"): "fincat.validate_category",
    ("setfunc", "validate_functor"): "setfunc.validate_functor",
    ("setfunc", "enumerate_nat"): "setfunc.enumerate_nat",
    ("setfunc", "yoneda"): "setfunc.representable",
    ("setfunc", "coyoneda"): "setfunc.representable",
    ("setfunc", "yoneda_on_morphism"): "setfunc.representable",
    ("setfunc", "coyoneda_on_morphism"): "setfunc.representable",
    ("setfunc", "make_transformation"): "setfunc.make_transformation",
    ("setfunc", "compose_nat"): "setfunc.compose_nat",
    ("isbell", "conjugate_presheaf"): "isbell.conjugate",
    ("isbell", "conjugate_copresheaf"): "isbell.conjugate",
    ("isbell", "unit"): "isbell.unit",
    ("isbell", "adjunction_transpose"): "isbell.adjunction_transpose",
    ("isbell", "reflexive_scan"): "isbell.reflexive_scan",
    ("tightspan", "validate_metric"): "tightspan.validate_metric",
    ("tightspan", "extremal_project"): "tightspan.extremal_project",
    ("tightspan", "geodesic_witness"): "tightspan.geodesic_witness",
}
# Hot functions that are only counted, which costs less than a span.
COUNTED = {
    ("setfunc", "component_signature"): "setfunc.component_signature.calls",
    ("tightspan", "conjugate_values"): "tightspan.conjugate_values.calls",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; ``after(result)`` may add counters."""
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


def install(tracer: Tracer):
    """Rebind every traced function in every catspan module that holds it;
    return a function that puts the originals back."""
    import catspan
    from catspan.isbell import ConjugatePair
    from catspan.setfunc import Budget

    modules = [m for name, m in list(sys.modules.items()) if name == "catspan" or name.startswith("catspan.")]
    counts = tracer.counts
    replaced = [(ConjugatePair, "label_of", ConjugatePair.label_of)]

    def rebind(module: str, attr: str, wrapper) -> None:
        original = getattr(getattr(catspan, module), attr)
        for m in modules:
            if getattr(m, attr, None) is original:
                replaced.append((m, attr, original))
                setattr(m, attr, wrapper)

    def extras(layer: str, original):
        """The counters a layer records beyond calls and time."""
        if layer == "setfunc.validate_functor":
            inner = tracer.span(layer, original)

            def validate_functor(*args, **kwargs):
                if tracer.parent_name() == "isbell.reflexive_scan":
                    counts["isbell.reflexive_scan.candidates"] += 1
                return inner(*args, **kwargs)

            return functools.wraps(original)(validate_functor)
        if layer == "setfunc.enumerate_nat":
            inner = tracer.span(layer, original)

            def enumerate_nat(source, target, budget=None):
                b = Budget.coerce(budget)
                before = b.used
                try:
                    result = inner(source, target, b)
                finally:
                    counts["setfunc.enumerate_nat.nodes"] += b.used - before
                counts["setfunc.enumerate_nat.solutions"] += len(result)
                return result

            return functools.wraps(original)(enumerate_nat)
        if layer == "isbell.conjugate":

            def elements(pair):
                counts["isbell.conjugate.elements"] += sum(len(pair.conjugate.at(o)) for o in pair.conjugate.base.objects)

            return tracer.span(layer, original, elements)
        if layer == "isbell.reflexive_scan":

            def functors(verdicts):
                counts["isbell.reflexive_scan.functors"] += len(verdicts)

            return tracer.span(layer, original, functors)
        return tracer.span(layer, original)

    for (module, attr), layer in SPANS.items():
        rebind(module, attr, extras(layer, getattr(getattr(catspan, module), attr)))
    for (module, attr), key in COUNTED.items():
        rebind(module, attr, tracer.count(key, getattr(getattr(catspan, module), attr)))

    read_document = catspan.fileformat.read_document

    def counted_read(path):
        doc = read_document(path)
        counts["fileformat.bytes_read"] += Path(path).stat().st_size
        return doc

    rebind("fileformat", "read_document", functools.wraps(read_document)(counted_read))
    ConjugatePair.label_of = tracer.span("isbell.label_of", ConjugatePair.label_of)

    def restore() -> None:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return restore


def run_one(main, argv: list[str]) -> tuple[float, dict]:
    """Run argv through main(); return the wall time and the outcome."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # what the interpreter would print on an uncaught error
            traceback.print_exc()
            code = 1
    return time.perf_counter() - start, {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    tasks_path, out_path = sys.argv[1], Path(sys.argv[2])
    tasks = json.loads(Path(tasks_path).read_text())
    start = time.perf_counter()
    import catspan.cli

    import_s = time.perf_counter() - start
    for argv in tasks:  # warm-up, so that no measured run pays first-call costs
        run_one(catspan.cli.main, argv)
    # Each task runs untraced and traced back to back, in alternating order,
    # so that neither the machine's drift nor the second run's warmer caches
    # fall on one side of the overhead only.
    tracer = Tracer()
    untraced, traced, untraced_s, traced_s = [], [], 0.0, 0.0
    for i, argv in enumerate(tasks):
        for with_spans in (False, True) if i % 2 == 0 else (True, False):
            if with_spans:
                restore = install(tracer)
                try:
                    seconds, outcome = run_one(tracer.span("cli.main", catspan.cli.main), argv)
                finally:
                    restore()
                traced_s += seconds
                traced.append(outcome)
            else:
                seconds, outcome = run_one(catspan.cli.main, argv)
                untraced_s += seconds
                untraced.append(outcome)

    with (out_path.parent / "spans.jsonl").open("w") as f:
        for rec in tracer.spans:
            f.write(json.dumps(rec) + "\n")
    calls = Counter(name for name, _, _, _ in tracer.spans)
    out_path.write_text(
        json.dumps(
            {
                "import_s": import_s,
                "untraced_s": untraced_s,
                "traced_s": traced_s,
                "untraced": untraced,
                "traced": traced,
                "calls": calls,
                "self_s": tracer.self_times(),
                "counts": tracer.counts,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
