"""catspan benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a catspan checkout. The harness writes the seeded
documents of one workload under .perfbench-work/, then:

* --trace 0: measures the cold start-up cost (``setup_s``) and runs the
  workload's fixed task list closed-loop with one client, one
  ``python -m catspan.cli ... --format structured`` subprocess at a time,
  in whole passes for about S seconds. It prints every end-to-end metric
  of BENCHMARK.json.
* --trace 1: runs the same task list in one process through
  ``catspan.cli.main(argv)``, first untraced and then with span-recording
  wrappers (see tracer.py), and prints every per-layer metric.

Every output is checked against independent facts (workloads.py); a
task fails on a wrong exit code, a traceback or a failed check. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics, each metric with its value and unit. Progress, the run context
and failures go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = Path("src")
FIXTURES = SRC / "catspan" / "fixtures"
WORK = Path(".perfbench-work")
SETUP_EVERY_S = 2.0  # one cold-import sample per this many seconds of the run


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------- run context


def cpu_steal_ticks() -> int | None:
    """The steal column of the aggregate cpu line of /proc/stat (read only)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def run_context() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": cpu_steal_ticks(),
    }


def source_digest() -> str:
    """Digest of the program under test and of the input generator, so
    records of one seed are only compared between runs of the same code."""
    h = hashlib.sha256()
    paths = [p for p in sorted((SRC / "catspan").rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    for path in paths + [HERE / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------ tasks


class Outcome:
    def __init__(self, exit_code: int, stdout: str, stderr: str, seconds: float = 0.0, rss_mb: float = 0.0):
        self.exit = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.rss_mb = rss_mb
        self.report = None
        try:
            self.report = json.loads(stdout) if stdout.strip() else None
        except ValueError:
            pass

    def fingerprint(self) -> dict:
        """What must repeat exactly across runs of one seed."""
        budget = (self.report or {}).get("budget") or {}
        return {
            "exit": self.exit,
            "sha256": hashlib.sha256(self.stdout.encode()).hexdigest(),
            "bytes": len(self.stdout.encode()),
            "budget_used": budget.get("used"),
        }


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(cmd: list[str], env: dict, out_dir: Path) -> Outcome:
    """One subprocess, timed from launch to reaping, with its max RSS."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        out_path.read_text(),
        err_path.read_text(),
        seconds,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
    )


def cli_argv(task: workloads.Task) -> list[str]:
    return [*task.argv, "--format", "structured"]


def run_cli(task: workloads.Task, env: dict, out_dir: Path) -> Outcome:
    return run_process([sys.executable, "-m", "catspan.cli", *cli_argv(task)], env, out_dir)


def evaluate(task: workloads.Task, outcome: Outcome, done: dict) -> str | None:
    """Why the task failed, or None. Records its report in ``done``."""
    done[task.name] = outcome.report
    if "Traceback (most recent call last)" in outcome.stderr:
        return f"traceback: {outcome.stderr.strip().splitlines()[-1]}"
    if task.expect_exit is not None and outcome.exit != task.expect_exit:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {outcome.exit}, expected {task.expect_exit} {last[0]}".strip()
    if task.structured:
        report = outcome.report
        if not isinstance(report, dict):
            return "no structured report on stdout"
        if report.get("subcommand") != task.argv[0] or report.get("ok") is not (outcome.exit == 0):
            return "report header disagrees with the subcommand or exit code"
    if task.check is not None:
        return task.check(outcome.report, done)
    return None


class Ledger:
    """Counts attempts and failures, and logs each failure once per name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seen: set[str] = set()

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.flag(name, reason)

    def flag(self, name: str, reason: str) -> None:
        self.failed += 1
        if name not in self.seen:
            self.seen.add(name)
            log(f"FAIL {name}: {reason}")


class Record:
    """Deterministic results of one (workload, seed, source) kept between
    runs: per-task fingerprints and the traced call counts. Every later run
    of the same seed, traced or not, must reproduce them exactly."""

    def __init__(self, workload: str, seed: int):
        self.path = WORK / "records" / f"{workload}-{seed}-{source_digest()}.json"
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}

    def expect(self, section: str, key: str, value: dict) -> str | None:
        table = self.data.setdefault(section, {})
        if key not in table:
            table[key] = value
            return None
        if table[key] != value:
            return f"differs from an earlier run of this seed: {table[key]} != {value}"
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True))


# ----------------------------------------------------------------- modes


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def cold_import(env: dict, out_dir: Path) -> float:
    outcome = run_process([sys.executable, "-c", "import catspan.cli"], env, out_dir)
    if outcome.exit != 0:
        raise RuntimeError(f"catspan.cli does not import: {outcome.stderr.strip()}")
    return outcome.seconds


def measure(tasks, workload, seconds, env, out_dir, record: Record, ledger: Ledger) -> dict:
    """Closed loop, one client: whole passes over the task list, one and
    more while the next pass is expected to end within ``seconds``. A task's
    latency is the mean of its runs. The cold imports for ``setup_s`` are
    spread over the run rather than taken back to back, because this
    machine's speed drifts between phases a few seconds long."""
    setup, timings, rss = [], [], 0.0
    runs: dict[str, list[float]] = {task.name: [] for task in tasks}
    first_pass: dict | None = None
    start = time.perf_counter()
    last_setup = start - SETUP_EVERY_S
    passes = 0
    while True:
        done: dict = {}
        fingerprints = {}
        for task in tasks:
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup.append(cold_import(env, out_dir))
                last_setup = time.perf_counter()
            outcome = run_cli(task, env, out_dir)
            runs[task.name].append(outcome.seconds)
            timings.append((task.name, outcome.seconds))
            rss = max(rss, outcome.rss_mb)
            fingerprint = outcome.fingerprint()
            reason = evaluate(task, outcome, done)
            if first_pass is None:
                reason = reason or record.expect("tasks", task.name, fingerprint)
                fingerprints[task.name] = fingerprint
            elif first_pass[task.name] != fingerprint:
                reason = reason or "output differs from the first pass of this run"
            ledger.record(task.name, reason)
        first_pass = first_pass or fingerprints
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break

    (out_dir / "timings.json").write_text(json.dumps({"setup_s": setup, "tasks": timings}, indent=1))
    latencies = [statistics.mean(v) for v in runs.values()]
    log(f"{workload}: {len(tasks)} tasks, passes: {passes}, {elapsed:.2f}s")
    return {
        "tasks_per_s": len(latencies) / sum(latencies),
        "task_p50_s": statistics.median(latencies),
        "task_p90_s": percentile(latencies, 90),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def trace(tasks, workload, env, out_dir, record: Record, ledger: Ledger) -> dict:
    (out_dir / "tasks.json").write_text(json.dumps([cli_argv(t) for t in tasks]))
    child = run_process(
        [sys.executable, str(HERE / "tracer.py"), str(out_dir / "tasks.json"), str(out_dir / "trace.json")], env, out_dir
    )
    if child.exit != 0:
        raise RuntimeError(f"traced run failed: {child.stderr.strip()}")
    result = json.loads((out_dir / "trace.json").read_text())

    done: dict = {}
    budget_used = 0
    untraced, traced = {}, {}
    for task, raw_u, raw_t in zip(tasks, result["untraced"], result["traced"]):
        u = Outcome(raw_u["exit"], raw_u["stdout"], raw_u["stderr"])
        t = Outcome(raw_t["exit"], raw_t["stdout"], raw_t["stderr"])
        untraced[task.name], traced[task.name] = u.fingerprint(), t.fingerprint()
        reason = evaluate(task, t, done)
        if not reason and traced[task.name] != untraced[task.name]:
            reason = "traced output differs from the untraced output"
        # In-process outputs must also match the subprocess outputs of the same seed.
        ledger.record(task.name, reason or record.expect("tasks", task.name, untraced[task.name]))
        budget_used += traced[task.name]["budget_used"] or 0

    calls, self_s, counts = result["calls"], result["self_s"], result["counts"]
    exact = {
        "setfunc.validate_functor.calls": calls.get("setfunc.validate_functor", 0),
        "setfunc.component_signature.calls": counts.get("setfunc.component_signature.calls", 0),
        "tightspan.conjugate_values.calls": counts.get("tightspan.conjugate_values.calls", 0),
    }
    reason = record.expect("counts", "traced", exact)
    if reason:
        ledger.flag("call counts", reason)

    def layer(name: str) -> dict:
        return {f"{name}.calls": calls.get(name, 0), f"{name}.self_s": self_s.get(name, 0.0)}

    nodes = counts.get("setfunc.enumerate_nat.nodes", 0)
    solutions = counts.get("setfunc.enumerate_nat.solutions", 0)
    candidates = counts.get("isbell.reflexive_scan.candidates", 0)
    functors = counts.get("isbell.reflexive_scan.functors", 0)
    metrics = {
        "cli.import_s": result["import_s"],
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.render.self_s": self_s.get("cli.render", 0.0),
        "cli.output_bytes": sum(f["bytes"] for f in traced.values()),
        **layer("fileformat.load"),
        "fileformat.bytes_read": counts.get("fileformat.bytes_read", 0),
        **layer("fincat.validate_category"),
        **layer("setfunc.validate_functor"),
        "setfunc.validate_functor.rejected": counts.get("setfunc.validate_functor.raised", 0),
        **layer("setfunc.enumerate_nat"),
        "setfunc.enumerate_nat.nodes": nodes,
        "setfunc.enumerate_nat.solutions": solutions,
        "setfunc.enumerate_nat.solutions_per_node": solutions / nodes if nodes else 0.0,
        **layer("setfunc.representable"),
        **layer("setfunc.make_transformation"),
        **layer("setfunc.compose_nat"),
        "setfunc.component_signature.calls": exact["setfunc.component_signature.calls"],
        **layer("isbell.conjugate"),
        "isbell.conjugate.elements": counts.get("isbell.conjugate.elements", 0),
        **layer("isbell.label_of"),
        "isbell.unit.self_s": self_s.get("isbell.unit", 0.0),
        "isbell.adjunction_transpose.self_s": self_s.get("isbell.adjunction_transpose", 0.0),
        "isbell.reflexive_scan.candidates": candidates,
        "isbell.reflexive_scan.functors": functors,
        "isbell.reflexive_scan.accept_ratio": functors / candidates if candidates else 0.0,
        **layer("tightspan.validate_metric"),
        **layer("tightspan.extremal_project"),
        "tightspan.conjugate_values.calls": exact["tightspan.conjugate_values.calls"],
        **layer("tightspan.geodesic_witness"),
        "setfunc.budget_used": budget_used,
        "trace.overhead_s": result["traced_s"] - result["untraced_s"],
    }
    log(f"{workload}: traced {len(tasks)} tasks in {result['traced_s']:.2f}s, untraced {result['untraced_s']:.2f}s")
    return metrics


def run_probes(probes, env, out_dir) -> int:
    """Run the known-defect probes apart from the measured tasks; return how many still fail."""
    failing = 0
    for task in probes:
        reason = evaluate(task, run_cli(task, env, out_dir), {})
        failing += reason is not None
        log(f"probe {task.name}: {'FAIL (known defect) ' + reason if reason else 'pass'}")
    return failing


# ------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catspan" / "cli.py").is_file() or not Path("BENCHMARK.json").is_file():
        log("perfbench: run from the root of a catspan checkout (src/catspan/cli.py and BENCHMARK.json not found)")
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    context = run_context()
    out_dir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    tasks, probes = workloads.build(args.workload, args.seed, out_dir / "docs", FIXTURES)
    env = cli_env()
    # Compiles the bytecode on the first run in a checkout, so that no timed process pays for it.
    warm = run_process([sys.executable, "-c", "import catspan.cli"], env, out_dir)
    if warm.exit != 0:
        log(f"perfbench: catspan.cli does not import: {warm.stderr.strip()}")
        return 2

    record, ledger = Record(args.workload, args.seed), Ledger()
    if args.trace:
        values = trace(tasks, args.workload, env, out_dir, record, ledger)
        values["cli.probe_failures"] = run_probes(probes, env, out_dir)
    else:
        values = measure(tasks, args.workload, args.seconds, env, out_dir, record, ledger)
        run_probes(probes, env, out_dir)
    record.save()

    steal = cpu_steal_ticks()
    if context["steal_ticks"] is not None and steal is not None:
        context["steal_s"] = (steal - context["steal_ticks"]) / os.sysconf("SC_CLK_TCK")
    context["loadavg_end"] = list(os.getloadavg())
    (out_dir / "context.json").write_text(json.dumps(context, indent=1))
    log(f"context: {json.dumps(context)}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"perfbench: no value for declared metrics {missing}")
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        log(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
