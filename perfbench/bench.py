"""The enritch benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets the workload up several times (import of ``enritch``, input
generation, quantale load, law check and diagonal-quantaloid build), half
before and half after its passes, and reports the median as ``setup_s``.
It then runs passes over the workload's jobs, one after the other from one
client in this process, until the next pass would end after ``--seconds``;
it always runs at least one.  Every output is checked against its known
answer.

``--trace 0`` prints the end-to-end metrics, timed in reference seconds
(see ``speed``) with the raw seconds beside them.  ``--trace 1`` first runs
passes untraced for half the time, then installs the wrappers of
``tracer`` and runs traced passes for the other half; it prints the
per-layer metrics, per traced pass and in plain seconds, and the tracing
overhead (traced ``wall_s`` minus untraced ``wall_s``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give every
metric with its unit, ``failed_frac`` and the run environment; the same
record, with the spans of a traced run, is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

# Standard-library modules the program imports, loaded before set-up is
# timed so that every set-up repetition measures the same work.
import concurrent.futures.thread  # noqa: F401
import fractions  # noqa: F401
import itertools  # noqa: F401

from . import queries, suites
from .speed import NOMINAL_S, SpeedProbe
from .tracer import KERNEL, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MODULES = ("cli", "fileio", "parmet", "categories", "relations", "hull", "verify",
           "quantale", "diagonals", "rationals")
SETUP_REPS = 4  # before the passes, and as many after

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_CALLS_AND_SELF = [
    f"{name}.{kind}"
    for name in (
        "hull.tight_span", "hull.is_hypercomplete", "hull.tight_span_restriction",
        "hull.enumerate_symmetric_categories", "hull.is_essential_bruteforce",
        "hull.extend_along",
        "categories.validate_category", "categories.validate_functor",
        "categories.is_fully_faithful", "categories.enumerate_presheaves",
        "relations.rel_compose", "relations.rel_residual",
    )
    for kind in ("calls", "self_s")
]
_PARMET = ("validate_partial_metric", "tighten_sweep", "sigma", "tight_violation",
           "dense_isometry_check", "hyperconvex_family_check")

PER_LAYER = {
    **{f"diagonals.{name}.calls": "count" for name in KERNEL},
    "diagonals.self_s": "s",
    "diagonals.build_s": "s",
    "quantale.check_quantale_laws.self_s": "s",
    **{name: ("count" if name.endswith(".calls") else "s") for name in _CALLS_AND_SELF},
    "hull.tight_span.members": "count",
    "hull.is_hypercomplete.tight_columns": "count",
    "hull.kernel_calls_per_tight_column": "calls/column",
    "hull.enumerate_symmetric_categories.yielded": "count",
    **{f"parmet.{name}.self_s": "s" for name in _PARMET},
    "rationals.ExtRat.ops": "count",
    "fileio.self_s": "s",
    "cli.main.self_s": "s",
    "verify.run_suite.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Task:
    """One job of a pass: how to run it, its known answer and its item count."""

    key: str
    items: int
    run: Callable[[SimpleNamespace], tuple[object, str]]
    check: Callable[[object, str], str | None]


# -- workloads -----------------------------------------------------------------


class SuiteWorkload:
    def __init__(self, jobs, quick_jobs, reached):
        self.jobs, self.quick_jobs, self.reached = jobs, quick_jobs, reached

    def setup(self, mods, seed: int, workdir: Path, quick: bool):
        data = ROOT / "src" / "enritch" / "data"
        jobs = self.quick_jobs if quick else self.jobs
        digest = hashlib.sha256()
        for name in sorted({job.quantale for job in jobs}):
            path = data / f"{name}.json"
            digest.update(f"{name}:{mods.fileio.file_digest(path)}".encode())
            quantale = mods.fileio.load_quantale(path)
            if mods.quantale.check_quantale_laws(quantale).passed:
                mods.diagonals.diagonal_quantaloid(quantale)
        golden = suites.load_golden()
        tasks = [
            Task(job.key, job.count,
                 lambda m, argv=job.argv(data): queries.run_cli(m, argv),
                 lambda code, out, job=job: suites.check(job, code, out, golden))
            for job in jobs
        ]
        return tasks, digest.hexdigest()


class ParmetWorkload:
    def __init__(self, reached):
        self.reached = reached

    def setup(self, mods, seed: int, workdir: Path, quick: bool):
        items, writer = queries.build(random.Random(seed), workdir / "inputs", quick)
        for query in items:
            query.prepare(mods)
        mods.diagonals.diagonal_quantaloid(mods.quantale.LAWVERE)
        tasks = [
            Task(q.key, 1, q.run,
                 lambda code, out, q=q: q.check(code, out, writer.digests))
            for q in items
        ]
        return tasks, writer.input_digest()


_SUITE_REACH = ["cli.main", "fileio.file_digest", "quantale.check_quantale_laws",
                "diagonals.build", "verify.run_suite", "diagonals.compose",
                "diagonals.limpl", "diagonals.hom_meet", "diagonals.hom_join",
                "hull.enumerate_symmetric_categories", "categories.validate_category",
                "categories.validate_functor", "categories.is_fully_faithful",
                "relations.rel_compose", "relations.rel_residual",
                "hull.is_hypercomplete"]

# Each workload with the traced names it must reach; README.md says why it exists.
WORKLOADS = {
    "tight-span": SuiteWorkload(
        suites.TIGHT_SPAN, suites.TIGHT_SPAN_QUICK,
        _SUITE_REACH + ["diagonals.rimpl", "hull.tight_span", "hull.tight_span_restriction",
                        "categories.enumerate_presheaves"]),
    "functor-search": SuiteWorkload(
        suites.FUNCTOR_SEARCH, suites.FUNCTOR_SEARCH_QUICK,
        _SUITE_REACH + ["hull.is_essential_bruteforce", "hull.extend_along"]),
    "parmet-queries": ParmetWorkload(
        ["cli.main", "fileio.file_digest", "rationals.ExtRat.ops",
         "categories.validate_category", "relations.rel_residual",
         "diagonals.compose", "diagonals.limpl", "diagonals.hom_meet"]
        + [f"parmet.{name}" for name in _PARMET]),
}


# -- running -------------------------------------------------------------------


def import_program() -> SimpleNamespace:
    """Import ``enritch`` afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "enritch" or n.startswith("enritch.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"enritch.{m}") for m in MODULES})


@dataclass
class Pass:
    wall: float
    latencies: list  # per job, in reference seconds
    cpu: list
    raw_latencies: list  # per job, in seconds
    raw_cpu: list
    items: int
    failures: list


def job_medians(passes: list[Pass], field: str) -> list[float]:
    """Each job's median over the passes.

    A job's median over the passes is not moved by a slow spell of the
    machine that covers less than half of them.
    """
    return [statistics.median(column) for column in zip(*(getattr(p, field) for p in passes))]


class Runner:
    def __init__(self, tasks: list[Task], mods, probe: SpeedProbe):
        self.tasks, self.mods, self.probe = tasks, mods, probe
        self.verdicts: dict = {}

    def check(self, index: int, code, out: str) -> str | None:
        key = (index, code, out)
        if key not in self.verdicts:
            self.verdicts[key] = self.tasks[index].check(code, out)
        return self.verdicts[key]

    def one_pass(self, tracer: Tracer | None) -> Pass:
        gc.collect()
        outcomes = []
        start = time.perf_counter()
        for index, task in enumerate(self.tasks):
            if tracer is not None:
                tracer.job = task.key
            began = self.probe.mark()
            try:
                code, out = task.run(self.mods)
            except Exception:  # a crash of the program is a failed job, not a crash here
                code, out = "exception", traceback.format_exc()
            outcomes.append((index, self.probe.measure(began), code, out))
        wall = time.perf_counter() - start
        items, failures = 0, []
        for index, _, code, out in outcomes:
            reason = self.check(index, code, out)
            if reason is None:
                items += self.tasks[index].items
            else:
                failures.append(f"{self.tasks[index].key}: {reason}")
        times = list(zip(*(o[1] for o in outcomes)))
        return Pass(wall, list(times[2]), list(times[3]), list(times[0]), list(times[1]),
                    items, failures)

    def passes(self, seconds: float, tracer: Tracer | None = None) -> list[Pass]:
        done: list[Pass] = []
        while True:
            done.append(self.one_pass(tracer))
            spent = sum(p.wall for p in done)
            if spent + statistics.median(p.wall for p in done) > seconds:
                return done


def summarize(passes: list[Pass]) -> tuple[int, list[str]]:
    """Jobs attempted, and one line per job whose output was wrong."""
    return sum(len(p.latencies) for p in passes), [f for p in passes for f in p.failures]


def end_to_end(setup_times: list[float], passes: list[Pass], raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics, in reference seconds (or in seconds with ``raw``)."""
    prefix = "raw_" if raw else ""
    latencies = [1000 * t for t in job_medians(passes, prefix + "latencies")]
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    wall = sum(latencies) / 1000
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": sum(job_medians(passes, prefix + "cpu")),
        "items_per_s": statistics.mean(p.items for p in passes) / wall,
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, untraced: list[Pass], traced: list[Pass]) -> dict[str, float]:
    n = len(traced)

    def per_pass(value):
        return value // n if isinstance(value, int) and value % n == 0 else value / n

    values = {}
    for name in PER_LAYER:
        parts = name.rsplit(".", 1)
        if name.endswith(".calls"):
            values[name] = per_pass(tracer.calls(parts[0]))
        elif name.endswith(".self_s") and parts[0].count(".") == 1:
            values[name] = per_pass(tracer.self_s(parts[0]))
    tight = tracer.tight_members + tracer.tight_columns
    untraced_wall = sum(job_medians(untraced, "latencies"))
    traced_wall = sum(job_medians(traced, "latencies"))
    values.update({
        "diagonals.self_s": per_pass(tracer.kernel_s),
        "diagonals.build_s": per_pass(tracer.totals["diagonals.build"].total_s
                                      if "diagonals.build" in tracer.totals else 0.0),
        "hull.tight_span.members": per_pass(tracer.tight_members),
        "hull.is_hypercomplete.tight_columns": per_pass(tracer.tight_columns),
        "hull.kernel_calls_per_tight_column": tracer.kernel_calls_in_tight / tight if tight else 0.0,
        "hull.enumerate_symmetric_categories.yielded": per_pass(
            tracer.totals["hull.enumerate_symmetric_categories"].yielded
            if "hull.enumerate_symmetric_categories" in tracer.totals else 0),
        "rationals.ExtRat.ops": per_pass(tracer.extrat_ops),
        "fileio.self_s": per_pass(tracer.module_self_s("fileio")),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return {name: values[name] for name in PER_LAYER}


def unreached(tracer: Tracer, names: list[str]) -> list[str]:
    missing = list(tracer.missing)
    for name in names:
        count = tracer.extrat_ops if name == "rationals.ExtRat.ops" else tracer.calls(name)
        if not count:
            missing.append(name)
    return missing


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(inherited_workers) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ENRITCH_WORKERS": os.environ.get("ENRITCH_WORKERS"),
        "ENRITCH_WORKERS_inherited": inherited_workers,
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small instances of every job kind, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "enritch" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One client, no worker threads: the program's default.
    inherited_workers = os.environ.pop("ENRITCH_WORKERS", None)
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    # Untraced runs time in reference seconds; a traced run, whose figures
    # have no bound, in plain seconds (a probe never started).
    probe = SpeedProbe()
    setup_times: list[float] = []
    raw_setup_times: list[float] = []

    def setup():
        # Every repetition writes the same files again in place: deleting
        # and recreating them slows the file system down run after run.
        workdir.mkdir(exist_ok=True)
        began = probe.mark()
        mods = import_program()
        tasks, input_digest = workload.setup(mods, args.seed, workdir, args.quick)
        raw, _, seconds, _ = probe.measure(began)
        raw_setup_times.append(raw)
        setup_times.append(seconds)
        return mods, tasks, input_digest

    reps = 1 if args.quick else SETUP_REPS
    try:
        if not args.trace:
            probe.start()
        for _ in range(reps):
            mods, tasks, input_digest = setup()
        if not Path(mods.cli.__file__).resolve().is_relative_to(src):
            print(f"perfbench: enritch imported from {mods.cli.__file__}", file=sys.stderr)
            return 2

        runner = Runner(tasks, mods, probe)
        tracer = None
        raw_metrics = {}
        if args.trace:
            untraced = runner.passes(args.seconds / 2)
            tracer = Tracer()
            tracer.install(vars(mods))
            try:
                traced = runner.passes(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            all_passes = untraced + traced
            metrics = per_layer(tracer, untraced, traced)
            units = PER_LAYER
        else:
            all_passes = runner.passes(args.seconds)
            # Set up as often again after the passes, so that the median
            # samples the machine's speed across the whole run.
            for _ in range(reps):
                setup()
            metrics = end_to_end(setup_times, all_passes)
            raw_metrics = end_to_end(raw_setup_times, all_passes, raw=True)
            units = END_TO_END
    finally:
        if not args.trace:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = summarize(all_passes)
    trace_errors = unreached(tracer, workload.reached) if tracer is not None else []
    correct = not failures and not trace_errors
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "input_digest": input_digest,
        "passes": len(all_passes),
        "setup_times_s": setup_times,
        "raw_setup_times_s": raw_setup_times,
        "speed": {"nominal_s": NOMINAL_S, "samples": len(probe.samples),
                  "median_s": statistics.median(probe.samples) if probe.samples else None},
        "environment": environment(inherited_workers),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "unreached": trace_errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw_metrics": raw_metrics,
    }
    if tracer is not None:
        record["totals"] = {k: vars(v) for k, v in sorted(tracer.totals.items())}
        record["spans"] = tracer.spans
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")

    for failure in failures[:20]:
        print(f"perfbench: wrong output: {failure}", file=sys.stderr)
    for name in trace_errors:
        print(f"perfbench: traced name not reached or missing: {name}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} inputs {input_digest} "
          f"passes {len(all_passes)}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# failed_frac {record['failed_frac']:.6g} ({len(failures)} of {attempted} jobs)")
    if probe.samples:
        print(f"# reference loop median {statistics.median(probe.samples) * 1000:.4g} ms "
              f"over {len(probe.samples)} samples, nominal {NOMINAL_S * 1000:.4g} ms")
    for name, value in metrics.items():
        raw = f" (raw {raw_metrics[name]:.6g})" if name in raw_metrics else ""
        print(f"# {name} {value:.6g} {units[name]}{raw}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1
