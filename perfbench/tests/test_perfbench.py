"""Tests of the benchmark itself: metric names, the no-sources exit and the gates."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import bench, queries, suites
from perfbench.speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def program():
    return SimpleNamespace(**{m: importlib.import_module(f"enritch.{m}") for m in bench.MODULES})


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for line in (f"# {name} " for name in result["metrics"]):
        assert line in done.stdout


def test_exits_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "tight-span", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def corrupt(task: bench.Task, edit) -> bench.Task:
    def run(mods):
        code, out = task.run(mods)
        report = json.loads(out)
        edit(report)
        return code, json.dumps(report)

    return bench.Task(task.key, task.items, run, task.check)


def test_corrupted_suite_report_counts_as_failed(tmp_path):
    mods = program()
    tasks, _ = bench.WORKLOADS["functor-search"].setup(mods, 1, tmp_path, quick=True)
    tasks[1] = corrupt(tasks[1], lambda r: r["result"].update(discrepancies=1))
    tasks[2] = corrupt(tasks[2], lambda r: r.update(witnesses=None))
    passes = [bench.Runner(tasks, mods, SpeedProbe()).one_pass(None)]
    attempted, failures = bench.summarize(passes)
    assert attempted == len(tasks)
    assert [f.split(":")[0] for f in failures] == [tasks[1].key, tasks[2].key]
    assert "golden" in failures[1]
    assert passes[0].items == sum(t.items for t in tasks) - tasks[1].items - tasks[2].items


def test_corrupted_parmet_report_counts_as_failed(tmp_path):
    mods = program()
    tasks, _ = bench.WORKLOADS["parmet-queries"].setup(mods, 2, tmp_path, quick=True)
    kinds = [t.key.split("-", 1)[1].rsplit("-n", 1)[0] for t in tasks]
    sigma, library = kinds.index("sigma"), kinds.index("library")
    tasks[sigma] = corrupt(tasks[sigma], lambda r: r["result"].update(sigma="1/3"))
    tasks[library] = corrupt(tasks[library], lambda r: r["residual"][0].reverse())
    attempted, failures = bench.summarize([bench.Runner(tasks, mods, SpeedProbe()).one_pass(None)])
    assert attempted == len(tasks)
    assert sorted(f.split(":")[0] for f in failures) == sorted(
        [tasks[sigma].key, tasks[library].key])


def test_report_digest_ignores_input_paths():
    report = {"command": "verify t36", "inputs": {"/a/q.json": "abc"}, "result": {}, "witnesses": None}
    moved = dict(report, inputs={"/elsewhere/q.json": "abc"})
    assert suites.report_digest(report) == suites.report_digest(moved)
    assert suites.report_digest(report) != suites.report_digest(dict(report, inputs={"x": "abd"}))


def test_generator_is_seeded_and_writes_valid_inputs(tmp_path):
    import random

    first, writer = queries.build(random.Random(5), tmp_path / "a", quick=True)
    again, other = queries.build(random.Random(5), tmp_path / "b", quick=True)
    assert writer.input_digest() == other.input_digest()
    assert [q.key for q in first] == [q.key for q in again]
    mods = program()
    for query in first:
        space = mods.fileio.load_space(query.space.path)
        assert mods.parmet.validate_partial_metric(space).valid


def test_speed_probe_takes_its_time_out_and_scales_by_the_reference():
    import signal
    import time

    from perfbench import speed

    previous = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    probe.start()
    try:
        began = probe.mark()
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
        raw, _, scaled, _ = probe.measure(began)
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.samples) >= speed.WINDOW + 2
    assert 0.25 < raw < 0.35
    ratio = scaled / raw
    assert speed.NOMINAL_S / max(probe.samples) <= ratio <= speed.NOMINAL_S / min(probe.samples)
