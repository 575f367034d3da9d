"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def test_short_mode_runs_every_workload_with_its_checks():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--short"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(summary) == ["gauss-q3", "gauss-q4", "witt-laws"]
    for name, result in summary.items():
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["attempted"] >= 1


def test_timed_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witt-laws", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "host speed:" in proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witt-laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _toy_package(tmp_path):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .mod import outer\n")
    (pkg / "mod.py").write_text(
        "import time\n"
        "def leaf():\n    time.sleep(0.01)\n"
        "def outer():\n    leaf()\n    leaf()\n    time.sleep(0.02)\n"
        "class Box:\n    def get(self):\n        return leaf()\n"
    )
    sys.path.insert(0, str(tmp_path))
    import toypkg.mod

    return toypkg


def test_tracer_self_time_spans_and_uninstall(tmp_path):
    toypkg = _toy_package(tmp_path)
    originals = (toypkg.outer, toypkg.mod.leaf, toypkg.mod.Box.__dict__["get"])
    tracer = Tracer(
        "toypkg",
        [Target("mod", "outer"), Target("mod", "leaf"), Target("mod", "Box.get", spans=False)],
    )
    tracer.install()
    tracer.set_bucket(0)
    toypkg.outer()  # the package-level name is wrapped too
    toypkg.mod.Box().get()
    tracer.uninstall()
    assert (toypkg.outer, toypkg.mod.leaf, toypkg.mod.Box.__dict__["get"]) == originals

    assert tracer.calls(0, "mod.outer") == 1
    assert tracer.calls(0, "mod.leaf") == 3
    assert tracer.calls(0, "mod.Box.get") == 1
    outer_self = tracer.self_seconds(0, "mod.outer")
    assert 0.015 < outer_self < 0.035  # its own sleep, not the two leaves
    assert tracer.self_seconds(0, "mod.Box.get") < 0.005
    spans = {s[1]: s for s in tracer.spans if s[1] != "mod.leaf"}
    leaves = [s for s in tracer.spans if s[1] == "mod.leaf"]
    assert "mod.Box.get" not in spans  # timed, but leaves no span record
    outer_id = spans["mod.outer"][0]
    assert [s[4] for s in leaves] == [outer_id, outer_id, None]


def test_traced_counts_repeat_exactly():
    workload = workloads.WORKLOADS["witt-laws"]()
    state = workload.setup()
    ops = workload.pass_ops(state, random.Random(7))
    buckets = []
    for _ in range(2):
        tracer = Tracer("wittlab", layers.TARGETS)
        tracer.install()
        try:
            for index, op in enumerate(ops):
                tracer.set_bucket(index)
                workload.run_op(state, op)
        finally:
            tracer.uninstall()
        buckets.append(
            {k: {n: c for n, (c, _) in b.items()} for k, b in tracer.buckets.items()}
        )
    assert buckets[0] == buckets[1]
    assert any(buckets[0][k] for k in range(len(ops)))


def test_checks_catch_wrong_outputs():
    workload = workloads.WORKLOADS["gauss-q4"]()
    systems = workload.setup()
    ops = workload.short_ops(systems)
    done = {i: workload.run_op(systems, op) for i, op in enumerate(ops)}
    assert workload.check(systems, ops, done) == {}

    report = json.loads(json.dumps(done[0]))
    report["g_brute"]["full"]["coords"][0][0] += 1
    assert workload.check(systems, ops, {0: report})
    report = json.loads(json.dumps(done[0]))
    report["convention"] = ["full"]
    assert workload.check(systems, ops, {0: report})

    laws = workloads.WORKLOADS["witt-laws"]()
    coeff = laws.setup()
    ops = laws.short_ops(coeff)
    results = {i: laws.run_op(coeff, op) for i, op in enumerate(ops)}
    assert laws.check(coeff, ops, results) == {}
    z3 = [i for i, op in enumerate(ops) if op[0] == "Z/3^8"][0]
    results[z3]["sum"] = results[z3]["prod"]
    assert laws.check(coeff, ops, results) == {z3: [
        "ghost map is not additive/multiplicative on sum"
    ]}


def test_layer_metrics_cover_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == layers.metric_names()
    assert sorted(layers.TRACED_PASSES) == sorted(workloads.WORKLOADS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
