"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run, which
collects only test_*.py files.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import scipy.sparse.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sb():
    return run.load_package()


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(workload, seed, seconds, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    out = _result("checks", 5, 0.2, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_layer_counts_repeat_across_runs_of_one_seed():
    # Different run lengths give different numbers of passes; the
    # per-pass counts must still agree exactly.
    a = _result("checks", 9, 0.2, 1)["metrics"]
    b = _result("checks", 9, 5.0, 1)["metrics"]
    for name, metric in a.items():
        if not name.endswith(("self_ms", "tracing_overhead", "coverage")):
            assert metric["value"] == b[name]["value"], name


def test_trace_counts_repeat_for_one_seed(sb):
    wl = workloads.WORKLOADS["trace-coarse"]
    inputs = [wl.make_inputs(sb, 4, ROOT, None) for _ in range(2)]
    counts = []
    for inp in inputs:
        tracer = spans.Tracer()
        with spans.traced(tracer):
            branch = wl.run_pass(sb, inp, 1)
        assert wl.check(sb, inp, 1, branch) == (1, [])
        counts.append((Counter(s[0] for s in tracer.spans), tracer.lu_nnz,
                       [q.diagnostics["newton_iters"] for q in branch.points]))
    assert counts[0] == counts[1]
    assert counts[0][0]["continuation.trace_branch"] == 1


def test_rebinding_reaches_every_namespace_and_is_undone(sb):
    modules = spans._package_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    splu = scipy.sparse.linalg.splu
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert sb.steady.jacobian is sb.continuation.jacobian
        assert sb.steady.jacobian is not before[("spark_branch.steady",
                                                 "jacobian")]
        assert sb.cli.sparking_voltage is sb.electron.sparking_voltage
        assert scipy.sparse.linalg.splu is not splu
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert scipy.sparse.linalg.splu is splu


def test_rows_outside_emission_region_count_as_failed(sb):
    grid = sb.RadialGrid(257)
    rows = workloads.sweep_rows(sb, 3, workloads.load_continuum(ROOT))
    # gamma < 1/a: the first has no sparking voltage at all, the second
    # has a root but lies outside the region the sweep certifies.
    rows += [(sb.Parameters(2.0, 3.0, 0.1), None),
             (sb.Parameters(2.0, 3.0, 0.3), None)]
    wl = workloads.WORKLOADS["sweep"]
    inputs = workloads.Inputs(grid, [rows])
    attempted, errors = wl.check(sb, inputs, 0, wl.run_pass(sb, inputs, 0))
    assert attempted == 8
    assert len(errors) == 2
    assert "NoSignChange" in errors[0]
    assert "outside the emission region" in errors[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
