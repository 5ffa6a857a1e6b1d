"""Tests of the benchmark itself.

Run from the repository root (the file name keeps it out of the default
test collection, because some tests run whole benchmark workloads)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import uuid

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run as bench  # noqa: E402


def _run_benchmark(workload, trace=0, seconds=1, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


def _last_line_result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


# ------------------------------------------------------------------ checks
@pytest.fixture(scope="module")
def records():
    """Real results of a small grid covering every property check."""
    from repro.sweep import FoldedSweepRunner, SweepSpec

    bandwidths = [100.0, 400.0]
    configs = SweepSpec(
        fabrics=["Fat-tree", "OverSub. Fat-tree"], models=["Mixtral-8x7B"],
        nic_bandwidths_gbps=bandwidths,
    ).expand() + SweepSpec(
        fabrics=["MixNet"], models=["Mixtral-8x7B"],
        failures=["none", "nic:1", "nic:2", "gpu", "server"],
        nic_bandwidths_gbps=bandwidths,
    ).expand()
    with FoldedSweepRunner(configs) as runner:
        return [result.to_dict() for result in runner.run()]


def _find(records, **axes):
    for record in records:
        if all(record["config"][key] == value for key, value in axes.items()):
            return record
    raise KeyError(axes)


def test_valid_results_pass_every_check(records):
    assert checks.physical_checks(records) == []
    assert checks.check_oracle([(r, copy.deepcopy(r)) for r in records]) == []


def test_perturbed_oracle_value_is_rejected(records):
    reference = copy.deepcopy(records[0])
    reference["iteration_time_s"] *= 1 + 1e-6
    assert checks.check_oracle([(records[0], reference)])


def test_bandwidth_dependent_bytes_are_rejected(records):
    corrupted = copy.deepcopy(records)
    _find(corrupted, fabric="Fat-tree", nic_bandwidth_gbps=400.0)["comm_bytes"] *= 1.001
    assert any("comm_bytes" in error for error in checks.check_bandwidth(corrupted))


def test_slower_at_higher_bandwidth_is_rejected(records):
    corrupted = copy.deepcopy(records)
    low = _find(corrupted, fabric="MixNet", failure="none", nic_bandwidth_gbps=100.0)
    _find(corrupted, fabric="MixNet", failure="none", nic_bandwidth_gbps=400.0)[
        "iteration_time_s"] = low["iteration_time_s"] * 1.01
    assert checks.check_bandwidth(corrupted)


@pytest.mark.parametrize("slower,faster", [
    ("nic:2", "none"), ("gpu", "none"), ("server", "none"), ("server", "gpu"),
])
def test_failure_faster_than_a_milder_one_is_rejected(records, slower, faster):
    corrupted = copy.deepcopy(records)
    mild = _find(corrupted, fabric="MixNet", failure=faster, nic_bandwidth_gbps=400.0)
    _find(corrupted, fabric="MixNet", failure=slower, nic_bandwidth_gbps=400.0)[
        "iteration_time_s"] = mild["iteration_time_s"] * 0.99
    assert checks.check_failure_order(corrupted)


def test_oversubscribed_faster_than_fat_tree_is_rejected(records):
    corrupted = copy.deepcopy(records)
    full = _find(corrupted, fabric="Fat-tree", nic_bandwidth_gbps=100.0)
    _find(corrupted, fabric="OverSub. Fat-tree", nic_bandwidth_gbps=100.0)[
        "iteration_time_s"] = full["iteration_time_s"] * 0.99
    assert checks.check_oversubscription(corrupted)


def test_below_compute_time_is_rejected(records):
    corrupted = copy.deepcopy(records[:1])
    corrupted[0]["iteration_time_s"] = corrupted[0]["compute_time_s"] * 0.5
    assert checks.check_compute_floor(corrupted)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_is_rejected(records, value):
    corrupted = copy.deepcopy(records[:1])
    corrupted[0]["stage_time_s"] = value
    assert checks.check_finite_positive(corrupted)


def test_fallback_solver_is_refused_when_a_compiler_exists():
    assert checks.check_solver("vectorized", has_compiler=True)
    assert checks.check_solver("native", has_compiler=True) == []
    assert checks.check_solver("vectorized", has_compiler=False) == []


# ------------------------------------------------------------------ tracing
def test_tracer_wraps_every_binding_site_and_restores_them():
    import repro.sim.flows
    import repro.sweep.runner
    from tracing import Tracer

    original = repro.sim.flows.service_advance_requests
    tracer = Tracer()
    tracer.install()
    try:
        assert repro.sweep.runner.service_advance_requests is not original
        assert (repro.sweep.runner.service_advance_requests
                is repro.sim.flows.service_advance_requests)
        repro.sweep.runner.service_advance_requests([])
        repro.sim.flows.service_advance_requests([])
        assert tracer.aggregates()["sim.service_advance"]["calls"] == 2
    finally:
        tracer.uninstall()
    assert repro.sim.flows.service_advance_requests is original
    assert repro.sweep.runner.service_advance_requests is original


def test_declared_metrics_match_the_runner():
    assert _declared("end_to_end") == bench.END_TO_END
    assert _declared("per_layer") == bench.per_layer_units()


# ------------------------------------------------------------- whole runs
def test_last_line_parses_as_a_result():
    result = _last_line_result(_run_benchmark("paper-scale-cases"))
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics_and_holds_predictions():
    done = _run_benchmark("failure-cli", trace=1)
    result = _last_line_result(done)
    assert result["correct"], done.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(bench.per_layer_units())
    assert metrics["sweep.pool.spawn_s"] > 0 and metrics["sweep.template.disk"] > 0
    assert metrics["sim.executor_run.calls"] == 0 and metrics["sweep.fallbacks"] == 0


def _tracked_digest():
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True)
    if listed.returncode != 0:
        pytest.skip("not a git checkout")
    digest = hashlib.sha256()
    for path in sorted(filter(None, listed.stdout.split(b"\0"))):
        full = os.path.join(ROOT, path.decode())
        digest.update(path)
        if os.path.exists(full):
            with open(full, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def _processes_with_marker(marker):
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/environ", "rb") as handle:
                if marker.encode() in handle.read():
                    found.append(int(pid))
        except OSError:
            continue
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_run_leaves_no_process_and_no_tracked_change():
    before = _tracked_digest()
    marker = f"PERFBENCH_SELFTEST_MARK={uuid.uuid4().hex}"
    env = dict(os.environ)
    env[marker.split("=")[0]] = marker.split("=")[1]
    _last_line_result(_run_benchmark("failure-cli", env=env))
    assert _processes_with_marker(marker) == []
    assert _tracked_digest() == before


def test_refuses_without_the_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_benchmark("fig12-grid", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
