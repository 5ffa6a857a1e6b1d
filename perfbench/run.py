"""Run one benchmark workload and print its metrics on the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig12-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics; ``--trace 1`` is a separate run with every layer entry wrapped
(``tracing.py``) and reports the per-layer metrics.  Both run the same
passes and the same correctness gate, and both print one JSON object::

    {"correct": true, "attempted": 800, "failed": 0, "metrics": {...}}

Everything the run writes stays under ``.bench_build/perfbench/`` in the
checkout: the compiled kernel (``tmp/``), a directory per run for the result
cache and template store (removed at the end), the last result of each
workload and seed (``results/``) and the span files (``trace/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import checks
from tracing import ENTRIES, Tracer, merge_aggregates
from workloads import WORKLOADS, Workload, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: Configurations per run recomputed with the scalar reference solver.
ORACLE_SAMPLE = 6

#: Cold first passes per untraced run; ``first_pass_s`` is their median.
COLD_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "first_pass_s": "s",
    "configs_per_s": "configs/s",
    "peak_rss_mb": "MiB",
}

_SPAN_METRICS = (
    ("moe.generate_trace", ("calls", "self_s")),
    ("moe.gate_init", ("calls", "self_s")),
    ("moe.expert_loads", ("self_s",)),
    ("core.simulator_init", ("self_s",)),
    ("core.reconfigure_ocs", ("calls", "self_s")),
    ("core.controller_install", ("calls",)),
    ("fabric.build_region", ("self_s",)),
    ("fabric.region_clone", ("self_s",)),
    ("sim.admission_plan", ("self_s",)),
    ("sim.add_flows", ("calls", "self_s")),
    ("sim.service_advance", ("calls", "self_s")),
    ("sim.executor_run", ("calls", "self_s")),
    ("sim.next_completion", ("self_s",)),
    ("sim.advance", ("self_s",)),
    ("sweep.template.get", ("self_s",)),
    ("sweep.template_store.load", ("self_s",)),
    ("sweep.template_store.save", ("self_s",)),
)

#: Registered caches whose entry counts are reported (``repro.`` dropped
#: from the metric name to keep it within 64 characters).
CACHES = (
    "repro.core.runtime._ADJUSTED_FLOW_CACHE",
    "repro.core.runtime._BASE_FLOW_CACHE",
    "repro.core.runtime._PROFILED_DEMAND_CACHE",
    "repro.core.runtime._RECORD_CACHE",
    "repro.moe.gate._INIT_STATE_CACHE",
    "repro.moe.trace._TRACE_MEMO",
    "repro.sweep.template.StructuralTemplate._admissions",
    "repro.sweep.template.StructuralTemplate._allocations",
    "repro.sweep.template.StructuralTemplate._hints",
    "repro.sweep.template.StructuralTemplate._profiles",
    "repro.sweep.template.StructuralTemplate._records",
    "repro.sweep.template.StructuralTemplate._regions",
    "repro.sweep.template._TEMPLATE_CACHE",
)


def _cache_metric(name: str) -> str:
    return f"cache.{name[len('repro.'):]}.entries"


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    empty = {entry: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for entry, _, _ in ENTRIES}
    return {
        name: "s" if name.endswith("_s") else "count"
        for name in layer_metrics(empty, [], {})
    }


# --------------------------------------------------------------- environment
def prepare_environment() -> None:
    """Pin where the program reads and writes, and drop behaviour switches.

    ``REPRO_*`` variables select solvers, kernel modes and compiler flags;
    the benchmark measures the defaults a user gets, so none may leak in.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # Users' interpreters cache bytecode; without it every set-up would
    # measure compiling the package.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def measure_setup(workload: Workload) -> float:
    """One cold set-up: a fresh interpreter importing the entry points and
    loading the already-built kernel, timed from just before its start."""
    code = (
        "import time\n"
        f"{workload.setup_imports()}\n"
        "from repro.sim._native import native_lib\n"
        "assert native_lib() is not None, 'native kernel did not load'\n"
        "print(repr(time.monotonic()))\n"
    )
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def host_fingerprint() -> Dict[str, object]:
    import sysconfig

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "kernel_cflags": " ".join(
            filter(None, [sysconfig.get_config_var("CFLAGS"), sysconfig.get_config_var("CCSHARED")])
        ),
    }


# ------------------------------------------------------------------ layers
def layer_metrics(
    spans: Dict[str, Dict[str, float]],
    records: List[Dict[str, object]],
    caches: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metrics from span aggregates, result fields and cache sizes."""
    metrics: Dict[str, float] = {}
    for entry, measures in _SPAN_METRICS:
        for measure in measures:
            metrics[f"{entry}.{measure}"] = spans[entry][measure]
    for counter in ("events", "solve_rounds", "rounds_replayed"):
        metrics[f"sim.{counter}"] = sum(int(r.get(counter, 0)) for r in records)
    for phase in ("setup_s", "solve_s", "advance_s", "store_s"):
        metrics[f"sweep.phase.{phase}"] = sum(float(r.get(phase, 0.0)) for r in records)
    metrics["sweep.fallbacks"] = spans["sweep.fallback"]["calls"]
    for source in ("built", "memory", "disk"):
        metrics[f"sweep.template.{source}"] = sum(
            1 for r in records if r.get("template_source") == source
        )
    metrics["sweep.pool.spawn_s"] = spans["sweep.pool.spawn"]["total_s"]
    metrics["sweep.pool.wait_s"] = spans["sweep.pool.wait"]["total_s"]
    metrics["sweep.pool.respawns"] = spans["sweep.pool.respawn"]["calls"]
    for name in CACHES:
        metrics[_cache_metric(name)] = caches.get(name, 0)
    return metrics


def check_predictions(
    workload: Workload,
    merged: Dict[str, Dict[str, float]],
    parent: Dict[str, Dict[str, float]],
) -> List[str]:
    """Entries predicted to work must be called; bypassed ones must not."""
    errors = []
    for scope, table in (("run", merged), ("parent", parent)):
        for entry in workload.predicted_work.get(scope, ()):
            if table[entry]["calls"] == 0:
                errors.append(f"{scope}: {entry} was predicted to work but was never called")
        for entry in workload.predicted_bypass.get(scope, ()):
            if table[entry]["calls"] != 0:
                errors.append(
                    f"{scope}: {entry} was predicted to be bypassed but was called "
                    f"{table[entry]['calls']} time(s)"
                )
    return errors


# ---------------------------------------------------------------------- run
def correctness_gate(
    workload: Workload, records: List[Dict[str, object]], seed: int
) -> List[str]:
    from repro.core.caches import clear_all_caches
    from repro.sweep import SweepConfig, run_config

    errors = checks.physical_checks(records)
    if workload.folded and not sum(int(r["solve_rounds"]) for r in records):
        errors.append("no water-filling rounds ran in the native batch kernel")
    # The reference recomputation starts from empty memos, so a cached
    # artifact the timed passes reused is rebuilt independently too.
    clear_all_caches()
    sample = random.Random(seed).sample(records, min(ORACLE_SAMPLE, len(records)))
    pairs = [
        (record, run_config(SweepConfig.from_dict(record["config"]), solver="scalar").to_dict())
        for record in sample
    ]
    return errors + checks.check_oracle(pairs)


def run(args: argparse.Namespace) -> Optional[Dict[str, object]]:
    import repro
    from repro.sim._native import native_lib
    from repro.sim.flows import resolve_solver

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return None
    native_lib()  # builds the kernel on the first run in a checkout
    refusal = checks.check_solver(resolve_solver(None), checks.compiler_present())
    if refusal:
        print(f"perfbench: refused: {refusal[0]}", file=sys.stderr)
        return None

    for sub in ("runs", "results", "trace"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(WORK, "runs"))
    workload = make_workload(args.workload, args.seed, run_dir)
    tracer = None
    if args.trace:
        tracer = Tracer(worker_dir=os.path.join(run_dir, "workers"))
    try:
        setup_s = measure_setup(workload)
        if tracer is not None:
            tracer.install()
        outcome = run_passes(workload, args, tracer)
        if tracer is not None:
            tracer.uninstall()
        errors = correctness_gate(workload, outcome["records"], args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
    for error in errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    warm = outcome["warm"]
    end_to_end = {
        "setup_s": setup_s,
        "first_pass_s": statistics.median(outcome["cold_seconds"]),
        "configs_per_s": sum(a - f for a, f, _ in warm) / sum(s for _, _, s in warm),
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_fingerprint(),
        "cold_seconds": outcome["cold_seconds"],
        "warm_passes": [{"attempted": a, "failed": f, "seconds": s} for a, f, s in warm],
        "end_to_end": end_to_end,
    }
    results_dir = os.path.join(WORK, "results")
    if tracer is not None:
        snapshot = outcome["snapshot"]
        errors += snapshot["prediction_errors"]
        for error in snapshot["prediction_errors"]:
            print(f"perfbench: prediction failed: {error}", file=sys.stderr)
        report["trace"] = snapshot
        untraced = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace0.json")
        if not workload.traced_like_timed:
            print(
                "perfbench: traced passes run in-process here, so their gap to "
                "the untraced run is not the tracing overhead",
                file=sys.stderr,
            )
        elif os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as handle:
                plain = json.load(handle)["end_to_end"]["configs_per_s"]
            traced = end_to_end["configs_per_s"]
            snapshot["overhead"] = plain / traced - 1.0
            print(
                f"perfbench: tracing overhead {snapshot['overhead']:+.1%} "
                f"({traced:.2f} traced vs {plain:.2f} untraced configs/s)",
                file=sys.stderr,
            )
        with open(os.path.join(WORK, "trace", f"{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(dict(report, spans=tracer.spans()), handle)
        units, values = per_layer_units(), snapshot["per_layer"]
    else:
        units, values = END_TO_END, end_to_end
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return {
        "correct": not errors,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run_passes(workload: Workload, args: argparse.Namespace, tracer) -> Dict[str, object]:
    """Cold samples first, then warm passes until ``--seconds`` have passed.

    Pass 0 runs in this process with every cache empty; untraced runs add
    ``COLD_SAMPLES - 1`` cold passes in fresh processes, and ``first_pass_s``
    is the median of the cold samples.  The warm passes follow in this
    process with structural templates kept from pass 0.
    """
    traced = tracer is not None
    attempted = failed = 0
    records: List[Dict[str, object]] = []
    cold_seconds: List[float] = []
    warm: List[tuple] = []
    snapshot = peak_rss_mb = None

    def account(outcome) -> None:
        nonlocal attempted, failed
        attempted += outcome[0]
        failed += outcome[1]
        records.extend(outcome[2])

    start = time.perf_counter()
    outcome = workload.run_pass(0, traced)
    cold_seconds.append(time.perf_counter() - start)
    account(outcome)
    if not traced:
        for index in range(1, COLD_SAMPLES):
            *outcome, seconds = workload.cold_pass(index)
            cold_seconds.append(seconds)
            account(outcome)
    index = COLD_SAMPLES
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        outcome = workload.run_pass(index, traced)
        warm.append((outcome[0], outcome[1], time.perf_counter() - pass_start))
        account(outcome)
        index += 1
        if len(warm) + 1 == workload.fixed_passes:
            peak_rss_mb = workload.peak_rss_mb()
            if traced:
                snapshot = trace_snapshot(tracer, records, workload)
                tracer.recording = False
        if len(warm) + 1 >= workload.fixed_passes and time.perf_counter() - start >= args.seconds:
            break
    return {
        "attempted": attempted, "failed": failed, "records": records,
        "cold_seconds": cold_seconds, "warm": warm,
        "peak_rss_mb": peak_rss_mb, "snapshot": snapshot,
    }


def trace_snapshot(tracer, records: List[Dict[str, object]], workload: Workload) -> Dict[str, object]:
    """Per-layer figures over the fixed passes, parent and workers merged."""
    from repro.core.caches import cache_sizes

    parent = tracer.aggregates()
    workers = tracer.worker_records()
    merged = merge_aggregates([parent] + [w["aggregates"] for w in workers])
    caches = dict(cache_sizes())
    for worker in workers:
        for name, size in worker["caches"].items():
            caches[name] = caches.get(name, 0) + size
    per_layer = layer_metrics(merged, records, caches)
    return {
        "fixed_passes": workload.fixed_passes,
        "per_layer": per_layer,
        "parent": parent,
        "workers": len(workers),
        "merged": merged,
        "prediction_errors": check_predictions(workload, merged, parent),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no simulator sources at {SRC}; run from a checkout "
            f"of the repository",
            file=sys.stderr,
        )
        return 2
    prepare_environment()
    result = run(args)
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
