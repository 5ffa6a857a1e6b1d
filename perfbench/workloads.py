"""The benchmark's workloads: one batch job per pass, issued from one process.

Each workload runs whole passes.  Pass ``i`` of a run with workload seed
``s`` uses traffic seeds that start at ``s * SEED_STRIDE`` and are never
reused within the run, so per-seed traffic, demand and circuit work is redone
on every pass while structural templates stay warm.  A pass returns the
number of configurations it attempted, the number that failed, and the
result records of the ones that completed (dicts shaped like
``SweepResult.to_dict()``).

A *cold* pass is a pass with every in-memory cache and the on-disk template
store empty: the first pass of the run's own process, or a pass in a fresh
process (:meth:`Workload.cold_pass`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

#: Seed distance between runs of different workload seeds; no run uses more.
SEED_STRIDE = 1000

#: The Figure 12 models, in the paper's order.
FIG12_MODELS = ("Mixtral-8x22B", "Mixtral-8x7B", "Qwen-MoE-EP32", "DeepSeek-R1")

#: Figure 12's per-NIC bandwidths in Gbps.
FIG12_BANDWIDTHS = (100.0, 200.0, 400.0, 800.0)

#: The Figure 14 failure campaign, as a CLI user sweeps it.
FAILURE_MODELS = ("Mixtral-8x22B", "Mixtral-8x7B")
FAILURES = ("none", "nic:1", "nic:2", "gpu", "server")
POLICIES = ("block", "copilot", "reuse")
FAILURE_SEEDS_PER_PASS = 4

#: The paper's 1024-GPU simulation cluster.
PAPER_SERVERS = 128

#: Seconds one CLI invocation may take before the run gives up on it.
CLI_TIMEOUT_S = 150.0

PassOutcome = Tuple[int, int, List[Dict[str, object]]]
#: A pass outcome plus the pass's own wall seconds.
ColdOutcome = Tuple[int, int, List[Dict[str, object]], float]

#: Entry groups for the traced-run predictions (names from tracing.ENTRIES).
_MATERIALISE = (
    "moe.generate_trace", "moe.gate_init", "moe.expert_loads",
    "core.simulator_init", "core.reconfigure_ocs", "core.controller_install",
    "fabric.build_region", "sim.add_flows",
)
_EVENT_LOOP = ("sim.executor_run", "sim.next_completion", "sim.advance")
_FOLDED = ("fabric.region_clone", "sim.admission_plan", "sim.service_advance",
           "sweep.template.get")
_DISK = ("sweep.template_store.load", "sweep.template_store.save")
_POOL = ("sweep.pool.spawn", "sweep.pool.wait")
_NEVER = ("sweep.pool.respawn", "sweep.fallback")


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One named workload; subclasses define :meth:`run_pass`."""

    name = ""
    #: Passes every run completes, however short ``--seconds`` is.  Peak
    #: memory and the per-layer figures are read after this many passes, so
    #: they cover the same work on every version of the program.
    fixed_passes = 4
    #: Whether results come from the folded runner (native batch kernel).
    folded = True
    #: Traced-run predictions, per scope ("run": every process of the run;
    #: "parent": the process that issued the work): entries that must be
    #: called, and entries that must not be.
    predicted_work: Dict[str, Tuple[str, ...]] = {}
    predicted_bypass: Dict[str, Tuple[str, ...]] = {}
    #: Whether a traced pass does the same work as a timed one, so the gap
    #: between a traced and an untraced run is the tracing overhead.
    traced_like_timed = True

    def __init__(self, seed: int, run_dir: str) -> None:
        self.seed = seed
        self.run_dir = run_dir

    def seeds(self, index: int, count: int = 1) -> List[int]:
        first = self.seed * SEED_STRIDE + index * count
        return list(range(first, first + count))

    def run_pass(self, index: int, traced: bool) -> PassOutcome:
        raise NotImplementedError

    def cold_pass(self, index: int) -> ColdOutcome:
        """Pass ``index`` in a fresh interpreter; its seconds are the pass
        alone, without interpreter start or imports (that is set-up)."""
        done = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "cold_pass.py"),
             self.name, str(self.seed), str(index), self.run_dir],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"{self.name}: cold pass {index} exited {done.returncode}")
        outcome = json.loads(done.stdout.strip().splitlines()[-1])
        return outcome["attempted"], outcome["failed"], outcome["records"], outcome["seconds"]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest process the workload ran."""
        return _rss_self_mb()

    def setup_imports(self) -> str:
        """Python statements importing the workload's entry points."""
        raise NotImplementedError


class Fig12Grid(Workload):
    """Serial in-process folded runner over the whole Figure 12 grid."""

    name = "fig12-grid"
    predicted_work = {"run": _MATERIALISE + _FOLDED}
    predicted_bypass = {"run": _EVENT_LOOP + _DISK + _POOL + _NEVER}

    def setup_imports(self) -> str:
        return "from repro.sweep import FoldedSweepRunner, SweepSpec"

    def run_pass(self, index: int, traced: bool) -> PassOutcome:
        from repro.sweep import FoldedSweepRunner, SweepRunError, SweepSpec

        configs = SweepSpec(
            models=FIG12_MODELS,
            nic_bandwidths_gbps=FIG12_BANDWIDTHS,
            num_servers=32,
            seeds=self.seeds(index),
        ).expand()
        with FoldedSweepRunner(configs) as runner:
            try:
                results = runner.run()
            except SweepRunError as error:
                return len(configs), len(error.errors), []
        return len(configs), 0, [result.to_dict() for result in results]


class FailureCli(Workload):
    """The Figure 14 campaign through ``python -m repro.sweep`` with 2 workers."""

    name = "failure-cli"
    fixed_passes = 3
    # Traced passes call the CLI's main() in-process, skipping the
    # interpreter start and imports every timed invocation pays.
    traced_like_timed = False
    predicted_work = {"run": _MATERIALISE + _FOLDED + _DISK + _POOL,
                      "parent": _POOL}
    predicted_bypass = {"run": _EVENT_LOOP + _NEVER, "parent": ("sim.executor_run",)}

    def setup_imports(self) -> str:
        return "import repro.sweep.__main__"

    def argv(self, index: int, store: str) -> List[str]:
        return [
            "--fabrics", "MixNet",
            "--models", *FAILURE_MODELS,
            "--failures", *FAILURES,
            "--policies", *POLICIES,
            "--seeds", *[str(s) for s in self.seeds(index, FAILURE_SEEDS_PER_PASS)],
            "--workers", "2",
            "--cache-dir", os.path.join(self.run_dir, store),
            "--output", self.output_path(index),
        ]

    def output_path(self, index: int) -> str:
        return os.path.join(self.run_dir, f"pass-{index}.json")

    def run_pass(self, index: int, traced: bool, store: str = "cache") -> PassOutcome:
        """One CLI invocation; ``store`` names the run-local cache directory
        (result cache plus ``templates/``) it reads and writes."""
        attempted = len(FAILURE_MODELS) * len(FAILURES) * len(POLICIES) * FAILURE_SEEDS_PER_PASS
        argv = self.argv(index, store)
        if traced:
            # In-process, so the tracer sees the CLI's parent-side spans.
            from repro.sweep.__main__ import main

            from repro.sweep import SweepRunError

            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main(argv)
            except SweepRunError as error:
                return attempted, len(error.errors), []
        else:
            status = self._run_cli(index, argv)
        if status != 0:
            return attempted, attempted, []
        with open(self.output_path(index), encoding="utf-8") as handle:
            records = json.load(handle)
        return attempted, attempted - len(records), records

    def cold_pass(self, index: int) -> ColdOutcome:
        # Every invocation is a fresh process; an empty store makes it cold.
        start = time.perf_counter()
        attempted, failed, records = self.run_pass(index, False, store=f"cold-{index}")
        return attempted, failed, records, time.perf_counter() - start

    def _run_cli(self, index: int, argv: List[str]) -> int:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep", *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = process.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The CLI's session holds its pool workers too.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            print(f"failure-cli: pass {index} timed out", file=sys.stderr)
            return -1
        if process.returncode != 0:
            sys.stderr.write(stderr.decode("utf-8", "replace"))
        return process.returncode

    def peak_rss_mb(self) -> float:
        # The CLI processes (and the pool workers they reap) are children.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class PaperScaleCases(Workload):
    """``simulate_fabrics`` at 1024 GPUs: the unfolded single-case path."""

    name = "paper-scale-cases"
    folded = False
    predicted_work = {"run": _MATERIALISE + _EVENT_LOOP}
    predicted_bypass = {"run": _FOLDED + _DISK + _POOL + _NEVER}

    def setup_imports(self) -> str:
        return (
            "from repro.core.runtime import RuntimeOptions, simulate_fabrics\n"
            "from repro.sweep.registry import build_fabric, resolve_model"
        )

    def run_pass(self, index: int, traced: bool) -> PassOutcome:
        from repro.cluster import simulation_cluster
        from repro.core.runtime import RuntimeOptions, simulate_fabrics
        from repro.sweep.registry import FABRIC_BUILDERS, build_fabric, resolve_model
        from repro.sweep.spec import SweepConfig

        (seed,) = self.seeds(index)
        cluster = simulation_cluster(PAPER_SERVERS)
        fabrics = [build_fabric(name, cluster) for name in FABRIC_BUILDERS]
        attempted = failed = 0
        records: List[Dict[str, object]] = []
        for model in FIG12_MODELS:
            attempted += len(fabrics)
            try:
                results = simulate_fabrics(
                    resolve_model(model), fabrics, options=RuntimeOptions(seed=seed)
                )
            except Exception as error:  # noqa: BLE001 — counted as failed cases
                print(f"paper-scale-cases: {model} seed {seed}: {error!r}", file=sys.stderr)
                failed += len(fabrics)
                continue
            for fabric_name, result in results.items():
                # The SweepConfig naming the same case, for the oracle.
                config = SweepConfig(
                    fabric=fabric_name, model=model, num_servers=PAPER_SERVERS,
                    nic_bandwidth_gbps=cluster.server.nic_bandwidth_gbps,
                    ocs_nics=cluster.server.ocs_nics, seed=seed,
                )
                records.append(_iteration_record(config, result))
        return attempted, failed, records


def _iteration_record(config, result) -> Dict[str, object]:
    record = {
        name: getattr(result, name)
        for name in (
            "iteration_time_s", "stage_time_s", "dp_allreduce_s", "pp_transfer_s",
            "reconfig_blocking_s", "comm_bytes", "compute_time_s",
            "tokens_per_second", "events", "solve_rounds", "rounds_replayed",
        )
    }
    record["config"] = config.to_dict()
    return record


WORKLOADS = {cls.name: cls for cls in (Fig12Grid, FailureCli, PaperScaleCases)}


def make_workload(name: str, seed: int, run_dir: str) -> Optional[Workload]:
    cls = WORKLOADS.get(name)
    return cls(seed, run_dir) if cls is not None else None
