"""Layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each simulator module (the
``ENTRIES`` table) at every binding site the loaded ``repro`` modules hold,
records one span per call — name, start, end, parent span — and aggregates
calls, total time and self time per entry.  Self time is a span's duration
minus the time covered by the wrapped calls nested inside it.

Nothing inside ``src/`` changes: the wrappers are installed from here and
removed by :meth:`Tracer.uninstall`.  Spans stay in memory and are written
out once, when the run ends.

Pool workers forked while the tracer is installed inherit the wrappers.  A
fork hook gives each worker an empty record, and the wrapped pool task
functions dump the worker's aggregates and cache sizes to ``worker_dir``
after every task, so the parent can merge worker-side layer time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path).  An attribute path with a dot is a
#: method: it is wrapped on the named class and on every loaded subclass
#: that defines its own version.  A bare name is a module-level function:
#: it is wrapped in every loaded ``repro`` module that binds the object.
ENTRIES: Tuple[Tuple[str, str, str], ...] = (
    ("moe.generate_trace", "repro.moe.trace", "generate_trace"),
    ("moe.gate_init", "repro.moe.gate", "GateSimulator.__init__"),
    ("moe.expert_loads", "repro.moe.gate", "GateSimulator.expert_loads"),
    ("core.simulator_init", "repro.core.runtime", "TrainingSimulator.__init__"),
    ("core.reconfigure_ocs", "repro.core.reconfigure", "reconfigure_ocs"),
    ("core.controller_install", "repro.core.controller",
     "RegionalTopologyController.install"),
    ("fabric.build_region", "repro.fabric.base", "Fabric.build_region"),
    ("fabric.region_clone", "repro.fabric.base", "RegionNetwork.clone"),
    ("sim.admission_plan", "repro.sim.dag", "AdmissionPlan.from_specs"),
    ("sim.add_flows", "repro.sim.flows", "FluidNetwork.add_flows"),
    ("sim.service_advance", "repro.sim.flows", "service_advance_requests"),
    ("sim.executor_run", "repro.sim.executor", "Executor.run"),
    ("sim.next_completion", "repro.sim.flows",
     "FluidNetwork.time_to_next_completion"),
    ("sim.advance", "repro.sim.flows", "FluidNetwork.advance"),
    ("sweep.template.get", "repro.sweep.template", "get_template"),
    ("sweep.template_store.load", "repro.sweep.template", "TemplateStore.load"),
    ("sweep.template_store.save", "repro.sweep.template", "TemplateStore.save"),
    ("sweep.pool.spawn", "repro.sweep.pool", "PersistentWorkerPool.start"),
    ("sweep.pool.wait", "repro.sweep.pool", "PersistentWorkerPool.events"),
    ("sweep.pool.respawn", "repro.sweep.pool", "PersistentWorkerPool.respawn"),
    # The folded runner's per-config fallback onto run_config().
    ("sweep.fallback", "repro.sweep.runner", "FoldedSweepRunner._run_unfolded"),
)

#: Pool task functions wrapped so a forked worker dumps its record.
_WORKER_TASKS = ("_fold_shard_task", "_config_shard_task")

#: Spans kept per process for the span file; aggregates cover every call.
MAX_SPANS = 100_000


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class Tracer:
    """In-memory span recorder over the ``ENTRIES`` table."""

    def __init__(self, worker_dir: Optional[str] = None) -> None:
        self.names: List[str] = [name for name, _, _ in ENTRIES]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.worker_dir = worker_dir
        self._patches: List[Tuple[object, str, object]] = []
        self._fork_hooked = False
        self.installed = False
        self._reset()

    # --------------------------------------------------------------- record
    def _reset(self) -> None:
        count = len(self.names)
        self.calls = [0] * count
        self.total_s = [0.0] * count
        self.self_s = [0.0] * count
        #: Open spans: [span id, child seconds].
        self._stack: List[list] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_dropped = 0
        self.recording = True
        self.epoch = time.perf_counter()

    def _after_fork_in_child(self) -> None:
        if self.installed:
            self._reset()

    def _wrap(self, name: str, function: Callable) -> Callable:
        index = self._index[name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = -1
            if tracer.recording:
                if len(tracer.span_name) < MAX_SPANS:
                    span_id = len(tracer.span_name)
                    tracer.span_name.append(index)
                    tracer.span_start.append(0.0)
                    tracer.span_end.append(0.0)
                    tracer.span_parent.append(stack[-1][0] if stack else -1)
                else:
                    tracer.spans_dropped += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[index] += 1
                tracer.total_s[index] += duration
                tracer.self_s[index] += duration - frame[1]
                if span_id >= 0:
                    tracer.span_start[span_id] = start
                    tracer.span_end[span_id] = end

        return traced

    # -------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every entry at every binding site (idempotent per tracer)."""
        if self.installed:
            return
        # The registry imports every fabric, so each build_region override
        # is loaded before the subclasses are walked.
        importlib.import_module("repro.sweep.registry")
        for name, module_name, attr in ENTRIES:
            module = importlib.import_module(module_name)
            if "." in attr:
                self._install_method(name, module, attr)
            else:
                self._install_function(name, getattr(module, attr))
        if self.worker_dir is not None:
            runner = importlib.import_module("repro.sweep.runner")
            for task_name in _WORKER_TASKS:
                self._install_worker_task(runner, task_name)
            if not self._fork_hooked:
                os.register_at_fork(after_in_child=self._after_fork_in_child)
                self._fork_hooked = True
        self.installed = True

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # vars(): a class must get back its raw descriptor (a classmethod),
        # not the bound method attribute access would return.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install_function(self, name: str, function: Callable) -> None:
        wrapper = self._wrap(name, function)
        sites = 0
        for module_name in sorted(sys.modules):
            module = sys.modules[module_name]
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in sorted(vars(module).items()):
                if value is function:
                    self._patch(module, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no binding site found for {name}")

    def _install_method(self, name: str, module: object, attr: str) -> None:
        class_name, method_name = attr.split(".")
        base = getattr(module, class_name)
        wrapped = 0
        for cls in _subclasses(base):
            raw = cls.__dict__.get(method_name)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._patch(cls, method_name,
                            classmethod(self._wrap(name, raw.__func__)))
            elif getattr(raw, "__isabstractmethod__", False):
                continue
            else:
                self._patch(cls, method_name, self._wrap(name, raw))
            wrapped += 1
        if wrapped == 0:
            raise RuntimeError(f"no implementation found for {name}")

    def _install_worker_task(self, runner: object, task_name: str) -> None:
        task = getattr(runner, task_name)
        tracer = self

        @functools.wraps(task)
        def dumping_task(*args, **kwargs):
            try:
                return task(*args, **kwargs)
            finally:
                tracer.dump_worker()

        self._patch(runner, task_name, dumping_task)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.installed = False

    # ---------------------------------------------------------------- output
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
            }
            for i, name in enumerate(self.names)
        }

    def dump_worker(self) -> None:
        """Write this (worker) process's record; called after each task."""
        if self.worker_dir is None:
            return
        from repro.core.caches import cache_sizes

        os.makedirs(self.worker_dir, exist_ok=True)
        path = os.path.join(self.worker_dir, f"{os.getpid()}.json")
        with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
            json.dump(
                {"aggregates": self.aggregates(), "caches": cache_sizes()}, handle
            )
        os.replace(f"{path}.tmp", path)

    def worker_records(self) -> List[Dict[str, object]]:
        """Every worker record dumped so far (sorted by file name)."""
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return []
        records = []
        for entry in sorted(os.listdir(self.worker_dir)):
            if entry.endswith(".json"):
                with open(os.path.join(self.worker_dir, entry), encoding="utf-8") as handle:
                    records.append(json.load(handle))
        return records

    def spans(self) -> Dict[str, object]:
        """The recorded spans, times in seconds from the tracer's epoch."""
        return {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "rows": [
                [
                    self.span_name[i],
                    round(self.span_start[i] - self.epoch, 7),
                    round(self.span_end[i] - self.epoch, 7),
                    self.span_parent[i],
                ]
                for i in range(len(self.span_name))
            ],
            "dropped": self.spans_dropped,
        }


def merge_aggregates(
    records: List[Dict[str, Dict[str, float]]]
) -> Dict[str, Dict[str, float]]:
    """Sum per-entry aggregates over several processes."""
    merged: Dict[str, Dict[str, float]] = {}
    for record in records:
        for name, values in record.items():
            slot = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in values.items():
                slot[key] += value
    return merged
