"""Discrete-event executor: runs a task DAG over a fluid network.

The executor advances simulated time between two kinds of events —
fixed-duration task completions (compute, reconfiguration, barriers) and flow
completions in the fluid network — starting tasks as soon as all their
dependencies have finished.  Communication tasks inject one flow per
:class:`~repro.sim.dag.FlowSpec`; their completion time therefore reflects
whatever contention the fabric imposes at that moment, including circuits
installed by reconfiguration callbacks earlier in the run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.fabric.base import RegionNetwork
from repro.sim.dag import RouteKind, TaskGraph, TaskKind
from repro.sim.flows import (
    Flow,
    FlowAdvanceOutcome,
    FlowAdvanceRequest,
    FluidNetwork,
    service_advance_requests,
)


@dataclass
class ExecutionResult:
    """Outcome of one executor run.

    ``events`` counts executor events — one per timed-event instant plus one
    per flow-completion instant — and is identical between :meth:`Executor.run`
    and :meth:`Executor.iter_run` (both draw down the same ``max_events``
    budget).  ``solve_rounds`` / ``rounds_replayed`` are native-kernel cost
    counters (see :class:`~repro.sim.flows.FlowAdvanceOutcome`); they stay 0
    on the per-event reference path and the Python solvers.
    """

    makespan: float
    task_start_times: Dict[str, float] = field(default_factory=dict)
    task_finish_times: Dict[str, float] = field(default_factory=dict)
    comm_bytes: float = 0.0
    reconfig_time_total: float = 0.0
    events: int = 0
    solve_rounds: int = 0
    rounds_replayed: int = 0

    def duration_of(self, task_id: str) -> float:
        return self.task_finish_times[task_id] - self.task_start_times[task_id]

    def finished_tasks(self) -> int:
        return len(self.task_finish_times)


class Executor:
    """Runs a :class:`TaskGraph` on a :class:`RegionNetwork`.

    Args:
        graph: The iteration DAG.
        region: The fabric region view providing links and routing.
        solver: Fluid rate-solver implementation (one of
            :data:`repro.sim.flows.SOLVERS`); defaults to the process-wide
            default.
    """

    def __init__(
        self,
        graph: TaskGraph,
        region: RegionNetwork,
        solver: Optional[str] = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.region = region
        self.network = FluidNetwork(region, solver=solver)
        # (src, dst, route) -> resolved path.  EP routes follow the optical
        # circuits, so that cache is cleared on topology changes; EPS and
        # intra paths are static for the lifetime of the region.
        self._path_cache: Dict[Tuple[int, int, RouteKind], List[str]] = {}
        self._ep_path_cache: Dict[Tuple[int, int, RouteKind], List[str]] = {}

    # ------------------------------------------------------------------- run
    def _make_state(self) -> "_RunState":
        return _RunState(self)

    def run(self, max_events: int = 5_000_000) -> ExecutionResult:
        """Execute the DAG and return timing results.

        This is the per-event reference loop; :meth:`iter_run` is the folded
        formulation (bit-identical results, enforced by differential tests).

        Raises:
            RuntimeError: If the simulation deadlocks (flows exist but cannot
                make progress and no timed event is pending) or exceeds
                ``max_events``.
        """
        state = self._make_state()
        tasks = state.tasks
        timed_events = state.timed_events
        done = state.done
        state.start_roots()

        events = 0
        while len(done) < len(tasks):
            events += 1
            if events > max_events:
                raise RuntimeError("executor exceeded the maximum event budget")

            now = state.now
            next_timed: Optional[float] = timed_events[0][0] if timed_events else None
            next_flow_dt = self.network.time_to_next_completion()
            next_flow: Optional[float] = now + next_flow_dt if next_flow_dt is not None else None

            if next_timed is None and next_flow is None:
                raise _deadlock_error(self.network)

            if next_flow is None or (next_timed is not None and next_timed <= next_flow):
                target_time = max(now, next_timed)  # type: ignore[arg-type]
                if target_time > now:
                    self.network.advance(target_time - now)
                state.now = target_time
                state.complete_due_timed_events()
                # Flows may finish at exactly the same instant as a timed task;
                # their owning communication tasks must complete too.
                state.complete_drained_groups()
            else:
                # Advance by the relative step rather than the difference of
                # absolute times, which would be absorbed to zero once the
                # clock is many orders of magnitude larger than the step.
                assert next_flow_dt is not None
                self.network.advance(next_flow_dt)
                state.now = now + next_flow_dt
                state.complete_drained_groups()

        state.result.makespan = state.now
        state.result.events = events
        return state.result

    def iter_run(
        self, max_events: int = 5_000_000
    ) -> Generator[FlowAdvanceRequest, FlowAdvanceOutcome, ExecutionResult]:
        """Folded form of :meth:`run`: a generator that delegates every span
        of consecutive flow events to its driver.

        Whenever flows are active, the generator yields a
        :class:`FlowAdvanceRequest` (budgeted at the next timed event) and
        expects the matching :class:`FlowAdvanceOutcome` via ``send()``.  A
        driver servicing many executors batches their requests through one
        ``waterfill_batch`` call (:func:`service_advance_requests`); driving a
        single executor this way is exactly :meth:`run` with the inner flow
        loop moved into C.  Returns the :class:`ExecutionResult` as the
        generator's value.
        """
        state = self._make_state()
        tasks = state.tasks
        timed_events = state.timed_events
        done = state.done
        state.start_roots()

        events = 0
        solve_rounds = 0
        rounds_replayed = 0
        while len(done) < len(tasks):
            if self.network.active_flow_count() == 0:
                if not timed_events:
                    raise _deadlock_error(self.network)
                events += 1
                if events > max_events:
                    raise RuntimeError("executor exceeded the maximum event budget")
                state.now = max(state.now, timed_events[0][0])
                state.complete_due_timed_events()
                continue

            next_timed = timed_events[0][0] if timed_events else None
            outcome = yield FlowAdvanceRequest(
                self.network, state.now, next_timed, max_events - events
            )
            events += outcome.steps
            solve_rounds += outcome.solve_rounds
            rounds_replayed += outcome.rounds_replayed
            state.now = outcome.now
            state.complete_drained_groups()
            if outcome.reason == "group":
                continue
            if outcome.reason == "steps":
                raise RuntimeError("executor exceeded the maximum event budget")
            # "budget", "stall" or "idle": the next event is a timed one (the
            # run() loop's timed branch), or nothing can ever progress.
            if not timed_events:
                raise _deadlock_error(self.network)
            events += 1
            if events > max_events:
                raise RuntimeError("executor exceeded the maximum event budget")
            target_time = max(state.now, timed_events[0][0])
            if target_time > state.now:
                self.network.advance(target_time - state.now)
            state.now = target_time
            state.complete_due_timed_events()
            state.complete_drained_groups()

        state.result.makespan = state.now
        state.result.events = events
        state.result.solve_rounds = solve_rounds
        state.result.rounds_replayed = rounds_replayed
        return state.result

    def run_folded(self, max_events: int = 5_000_000) -> ExecutionResult:
        """Drive :meth:`iter_run` standalone (a one-block folded batch)."""
        runner = self.iter_run(max_events)
        outcome: Optional[FlowAdvanceOutcome] = None
        while True:
            try:
                request = runner.send(outcome) if outcome is not None else next(runner)
            except StopIteration as stop:
                return stop.value
            outcome = service_advance_requests([request])[0]

    # ----------------------------------------------------------------- routes
    def _resolve_path(self, src: int, dst: int, route: RouteKind) -> List[str]:
        if route is RouteKind.INTRA or src == dst:
            return [self.region.intra_link(src)]
        if route is RouteKind.EP:
            return self.region.ep_path(src, dst)
        return self.region.eps_path(src, dst)


def _deadlock_error(network: FluidNetwork) -> RuntimeError:
    if network.active_flow_count() > 0:
        return RuntimeError(
            "simulation deadlock: active flows cannot make progress "
            "(a path is dark and no event will revive it)"
        )
    return RuntimeError("simulation deadlock: tasks remaining but no events pending")


class _RunState:
    """DAG bookkeeping shared by :meth:`Executor.run` and
    :meth:`Executor.iter_run` — task readiness and the timed-event heap.
    Comm-task completion is driven by the network's drained-group order
    (each comm task's flows form one group), so no per-flow ownership maps
    are maintained."""

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.tasks = executor.graph.tasks
        self.remaining_deps: Dict[str, int] = {
            tid: len(t.deps) for tid, t in self.tasks.items()
        }
        self.dependents: Dict[str, List[str]] = {tid: [] for tid in self.tasks}
        for tid, task in self.tasks.items():
            for dep in task.deps:
                self.dependents[dep].append(tid)
        self.result = ExecutionResult(makespan=0.0)
        self.now = 0.0
        self.timed_events: List[Tuple[float, int, str]] = []  # (time, seq, task)
        self.seq = itertools.count()
        self.done: Set[str] = set()

    def start_roots(self) -> None:
        for tid, count in list(self.remaining_deps.items()):
            if count == 0:
                self.start_task(tid)

    def start_task(self, task_id: str) -> None:
        executor = self.executor
        task = self.tasks[task_id]
        self.result.task_start_times[task_id] = self.now
        if task.on_start is not None:
            task.on_start()
        if task.kind is TaskKind.COMM:
            new_flows: List[Flow] = []
            comm_bytes = self.result.comm_bytes
            path_cache = executor._path_cache
            ep_path_cache = executor._ep_path_cache
            make_flow = Flow.make
            plan = task.admission
            if plan is not None:
                # Template-staged admission: the zero-size filter, route
                # keys and flow-id strings were computed once per structural
                # template; stamping them here runs the same per-flow
                # operation sequence as the spec loop below (same order,
                # same comm_bytes accumulation), so results are identical.
                for flow_id, size_bytes, route_key, is_ep in plan.flows:
                    cache = ep_path_cache if is_ep else path_cache
                    path = cache.get(route_key)
                    if path is None:
                        path = executor._resolve_path(*route_key)
                        cache[route_key] = path
                    new_flows.append(make_flow(flow_id, size_bytes, path))
                    comm_bytes += size_bytes
            else:
                ep_route = RouteKind.EP
                index = 0
                for spec in task.flow_specs:
                    if spec.size_bytes <= 0:
                        continue
                    route = spec.route
                    cache = ep_path_cache if route is ep_route else path_cache
                    route_key = (spec.src_server, spec.dst_server, route)
                    path = cache.get(route_key)
                    if path is None:
                        path = executor._resolve_path(*route_key)
                        cache[route_key] = path
                    flow_id = f"{task_id}/f{index}"
                    index += 1
                    new_flows.append(make_flow(flow_id, spec.size_bytes, path))
                    comm_bytes += spec.size_bytes
            self.result.comm_bytes = comm_bytes
            if new_flows:
                staged = None if plan is None else plan.staged_arrays()
                executor.network.add_flows(
                    new_flows, group=task_id, staged=staged
                )
            else:
                # Nothing to transfer: completes instantly.
                heapq.heappush(self.timed_events, (self.now, next(self.seq), task_id))
        else:
            if task.kind is TaskKind.RECONFIG:
                self.result.reconfig_time_total += task.duration_s
            heapq.heappush(
                self.timed_events,
                (self.now + task.duration_s, next(self.seq), task_id),
            )

    def complete_task(self, task_id: str) -> None:
        task = self.tasks[task_id]
        self.done.add(task_id)
        self.result.task_finish_times[task_id] = self.now
        if task.on_complete is not None:
            task.on_complete()
            # A callback may have changed link capacities (e.g. circuits) —
            # EP routes resolved under the old circuit set are stale too
            # (EPS and intra paths never change).
            self.executor.network.mark_topology_changed()
            self.executor._ep_path_cache.clear()
        for dependent in self.dependents[task_id]:
            self.remaining_deps[dependent] -= 1
            if self.remaining_deps[dependent] == 0:
                self.start_task(dependent)

    def complete_due_timed_events(self) -> None:
        """Pop and complete every timed event due at (or just before) now."""
        finished_ids: List[str] = []
        while self.timed_events and self.timed_events[0][0] <= self.now + 1e-15:
            _, _, tid = heapq.heappop(self.timed_events)
            finished_ids.append(tid)
        for tid in finished_ids:
            self.complete_task(tid)

    def complete_drained_groups(self) -> None:
        """Complete comm tasks whose flow group drained, in drain order.

        The network appends a group the moment its last flow finishes, so
        drain order equals the old per-flow ownership bookkeeping's
        completion order — without two dict operations per finished flow.
        """
        for task_id in self.executor.network.consume_drained_groups():
            self.complete_task(task_id)
