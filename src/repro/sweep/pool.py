"""Persistent warm worker pool with streamed per-task acknowledgements.

:class:`PersistentWorkerPool` keeps N worker processes alive for one
:class:`~repro.sweep.runner.SweepRunner` lifetime and reuses them across
``run()`` calls, instead of forking a fresh ``multiprocessing.Pool`` per
grid.  Each worker pre-loads :mod:`repro.sim._native` (and imports the sweep
stack) before reporting ready, so the cffi kernel is compiled/loaded —
serialised by the build lock — before the first batch arrives.  Tasks are
function references with positional arguments; workers stream intermediate
acknowledgements through one shared result queue, so the parent observes
per-config progress and can detect a dead worker mid-shard.  A crashed worker
is respawned on request, keeping the pool usable for the next run.

Acks are pickled onto that queue as they are: the sweep runner acks each
finished config with its :class:`~repro.sweep.runner.SweepResult`, a few
dozen fields, which is small next to the simulation that produced it.

Everything here is sweep-agnostic: task functions live in
:mod:`repro.sweep.runner`, which owns sharding, salvage and result assembly.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
from typing import Any, Callable, List, Optional, Tuple

#: Event kinds flowing back from workers (see :meth:`PersistentWorkerPool.events`).
READY = "ready"
ACK = "ack"
DONE = "done"
TASK_ERROR = "task_error"


def _pool_worker(worker_id: int, tasks, results) -> None:
    """Worker main loop (module-level so it pickles under every start method).

    Pre-loads the native kernel (the warm-up that makes the pool "warm"),
    reports ready, then executes ``(task_id, func, args)`` records until the
    ``None`` sentinel arrives.  ``func`` receives an ``emit`` callable first:
    every ``emit(payload)`` becomes an ``ACK`` event in the parent, streamed
    as the task progresses rather than batched at task end.
    """
    try:
        from repro.sim import _native

        _native.native_lib()
    except Exception:  # noqa: BLE001 — no kernel is fine, workers degrade
        pass
    try:
        # Import the sweep stack (runner, template cache, simulator) before
        # reporting ready, so the first shard task measures simulation, not
        # module import.
        import repro.sweep.runner  # noqa: F401 — warm-up import
    except Exception:  # noqa: BLE001 — degrade to importing on first task
        pass
    results.put((READY, worker_id, -1, None))
    while True:
        task = tasks.get()
        if task is None:
            break
        task_id, func, args = task

        def emit(payload: Any, _task_id: int = task_id) -> None:
            results.put((ACK, worker_id, _task_id, payload))

        try:
            func(emit, *args)
        except Exception as exc:  # noqa: BLE001 — parent salvages the task
            results.put(
                (TASK_ERROR, worker_id, task_id, f"{type(exc).__name__}: {exc}")
            )
        else:
            results.put((DONE, worker_id, task_id, None))


class PersistentWorkerPool:
    """A fixed set of reusable worker processes with streamed results.

    Unlike ``multiprocessing.Pool`` the task→worker assignment is the
    caller's: :meth:`submit` targets a specific worker, which is what lets
    the sweep runner shard whole structural groups deterministically and
    know exactly which configurations a dead worker still owed.

    Workers are daemonic, so an abandoned pool cannot outlive the parent;
    :meth:`close` shuts down cooperatively.
    """

    #: Seconds to wait for a worker's ready event (covers a cold cffi build).
    READY_TIMEOUT_S = 180.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._ctx = multiprocessing.get_context()
        self._procs: List[Optional[multiprocessing.Process]] = [None] * workers
        self._task_queues: List[Any] = [None] * workers
        self._results: Any = None
        self._ready: set = set()
        self._next_task_id = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the workers and block until every one reports ready (warm)."""
        if self._started:
            return
        if self._closed:
            raise RuntimeError("pool has been closed")
        self._results = self._ctx.Queue()
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        self._started = True
        self._await_ready()

    def _spawn(self, worker_id: int) -> None:
        tasks = self._ctx.Queue()
        process = self._ctx.Process(
            target=_pool_worker,
            args=(worker_id, tasks, self._results),
            daemon=True,
            name=f"sweep-worker-{worker_id}",
        )
        process.start()
        self._task_queues[worker_id] = tasks
        self._procs[worker_id] = process

    def _await_ready(self) -> None:
        while len(self._ready) < self.workers:
            try:
                kind, worker_id, _, _ = self._results.get(
                    timeout=self.READY_TIMEOUT_S
                )
            except queue_mod.Empty as exc:  # pragma: no cover — hung build
                raise RuntimeError(
                    "worker pool failed to warm up (native kernel build hung?)"
                ) from exc
            if kind == READY:
                self._ready.add(worker_id)

    def respawn(self, worker_id: int) -> None:
        """Replace a dead worker with a fresh process (new empty queue).

        The old task queue may still hold tasks the dead worker never took;
        they are dropped here — the caller is expected to have salvaged the
        work they represented before asking for the respawn.
        """
        old_queue = self._task_queues[worker_id]
        if old_queue is not None:
            old_queue.cancel_join_thread()
            old_queue.close()
        process = self._procs[worker_id]
        if process is not None and process.is_alive():  # pragma: no cover
            process.terminate()
        self._ready.discard(worker_id)
        self._spawn(worker_id)
        # The fresh worker's READY event is consumed (and ignored) by
        # whatever events() loop is running; no need to block on it here.

    def is_alive(self, worker_id: int) -> bool:
        process = self._procs[worker_id]
        return process is not None and process.is_alive()

    def close(self) -> None:
        """Cooperative shutdown; safe to call twice or on a never-started pool."""
        if self._closed or not self._started:
            self._closed = True
            return
        for tasks in self._task_queues:
            if tasks is None:
                continue
            try:
                tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover — queue gone
                pass
        for process in self._procs:
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover — wedged worker
                    process.terminate()
                    process.join(timeout=1.0)
        for tasks in self._task_queues:
            if tasks is not None:
                tasks.cancel_join_thread()
                tasks.close()
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
        self._closed = True

    def __enter__(self) -> "PersistentWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — best-effort
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    # ------------------------------------------------------------------ work
    def submit(
        self, worker_id: int, func: Callable, args: Tuple[Any, ...]
    ) -> int:
        """Queue ``func(emit, *args)`` on one worker; returns the task id."""
        if not self._started:
            self.start()
        task_id = self._next_task_id
        self._next_task_id += 1
        self._task_queues[worker_id].put((task_id, func, args))
        return task_id

    def events(self, timeout: float) -> Tuple[str, int, int, Any]:
        """Next ``(kind, worker_id, task_id, payload)`` event.

        Raises :class:`queue.Empty` on timeout — the caller interleaves
        liveness checks (:meth:`is_alive`) with event consumption.
        """
        return self._results.get(timeout=timeout)
