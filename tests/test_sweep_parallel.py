"""Sharded folded sweeps: pool lifecycle, transport and crash salvage.

The sharded parallel path (DESIGN.md §7) must be a pure execution
transformation, like folding itself: whatever the worker count, whatever
dies mid-run, every result is bit-identical to the per-config reference
path, and the persistent pool stays usable afterwards.  These tests inject failures with
``os._exit`` guarded on the parent pid, so the same monkeypatched function
is lethal in a forked worker and healthy during the parent's inline salvage.
"""

import json
import multiprocessing
import os
import queue
import subprocess
import sys
import textwrap

import pytest

import repro.sweep.runner as runner_mod
from repro.sweep import SweepSpec
from repro.sweep.pool import ACK, DONE, TASK_ERROR, PersistentWorkerPool
from repro.sweep.runner import SweepRunner, _store_result
from test_sweep_folded import (
    MIXED_SPEC,
    _sabotage,
    assert_bit_identical,
    reference_results,
)

needs_fork = pytest.mark.skipif(
    sys.platform == "win32"
    or multiprocessing.get_start_method() != "fork",
    reason="failure injection relies on fork inheriting monkeypatches",
)

# Two structural groups of two (failure axis splits them), so workers=2
# exercises real sharding: one whole group per worker.
TWO_GROUP_SPEC = SweepSpec(
    fabrics=["MixNet"],
    models=["Mixtral-8x7B"],
    failures=["none", "nic:1"],
    seeds=[0, 1],
    num_servers=16,
)


# ---------------------------------------------------------------- pool tasks
# Task functions must be module-level so they pickle onto the task queues.
def _echo_task(emit, *values):
    for value in values:
        emit(("echo", value))


def _failing_task(emit):
    raise RuntimeError("task exploded")


def _exit_task(emit):
    os._exit(17)


@needs_fork
class TestPersistentWorkerPool:
    def test_submit_ack_done_stream(self):
        with PersistentWorkerPool(2) as pool:
            task = pool.submit(0, _echo_task, ("a", "b"))
            seen = []
            while True:
                kind, worker_id, task_id, payload = pool.events(timeout=10)
                if kind == ACK:
                    assert (worker_id, task_id) == (0, task)
                    seen.append(payload)
                elif kind == DONE:
                    assert task_id == task
                    break
            assert seen == [("echo", "a"), ("echo", "b")]

    def test_task_exception_reports_task_error(self):
        with PersistentWorkerPool(1) as pool:
            task = pool.submit(0, _failing_task, ())
            kind, _, task_id, payload = pool.events(timeout=10)
            assert (kind, task_id) == (TASK_ERROR, task)
            assert "task exploded" in payload
            # The worker survived the exception and takes the next task.
            task = pool.submit(0, _echo_task, ("again",))
            events = [pool.events(timeout=10)[0] for _ in range(2)]
            assert events == [ACK, DONE]

    def test_respawn_replaces_dead_worker(self):
        with PersistentWorkerPool(1) as pool:
            pool.submit(0, _exit_task, ())
            with pytest.raises(queue.Empty):
                while True:  # drain until the crash leaves the queue silent
                    pool.events(timeout=0.5)
            assert not pool.is_alive(0)
            pool.respawn(0)
            task = pool.submit(0, _echo_task, ("back",))
            kinds = []
            while DONE not in kinds:
                kind, _, task_id, _ = pool.events(timeout=30)
                if task_id == task:
                    kinds.append(kind)
            assert ACK in kinds

    def test_workers_are_warm(self):
        """Workers report ready only after pre-loading the native kernel, so
        the first batch never pays the cffi compile."""
        from repro.sim._native import native_available

        if not native_available():
            pytest.skip("native kernel unavailable")
        with PersistentWorkerPool(1) as pool:
            # start() returning means READY arrived post-preload; a cheap task
            # completes without any build delay.
            task = pool.submit(0, _echo_task, ("warm",))
            kind, _, task_id, _ = pool.events(timeout=5)
            assert (kind, task_id) == (ACK, task)


class TestGroupSharding:
    def test_groups_never_split_and_assignment_is_deterministic(self):
        configs = MIXED_SPEC.expand()
        hashes = [config.config_hash() for config in configs]
        runner = SweepRunner(configs, workers=3)
        misses = list(range(len(configs)))
        shards = runner._shard_groups(misses, hashes)
        assert shards == runner._shard_groups(misses, hashes)
        assert sorted(index for shard in shards for index in shard) == misses
        owner = {}
        for worker_id, shard in enumerate(shards):
            for index in shard:
                owner[index] = worker_id
        for indices in _groups_of(configs).values():
            owners = {owner[index] for index in indices}
            assert len(owners) == 1, "structural group split across workers"


def _groups_of(configs):
    from repro.sweep import structural_groups

    return structural_groups(configs)


@needs_fork
class TestParallelEquivalence:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return reference_results(MIXED_SPEC)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_folded_bit_identical(self, serial_results, workers):
        """Sharded results match the serial runner and the per-config
        reference bit-for-bit on the mixed grid (both fabrics, both
        policies, failure configs included), at any worker count."""
        folded = SweepRunner(MIXED_SPEC).run()
        assert_bit_identical(serial_results, folded)
        with SweepRunner(MIXED_SPEC, workers=workers) as runner:
            parallel = runner.run()
        assert_bit_identical(serial_results, parallel)

    @pytest.mark.parametrize("fold_width", [1, 3, 16])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_matches_run_config_at_every_width(
        self, serial_results, workers, fold_width
    ):
        with SweepRunner(
            MIXED_SPEC, workers=workers, fold_width=fold_width
        ) as runner:
            results = runner.run()
        assert_bit_identical(serial_results, results)
        # Every result came out of the fold, none from the fallback.
        assert all(r.template_source != "none" for r in results)
        assert [r.fallback for r in results] == [""] * len(results)

    def test_pool_persists_across_runs(self):
        with SweepRunner(TWO_GROUP_SPEC, workers=2) as runner:
            first = runner.run()
            pool = runner._pool
            assert pool is not None
            pids = [process.pid for process in pool._procs]
            second = runner.run()
            assert runner._pool is pool  # same pool object...
            assert [p.pid for p in pool._procs] == pids  # ...same processes
        assert_bit_identical(first, second)

    def test_per_config_error_surfaces_from_worker(self, monkeypatch):
        from repro.sweep.runner import SweepRunError

        victim = TWO_GROUP_SPEC.expand()[0].config_hash()
        _sabotage(monkeypatch, victim, "injected per-config failure")
        with pytest.raises(SweepRunError) as excinfo:
            with SweepRunner(TWO_GROUP_SPEC, workers=2) as runner:
                runner.run()
        errors = excinfo.value.errors
        assert [error.config_hash for error in errors] == [victim]
        assert "injected per-config failure" in errors[0].error

    def test_pool_lifecycle_prints_no_warnings(self):
        """A warmed pool driven twice and closed leaves nothing behind: no
        shared-memory segments, no resource-tracker process, no warnings
        at interpreter shutdown."""
        script = textwrap.dedent("""
            from repro.sweep import SweepRunner, SweepSpec

            spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                             failures=["none", "nic:1"], num_servers=16)
            runner = SweepRunner(spec, workers=2)
            runner.warm_up()
            runner.run()
            runner.run()
            runner.close()
            print("done")
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "done"
        output = (done.stdout + done.stderr).lower()
        for marker in ("shared_memory", "resource_tracker", "leaked", "/psm_"):
            assert marker not in output, done.stderr


@needs_fork
class TestShardedCrashSalvage:
    def _lethal(self, real, victim, parent_pid):
        """Kills a forked worker at the victim config; harmless in the
        parent, so inline salvage recomputes the real result."""

        def wrapper(config, solver=None, config_hash=None, **kwargs):
            if config_hash == victim and os.getpid() != parent_pid:
                os._exit(23)
            return real(config, solver=solver, config_hash=config_hash, **kwargs)

        return wrapper

    def test_folded_worker_crash_salvaged(self, monkeypatch, tmp_path):
        """A worker dying mid-shard loses nothing: cached completions are
        reloaded, the remainder re-runs inline (still folded, still whole
        groups), the worker is respawned, and the runner stays usable."""
        expected = reference_results(TWO_GROUP_SPEC)
        victim = expected[2].config_hash
        monkeypatch.setattr(
            runner_mod,
            "iter_run_config",
            self._lethal(runner_mod.iter_run_config, victim, os.getpid()),
        )
        with SweepRunner(
            TWO_GROUP_SPEC, workers=2, cache_dir=str(tmp_path / "cache")
        ) as runner:
            runner.warm_up()
            pids = [process.pid for process in runner._pool._procs]
            results = runner.run()
            assert_bit_identical(expected, results)
            # The victim's worker really died and the pool was repaired:
            # one slot holds a new process, every slot is alive again, and
            # the next run on the same runner works (cache makes it instant).
            assert [p.pid for p in runner._pool._procs] != pids
            assert all(
                runner._pool.is_alive(worker_id)
                for worker_id in range(runner.workers)
            )
            again = runner.run()
        assert_bit_identical(expected, again)
        assert all(result.from_cache for result in again)

    def test_salvage_prefers_cached_results(self, monkeypatch, tmp_path):
        """Configs the dead worker already wrote through are reloaded, not
        re-simulated: the parent's inline salvage only recomputes the rest."""
        expected = reference_results(TWO_GROUP_SPEC)
        hashes = [result.config_hash for result in expected]
        victim = hashes[1]
        parent_pid = os.getpid()
        monkeypatch.setattr(
            runner_mod,
            "iter_run_config",
            self._lethal(runner_mod.iter_run_config, victim, parent_pid),
        )
        recomputed = []
        real_fold = SweepRunner._fold_serial

        def counting_fold(self, misses, hashes_, results, errors):
            if os.getpid() == parent_pid:  # the parent folds only to salvage
                recomputed.extend(misses)
            return real_fold(self, misses, hashes_, results, errors)

        monkeypatch.setattr(SweepRunner, "_fold_serial", counting_fold)
        # fold_width=1: the victim's group mate finishes (and is written
        # through) before the victim is admitted and kills the worker.
        with SweepRunner(
            TWO_GROUP_SPEC, workers=2, fold_width=1,
            cache_dir=str(tmp_path / "cache"),
        ) as runner:
            results = runner.run()
        assert_bit_identical(expected, results)
        # The victim had no cache entry (its worker died producing it), so it
        # was re-simulated inline; anything loaded from the write-through
        # cache was not handed to the inline salvage path.
        assert hashes.index(victim) in recomputed
        assert hashes.index(victim) - 1 not in recomputed
        for index, result in enumerate(results):
            if result.from_cache:
                assert index not in recomputed


class TestAtomicCacheStore:
    def test_store_leaves_only_the_final_file(self, tmp_path):
        result = SweepRunner(TWO_GROUP_SPEC).run()[0]
        cache = tmp_path / "cache"
        _store_result(str(cache), result)
        entries = os.listdir(cache)
        assert entries == [f"{result.config_hash}.json"]
        payload = json.loads((cache / entries[0]).read_text())
        assert payload["config_hash"] == result.config_hash

    def test_failed_write_cleans_its_temp_file(self, tmp_path, monkeypatch):
        result = SweepRunner(TWO_GROUP_SPEC).run()[0]
        cache = tmp_path / "cache"

        def exploding_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", exploding_dump)
        with pytest.raises(OSError):
            _store_result(str(cache), result)
        assert os.listdir(cache) == []  # no partial temp file left behind

    @needs_fork
    def test_result_transport_is_exact(self):
        """Every SweepResult field survives the pool's result queue."""
        result = SweepRunner(TWO_GROUP_SPEC).run()[0]
        result.fallback = "RuntimeError: carried across"
        with PersistentWorkerPool(1) as pool:
            pool.submit(0, _echo_task, (result,))
            kind, _, _, payload = pool.events(timeout=10)
        assert kind == ACK
        assert payload[1].to_dict() == result.to_dict()
