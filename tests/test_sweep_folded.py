"""Folded sweep execution: equivalence, fallback and crash-safety tests.

Folding must be a pure performance transformation: every result the runner
produces is bit-identical to the per-config reference path
(:func:`~repro.sweep.runner.run_config`), whatever mix of fabrics, policies
and failure scenarios the grid contains, and whatever goes wrong mid-run
(straggler generators, kernel OOM, worker crashes) the run must degrade to
slower-but-correct execution with structured error records.
"""

import json
import multiprocessing
import sys

import pytest

import repro.sweep.runner as runner_mod
from repro.sweep import SweepConfig, SweepSpec
from repro.sweep.runner import (
    FoldedSweepRunner,
    SweepError,
    SweepRunError,
    SweepRunner,
    _fold_shard_task,
    run_config,
)

# Mixed grid: both fabrics, both policies, a failure scenario — every
# structural group the Figure 12/14 sweeps exercise.
MIXED_SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x7B"],
    first_a2a_policies=["block", "copilot"],
    failures=["none", "nic:1"],
    num_servers=16,
)

IDENTICAL_FIELDS = (
    "config_hash",
    "iteration_time_s",
    "stage_time_s",
    "dp_allreduce_s",
    "pp_transfer_s",
    "reconfig_blocking_s",
    "comm_bytes",
    "compute_time_s",
    "tokens_per_second",
    # Event counts are part of the equivalence contract: run() and
    # iter_run() must consume identical event budgets (the round counters
    # are deliberately absent — they are path-dependent observability,
    # like the phase timings).
    "events",
)


def assert_bit_identical(reference, folded):
    assert len(reference) == len(folded)
    for a, b in zip(reference, folded):
        for name in IDENTICAL_FIELDS:
            assert getattr(a, name) == getattr(b, name), name


def reference_results(spec):
    """The per-config reference: every config simulated from scratch."""
    return [run_config(config) for config in spec.expand()]


class TestFoldedEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        return reference_results(MIXED_SPEC)

    def test_bit_identical_on_mixed_grid(self, reference):
        folded = SweepRunner(MIXED_SPEC).run()
        assert_bit_identical(reference, folded)

    def test_fold_width_does_not_change_results(self, reference):
        for width in (1, 3):
            folded = SweepRunner(MIXED_SPEC, fold_width=width).run()
            assert_bit_identical(reference, folded)

    def test_scalar_solver_folds_through_python_loop(self, reference):
        folded = SweepRunner(MIXED_SPEC, solver="scalar").run()
        for a, b in zip(reference, folded):
            assert a.config_hash == b.config_hash
            assert b.iteration_time_s == pytest.approx(
                a.iteration_time_s, rel=1e-9
            )

    def test_write_through_caching(self, reference, tmp_path):
        cache = str(tmp_path / "cache")
        first = SweepRunner(MIXED_SPEC, cache_dir=cache).run()
        assert all(not r.from_cache for r in first)
        second = SweepRunner(MIXED_SPEC, cache_dir=cache).run()
        assert all(r.from_cache for r in second)
        assert_bit_identical(reference, first)
        for a, b in zip(first, second):
            assert a.iteration_time_s == b.iteration_time_s

    def test_invalid_fold_width_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(MIXED_SPEC, fold_width=0)

    def test_unknown_solver_rejected(self):
        """A misspelled solver fails at construction, not as one
        SweepRunError record per config after simulating nothing."""
        with pytest.raises(ValueError, match="bogus"):
            SweepRunner(MIXED_SPEC, solver="bogus")


class TestIncrementalEquivalence:
    """The batch kernel's freeze-level replay is a pure performance
    transformation: folded results on the mixed failure grid are
    bit-identical to the per-config reference across fold widths, and the
    replay actually engages (rounds_replayed > 0)."""

    @pytest.fixture(scope="class")
    def reference(self):
        return reference_results(MIXED_SPEC)

    def test_fold_width_variance_with_incremental(self, reference):
        from repro.sim.flows import resolve_solver

        for width in (1, 3):
            folded = SweepRunner(MIXED_SPEC, fold_width=width).run()
            assert_bit_identical(reference, folded)
            if resolve_solver(None) == "native":
                assert sum(r.rounds_replayed for r in folded) > 0


class TestFoldedFallback:
    def test_straggler_falls_back_to_unfolded(self, monkeypatch):
        """A config whose generator blows up mid-fold still produces its
        (identical) result via the per-config path; the others stay folded."""
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        expected = reference_results(spec)
        victim = expected[1].config_hash
        real = runner_mod.iter_run_config

        def sabotaged(config, solver=None, config_hash=None, **kwargs):
            if config_hash == victim:
                raise RuntimeError("injected straggler")
            return real(config, solver=solver, config_hash=config_hash, **kwargs)

        monkeypatch.setattr(runner_mod, "iter_run_config", sabotaged)
        folded = SweepRunner(spec).run()
        assert_bit_identical(expected, folded)
        # Only the victim left the fold: fallback results carry no template,
        # and the victim's records why it fell back.
        assert folded[0].template_source != "none"
        assert folded[1].template_source == "none"
        assert folded[0].fallback == ""
        assert folded[1].fallback == "RuntimeError: injected straggler"

    def test_double_failure_is_a_structured_error(self, monkeypatch, tmp_path):
        """When the fallback fails too, the run finishes everything else,
        caches it, and raises one structured record per failed config."""
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        hashes = [c.config_hash() for c in spec.expand()]
        victim = hashes[0]
        _sabotage(monkeypatch, victim, "injected fallback failure")
        cache = tmp_path / "cache"
        with pytest.raises(SweepRunError) as excinfo:
            SweepRunner(spec, cache_dir=str(cache)).run()
        errors = excinfo.value.errors
        assert [e.config_hash for e in errors] == [victim]
        assert "injected fallback failure" in errors[0].error
        # The healthy config completed and was written through.
        assert (cache / f"{hashes[1]}.json").exists()
        assert not (cache / f"{victim}.json").exists()


def _sabotage(monkeypatch, victim, message):
    """Make ``victim`` fail both folded and through the per-config fallback."""
    real_iter = runner_mod.iter_run_config
    real_run = runner_mod.run_config

    def bad_iter(config, solver=None, config_hash=None, **kwargs):
        if config_hash == victim:
            raise RuntimeError("injected fold failure")
        return real_iter(config, solver=solver, config_hash=config_hash, **kwargs)

    def bad_run(config, solver=None, config_hash=None):
        if config_hash == victim:
            raise RuntimeError(message)
        return real_run(config, solver=solver, config_hash=config_hash)

    monkeypatch.setattr(runner_mod, "iter_run_config", bad_iter)
    monkeypatch.setattr(runner_mod, "run_config", bad_run)


class TestParallelCrashSafety:
    def test_worker_returns_structured_error_payload(self, monkeypatch):
        """The pool task tags a failed config as an ``err`` ack instead of
        raising, so one bad config cannot tear down its shard's stream."""
        configs = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                            seeds=[0, 1], num_servers=16).expand()
        hashes = [c.config_hash() for c in configs]
        _sabotage(monkeypatch, hashes[0], "injected task failure")
        acks = []
        _fold_shard_task(acks.append, configs, hashes, [7, 9], None, None, 16, None)
        assert sorted(ack[:2] for ack in acks) == [("err", 7), ("ok", 9)]
        by_tag = {ack[0]: ack[2] for ack in acks}
        assert "injected task failure" in by_tag["err"]
        assert by_tag["ok"].config_hash == hashes[1]

    @pytest.mark.skipif(sys.platform == "win32", reason="requires fork")
    def test_one_crash_does_not_lose_completed_work(self, monkeypatch, tmp_path):
        """Completed results are cached as they arrive; the failure surfaces
        as a SweepRunError afterwards, and a rerun only repeats the failure."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatched failure injection needs fork semantics")
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        hashes = [c.config_hash() for c in spec.expand()]
        victim = hashes[0]
        _sabotage(monkeypatch, victim, "injected worker crash")
        cache = tmp_path / "cache"
        with pytest.raises(SweepRunError) as excinfo:
            with SweepRunner(spec, workers=2, cache_dir=str(cache)) as runner:
                runner.run()
        errors = excinfo.value.errors
        assert [e.config_hash for e in errors] == [victim]
        assert "injected worker crash" in errors[0].error
        assert isinstance(errors[0], SweepError)
        # The survivor's result was written through before the raise.
        survivor = cache / f"{hashes[1]}.json"
        assert survivor.exists()
        assert json.loads(survivor.read_text())["config_hash"] == hashes[1]


class TestHashOnce:
    @pytest.mark.parametrize(
        "runner_cls", [SweepRunner, FoldedSweepRunner],
        ids=["SweepRunner", "FoldedSweepRunner"],
    )
    def test_config_hash_computed_once_per_config(
        self, monkeypatch, tmp_path, runner_cls
    ):
        """The content hash keys the cache three times over (path, stale
        check, store); the run must compute it once per config and thread it
        through."""
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        configs = spec.expand()  # expand's duplicate check hashes too
        calls = {"n": 0}
        real_hash = SweepConfig.config_hash

        def counting_hash(self):
            calls["n"] += 1
            return real_hash(self)

        monkeypatch.setattr(SweepConfig, "config_hash", counting_hash)
        runner_cls(configs, cache_dir=str(tmp_path / "c")).run()
        assert calls["n"] == len(configs)
