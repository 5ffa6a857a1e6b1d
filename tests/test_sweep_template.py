"""Structural template cache: differential, round-trip and fallback tests.

The template cache (DESIGN.md §8) is a pure materialisation amortisation:
every value a :class:`~repro.sweep.template.StructuralTemplate` serves must
be bit-identical to what a from-scratch run computes, whatever mix of
fabrics, failures and seeds the grid stamps from it, at any worker count,
and whatever state the on-disk tier is in (missing, corrupt, stale).  These
tests enforce that against the per-config reference path
(:func:`~repro.sweep.runner.run_config`), plus the cache
policies (caps, clears, source accounting) and the phase instrumentation
that proves the amortisation.
"""

import json
import os

import numpy as np
import pytest

from repro.core.runtime import clear_runtime_caches
from repro.moe import trace as trace_mod
from repro.moe.models import get_model
from repro.moe.trace import clear_trace_memo, generate_trace
from repro.sweep import SweepConfig, SweepSpec
from repro.sweep.phases import PHASE_FIELDS, format_profile, summarize_phases
from repro.sweep.runner import SweepRunner, run_config
from repro.sweep.template import (
    _TEMPLATE_CACHE,
    _TEMPLATE_CACHE_LIMIT,
    TEMPLATE_SCHEMA_VERSION,
    TEMPLATE_STATS,
    StructuralTemplate,
    TemplateStore,
    _allocation_from_payload,
    _allocation_to_payload,
    clear_template_cache,
    get_template,
    structural_hash,
)

# Mixed failure grid: every failure kind the registry grammar accepts, on a
# static and a reconfigurable fabric, two seeds per group so templates are
# actually shared across stamped variants.
FAILURE_SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x7B"],
    failures=["none", "nic:1", "gpu", "server@1"],
    seeds=[0, 1],
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
    "events",
)


def assert_bit_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for a, b in zip(reference, candidate):
        for name in IDENTICAL_FIELDS:
            assert getattr(a, name) == getattr(b, name), name


class TestTemplatedDifferential:
    """Templated folded execution vs the from-scratch reference path."""

    @pytest.fixture(scope="class")
    def reference(self):
        return [run_config(config) for config in FAILURE_SPEC.expand()]

    def test_cold_templates_bit_identical(self, reference, tmp_path):
        clear_template_cache()
        results = SweepRunner(
            FAILURE_SPEC, template_dir=str(tmp_path / "templates")
        ).run()
        assert_bit_identical(reference, results)
        assert {r.template_source for r in results} == {"built"}

    def test_disk_seeded_templates_bit_identical(self, reference, tmp_path):
        template_dir = str(tmp_path / "templates")
        clear_template_cache()  # dirty-tracking only persists fresh builds
        SweepRunner(FAILURE_SPEC, template_dir=template_dir).run()
        clear_template_cache()  # drop the memory tier, keep the disk tier
        results = SweepRunner(
            FAILURE_SPEC, template_dir=template_dir
        ).run()
        assert_bit_identical(reference, results)
        assert {r.template_source for r in results} == {"disk"}

    def test_memory_tier_reused_within_process(self, reference):
        clear_template_cache()
        SweepRunner(FAILURE_SPEC).run()
        results = SweepRunner(FAILURE_SPEC).run()
        assert_bit_identical(reference, results)
        assert {r.template_source for r in results} == {"memory"}

    def test_workers2_bit_identical(self, reference, tmp_path):
        results = SweepRunner(
            FAILURE_SPEC,
            workers=2,
            template_dir=str(tmp_path / "templates"),
        ).run()
        assert_bit_identical(reference, results)
        # Every result materialised through a template in some worker.
        assert {r.template_source for r in results} <= {"built", "memory", "disk"}

    def test_staged_admission_engages_and_is_shared(self):
        """Templated DAG builds stamp AdmissionPlans onto every COMM task,
        the plans are shared across configs of the same template (identity,
        not equality — that is the amortisation), and the staged-admission
        executor path produces the same IterationResult as the scratch
        spec loop."""
        from repro.core.runtime import TrainingSimulator
        from repro.sim.dag import TaskKind
        from repro.sweep.runner import _materialise
        from repro.sweep.template import get_template

        config = SweepConfig(fabric="MixNet", model="Mixtral-8x7B",
                             num_servers=16)
        model, cluster, fabric, options = _materialise(config, None)
        clear_template_cache()
        template, _ = get_template(config.structural_key())

        def comm_plans(simulator):
            prepared = simulator._prepare_iteration(None, None)
            return {
                task_id: task.admission
                for task_id, task in prepared.graph.tasks.items()
                if task.kind is TaskKind.COMM
            }

        first = comm_plans(
            TrainingSimulator(model, cluster, fabric, options, template=template)
        )
        assert first and all(plan is not None for plan in first.values())
        # A second config stamped from the same template reuses the exact
        # plan objects via the _admissions memo.
        second = comm_plans(
            TrainingSimulator(model, cluster, fabric, options, template=template)
        )
        assert {k: id(v) for k, v in first.items()} == {
            k: id(v) for k, v in second.items()
        }
        # Scratch (no template) attaches nothing and still agrees exactly.
        scratch = TrainingSimulator(model, cluster, fabric, options)
        assert all(p is None for p in comm_plans(scratch).values())
        templated_result = TrainingSimulator(
            model, cluster, fabric, options, template=template
        ).simulate_iteration()
        scratch_result = scratch.simulate_iteration()
        assert templated_result.iteration_time_s == scratch_result.iteration_time_s
        assert templated_result.comm_bytes == scratch_result.comm_bytes
        assert templated_result.events == scratch_result.events

    def test_topoopt_demand_hints_fold_exactly(self, tmp_path):
        """TopoOpt's profiled-demand hint is the most template-sensitive
        artifact (it shapes the wiring); stamped runs must match scratch."""
        spec = SweepSpec(
            fabrics=["TopoOpt"], models=["Mixtral-8x7B"],
            seeds=[0, 1], num_servers=16,
        )
        reference = [run_config(config) for config in spec.expand()]
        clear_template_cache()
        template_dir = str(tmp_path / "templates")
        first = SweepRunner(spec, template_dir=template_dir).run()
        clear_template_cache()
        clear_runtime_caches()  # force the hint to come off the disk tier
        second = SweepRunner(spec, template_dir=template_dir).run()
        assert_bit_identical(reference, first)
        assert_bit_identical(reference, second)


class TestTemplateStoreRobustness:
    """The disk tier is an accelerator, never a correctness dependency."""

    @pytest.fixture()
    def populated_store(self, tmp_path):
        template_dir = tmp_path / "templates"
        clear_template_cache()
        results = SweepRunner(
            FAILURE_SPEC, template_dir=str(template_dir)
        ).run()
        files = sorted(template_dir.glob("*.json"))
        assert files, "run should have persisted templates"
        return template_dir, results

    def test_corrupt_files_fall_back_to_build(self, populated_store):
        template_dir, reference = populated_store
        for path in template_dir.glob("*.json"):
            path.write_text("{ not json !", encoding="utf-8")
        clear_template_cache()
        results = SweepRunner(
            FAILURE_SPEC, template_dir=str(template_dir)
        ).run()
        assert_bit_identical(reference, results)
        assert {r.template_source for r in results} == {"built"}

    def test_schema_mismatch_is_ignored(self, populated_store):
        template_dir, _ = populated_store
        path = next(iter(template_dir.glob("*.json")))
        payload = json.loads(path.read_text(encoding="utf-8"))
        key = tuple(payload["key"])
        payload["schema"] = TEMPLATE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert TemplateStore(str(template_dir)).load(key) is None

    def test_key_mismatch_is_ignored(self, populated_store):
        template_dir, _ = populated_store
        path = next(iter(template_dir.glob("*.json")))
        payload = json.loads(path.read_text(encoding="utf-8"))
        key = tuple(payload["key"])
        payload["key"] = list(key)[:-1] + ["tampered"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert TemplateStore(str(template_dir)).load(key) is None

    def test_missing_directory_loads_none_and_save_creates_it(self, tmp_path):
        store = TemplateStore(str(tmp_path / "does" / "not" / "exist"))
        assert store.load(("Fat-tree", "Mixtral-8x7B")) is None
        template = StructuralTemplate(("Fat-tree", "Mixtral-8x7B"))
        store.save(template)
        assert os.path.exists(store.path_for(template.key))

    def test_payload_round_trip_is_exact(self, populated_store):
        """Disk-loaded allocations must be bit-identical to computed ones:
        same circuit iteration order, exact float round-trip."""
        template_dir, _ = populated_store
        store = TemplateStore(str(template_dir))
        round_tripped = 0
        for path in template_dir.glob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            for entry in payload.get("allocations", {}).values():
                allocation = _allocation_from_payload(entry)
                back = _allocation_to_payload(allocation)
                assert back == entry
                # Dict order (CSR row order downstream) survives the trip.
                assert [list(p) + [n] for p, n in allocation.circuits.items()] == [
                    list(c) for c in entry["circuits"]
                ]
                round_tripped += 1
        # The MixNet groups must have persisted at least one allocation.
        assert round_tripped > 0
        # And a full load validates every entry eagerly.
        for path in template_dir.glob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert store.load(tuple(payload["key"])) is not None


class TestTemplateCachePolicy:
    def test_structural_hash_is_stable_and_key_sensitive(self):
        key = ("Fat-tree", "Mixtral-8x7B", "block", "none", 16, 6)
        assert structural_hash(key) == structural_hash(list(key))
        assert structural_hash(key) != structural_hash(key[:-1] + (7,))
        assert len(structural_hash(key)) == 24

    def test_memory_cache_caps_and_clears(self):
        clear_template_cache()
        for index in range(_TEMPLATE_CACHE_LIMIT + 3):
            get_template(("synthetic", index))
        assert len(_TEMPLATE_CACHE) <= _TEMPLATE_CACHE_LIMIT
        assert TEMPLATE_STATS["built"] == _TEMPLATE_CACHE_LIMIT + 3
        clear_template_cache()
        assert not _TEMPLATE_CACHE
        assert all(count == 0 for count in TEMPLATE_STATS.values())

    def test_get_template_source_accounting(self, tmp_path):
        clear_template_cache()
        store = TemplateStore(str(tmp_path))
        key = ("synthetic-source", 0)
        _, source = get_template(key, store=store)
        assert source == "built"
        _, source = get_template(key, store=store)
        assert source == "memory"
        template = StructuralTemplate(key)
        store.save(template)
        clear_template_cache()
        _, source = get_template(key, store=store)
        assert source == "disk"

    def test_stamped_axis_memos_do_not_collide(self):
        """Memos inside one template are keyed by the stamped axes they
        depend on — distinct axes must never share an entry."""
        template = StructuralTemplate(("synthetic-memo",))
        hint0 = np.arange(4, dtype=np.float64).reshape(2, 2)
        hint1 = hint0 * 3.0
        template.store_demand_hint(0, [0, 1], hint0)
        template.store_demand_hint(1, [0, 1], hint1)
        assert np.array_equal(template.demand_hint(0, [0, 1]), hint0)
        assert np.array_equal(template.demand_hint(1, [0, 1]), hint1)
        assert template.demand_hint(2, [0, 1]) is None
        # Stored hints are frozen: consumers share one instance.
        with pytest.raises(ValueError):
            template.demand_hint(0, [0, 1])[0, 0] = 9.0


class TestBoundedMemos:
    """Satellite of DESIGN.md §8: every process-wide memo is bounded with a
    clear API, mirroring ``repro.moe.gate``'s clear-on-full init cache."""

    def test_trace_memo_clears_on_full(self):
        clear_trace_memo()
        model = get_model("Mixtral-8x7B")
        for fake in range(trace_mod._TRACE_MEMO_LIMIT):
            trace_mod._TRACE_MEMO[("fake", fake)] = object()
        generate_trace(model, num_iterations=1, layers=[0])
        assert len(trace_mod._TRACE_MEMO) == 1
        assert ("fake", 0) not in trace_mod._TRACE_MEMO
        clear_trace_memo()
        assert not trace_mod._TRACE_MEMO

    def test_trace_memo_hit_builds_no_gate(self, monkeypatch):
        """A memo hit returns before any GateSimulator is constructed, so it
        never redoes the gate's initial draws."""
        clear_trace_memo()
        model = get_model("Mixtral-8x7B")
        first = generate_trace(model, num_iterations=1, layers=[0])
        built = []
        real_gate = trace_mod.GateSimulator

        def counting_gate(*args, **kwargs):
            built.append(args)
            return real_gate(*args, **kwargs)

        monkeypatch.setattr(trace_mod, "GateSimulator", counting_gate)
        assert generate_trace(model, num_iterations=1, layers=[0]) is first
        assert built == []
        generate_trace(model, num_iterations=1, layers=[0], seed=1)  # a miss
        assert len(built) == 1
        clear_trace_memo()

    def test_clear_apis_are_idempotent(self):
        clear_runtime_caches()
        clear_trace_memo()
        clear_template_cache()
        # Callable twice without error, and caches stay usable after.
        clear_runtime_caches()
        model = get_model("Mixtral-8x7B")
        trace = generate_trace(model, num_iterations=1, layers=[0])
        assert trace.records


class TestPhaseProfile:
    def test_folded_results_carry_phases(self, tmp_path):
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        results = SweepRunner(spec).run()
        for result in results:
            assert result.setup_s > 0.0
            assert result.solve_s > 0.0
            assert result.advance_s > 0.0
            assert result.store_s >= 0.0
        payload = results[0].to_dict()
        for name in PHASE_FIELDS:
            assert name in payload

    def test_cached_results_excluded_from_means(self, tmp_path):
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0, 1], num_servers=16)
        cache = str(tmp_path / "cache")
        SweepRunner(spec, cache_dir=cache).run()
        cached = SweepRunner(spec, cache_dir=cache).run()
        assert all(r.from_cache for r in cached)
        summary = summarize_phases(cached)
        assert summary["num_fresh"] == 0
        assert summary["mean_setup_s"] == 0.0

    def test_format_profile_reports_sources(self):
        clear_template_cache()
        spec = SweepSpec(fabrics=["MixNet"], models=["Mixtral-8x7B"],
                         seeds=[0], num_servers=16)
        results = SweepRunner(spec).run()
        lines = format_profile(results)
        assert lines[-1].startswith("template sources: ")
        assert "built=1" in lines[-1]
        assert any(results[0].config_hash in line for line in lines)
