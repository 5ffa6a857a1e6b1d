"""Tests for the end-to-end training simulator (§7 evaluation engine)."""

import pytest

from repro.cluster import simulation_cluster
from repro.core.failures import FailureScenario
from repro.core.runtime import (
    IterationResult,
    RuntimeOptions,
    TrainingSimulator,
    normalized_iteration_times,
    simulate_fabrics,
)
from repro.fabric import (
    FatTreeFabric,
    MixNetFabric,
    RailOptimizedFabric,
    TopoOptFabric,
)
from repro.moe.models import MIXTRAL_8x7B


CLUSTER = simulation_cluster(16, nic_bandwidth_gbps=400.0)
CLUSTER_100G = simulation_cluster(16, nic_bandwidth_gbps=100.0)


def run(fabric, cluster=CLUSTER, options=None, failure=None, model=MIXTRAL_8x7B):
    simulator = TrainingSimulator(model, cluster, fabric, options=options)
    return simulator.simulate_iteration(failure=failure)


class TestRuntimeOptions:
    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            RuntimeOptions(first_a2a_policy="magic")

    def test_invalid_delay_and_efficiency(self):
        with pytest.raises(ValueError):
            RuntimeOptions(reconfiguration_delay_s=-1.0)
        with pytest.raises(ValueError):
            RuntimeOptions(eps_collective_efficiency=0.0)
        with pytest.raises(ValueError):
            RuntimeOptions(ocs_collective_efficiency=1.5)


class TestIterationResult:
    def test_result_fields_consistent(self):
        result = run(FatTreeFabric(CLUSTER))
        assert result.fabric == "Fat-tree"
        assert result.model == "Mixtral-8x7B"
        assert result.iteration_time_s > 0
        assert result.stage_time_s > 0
        assert result.compute_time_s > 0
        assert result.comm_bytes > 0
        assert result.tokens_per_second > 0
        assert result.reconfig_blocking_s == 0.0

    def test_iteration_dominated_by_pipeline_stages(self):
        result = run(FatTreeFabric(CLUSTER))
        pipeline = (result.num_micro_batches + MIXTRAL_8x7B.pp_degree - 1) * (
            result.stage_time_s + result.pp_transfer_s
        )
        assert result.iteration_time_s == pytest.approx(pipeline + result.dp_allreduce_s)

    def test_stage_time_exceeds_pure_compute(self):
        result = run(FatTreeFabric(CLUSTER))
        assert result.stage_time_s >= result.compute_time_s

    def test_deterministic_given_seed(self):
        a = run(FatTreeFabric(CLUSTER), options=RuntimeOptions(seed=3))
        b = run(FatTreeFabric(CLUSTER), options=RuntimeOptions(seed=3))
        assert a.iteration_time_s == pytest.approx(b.iteration_time_s)


class TestMixNetBehaviour:
    def test_blocking_policy_accumulates_reconfiguration_stalls(self):
        result = run(MixNetFabric(CLUSTER))
        blocks = MIXTRAL_8x7B.blocks_per_pp_stage
        assert result.reconfig_blocking_s == pytest.approx(0.025 * blocks)

    def test_copilot_policy_avoids_blocking(self):
        blocked = run(MixNetFabric(CLUSTER), options=RuntimeOptions(first_a2a_policy="block"))
        copilot = run(MixNetFabric(CLUSTER), options=RuntimeOptions(first_a2a_policy="copilot"))
        assert copilot.reconfig_blocking_s == 0.0
        assert copilot.stage_time_s < blocked.stage_time_s

    def test_reuse_policy_runs(self):
        result = run(MixNetFabric(CLUSTER), options=RuntimeOptions(first_a2a_policy="reuse"))
        assert result.iteration_time_s > 0

    def test_larger_reconfiguration_delay_slows_iteration(self):
        """Figure 28: second-scale reconfiguration delays hurt badly."""
        fast = run(MixNetFabric(CLUSTER), options=RuntimeOptions(reconfiguration_delay_s=0.001))
        default = run(MixNetFabric(CLUSTER), options=RuntimeOptions(reconfiguration_delay_s=0.025))
        slow = run(MixNetFabric(CLUSTER), options=RuntimeOptions(reconfiguration_delay_s=2.0))
        assert fast.iteration_time_s <= default.iteration_time_s
        assert slow.iteration_time_s > 1.5 * default.iteration_time_s

    def test_higher_optical_degree_helps_at_low_bandwidth(self):
        """Figure 27: more optical circuits reduce iteration time."""
        low_cluster = simulation_cluster(16, nic_bandwidth_gbps=100.0, ocs_nics=2)
        high_cluster = simulation_cluster(16, nic_bandwidth_gbps=100.0, ocs_nics=6)
        low = run(MixNetFabric(low_cluster), cluster=low_cluster)
        high = run(MixNetFabric(high_cluster), cluster=high_cluster)
        assert high.iteration_time_s <= low.iteration_time_s


class TestFigure12Shape:
    @pytest.fixture(scope="class")
    def results_100g(self):
        fabrics = [
            FatTreeFabric(CLUSTER_100G),
            FatTreeFabric(CLUSTER_100G, oversubscription=3.0),
            RailOptimizedFabric(CLUSTER_100G),
            TopoOptFabric(CLUSTER_100G),
            MixNetFabric(CLUSTER_100G),
        ]
        return simulate_fabrics(MIXTRAL_8x7B, fabrics)

    def test_mixnet_close_to_fat_tree(self, results_100g):
        normalized = normalized_iteration_times(results_100g)
        assert normalized["MixNet"] < 1.35

    def test_mixnet_beats_oversub_and_topoopt(self, results_100g):
        normalized = normalized_iteration_times(results_100g)
        assert normalized["MixNet"] < normalized["OverSub. Fat-tree"]
        assert normalized["MixNet"] < normalized["TopoOpt"]

    def test_rail_matches_fat_tree(self, results_100g):
        normalized = normalized_iteration_times(results_100g)
        assert normalized["Rail-optimized"] == pytest.approx(1.0, abs=0.05)

    def test_gap_shrinks_with_bandwidth(self):
        def gap(cluster):
            fabrics = [FatTreeFabric(cluster), TopoOptFabric(cluster)]
            results = simulate_fabrics(MIXTRAL_8x7B, fabrics)
            return normalized_iteration_times(results)["TopoOpt"]

        assert gap(CLUSTER) < gap(CLUSTER_100G)

    def test_normalized_requires_reference(self, results_100g):
        with pytest.raises(KeyError):
            normalized_iteration_times(results_100g, reference="Dragonfly")


class TestFailureImpact:
    def test_nic_failure_small_overhead(self):
        baseline = run(MixNetFabric(CLUSTER))
        failed = run(MixNetFabric(CLUSTER), failure=FailureScenario.nic_failures(1))
        overhead = failed.iteration_time_s / baseline.iteration_time_s
        assert 1.0 <= overhead < 1.15

    def test_server_failure_worse_than_gpu_failure(self):
        baseline = run(MixNetFabric(CLUSTER))
        gpu = run(MixNetFabric(CLUSTER), failure=FailureScenario.gpu_failure())
        server = run(MixNetFabric(CLUSTER), failure=FailureScenario.server_failure())
        assert gpu.iteration_time_s >= baseline.iteration_time_s
        assert server.iteration_time_s >= gpu.iteration_time_s

    def test_failures_keep_training_functional(self):
        """§5.4: MixNet keeps acceptable performance under failures."""
        baseline = run(MixNetFabric(CLUSTER))
        server = run(MixNetFabric(CLUSTER), failure=FailureScenario.server_failure())
        assert server.iteration_time_s < 1.5 * baseline.iteration_time_s


class TestEffectiveOpticalDegree:
    def make_simulator(self):
        return TrainingSimulator(MIXTRAL_8x7B, CLUSTER, MixNetFabric(CLUSTER))

    def test_two_penalized_servers_take_worst_case(self):
        """Regression: the old loop let whichever server was visited last win,
        so a small penalty ordered after a large one restored optical NICs
        that the slice had actually lost."""
        from repro.core.failures import FailureEffects

        simulator = self.make_simulator()
        base = simulator.fabric.optical_degree
        first, second = simulator.region_servers[:2]
        # Insertion order matters for the regression: the milder penalty last.
        effects = FailureEffects(ocs_degree_penalty={first: 3, second: 1})
        assert simulator._effective_optical_degree(effects) == max(0, base - 3)

    def test_servers_outside_region_ignored(self):
        from repro.core.failures import FailureEffects

        simulator = self.make_simulator()
        base = simulator.fabric.optical_degree
        outside = max(simulator.region_servers) + 1000
        effects = FailureEffects(ocs_degree_penalty={outside: 5})
        assert simulator._effective_optical_degree(effects) == base

    def test_penalty_floors_at_zero(self):
        from repro.core.failures import FailureEffects

        simulator = self.make_simulator()
        server = simulator.region_servers[0]
        effects = FailureEffects(ocs_degree_penalty={server: 999})
        assert simulator._effective_optical_degree(effects) == 0


class TestNormalizedReferenceGuard:
    def make_result(self, iteration_time_s):
        return IterationResult(
            fabric="Fat-tree", model="m", iteration_time_s=iteration_time_s,
            stage_time_s=0.0, dp_allreduce_s=0.0, pp_transfer_s=0.0,
            reconfig_blocking_s=0.0, comm_bytes=0.0, compute_time_s=0.0,
            num_micro_batches=1, tokens_per_iteration=0.0,
        )

    def test_zero_reference_time_raises(self):
        results = {"Fat-tree": self.make_result(0.0)}
        with pytest.raises(ValueError, match="zero or near-zero"):
            normalized_iteration_times(results)

    def test_near_zero_reference_time_raises(self):
        results = {"Fat-tree": self.make_result(1e-15)}
        with pytest.raises(ValueError, match="zero or near-zero"):
            normalized_iteration_times(results)


class TestMicroBatchScaling:
    def test_larger_micro_batch_increases_iteration_time(self):
        small = run(MixNetFabric(CLUSTER), options=RuntimeOptions(micro_batch_size=8))
        large = run(MixNetFabric(CLUSTER), options=RuntimeOptions(micro_batch_size=32))
        assert large.iteration_time_s > 2.0 * small.iteration_time_s
