"""Tests for the regional topology controller (§5.2, Figure 20)."""

import pytest

from repro.cluster import simulation_cluster
from repro.core.controller import RegionalTopologyController
from repro.fabric.mixnet import MixNetFabric
from repro.fabric.ocs import OCSTechnology
from repro.moe.gate import GateSimulator
from repro.moe.models import MIXTRAL_8x7B
from repro.moe.parallelism import ParallelismPlan


@pytest.fixture
def setup():
    cluster = simulation_cluster(16, nic_bandwidth_gbps=400.0)
    fabric = MixNetFabric(cluster)
    plan = ParallelismPlan(MIXTRAL_8x7B, cluster)
    group = plan.ep_groups()[0]
    servers = cluster.servers_of_gpus(group)
    region = fabric.build_region(servers)
    controller = RegionalTopologyController(
        region, cluster, optical_degree=fabric.optical_degree
    )
    gate = GateSimulator(MIXTRAL_8x7B, seed=0)
    matrix = gate.rank_traffic_matrix(gate.expert_loads(0)[0], sender_seed=1)
    return controller, region, group, matrix


class TestPlanning:
    def test_plan_from_rank_matrix_respects_degree(self, setup):
        controller, _, group, matrix = setup
        allocation = controller.plan_from_rank_matrix(matrix, group)
        for server in allocation.servers:
            assert allocation.degree_of(server) <= 6

    def test_plan_uniform_has_circuits(self, setup):
        controller, _, group, _ = setup
        allocation = controller.plan_uniform(controller.region.servers)
        assert allocation.total_circuits() > 0

    def test_exclusion_removes_failed_server(self, setup):
        controller, region, group, matrix = setup
        failed = region.servers[0]
        controller.exclude_server(failed)
        allocation = controller.plan_from_rank_matrix(matrix, group)
        assert failed not in allocation.servers
        controller.restore_server(failed)
        allocation = controller.plan_from_rank_matrix(matrix, group)
        assert failed in allocation.servers

    def test_exclusion_drops_demand_circuits_and_nics(self, setup):
        """Failure path (§5.4): the excluded server must vanish from the
        demand rows/columns, the circuit map AND the NIC-level mapping."""
        controller, region, group, matrix = setup
        failed = region.servers[0]
        baseline = controller.plan_from_rank_matrix(matrix, group)
        assert any(failed in pair for pair in baseline.circuits)
        controller.exclude_server(failed)
        allocation = controller.plan_from_rank_matrix(matrix, group)
        assert len(allocation.servers) == len(baseline.servers) - 1
        assert all(failed not in pair for pair in allocation.circuits)
        assert all(
            failed not in (end_a[0], end_b[0])
            for end_a, end_b in allocation.nic_mapping
        )
        # The surviving servers still receive a usable allocation.
        assert allocation.total_circuits() > 0
        controller.restore_server(failed)
        restored = controller.plan_from_rank_matrix(matrix, group)
        assert failed in restored.servers
        assert any(
            failed in (end_a[0], end_b[0])
            for end_a, end_b in restored.nic_mapping
        )


class TestDecisions:
    def test_full_hiding_in_long_compute_window(self, setup):
        controller, _, group, matrix = setup
        allocation = controller.plan_from_rank_matrix(matrix, group)
        decision = controller.decide(allocation, hideable_window_s=0.1)
        assert decision.blocking_s == pytest.approx(0.0)
        assert decision.hidden_s == pytest.approx(0.025)

    def test_partial_blocking_in_short_window(self, setup):
        controller, _, group, matrix = setup
        allocation = controller.plan_from_rank_matrix(matrix, group)
        decision = controller.decide(allocation, hideable_window_s=0.01)
        assert decision.blocking_s == pytest.approx(0.015)

    def test_unchanged_allocation_is_free(self, setup):
        controller, _, group, matrix = setup
        allocation = controller.plan_from_rank_matrix(matrix, group)
        controller.install(allocation)
        decision = controller.decide(allocation, hideable_window_s=0.0)
        assert not decision.changed
        assert decision.blocking_s == 0.0


class TestInstallation:
    def test_install_applies_circuits_to_region(self, setup):
        controller, region, group, matrix = setup
        allocation = controller.plan_from_rank_matrix(matrix, group)
        controller.install(allocation)
        assert region.circuits == allocation.circuits
        assert controller.installed_allocation is allocation
        assert controller.reconfigurations == 1

    def test_reconfigure_for_demand_tracks_blocking(self, setup):
        controller, _, group, matrix = setup
        decision = controller.reconfigure_for_demand(matrix, group, hideable_window_s=0.0)
        assert decision.changed
        assert controller.total_blocking_s == pytest.approx(0.025)
        # Same demand again: no change, no extra blocking.
        controller.reconfigure_for_demand(matrix, group, hideable_window_s=0.0)
        assert controller.total_blocking_s == pytest.approx(0.025)

    def test_zero_delay_installs_are_counted(self):
        """Regression: ``install`` used the device delay as a change detector,
        so installs on an instantaneous OCS never counted."""
        cluster = simulation_cluster(16, nic_bandwidth_gbps=400.0)
        instant = OCSTechnology("Instant (test)", 576, 0.0)
        fabric = MixNetFabric(cluster, ocs_technology=instant)
        plan = ParallelismPlan(MIXTRAL_8x7B, cluster)
        group = plan.ep_groups()[0]
        servers = cluster.servers_of_gpus(group)
        region = fabric.build_region(servers)
        controller = RegionalTopologyController(
            region, cluster, optical_degree=fabric.optical_degree
        )
        gate = GateSimulator(MIXTRAL_8x7B, seed=3)
        matrix = gate.rank_traffic_matrix(gate.expert_loads(0)[0], sender_seed=4)
        allocation = controller.plan_from_rank_matrix(matrix, group)
        delay = controller.install(allocation)
        assert delay == 0.0
        assert controller.reconfigurations == 1
        # Re-installing the identical allocation is not a change.
        controller.install(allocation)
        assert controller.reconfigurations == 1
        # A different allocation counts again, still at zero delay.
        other = gate.rank_traffic_matrix(gate.expert_loads(1)[0], sender_seed=9)
        controller.install(controller.plan_from_rank_matrix(other, group))
        assert controller.reconfigurations == 2

    def test_identical_install_not_counted(self, setup):
        controller, _, group, matrix = setup
        allocation = controller.plan_from_rank_matrix(matrix, group)
        controller.install(allocation)
        controller.install(allocation)
        assert controller.reconfigurations == 1

    def test_validation(self, setup):
        controller, region, _, _ = setup
        with pytest.raises(ValueError):
            RegionalTopologyController(region, controller.cluster, optical_degree=-1)
        with pytest.raises(ValueError):
            RegionalTopologyController(
                region, controller.cluster, optical_degree=2, reconfiguration_delay_s=-1.0
            )
