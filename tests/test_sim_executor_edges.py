"""Executor edge cases: simultaneous completions, zero-byte transfers and
bit-for-bit determinism (also across sweep worker counts, see
``tests/test_sweep.py``)."""

import pytest

from repro.fabric.base import RegionNetwork
from repro.sim.dag import FlowSpec, RouteKind, TaskGraph
from repro.sim.executor import Executor


def make_region(capacity_gbps=8.0):
    """Two servers joined by one duplex pair of links (8 Gbps = 1e9 B/s)."""
    region = RegionNetwork(servers=[0, 1])
    region.add_link("nvs:s0", 800.0)
    region.add_link("nvs:s1", 800.0)
    region.add_link("fwd", capacity_gbps)
    region.add_link("rev", capacity_gbps)
    region.intra_links = {0: "nvs:s0", 1: "nvs:s1"}
    region.ep_paths = {(0, 1): ["fwd"], (1, 0): ["rev"]}
    region.eps_paths = dict(region.ep_paths)
    return region


class TestSimultaneousCompletions:
    def test_flow_and_timed_task_finish_at_same_instant(self):
        """A flow sized to finish exactly when a compute task does: both must
        complete, and the joint dependent must start at that same instant."""
        graph = TaskGraph()
        compute = graph.add_compute("compute", duration_s=1.0)
        comm = graph.add_comm(
            "comm", [FlowSpec(0, 1, 1e9, RouteKind.EP)]  # 1e9 B at 1e9 B/s
        )
        graph.add_barrier("join", deps=[compute.task_id, comm.task_id])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(1.0)
        assert result.task_finish_times["compute"] == pytest.approx(1.0)
        assert result.task_finish_times["comm"] == pytest.approx(1.0)
        assert result.task_start_times["join"] == pytest.approx(1.0)
        assert result.finished_tasks() == 3

    def test_two_flows_of_one_task_finish_together(self):
        graph = TaskGraph()
        graph.add_comm(
            "comm",
            [FlowSpec(0, 1, 1e9, RouteKind.EP), FlowSpec(1, 0, 1e9, RouteKind.EP)],
        )
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(1.0)

    def test_chain_triggered_at_simultaneous_instant(self):
        """Tasks released by simultaneous completions still run afterwards."""
        graph = TaskGraph()
        compute = graph.add_compute("compute", duration_s=1.0)
        comm = graph.add_comm("comm", [FlowSpec(0, 1, 1e9, RouteKind.EP)])
        graph.add_comm(
            "tail",
            [FlowSpec(1, 0, 0.5e9, RouteKind.EP)],
            deps=[compute.task_id, comm.task_id],
        )
        result = Executor(graph, make_region()).run()
        assert result.task_start_times["tail"] == pytest.approx(1.0)
        assert result.makespan == pytest.approx(1.5)


class TestZeroByteComm:
    def test_zero_byte_comm_completes_instantly(self):
        graph = TaskGraph()
        comm = graph.add_comm("comm", [FlowSpec(0, 1, 0.0, RouteKind.EP)])
        graph.add_compute("after", duration_s=0.25, deps=[comm.task_id])
        result = Executor(graph, make_region()).run()
        assert result.task_finish_times["comm"] == pytest.approx(0.0)
        assert result.makespan == pytest.approx(0.25)
        assert result.comm_bytes == 0.0

    def test_zero_byte_specs_do_not_occupy_links(self):
        """A zero-byte spec alongside a real one must not affect sharing."""
        graph = TaskGraph()
        graph.add_comm(
            "comm",
            [FlowSpec(0, 1, 0.0, RouteKind.EP), FlowSpec(0, 1, 1e9, RouteKind.EP)],
        )
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(1.0)
        assert result.comm_bytes == pytest.approx(1e9)

    def test_comm_task_with_no_specs(self):
        graph = TaskGraph()
        comm = graph.add_comm("comm", [])
        graph.add_compute("after", duration_s=0.5, deps=[comm.task_id])
        result = Executor(graph, make_region()).run()
        assert result.makespan == pytest.approx(0.5)


class TestDeterminism:
    def test_identical_execution_results_across_runs(self):
        """Same graph, same region ⇒ bit-for-bit identical ExecutionResult."""
        from repro.cluster import simulation_cluster
        from repro.core.runtime import RuntimeOptions, TrainingSimulator
        from repro.fabric import MixNetFabric
        from repro.moe.models import MIXTRAL_8x7B

        cluster = simulation_cluster(16, nic_bandwidth_gbps=400.0)
        outcomes = []
        for _ in range(2):
            simulator = TrainingSimulator(
                MIXTRAL_8x7B, cluster, MixNetFabric(cluster),
                options=RuntimeOptions(seed=11),
            )
            outcomes.append(simulator.simulate_iteration())
        assert outcomes[0].iteration_time_s == outcomes[1].iteration_time_s
        assert outcomes[0].stage_time_s == outcomes[1].stage_time_s
        assert outcomes[0].comm_bytes == outcomes[1].comm_bytes

    def test_executor_task_times_identical_across_runs(self):
        def run():
            graph = TaskGraph()
            prev = None
            for index in range(6):
                comm = graph.add_comm(
                    f"comm{index}",
                    [
                        FlowSpec(0, 1, 0.3e9 * (index + 1), RouteKind.EP),
                        FlowSpec(1, 0, 0.2e9 * (index + 1), RouteKind.EP),
                    ],
                    deps=[prev] if prev else [],
                )
                compute = graph.add_compute(
                    f"compute{index}", duration_s=0.1 * index, deps=[comm.task_id]
                )
                prev = compute.task_id
            return Executor(graph, make_region()).run()

        first, second = run(), run()
        assert first.task_start_times == second.task_start_times
        assert first.task_finish_times == second.task_finish_times
        assert first.makespan == second.makespan

    @pytest.mark.parametrize("solver", ["scalar", "native"])
    def test_solvers_agree_on_execution(self, solver):
        graph_spec = [
            (0.7e9, 0.4e9),
            (0.5e9, 0.9e9),
            (1.1e9, 0.2e9),
        ]

        def run(chosen):
            graph = TaskGraph()
            prev = None
            for index, (a, b) in enumerate(graph_spec):
                comm = graph.add_comm(
                    f"comm{index}",
                    [FlowSpec(0, 1, a, RouteKind.EP), FlowSpec(1, 0, b, RouteKind.EP)],
                    deps=[prev] if prev else [],
                )
                prev = comm.task_id
            return Executor(graph, make_region(), solver=chosen).run()

        reference = run("scalar")
        other = run(solver)
        assert other.makespan == pytest.approx(reference.makespan, rel=1e-9)
