"""Differential suite for Algorithm 1: production engine vs oracle (DESIGN.md §5).

Production runs one engine, the heap-driven :func:`_greedy_heap` followed by
the numpy completion estimate.  The seed's pure-Python greedy
(:func:`_greedy_scalar` over ``find_bottleneck_link``) and the loop form of
the completion estimate are kept, private, as the oracle.  Tests reach the
oracle by monkeypatching it in for the production pair, so both sides share
the rest of :func:`reconfigure_ocs` (circuit-map extraction, NIC mapping).
They must produce *identical* allocations — same circuit map, NIC mapping,
completion-time estimate and iteration count — on any demand matrix,
including under the ``skip_saturated_pairs`` ablation, and identical
simulated iterations end to end.
"""

import math

import numpy as np
import pytest

from repro.cluster import simulation_cluster
from repro.core import reconfigure
from repro.core.reconfigure import reconfigure_ocs


def use_oracle(monkeypatch):
    """Patch the oracle pair in for the production engine.

    Returns a list that grows by one entry per oracle greedy call, so a test
    can check the oracle really ran.
    """
    calls = []
    greedy_scalar = reconfigure._greedy_scalar

    def oracle(*args):
        calls.append(args)
        return greedy_scalar(*args)

    monkeypatch.setattr(reconfigure, "_greedy_heap", oracle)
    monkeypatch.setattr(
        reconfigure,
        "_completion_time_estimate_vectorized",
        reconfigure._completion_time_estimate,
    )
    return calls


def oracle_reconfigure(*args, **kwargs):
    """:func:`reconfigure_ocs` with the oracle patched in for one call."""
    with pytest.MonkeyPatch.context() as patch:
        calls = use_oracle(patch)
        allocation = reconfigure_ocs(*args, **kwargs)
    assert len(calls) == 1
    return allocation


def assert_identical(oracle, production):
    assert production.servers == oracle.servers
    assert production.circuits == oracle.circuits
    assert production.nic_mapping == oracle.nic_mapping
    assert production.iterations == oracle.iterations
    if math.isnan(oracle.completion_time_estimate):
        assert math.isnan(production.completion_time_estimate)
    else:
        assert (
            production.completion_time_estimate == oracle.completion_time_estimate
        )


def random_demand(rng, n, density=1.0):
    demand = rng.uniform(0.0, 1e9, size=(n, n))
    if density < 1.0:
        demand *= rng.uniform(size=(n, n)) < density
    np.fill_diagonal(demand, 0.0)
    return demand


class TestDifferential:
    @pytest.mark.parametrize("skip_saturated", [False, True])
    def test_randomized_demand(self, skip_saturated):
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(2, 14))
            degree = int(rng.integers(0, 9))
            density = float(rng.uniform(0.2, 1.0))
            demand = random_demand(rng, n, density)
            servers = sorted(rng.choice(10_000, size=n, replace=False).tolist())
            kwargs = dict(
                optical_degree=degree,
                servers=servers,
                skip_saturated_pairs=skip_saturated,
            )
            assert_identical(
                oracle_reconfigure(demand, **kwargs), reconfigure_ocs(demand, **kwargs)
            )

    def test_tie_heavy_demand(self):
        """Exact ties (equal times AND equal demands) follow the oracle's
        row-major selection."""
        n = 8
        demand = np.full((n, n), 5.0e8)
        np.fill_diagonal(demand, 0.0)
        for skip in (False, True):
            kwargs = dict(servers=list(range(n)), skip_saturated_pairs=skip)
            assert_identical(
                oracle_reconfigure(demand, 3, **kwargs),
                reconfigure_ocs(demand, 3, **kwargs),
            )

    def test_cluster_nic_mapping_identical(self):
        cluster = simulation_cluster(8)
        rng = np.random.default_rng(11)
        demand = random_demand(rng, 8)
        kwargs = dict(
            optical_degree=6,
            servers=list(range(8)),
            cluster=cluster,
            link_bandwidth_gbps=cluster.server.nic_bandwidth_gbps,
        )
        production = reconfigure_ocs(demand, **kwargs)
        assert_identical(oracle_reconfigure(demand, **kwargs), production)
        assert len(production.nic_mapping) == production.total_circuits()

    def test_zero_demand_and_zero_degree(self):
        for degree in (0, 4):
            kwargs = dict(optical_degree=degree, servers=list(range(5)))
            production = reconfigure_ocs(np.zeros((5, 5)), **kwargs)
            assert_identical(oracle_reconfigure(np.zeros((5, 5)), **kwargs), production)
            assert production.total_circuits() == 0

    def test_medium_region_matches_oracle(self):
        """Production agrees with the oracle at a realistic region size."""
        rng = np.random.default_rng(23)
        demand = random_demand(rng, 32)
        kwargs = dict(optical_degree=6, servers=list(range(32)))
        assert_identical(
            oracle_reconfigure(demand, **kwargs), reconfigure_ocs(demand, **kwargs)
        )


class TestEndToEndOracle:
    @pytest.mark.parametrize("failure", ["none", "nic:1", "server"])
    @pytest.mark.parametrize("policy", ["block", "reuse", "copilot"])
    def test_iteration_identical(self, monkeypatch, policy, failure):
        """A full MixNet training iteration is the same with the oracle
        patched in.  No template is passed and every memo is cleared before
        each side, so no cached allocation can stand in for the oracle."""
        from repro.core.caches import clear_all_caches
        from repro.core.runtime import RuntimeOptions, TrainingSimulator
        from repro.fabric import MixNetFabric
        from repro.moe.models import MIXTRAL_8x7B
        from repro.sweep.registry import parse_failure

        cluster = simulation_cluster(16, nic_bandwidth_gbps=400.0)

        def simulate():
            clear_all_caches()
            simulator = TrainingSimulator(
                MIXTRAL_8x7B,
                cluster,
                MixNetFabric(cluster),
                options=RuntimeOptions(first_a2a_policy=policy),
            )
            return simulator.simulate_iteration(failure=parse_failure(failure))

        production = simulate()
        calls = use_oracle(monkeypatch)
        oracle = simulate()
        clear_all_caches()
        assert len(calls) > 0
        for name in (
            "iteration_time_s",
            "stage_time_s",
            "comm_bytes",
            "reconfig_blocking_s",
            "events",
        ):
            assert getattr(oracle, name) == getattr(production, name), name
