"""Regional topology controllers (§5.2, Appendix B.2).

Each regional OCS slice has its own decentralised controller.  The controller
turns a demand matrix into a circuit allocation (Algorithm 1), installs it on
the region's :class:`~repro.fabric.mixnet.MixNetRegionNetwork`, and decides —
per the reconfiguration timeline of Figure 20 — how much of the OCS switching
delay can be hidden behind computation and how much blocks the training
process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.core.demand import rank_to_server_demand
from repro.core.reconfigure import (
    CircuitAllocation,
    reconfigure_ocs,
    uniform_allocation,
)
from repro.fabric.mixnet import MixNetRegionNetwork


@dataclass(frozen=True)
class ReconfigurationDecision:
    """Outcome of planning one reconfiguration.

    Attributes:
        allocation: The circuit allocation to install.
        blocking_s: Seconds of training-visible stall (the part of the OCS
            delay that cannot be hidden inside the available compute window).
        hidden_s: Seconds of switching delay overlapped with computation.
        changed: Whether the allocation differs from what is installed.
    """

    allocation: CircuitAllocation
    blocking_s: float
    hidden_s: float
    changed: bool


class RegionalTopologyController:
    """Controller of one regional reconfigurable high-bandwidth domain.

    Args:
        region: The MixNet region network whose circuits this controller owns.
        cluster: Cluster specification (NIC bandwidth, NUMA layout).
        optical_degree: Optical NICs per server available to this slice.
        reconfiguration_delay_s: Device switching delay (25 ms by default,
            matching the paper's Polatis-class assumption).
    """

    def __init__(
        self,
        region: MixNetRegionNetwork,
        cluster: ClusterSpec,
        optical_degree: int,
        reconfiguration_delay_s: float = 0.025,
    ) -> None:
        if optical_degree < 0:
            raise ValueError("optical_degree must be non-negative")
        if reconfiguration_delay_s < 0:
            raise ValueError("reconfiguration_delay_s must be non-negative")
        self.region = region
        self.cluster = cluster
        self.optical_degree = optical_degree
        self.reconfiguration_delay_s = reconfiguration_delay_s
        self._installed: Optional[CircuitAllocation] = None
        self._excluded_servers: set[int] = set()
        self.total_blocking_s = 0.0
        self.reconfigurations = 0

    # -------------------------------------------------------------- planning
    @property
    def installed_allocation(self) -> Optional[CircuitAllocation]:
        return self._installed

    def exclude_server(self, server: int) -> None:
        """Remove a failed server from the candidate set (§5.4)."""
        self._excluded_servers.add(server)

    def restore_server(self, server: int) -> None:
        self._excluded_servers.discard(server)

    def plan_from_rank_matrix(
        self,
        rank_matrix: np.ndarray,
        group_ranks: Sequence[int],
    ) -> CircuitAllocation:
        """Run Algorithm 1 on the demand implied by an EP-rank matrix."""
        demand, servers = rank_to_server_demand(rank_matrix, group_ranks, self.cluster)
        if self._excluded_servers:
            keep = [idx for idx, server in enumerate(servers)
                    if server not in self._excluded_servers]
            demand = demand[np.ix_(keep, keep)]
            servers = [servers[idx] for idx in keep]
        return reconfigure_ocs(
            demand,
            optical_degree=self.optical_degree,
            servers=servers,
            cluster=self.cluster,
            link_bandwidth_gbps=self.cluster.server.nic_bandwidth_gbps,
        )

    def plan_uniform(self, servers: Sequence[int]) -> CircuitAllocation:
        """Demand-oblivious allocation used before any demand is known."""
        usable = [s for s in servers if s not in self._excluded_servers]
        return uniform_allocation(self.optical_degree, usable)

    def decide(
        self,
        allocation: CircuitAllocation,
        hideable_window_s: float,
    ) -> ReconfigurationDecision:
        """Split the switching delay into hidden and blocking portions.

        Args:
            allocation: Target circuit allocation.
            hideable_window_s: Computation time available to overlap the
                switch (e.g. the expert-computation phase for the second
                forward all-to-all, Figure 20).
        """
        changed = self._installed is None or allocation.circuits != self._installed.circuits
        if not changed:
            return ReconfigurationDecision(allocation, 0.0, 0.0, False)
        delay = self.reconfiguration_delay_s
        hidden = min(delay, max(0.0, hideable_window_s))
        blocking = delay - hidden
        return ReconfigurationDecision(allocation, blocking_s=blocking, hidden_s=hidden, changed=True)

    # ------------------------------------------------------------ application
    def install(self, allocation: CircuitAllocation) -> float:
        """Install an allocation on the region network; returns device delay.

        Every install that changes the region's circuits counts as a
        reconfiguration — including zero-delay ones (first installs on an
        instantaneous device, delay-0 sweeps), which the device delay alone
        cannot detect.  The OCS device is the single change detector.
        """
        changes_before = self.region.ocs.reconfiguration_count
        delay = self.region.apply_circuits(allocation.circuits)
        if self.region.ocs.reconfiguration_count != changes_before:
            self.reconfigurations += 1
        self._installed = allocation
        return delay

    def reconfigure_for_demand(
        self,
        rank_matrix: np.ndarray,
        group_ranks: Sequence[int],
        hideable_window_s: float = 0.0,
    ) -> ReconfigurationDecision:
        """Plan, decide and install in one call; tracks cumulative blocking."""
        allocation = self.plan_from_rank_matrix(rank_matrix, group_ranks)
        decision = self.decide(allocation, hideable_window_s)
        if decision.changed:
            self.install(allocation)
            self.total_blocking_s += decision.blocking_s
        return decision
