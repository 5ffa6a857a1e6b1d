"""Fabric abstraction shared by every interconnect model.

A *fabric* describes how the servers of one regional high-bandwidth domain
(plus their uplinks into the global scale-out network) are wired: which
capacitated links exist and which path a flow between two servers takes.  The
event-driven simulator (:mod:`repro.sim`) consumes this as a
:class:`RegionNetwork` — a set of directed links plus path-lookup functions —
and shares bandwidth max–min fairly among the flows routed over them.

Link naming conventions (used throughout tests and benchmarks):

* ``nvs:s{i}``          — intra-server NVSwitch of server ``i``
* ``up:s{i}`` / ``down:s{i}`` — server NIC uplink / downlink into its ToR
* ``core:t{j}:up`` / ``core:t{j}:down`` — ToR ``j``'s trunk to the core layer
* ``ocs:s{a}-s{b}``     — optical circuit(s) between servers ``a`` and ``b``
* ``direct:s{a}-s{b}``  — TopoOpt patch-panel link
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.cluster.spec import ClusterSpec


GBPS_TO_BYTES_PER_S = 1e9 / 8.0


@dataclass
class Link:
    """A directed, capacitated network link.

    Attributes:
        link_id: Unique name (see module docstring for conventions).
        capacity_gbps: Capacity in Gbit/s.  A capacity of zero means the link
            is down (e.g. an optical circuit during reconfiguration).
        latency_s: One-way propagation delay.
    """

    link_id: str
    capacity_gbps: float
    latency_s: float = 1e-6

    @property
    def capacity_bytes_per_s(self) -> float:
        return self.capacity_gbps * GBPS_TO_BYTES_PER_S


@dataclass
class RegionNetwork:
    """Link set and routing for one regional domain.

    ``ep_paths`` and ``eps_paths`` map ordered server pairs to the directed
    link path an expert-parallel or packet-switched flow follows.  Both
    include the sender's and receiver's NVSwitch hop so intra-host gather /
    scatter stages contend with other intra-host traffic.
    """

    servers: List[int]
    links: Dict[str, Link] = field(default_factory=dict)
    ep_paths: Dict[Tuple[int, int], List[str]] = field(default_factory=dict)
    eps_paths: Dict[Tuple[int, int], List[str]] = field(default_factory=dict)
    intra_links: Dict[int, str] = field(default_factory=dict)

    def add_link(self, link_id: str, capacity_gbps: float, latency_s: float = 1e-6) -> Link:
        link = Link(link_id=link_id, capacity_gbps=capacity_gbps, latency_s=latency_s)
        self.links[link_id] = link
        return link

    def link(self, link_id: str) -> Link:
        return self.links[link_id]

    def set_capacity(self, link_id: str, capacity_gbps: float) -> None:
        if link_id not in self.links:
            raise KeyError(f"unknown link {link_id!r}")
        self.links[link_id].capacity_gbps = capacity_gbps

    def ep_path(self, src: int, dst: int) -> List[str]:
        """Path used by expert-parallel (all-to-all) flows between servers."""
        if src == dst:
            return [self.intra_links[src]]
        try:
            return self.ep_paths[(src, dst)]
        except KeyError as exc:
            raise KeyError(f"no EP path from server {src} to {dst}") from exc

    def eps_path(self, src: int, dst: int) -> List[str]:
        """Path used by DP/PP (packet-switched) flows between servers."""
        if src == dst:
            return [self.intra_links[src]]
        try:
            return self.eps_paths[(src, dst)]
        except KeyError as exc:
            raise KeyError(f"no EPS path from server {src} to {dst}") from exc

    def intra_link(self, server: int) -> str:
        return self.intra_links[server]

    def clone(self) -> "RegionNetwork":
        """A stamped copy sharing structure, owning numeric state.

        Simulation mutates a region in two ways only: link capacities
        (failure effects, circuit installs — see ``set_capacity`` callers)
        and ``ep_paths`` *entries* (rebinding a pair to another path list).
        So a clone gets fresh :class:`Link` objects and its own ``ep_paths``
        dict, while the path lists themselves, ``eps_paths``, ``intra_links``
        and the server list are shared read-only — which both makes cloning
        cheap and keeps path-list identity stable across clones, so the fluid
        network's id-keyed row caches stay warm (DESIGN.md §8).
        """
        dup = RegionNetwork(servers=self.servers)
        self._clone_into(dup)
        return dup

    def _clone_into(self, dup: "RegionNetwork") -> None:
        dup.links = {
            link_id: Link(link_id, link.capacity_gbps, link.latency_s)
            for link_id, link in self.links.items()
        }
        dup.ep_paths = dict(self.ep_paths)
        dup.eps_paths = self.eps_paths
        dup.intra_links = self.intra_links

    def validate(self) -> None:
        """Ensure all referenced links exist (used by tests)."""
        for paths in (self.ep_paths, self.eps_paths):
            for (src, dst), path in paths.items():
                if not path:
                    raise ValueError(f"empty path for {src}->{dst}")
                for link_id in path:
                    if link_id not in self.links:
                        raise ValueError(f"path {src}->{dst} references unknown link {link_id}")
        for server, link_id in self.intra_links.items():
            if link_id not in self.links:
                raise ValueError(f"intra link of server {server} unknown: {link_id}")


class Fabric(ABC):
    """Base class of every interconnect model.

    Args:
        cluster: Physical cluster specification.
        name: Human-readable fabric name used in benchmark output.
    """

    #: Whether the fabric supports in-training topology reconfiguration.
    reconfigurable: bool = False

    def __init__(self, cluster: ClusterSpec, name: str) -> None:
        self.cluster = cluster
        self.name = name

    @property
    def nic_bandwidth_gbps(self) -> float:
        return self.cluster.server.nic_bandwidth_gbps

    @property
    def nvswitch_bandwidth_gbps(self) -> float:
        return self.cluster.server.nvswitch_bandwidth_gbps

    @abstractmethod
    def build_region(self, servers: Sequence[int]) -> RegionNetwork:
        """Build the link set and routing for one regional domain."""

    # ------------------------------------------------------------ EPS summary
    def eps_bandwidth_per_server_gbps(self) -> float:
        """Aggregate EPS NIC bandwidth of one server (for analytic DP/PP)."""
        server = self.cluster.server
        return server.num_nics * server.nic_bandwidth_gbps

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "reconfigurable": self.reconfigurable,
            "nic_bandwidth_gbps": self.nic_bandwidth_gbps,
            "eps_bandwidth_per_server_gbps": self.eps_bandwidth_per_server_gbps(),
        }


def add_intra_server_links(network: RegionNetwork, servers: Sequence[int],
                           nvswitch_gbps: float) -> None:
    """Add one NVSwitch link per server and register it as the intra link."""
    for server in servers:
        link_id = f"nvs:s{server}"
        network.add_link(link_id, nvswitch_gbps, latency_s=2e-7)
        network.intra_links[server] = link_id
