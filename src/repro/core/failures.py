"""Failure handling (§5.4) and failure-impact modelling (§7.5).

MixNet tolerates NIC/link failures and GPU/server failures by rerouting
traffic over whichever of the two fabrics (EPS or regional OCS) remains
available and, for GPU failures, by remapping the workload to a backup GPU
reachable through a peer.  This module expresses those scenarios as
modifications of the simulated region (capacity reductions, rerouting, extra
forwarding work) so the runtime can quantify their iteration-time impact
(Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

from repro.cluster.spec import ClusterSpec
from repro.fabric.base import RegionNetwork
from repro.fabric.mixnet import MixNetRegionNetwork


class FailureKind(str, Enum):
    """Failure categories evaluated in §7.5."""

    NONE = "none"
    NIC = "nic"
    GPU = "gpu"
    SERVER = "server"


@dataclass(frozen=True)
class FailureScenario:
    """One failure case.

    Attributes:
        kind: Category of failure.
        count: Number of failed NICs (for NIC failures) or GPUs (1 for a
            single-GPU failure, 8 for a full server).
        server: Region-local position of the affected server (index into the
            region's server list, so scenarios are placement-independent).
    """

    kind: FailureKind = FailureKind.NONE
    count: int = 0
    server: int = 0

    @staticmethod
    def none() -> "FailureScenario":
        return FailureScenario(FailureKind.NONE, 0)

    @staticmethod
    def nic_failures(count: int, server: int = 0) -> "FailureScenario":
        if count <= 0:
            raise ValueError("count must be positive")
        return FailureScenario(FailureKind.NIC, count, server)

    @staticmethod
    def gpu_failure(server: int = 0) -> "FailureScenario":
        return FailureScenario(FailureKind.GPU, 1, server)

    @staticmethod
    def server_failure(server: int = 0) -> "FailureScenario":
        return FailureScenario(FailureKind.SERVER, 8, server)


@dataclass
class FailureEffects:
    """What a scenario does to the simulated region.

    Attributes:
        eps_capacity_scale: Per-server multiplicative scaling of the EPS
            uplink/downlink capacity (server id -> factor).
        ocs_degree_penalty: Optical NICs lost on each server (server id ->
            count); reduces the optical degree available to Algorithm 1.
        compute_penalty_s_per_block: Extra per-block computation/forwarding
            time (e.g. TP traffic forced onto the scale-out fabric after a GPU
            is remapped to a backup on another server).
        forced_eps_servers: Servers whose EP traffic must use the EPS path
            (e.g. a replacement node connected only via EPS uplinks).
        description: Human-readable summary for benchmark output.
    """

    eps_capacity_scale: Dict[int, float] = field(default_factory=dict)
    ocs_degree_penalty: Dict[int, int] = field(default_factory=dict)
    compute_penalty_s_per_block: float = 0.0
    forced_eps_servers: List[int] = field(default_factory=list)
    description: str = "no failure"


def resolve_effects(
    scenario: FailureScenario,
    cluster: ClusterSpec,
    region_servers: List[int],
    tp_all_reduce_bytes: float,
) -> FailureEffects:
    """Translate a failure scenario into concrete region modifications.

    Args:
        scenario: The failure case.
        cluster: Cluster spec (NIC counts, bandwidths).
        region_servers: Servers of the simulated region.
        tp_all_reduce_bytes: Per-block TP all-reduce volume of one GPU, used
            to charge the scale-out detour of a remapped GPU's TP traffic.
    """
    if scenario.kind is FailureKind.NONE:
        return FailureEffects()
    if not region_servers:
        raise ValueError("region_servers must not be empty")
    server = region_servers[scenario.server % len(region_servers)]
    spec = cluster.server
    nic_bandwidth = spec.nic_bandwidth_gbps

    if scenario.kind is FailureKind.NIC:
        failed = min(scenario.count, spec.eps_nics)
        remaining = spec.eps_nics - failed
        if remaining > 0:
            scale = remaining / spec.eps_nics
            return FailureEffects(
                eps_capacity_scale={server: scale},
                description=f"{failed} EPS NIC failure(s) on server {server}",
            )
        # All EPS NICs gone: EPS-bound traffic detours optically through a
        # healthy peer and re-enters the EPS there, consuming one optical NIC.
        relay_capacity = nic_bandwidth / (spec.eps_nics * nic_bandwidth)
        return FailureEffects(
            eps_capacity_scale={server: relay_capacity},
            ocs_degree_penalty={server: 1},
            description=f"all EPS NICs failed on server {server}; optical relay in use",
        )

    if scenario.kind is FailureKind.GPU:
        # A single failed GPU is remapped to a backup reachable via OCS; its
        # TP group's all-reduce now crosses the scale-out fabric instead of
        # NVSwitch.  The extra time is the per-block TP volume at (OCS NIC)
        # bandwidth minus the NVSwitch time it replaces, divided by the number
        # of GPUs per server (only one of the server's TP groups is affected).
        nvswitch_bps = spec.nvswitch_bandwidth_gbps * 1e9 / 8.0
        scale_out_bps = nic_bandwidth * 1e9 / 8.0
        penalty = tp_all_reduce_bytes * (1.0 / scale_out_bps - 1.0 / nvswitch_bps)
        penalty = max(0.0, penalty) / spec.num_gpus
        return FailureEffects(
            ocs_degree_penalty={server: 1},
            compute_penalty_s_per_block=penalty,
            description=f"single GPU failure on server {server}; backup reached via OCS",
        )

    # Full-server failure: the replacement node from the global backup pool is
    # connected via EPS only, so all of its EP traffic is forced onto the EPS
    # uplinks (§5.4), and the regional OCS loses that server's optical ports.
    return FailureEffects(
        forced_eps_servers=[server],
        ocs_degree_penalty={server: spec.ocs_nics},
        description=f"full server failure on server {server}; EPS-connected backup node",
    )


def apply_effects_to_region(region: RegionNetwork, effects: FailureEffects) -> None:
    """Apply capacity scalings and forced-EPS rerouting to a region network."""
    for server, scale in effects.eps_capacity_scale.items():
        for prefix in ("up", "down"):
            link_id = f"{prefix}:s{server}"
            if link_id in region.links:
                region.set_capacity(link_id, region.links[link_id].capacity_gbps * scale)
    if effects.forced_eps_servers and isinstance(region, MixNetRegionNetwork):
        for server in effects.forced_eps_servers:
            for (src, dst) in list(region.ep_paths):
                if src == server or dst == server:
                    region.ep_paths[(src, dst)] = list(region.eps_paths[(src, dst)])
