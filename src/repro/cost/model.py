"""Networking cost model (§7.2, Figure 11, Figure 24, Figure 26b).

Each fabric's capital cost is assembled from the component prices of Table 4
following the TopoOpt accounting the paper reuses: only switch ports that are
actually used are charged, every optical link needs a transceiver at each
active end plus a fiber (or a DAC/AOC cable for short-reach EPS links), every
NIC is charged once, OCS and patch-panel ports are charged per port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cost.components import ComponentPrices, LinkType, prices_for_bandwidth

#: Fabric names used across the cost and performance evaluation.
FABRIC_NAMES = ("Fat-tree", "Rail-optimized", "OverSub. Fat-tree", "TopoOpt", "MixNet")

#: NIC-count threshold below which a two-tier Clos suffices.
TWO_TIER_NIC_LIMIT = 2048


@dataclass
class CostBreakdown:
    """Itemised networking cost of one design point (USD)."""

    fabric: str
    num_gpus: int
    bandwidth_gbps: float
    nics: float = 0.0
    transceivers: float = 0.0
    switch_ports: float = 0.0
    ocs_ports: float = 0.0
    patch_panel_ports: float = 0.0
    cables: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.nics
            + self.transceivers
            + self.switch_ports
            + self.ocs_ports
            + self.patch_panel_ports
            + self.cables
        )

    @property
    def total_millions(self) -> float:
        return self.total / 1e6

    def per_gpu(self) -> float:
        return self.total / self.num_gpus

    def as_dict(self) -> Dict[str, float]:
        return {
            "nics": self.nics,
            "transceivers": self.transceivers,
            "switch_ports": self.switch_ports,
            "ocs_ports": self.ocs_ports,
            "patch_panel_ports": self.patch_panel_ports,
            "cables": self.cables,
            "total": self.total,
        }


class NetworkingCostModel:
    """Computes networking cost per fabric, cluster size and link bandwidth.

    Args:
        nics_per_server: NICs per 8-GPU server (8 in the paper's setup).
        mixnet_ocs_nics: NICs each MixNet server dedicates to the regional OCS.
        gpus_per_server: GPUs per server.
    """

    def __init__(
        self,
        nics_per_server: int = 8,
        mixnet_ocs_nics: int = 6,
        gpus_per_server: int = 8,
    ) -> None:
        if not 0 < mixnet_ocs_nics < nics_per_server:
            raise ValueError("mixnet_ocs_nics must be between 1 and nics_per_server-1")
        self.nics_per_server = nics_per_server
        self.mixnet_ocs_nics = mixnet_ocs_nics
        self.gpus_per_server = gpus_per_server

    # ------------------------------------------------------------- primitives
    def _servers(self, num_gpus: int) -> int:
        if num_gpus <= 0 or num_gpus % self.gpus_per_server != 0:
            raise ValueError(
                f"num_gpus must be a positive multiple of {self.gpus_per_server}"
            )
        return num_gpus // self.gpus_per_server

    @staticmethod
    def _clos_tiers(num_nics: int) -> int:
        return 2 if num_nics <= TWO_TIER_NIC_LIMIT else 3

    def _clos_cost(
        self,
        breakdown: CostBreakdown,
        num_nics: int,
        prices: ComponentPrices,
        oversubscription: float,
        link_type: LinkType,
    ) -> None:
        """Charge a Clos fabric interconnecting ``num_nics`` host ports."""
        if num_nics == 0:
            return
        tiers = self._clos_tiers(num_nics)
        host_links = num_nics
        trunk_links_per_tier = num_nics / oversubscription
        trunk_tiers = tiers - 1

        breakdown.nics += num_nics * prices.nic
        # Host-to-ToR links: NIC end already has its transceiver priced into
        # the NIC+transceiver pair; the switch end needs one transceiver (or a
        # DAC/AOC cable replaces both optics for short reach).
        if link_type is LinkType.TRANSCEIVER_FIBER:
            breakdown.transceivers += host_links * 2 * prices.transceiver
            breakdown.cables += host_links * prices.fiber
        else:
            breakdown.cables += host_links * prices.link_cost(link_type)
        breakdown.switch_ports += host_links * prices.electrical_switch_port

        # Inter-switch trunks: always optical (long reach).
        trunk_links = trunk_links_per_tier * trunk_tiers
        breakdown.transceivers += trunk_links * 2 * prices.transceiver
        breakdown.cables += trunk_links * prices.fiber
        breakdown.switch_ports += trunk_links * 2 * prices.electrical_switch_port

    # ----------------------------------------------------------------- fabrics
    def fat_tree_cost(
        self,
        num_gpus: int,
        bandwidth_gbps: float,
        oversubscription: float = 1.0,
        link_type: LinkType = LinkType.TRANSCEIVER_FIBER,
        name: Optional[str] = None,
    ) -> CostBreakdown:
        prices = prices_for_bandwidth(bandwidth_gbps)
        servers = self._servers(num_gpus)
        num_nics = servers * self.nics_per_server
        default_name = "Fat-tree" if oversubscription == 1.0 else "OverSub. Fat-tree"
        breakdown = CostBreakdown(name or default_name, num_gpus, bandwidth_gbps)
        self._clos_cost(breakdown, num_nics, prices, oversubscription, link_type)
        return breakdown

    def rail_optimized_cost(
        self,
        num_gpus: int,
        bandwidth_gbps: float,
        link_type: LinkType = LinkType.TRANSCEIVER_FIBER,
    ) -> CostBreakdown:
        """Rail-optimized uses the same switch/port budget as a 1:1 fat-tree."""
        breakdown = self.fat_tree_cost(
            num_gpus, bandwidth_gbps, oversubscription=1.0, link_type=link_type,
            name="Rail-optimized",
        )
        return breakdown

    def topoopt_cost(self, num_gpus: int, bandwidth_gbps: float) -> CostBreakdown:
        prices = prices_for_bandwidth(bandwidth_gbps)
        servers = self._servers(num_gpus)
        num_nics = servers * self.nics_per_server
        breakdown = CostBreakdown("TopoOpt", num_gpus, bandwidth_gbps)
        breakdown.nics = num_nics * prices.nic
        breakdown.transceivers = num_nics * prices.transceiver
        breakdown.patch_panel_ports = num_nics * prices.patch_panel_port
        breakdown.cables = num_nics * prices.fiber
        return breakdown

    def mixnet_cost(
        self,
        num_gpus: int,
        bandwidth_gbps: float,
        link_type: LinkType = LinkType.TRANSCEIVER_FIBER,
    ) -> CostBreakdown:
        prices = prices_for_bandwidth(bandwidth_gbps)
        servers = self._servers(num_gpus)
        eps_nics = servers * (self.nics_per_server - self.mixnet_ocs_nics)
        ocs_nics = servers * self.mixnet_ocs_nics
        breakdown = CostBreakdown("MixNet", num_gpus, bandwidth_gbps)
        # EPS side: a small 1:1 fat-tree over the EPS NICs.
        self._clos_cost(breakdown, eps_nics, prices, 1.0, link_type)
        # OCS side: one OCS port, NIC, transceiver and fiber per optical NIC.
        breakdown.nics += ocs_nics * prices.nic
        breakdown.transceivers += ocs_nics * prices.transceiver
        breakdown.ocs_ports += ocs_nics * prices.ocs_port
        breakdown.cables += ocs_nics * prices.fiber
        return breakdown

    # ----------------------------------------------------------------- queries
    def cost(
        self,
        fabric: str,
        num_gpus: int,
        bandwidth_gbps: float,
        link_type: LinkType = LinkType.TRANSCEIVER_FIBER,
    ) -> CostBreakdown:
        """Cost of one named fabric (see :data:`FABRIC_NAMES`)."""
        if fabric == "Fat-tree":
            return self.fat_tree_cost(num_gpus, bandwidth_gbps, 1.0, link_type)
        if fabric == "OverSub. Fat-tree":
            return self.fat_tree_cost(num_gpus, bandwidth_gbps, 3.0, link_type)
        if fabric == "Rail-optimized":
            return self.rail_optimized_cost(num_gpus, bandwidth_gbps, link_type)
        if fabric == "TopoOpt":
            return self.topoopt_cost(num_gpus, bandwidth_gbps)
        if fabric == "MixNet":
            return self.mixnet_cost(num_gpus, bandwidth_gbps, link_type)
        raise KeyError(f"unknown fabric {fabric!r}; known: {FABRIC_NAMES}")

    def sweep(
        self,
        cluster_sizes: Sequence[int],
        bandwidth_gbps: float,
        fabrics: Iterable[str] = FABRIC_NAMES,
        link_type: LinkType = LinkType.TRANSCEIVER_FIBER,
    ) -> List[CostBreakdown]:
        """Cost of every fabric across cluster sizes (one Figure 11 panel)."""
        return [
            self.cost(fabric, size, bandwidth_gbps, link_type)
            for fabric in fabrics
            for size in cluster_sizes
        ]


#: The cluster sizes swept in Figure 11 / Figure 26.
FIGURE11_CLUSTER_SIZES = (1024, 2048, 4096, 8192, 16384, 32768)
