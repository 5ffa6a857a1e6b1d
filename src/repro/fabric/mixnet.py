"""The MixNet fabric: static EPS plus regionally reconfigurable OCS.

Each server splits its NICs between the global electrical packet-switched
fabric (default two NICs) and a regional optical circuit switch (default six
NICs, the *optical degree* alpha).  The regional OCS slice is reconfigured at
runtime by the topology controller (Algorithm 1); established circuits appear
as dedicated server-to-server links whose capacity is ``circuits x NIC
bandwidth``, while pairs without a circuit fall back to the EPS uplinks
(§5.3's topology-aware routing handles the delegation through NVSwitch, which
is modelled by including the NVSwitch hop in every inter-server path).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.spec import ClusterSpec
from repro.fabric.base import Fabric, RegionNetwork, add_intra_server_links
from repro.fabric.ocs import DEFAULT_REGIONAL_OCS, OCSTechnology, OpticalCircuitSwitch


class MixNetRegionNetwork(RegionNetwork):
    """Region view with dynamically reconfigurable optical circuits."""

    def __init__(
        self,
        servers: List[int],
        nic_bandwidth_gbps: float,
        ocs: OpticalCircuitSwitch,
    ) -> None:
        super().__init__(servers=servers)
        self.nic_bandwidth_gbps = nic_bandwidth_gbps
        self.ocs = ocs
        self._circuits: Dict[Tuple[int, int], int] = {}
        # One content-stable path list per ordered pair with a circuit,
        # created on first use and reused across reconfigurations (and shared
        # with clones): a pair that regains a circuit gets the *same* list
        # object back, so the fluid network's id-keyed path->rows cache stays
        # warm across topology changes (DESIGN.md §8).
        self._optical_paths: Dict[Tuple[int, int], List[str]] = {}

    def clone(self) -> "MixNetRegionNetwork":
        """Stamped copy with a pristine OCS (no circuits, zero reconfig
        count — exactly the state ``build_region`` produces), sharing path
        lists and the optical-path pool with the blueprint."""
        dup = MixNetRegionNetwork.__new__(MixNetRegionNetwork)
        RegionNetwork.__init__(dup, servers=self.servers)
        self._clone_into(dup)
        dup.nic_bandwidth_gbps = self.nic_bandwidth_gbps
        dup.ocs = OpticalCircuitSwitch(
            technology=self.ocs.technology, num_ports=self.ocs.num_ports
        )
        dup._circuits = dict(self._circuits)
        dup._optical_paths = self._optical_paths
        # A blueprint is cloned before any circuits are installed; if a
        # caller clones a live region anyway, drop the optical links the
        # fresh OCS does not know about.
        if dup._circuits:
            dup._circuits = {}
            for link_id in [l for l in dup.links if l.startswith("ocs:")]:
                del dup.links[link_id]
            dup.ep_paths = dict(self.eps_paths)
        return dup

    def _optical_path(self, src: int, dst: int) -> List[str]:
        path = self._optical_paths.get((src, dst))
        if path is None:
            path = [f"nvs:s{src}", f"ocs:s{src}->s{dst}", f"nvs:s{dst}"]
            self._optical_paths[(src, dst)] = path
        return path

    @property
    def circuits(self) -> Dict[Tuple[int, int], int]:
        return dict(self._circuits)

    def circuit_count(self, src: int, dst: int) -> int:
        key = (src, dst) if src <= dst else (dst, src)
        return self._circuits.get(key, 0)

    def apply_circuits(self, circuits: Dict[Tuple[int, int], int]) -> float:
        """Install a new circuit mapping; returns the OCS switching delay.

        Existing optical links are torn down and replaced.  EP paths are
        recomputed: pairs with at least one circuit get a direct optical path,
        everything else uses the EPS fallback path.  An unchanged mapping is a
        no-op: links and EP paths are already consistent, so nothing is
        rebuilt (and the device charges nothing).
        """
        changes_before = self.ocs.reconfiguration_count
        delay = self.ocs.reconfigure(circuits)
        if self.ocs.reconfiguration_count == changes_before:
            # The device saw an identical mapping: links and paths are
            # already consistent.  (The delay alone cannot detect this — an
            # instantaneous device also returns 0.0 for real changes.)
            return delay
        # Diff against the previous mapping: with optical degree d over n
        # servers, successive allocations share most pairs, so touching only
        # the changed ones replaces an O(n²) teardown/rebuild per install
        # with O(d·n) updates.  Link-dict order does not matter downstream
        # (the fluid network assigns incidence rows by first flow use, and
        # capacity refresh looks links up by id), so leaving unchanged links
        # in place is observation-equivalent to the full rebuild.
        old = self._circuits
        new = self.ocs.circuits
        for (a, b), count in old.items():
            if (a, b) not in new:
                del self.links[f"ocs:s{a}->s{b}"]
                del self.links[f"ocs:s{b}->s{a}"]
                self.ep_paths[(a, b)] = self.eps_paths[(a, b)]
                self.ep_paths[(b, a)] = self.eps_paths[(b, a)]
        for (a, b), count in new.items():
            if old.get((a, b)) == count:
                continue
            capacity = count * self.nic_bandwidth_gbps
            self.add_link(f"ocs:s{a}->s{b}", capacity, latency_s=5e-7)
            self.add_link(f"ocs:s{b}->s{a}", capacity, latency_s=5e-7)
            if (a, b) not in old:
                self.ep_paths[(a, b)] = self._optical_path(a, b)
                self.ep_paths[(b, a)] = self._optical_path(b, a)
        self._circuits = new
        return delay


class MixNetFabric(Fabric):
    """MixNet: EPS fat-tree for DP/PP plus a per-region reconfigurable OCS.

    Args:
        cluster: Cluster whose :class:`~repro.cluster.spec.ServerSpec` defines
            the EPS/OCS NIC split (``ocs_nics`` is the optical degree alpha).
        ocs_technology: Commodity OCS device used for the regional slices.
        blocking_reconfiguration_s: Delay charged when a reconfiguration
            cannot be hidden behind computation (the paper uses 25 ms).
    """

    reconfigurable = True

    def __init__(
        self,
        cluster: ClusterSpec,
        ocs_technology: OCSTechnology = DEFAULT_REGIONAL_OCS,
        blocking_reconfiguration_s: float = 0.025,
        name: str = "MixNet",
    ) -> None:
        super().__init__(cluster, name)
        if cluster.server.ocs_nics <= 0:
            raise ValueError("MixNet requires at least one OCS-attached NIC per server")
        if cluster.server.eps_nics <= 0:
            raise ValueError("MixNet requires at least one EPS-attached NIC per server")
        self.ocs_technology = ocs_technology
        self.blocking_reconfiguration_s = blocking_reconfiguration_s

    @property
    def optical_degree(self) -> int:
        """Optical circuits (NICs) each server contributes to the regional OCS."""
        return self.cluster.server.ocs_nics

    @property
    def eps_degree(self) -> int:
        return self.cluster.server.eps_nics

    def eps_bandwidth_per_server_gbps(self) -> float:
        return self.eps_degree * self.nic_bandwidth_gbps

    def ocs_ports_for_region(self, num_servers: int) -> int:
        return num_servers * self.optical_degree

    def build_region(
        self,
        servers: Sequence[int],
        demand_hint: Optional[object] = None,
    ) -> MixNetRegionNetwork:
        servers = list(servers)
        ports = self.ocs_ports_for_region(len(servers))
        ocs = OpticalCircuitSwitch(technology=self.ocs_technology, num_ports=max(2, ports))
        network = MixNetRegionNetwork(
            servers=servers,
            nic_bandwidth_gbps=self.nic_bandwidth_gbps,
            ocs=ocs,
        )
        spec = self.cluster.server
        add_intra_server_links(network, servers, spec.nvswitch_bandwidth_gbps)

        eps_uplink = self.eps_degree * spec.nic_bandwidth_gbps
        for server in servers:
            network.add_link(f"up:s{server}", eps_uplink)
            network.add_link(f"down:s{server}", eps_uplink)
        # The EPS side of MixNet is a non-blocking (but narrow) fat-tree.
        core = len(servers) * eps_uplink
        network.add_link("core:t0:up", core)
        network.add_link("core:t0:down", core)

        for src in servers:
            for dst in servers:
                if src == dst:
                    continue
                path = [
                    f"nvs:s{src}",
                    f"up:s{src}",
                    f"down:s{dst}",
                    f"nvs:s{dst}",
                ]
                # The EP entry starts as the *same* list object as the EPS
                # one (no circuits yet); installs rebind entries, never
                # mutate the lists, so sharing is safe and keeps path ids
                # stable for the fluid network's row cache.
                network.eps_paths[(src, dst)] = path
                network.ep_paths[(src, dst)] = path
        network.validate()
        return network

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info.update(
            {
                "optical_degree": self.optical_degree,
                "eps_degree": self.eps_degree,
                "ocs_technology": self.ocs_technology.name,
                "ocs_reconfiguration_delay_s": self.ocs_technology.reconfiguration_delay_s,
                "blocking_reconfiguration_s": self.blocking_reconfiguration_s,
            }
        )
        return info
