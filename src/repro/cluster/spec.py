"""Cluster hardware specification.

The cluster model mirrors the hardware used throughout the MixNet paper:
servers with eight GPUs interconnected by an intra-host scale-up fabric
(NVSwitch/NVLink), eight NICs split between the electrical packet-switched
(EPS) scale-out fabric and the regional optical circuit switch (OCS), and a
two-socket NUMA layout that the topology generator uses to balance delegation
NICs (paper §5.2, step 4).

All bandwidths are expressed in **Gbit/s** and sizes in **bytes** unless a
name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Sequence


class NICFabric(str, Enum):
    """Which scale-out fabric a NIC is cabled into."""

    EPS = "eps"
    OCS = "ocs"


@dataclass(frozen=True)
class GPUSpec:
    """A single accelerator.

    ``peak_tflops`` is the dense BF16 throughput used by the analytic compute
    profiler; ``memory_gb`` bounds which expert layouts are feasible.
    """

    name: str = "A100"
    peak_tflops: float = 312.0
    memory_gb: float = 80.0
    nvlink_bandwidth_gbps: float = 4800.0  # 600 GB/s per direction for A100


#: Common accelerator models referenced in the paper.
A100 = GPUSpec("A100", peak_tflops=312.0, memory_gb=80.0, nvlink_bandwidth_gbps=4800.0)
H800 = GPUSpec("H800", peak_tflops=989.0, memory_gb=80.0, nvlink_bandwidth_gbps=3200.0)
H100 = GPUSpec("H100", peak_tflops=989.0, memory_gb=80.0, nvlink_bandwidth_gbps=7200.0)
GB200 = GPUSpec("GB200", peak_tflops=2500.0, memory_gb=192.0, nvlink_bandwidth_gbps=7200.0)


@dataclass(frozen=True)
class NIC:
    """A network interface card on a server."""

    server_id: int
    index: int
    bandwidth_gbps: float
    fabric: NICFabric
    numa_node: int

    @property
    def global_id(self) -> str:
        return f"s{self.server_id}.nic{self.index}"


@dataclass(frozen=True)
class GPU:
    """A GPU instance placed in a server."""

    server_id: int
    index: int
    spec: GPUSpec
    numa_node: int

    @property
    def global_id(self) -> str:
        return f"s{self.server_id}.gpu{self.index}"


@dataclass(frozen=True)
class ServerSpec:
    """Per-server hardware description.

    ``ocs_nics`` out of ``num_nics`` are attached to the regional OCS and the
    remainder to the EPS fabric.  The paper's default large-scale setup uses
    8 NICs with 6 on OCS and 2 on EPS (§7.1); the testbed uses 4 NICs with
    3 on OCS and 1 on EPS (§6).
    """

    num_gpus: int = 8
    num_nics: int = 8
    nic_bandwidth_gbps: float = 400.0
    ocs_nics: int = 6
    gpu: GPUSpec = field(default_factory=lambda: A100)
    nvswitch_bandwidth_gbps: float = 7200.0  # 900 GB/s NVSwitch (§7.1)
    num_numa_nodes: int = 2

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        if self.num_nics <= 0:
            raise ValueError("num_nics must be positive")
        if not 0 <= self.ocs_nics <= self.num_nics:
            raise ValueError("ocs_nics must be between 0 and num_nics")
        if self.num_numa_nodes <= 0:
            raise ValueError("num_numa_nodes must be positive")

    @property
    def eps_nics(self) -> int:
        return self.num_nics - self.ocs_nics

    def nics_for_server(self, server_id: int) -> List[NIC]:
        """Enumerate the NICs of one server, OCS-attached NICs first.

        NICs are spread round-robin across NUMA nodes so that when multiple
        OCS circuits land on the same server they can be balanced across NUMA
        domains, mirroring the NUMA-aware permutation in Algorithm 1 step 4.
        """
        nics: List[NIC] = []
        for i in range(self.num_nics):
            fabric = NICFabric.OCS if i < self.ocs_nics else NICFabric.EPS
            numa = i % self.num_numa_nodes
            nics.append(
                NIC(
                    server_id=server_id,
                    index=i,
                    bandwidth_gbps=self.nic_bandwidth_gbps,
                    fabric=fabric,
                    numa_node=numa,
                )
            )
        return nics

    def gpus_for_server(self, server_id: int) -> List[GPU]:
        gpus_per_numa = max(1, self.num_gpus // self.num_numa_nodes)
        return [
            GPU(
                server_id=server_id,
                index=i,
                spec=self.gpu,
                numa_node=min(i // gpus_per_numa, self.num_numa_nodes - 1),
            )
            for i in range(self.num_gpus)
        ]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ``num_servers`` identical servers."""

    num_servers: int
    server: ServerSpec = field(default_factory=ServerSpec)

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")

    @property
    def num_gpus(self) -> int:
        return self.num_servers * self.server.num_gpus

    @property
    def num_nics(self) -> int:
        return self.num_servers * self.server.num_nics

    @property
    def gpus_per_server(self) -> int:
        return self.server.num_gpus

    def server_of_gpu(self, global_gpu: int) -> int:
        """Server index hosting global GPU ``global_gpu``."""
        self._check_gpu(global_gpu)
        return global_gpu // self.server.num_gpus

    def local_index_of_gpu(self, global_gpu: int) -> int:
        self._check_gpu(global_gpu)
        return global_gpu % self.server.num_gpus

    def global_gpu(self, server_id: int, local_index: int) -> int:
        if not 0 <= server_id < self.num_servers:
            raise ValueError(f"server_id {server_id} out of range")
        if not 0 <= local_index < self.server.num_gpus:
            raise ValueError(f"local_index {local_index} out of range")
        return server_id * self.server.num_gpus + local_index

    def gpus(self) -> Iterator[GPU]:
        for s in range(self.num_servers):
            yield from self.server.gpus_for_server(s)

    def nics(self) -> Iterator[NIC]:
        for s in range(self.num_servers):
            yield from self.server.nics_for_server(s)

    def ocs_nics_of_server(self, server_id: int) -> List[NIC]:
        return [n for n in self.server.nics_for_server(server_id) if n.fabric is NICFabric.OCS]

    def eps_nics_of_server(self, server_id: int) -> List[NIC]:
        return [n for n in self.server.nics_for_server(server_id) if n.fabric is NICFabric.EPS]

    def servers_of_gpus(self, gpus: Sequence[int]) -> List[int]:
        """Distinct servers hosting the given global GPU ids (sorted)."""
        return sorted({self.server_of_gpu(g) for g in gpus})

    def _check_gpu(self, global_gpu: int) -> None:
        if not 0 <= global_gpu < self.num_gpus:
            raise ValueError(
                f"GPU index {global_gpu} out of range for cluster of {self.num_gpus} GPUs"
            )


def testbed_cluster() -> ClusterSpec:
    """The 4-server / 32-GPU / 16-NIC prototype of §6 (3 OCS + 1 EPS NIC)."""
    return ClusterSpec(
        num_servers=4,
        server=ServerSpec(
            num_gpus=8,
            num_nics=4,
            nic_bandwidth_gbps=100.0,
            ocs_nics=3,
            gpu=A100,
            nvswitch_bandwidth_gbps=2400.0,  # 4 NVLinks between adjacent GPUs
        ),
    )


def simulation_cluster(
    num_servers: int,
    nic_bandwidth_gbps: float = 400.0,
    ocs_nics: int = 6,
    gpu: GPUSpec = H100,
) -> ClusterSpec:
    """The large-scale simulation setup of §7.1 (8 GPUs + 8 NICs per server)."""
    return ClusterSpec(
        num_servers=num_servers,
        server=ServerSpec(
            num_gpus=8,
            num_nics=8,
            nic_bandwidth_gbps=nic_bandwidth_gbps,
            ocs_nics=ocs_nics,
            gpu=gpu,
            nvswitch_bandwidth_gbps=7200.0,
        ),
    )
