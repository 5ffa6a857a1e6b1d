"""Hybrid-parallelism planning and rank placement.

The paper trains MoE models with a hybrid of data parallelism (DP), tensor
parallelism (TP), pipeline parallelism (PP) and expert parallelism (EP)
(Figure 1b).  This module computes, for a given model and cluster size, the
mapping from parallel ranks to physical GPUs and the communication groups of
each parallelism:

* **TP groups** are placed within a server so TP's heavy all-reduce stays on
  NVSwitch (Table 3: "Crossbar Switch").
* **EP groups** are placed on contiguous servers within a pipeline stage so
  that all-to-all traffic stays regional (the locality observation of §3 /
  Figure 5 that motivates the regional OCS).
* **PP groups** span stages; **DP groups** span replicas.

The rank layout is ``rank = ((pp_idx * dp + dp_idx) * tp) + tp_idx`` and ranks
are mapped to GPUs densely, which reproduces the block-diagonal traffic matrix
of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.spec import ClusterSpec
from repro.moe.models import MoEModelConfig


@dataclass(frozen=True)
class RankCoordinate:
    """Position of a rank in the (pp, dp, tp) grid.

    The expert-parallel index is derived from the data-parallel index:
    EP groups are contiguous blocks of ``ep_degree`` DP ranks.
    """

    pp: int
    dp: int
    tp: int


class ParallelismPlan:
    """Maps a hybrid DP/TP/PP/EP parallelisation onto a cluster.

    Args:
        model: The MoE model configuration (supplies TP/PP/EP degrees).
        cluster: The physical cluster the job runs on.

    Raises:
        ValueError: If the cluster size is not an exact multiple of
            ``tp * pp`` or the resulting DP degree is not a multiple of the
            EP degree.
    """

    def __init__(self, model: MoEModelConfig, cluster: ClusterSpec) -> None:
        self.model = model
        self.cluster = cluster
        self.tp = model.tp_degree
        self.pp = model.pp_degree
        self.ep = model.ep_degree
        world = cluster.num_gpus
        if world % (self.tp * self.pp) != 0:
            raise ValueError(
                f"cluster of {world} GPUs is not divisible by tp*pp="
                f"{self.tp * self.pp} for model {model.name}"
            )
        self.dp = world // (self.tp * self.pp)
        if self.dp % self.ep != 0:
            raise ValueError(
                f"data-parallel degree {self.dp} is not a multiple of "
                f"ep_degree {self.ep} for model {model.name} on {world} GPUs"
            )
        self.world_size = world

    # ------------------------------------------------------------- coordinates
    def coordinate(self, rank: int) -> RankCoordinate:
        """Decompose a global rank into its (pp, dp, tp) coordinate."""
        self._check_rank(rank)
        tp_idx = rank % self.tp
        rest = rank // self.tp
        dp_idx = rest % self.dp
        pp_idx = rest // self.dp
        return RankCoordinate(pp=pp_idx, dp=dp_idx, tp=tp_idx)

    def rank(self, pp: int, dp: int, tp: int) -> int:
        """Compose a global rank from its coordinate."""
        if not (0 <= pp < self.pp and 0 <= dp < self.dp and 0 <= tp < self.tp):
            raise ValueError(f"coordinate ({pp}, {dp}, {tp}) out of range")
        return (pp * self.dp + dp) * self.tp + tp

    def gpu_of_rank(self, rank: int) -> int:
        """Global GPU index hosting ``rank`` (dense identity mapping)."""
        self._check_rank(rank)
        return rank

    def server_of_rank(self, rank: int) -> int:
        return self.cluster.server_of_gpu(self.gpu_of_rank(rank))

    # ------------------------------------------------------------------ groups
    def tp_groups(self) -> List[List[int]]:
        """Tensor-parallel groups: ``tp`` consecutive ranks each."""
        return [
            [self.rank(p, d, t) for t in range(self.tp)]
            for p in range(self.pp)
            for d in range(self.dp)
        ]

    def dp_groups(self) -> List[List[int]]:
        """Data-parallel groups: gradient all-reduce partners."""
        return [
            [self.rank(p, d, t) for d in range(self.dp)]
            for p in range(self.pp)
            for t in range(self.tp)
        ]

    def pp_groups(self) -> List[List[int]]:
        """Pipeline groups: ranks holding successive stages of one replica."""
        return [
            [self.rank(p, d, t) for p in range(self.pp)]
            for d in range(self.dp)
            for t in range(self.tp)
        ]

    def ep_groups(self) -> List[List[int]]:
        """Expert-parallel all-to-all groups.

        Each group contains ``ep`` ranks with the same pipeline stage and
        tensor-parallel index whose DP indices form a contiguous block.
        """
        groups: List[List[int]] = []
        for p in range(self.pp):
            for block in range(self.dp // self.ep):
                for t in range(self.tp):
                    groups.append(
                        [
                            self.rank(p, block * self.ep + e, t)
                            for e in range(self.ep)
                        ]
                    )
        return groups

    def ep_group_of_rank(self, rank: int) -> List[int]:
        coord = self.coordinate(rank)
        block = coord.dp // self.ep
        return [
            self.rank(coord.pp, block * self.ep + e, coord.tp)
            for e in range(self.ep)
        ]

    # ----------------------------------------------------------------- regions
    def regions(self) -> List[List[int]]:
        """Regional OCS domains: the servers spanned by one EP block.

        A region covers all GPUs of one pipeline stage / DP block across every
        tensor-parallel index, i.e. ``ep * tp`` GPUs on contiguous servers.
        This is the unit each regional OCS interconnects (§4.2).
        """
        gpus_per_region = self.ep * self.tp
        regions: List[List[int]] = []
        for p in range(self.pp):
            for block in range(self.dp // self.ep):
                start = (p * self.dp + block * self.ep) * self.tp
                gpu_ids = list(range(start, start + gpus_per_region))
                regions.append(self.cluster.servers_of_gpus(gpu_ids))
        return regions

    def region_of_rank(self, rank: int) -> List[int]:
        coord = self.coordinate(rank)
        block = coord.dp // self.ep
        start = (coord.pp * self.dp + block * self.ep) * self.tp
        gpu_ids = list(range(start, start + self.ep * self.tp))
        return self.cluster.servers_of_gpus(gpu_ids)

    def num_regions(self) -> int:
        return self.pp * (self.dp // self.ep)

    def servers_per_region(self) -> int:
        gpus_per_region = self.ep * self.tp
        return max(1, gpus_per_region // self.cluster.gpus_per_server)

    # -------------------------------------------------------- expert placement
    def expert_owner(self, ep_group: List[int], expert: int) -> int:
        """Rank (within ``ep_group``) owning ``expert`` of an MoE block."""
        if not 0 <= expert < self.model.num_experts:
            raise ValueError(f"expert {expert} out of range")
        per_rank = self.model.experts_per_ep_rank
        return ep_group[expert // per_rank]

    def experts_of_rank(self, ep_group: List[int], rank: int) -> List[int]:
        """Experts hosted by ``rank`` within ``ep_group``."""
        if rank not in ep_group:
            raise ValueError(f"rank {rank} not in EP group")
        position = ep_group.index(rank)
        per_rank = self.model.experts_per_ep_rank
        return list(range(position * per_rank, (position + 1) * per_rank))

    # --------------------------------------------------------------- summaries
    def summary(self) -> Dict[str, int]:
        return {
            "world_size": self.world_size,
            "tp": self.tp,
            "pp": self.pp,
            "ep": self.ep,
            "dp": self.dp,
            "num_regions": self.num_regions(),
            "servers_per_region": self.servers_per_region(),
        }

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")


def minimal_world_size(model: MoEModelConfig) -> int:
    """Smallest GPU count that fits the model's default parallelism."""
    return model.tp_degree * model.pp_degree * model.ep_degree


def plan_for_cluster(model: MoEModelConfig, cluster: ClusterSpec) -> ParallelismPlan:
    """Convenience constructor mirroring the paper's simulation setup."""
    return ParallelismPlan(model, cluster)

