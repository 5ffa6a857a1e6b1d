"""Collective communication manager (§5.3).

Translates the collectives of each parallelism into the server-level flows
the fluid simulator executes:

* **EP all-to-all** — the five-step topology-aware procedure of Figure 8:
  intra-host gather to delegation GPUs (captured by the NVSwitch hop included
  in every inter-server path), inter-host transfer over OCS circuits where
  available and EPS otherwise, intra-host all-to-all for local experts, and
  the final scatter.
* **DP all-reduce** — the hierarchical algorithm: intra-host reduction to a
  gateway GPU, inter-host ring all-reduce over the EPS fabric, intra-host
  broadcast.
* **PP point-to-point** — boundary activation transfers over EPS.
* **TP all-reduce** — stays on NVSwitch; provided as an analytic time because
  it never touches the scale-out fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.sim.dag import FlowSpec, RouteKind


def ep_all_to_all_flows(
    rank_matrix: np.ndarray,
    group_ranks: Sequence[int],
    cluster: ClusterSpec,
    route: RouteKind = RouteKind.EP,
    transpose: bool = False,
) -> List[FlowSpec]:
    """Expand an EP-rank traffic matrix into server-level flows.

    Args:
        rank_matrix: ``(ep, ep)`` bytes dispatched from rank ``i`` to rank ``j``.
        group_ranks: Global ranks of the EP group (row/column order).
        cluster: Maps ranks to servers.
        route: ``EP`` to prefer optical circuits (MixNet) or ``EPS`` to force
            the electrical fabric (baselines / fallback).
        transpose: Use the transposed matrix — the combine (second) all-to-all
            and the backward-pass phases reverse the dispatch pattern (§5.1).

    Returns:
        One :class:`FlowSpec` per communicating server pair (bytes aggregated
        over the ranks they host) plus intra-server flows for co-located
        rank pairs.
    """
    matrix = np.asarray(rank_matrix, dtype=float)
    ep = len(group_ranks)
    if matrix.shape != (ep, ep):
        raise ValueError(f"rank_matrix must be {ep}x{ep}, got {matrix.shape}")
    if transpose:
        matrix = matrix.T

    # Vectorized server-level aggregation.  np.nonzero enumerates rank pairs
    # in row-major order and ufunc.at adds sequentially in that order — the
    # same addition sequence as the reference dict accumulation, so the
    # aggregated sizes are bit-identical to it.
    rank_servers = np.fromiter(
        (cluster.server_of_gpu(rank) for rank in group_ranks), np.int64, ep
    )
    positive = matrix > 0
    np.fill_diagonal(positive, False)
    rows, cols = np.nonzero(positive)
    servers, compact = np.unique(rank_servers, return_inverse=True)
    num_servers = len(servers)
    accumulated = np.zeros((num_servers, num_servers))
    np.add.at(accumulated, (compact[rows], compact[cols]), matrix[rows, cols])

    # Inter-server pairs in sorted (src, dst) order, then intra flows in
    # sorted server order — np.unique sorts, so index order is value order.
    flows: List[FlowSpec] = []
    server_list = servers.tolist()
    sizes = accumulated.tolist()
    for a, src in enumerate(server_list):
        row_sizes = sizes[a]
        for b, dst in enumerate(server_list):
            if a != b and row_sizes[b] > 0.0:
                flows.append(
                    FlowSpec(src_server=src, dst_server=dst,
                             size_bytes=row_sizes[b], route=route)
                )
    for a, server in enumerate(server_list):
        if sizes[a][a] > 0.0:
            flows.append(
                FlowSpec(src_server=server, dst_server=server,
                         size_bytes=sizes[a][a], route=RouteKind.INTRA)
            )
    return flows


def ring_all_reduce_flows(
    servers: Sequence[int],
    bytes_per_participant: float,
    route: RouteKind = RouteKind.EPS,
) -> List[FlowSpec]:
    """Flows of a ring all-reduce among ``servers``.

    A bandwidth-optimal ring moves ``2 (n-1)/n`` times the buffer over each of
    the ``n`` directed ring links; the fluid model executes all ring links
    concurrently, which matches the steady-state behaviour of a pipelined
    ring.
    """
    servers = list(servers)
    n = len(servers)
    if n <= 1 or bytes_per_participant <= 0:
        return []
    per_link = 2.0 * (n - 1) / n * bytes_per_participant
    flows = []
    for idx, src in enumerate(servers):
        dst = servers[(idx + 1) % n]
        flows.append(FlowSpec(src_server=src, dst_server=dst, size_bytes=per_link, route=route))
    return flows


def hierarchical_all_reduce_flows(
    servers: Sequence[int],
    grad_bytes_per_gpu: float,
    gpus_per_server: int,
    route: RouteKind = RouteKind.EPS,
) -> List[FlowSpec]:
    """Flows of MixNet's hierarchical DP all-reduce (§5.3).

    Stage 1 (intra-host reduction to the gateway GPU) and stage 3 (broadcast)
    stay on NVSwitch and are modelled as intra-server flows; stage 2 is a ring
    all-reduce among the gateway GPUs over the EPS fabric.
    """
    servers = list(servers)
    flows: List[FlowSpec] = []
    if grad_bytes_per_gpu <= 0:
        return flows
    intra = grad_bytes_per_gpu * max(0, gpus_per_server - 1)
    for server in servers:
        if intra > 0:
            flows.append(
                FlowSpec(src_server=server, dst_server=server, size_bytes=2.0 * intra,
                         route=RouteKind.INTRA)
            )
    flows.extend(ring_all_reduce_flows(servers, grad_bytes_per_gpu, route=route))
    return flows


def pp_point_to_point_flows(
    src_server: int,
    dst_server: int,
    activation_bytes: float,
    route: RouteKind = RouteKind.EPS,
) -> List[FlowSpec]:
    """Pipeline boundary activation transfer between two stages."""
    if activation_bytes <= 0:
        return []
    return [FlowSpec(src_server=src_server, dst_server=dst_server,
                     size_bytes=activation_bytes, route=route)]


# --------------------------------------------------------------------- timing
def ring_all_reduce_time(
    bytes_per_participant: float, participants: int, bandwidth_gbps: float
) -> float:
    """Analytic completion time of a ring all-reduce."""
    if participants <= 1 or bytes_per_participant <= 0:
        return 0.0
    if bandwidth_gbps <= 0:
        raise ValueError("bandwidth_gbps must be positive")
    bandwidth = bandwidth_gbps * 1e9 / 8.0
    return 2.0 * (participants - 1) / participants * bytes_per_participant / bandwidth


def tp_all_reduce_time(
    activation_bytes: float,
    tp_degree: int,
    nvswitch_bandwidth_gbps: float,
    all_reduces_per_block: int = 4,
) -> float:
    """Time spent in TP activation all-reduces for one MoE block (fwd+bwd)."""
    if tp_degree <= 1:
        return 0.0
    per_all_reduce = ring_all_reduce_time(activation_bytes, tp_degree, nvswitch_bandwidth_gbps)
    return all_reduces_per_block * per_all_reduce


def all_to_all_lower_bound(
    rank_matrix: np.ndarray,
    group_ranks: Sequence[int],
    cluster: ClusterSpec,
    per_server_bandwidth_gbps: float,
) -> float:
    """Lower bound on all-to-all completion time: the busiest server's I/O."""
    matrix = np.asarray(rank_matrix, dtype=float)
    servers: Dict[int, Tuple[float, float]] = {}
    for i, src_rank in enumerate(group_ranks):
        src = cluster.server_of_gpu(src_rank)
        for j, dst_rank in enumerate(group_ranks):
            dst = cluster.server_of_gpu(dst_rank)
            if src == dst:
                continue
            tx, rx = servers.get(src, (0.0, 0.0))
            servers[src] = (tx + matrix[i, j], rx)
            tx, rx = servers.get(dst, (0.0, 0.0))
            servers[dst] = (tx, rx + matrix[i, j])
    if not servers:
        return 0.0
    bandwidth = per_server_bandwidth_gbps * 1e9 / 8.0
    return max(max(tx, rx) for tx, rx in servers.values()) / bandwidth


@dataclass(frozen=True)
class DelegationAssignment:
    """Which server-local NIC/GPU relays traffic toward each peer server.

    MixNet's step (1) of the EP routing procedure: every GPU looks up the
    delegation GPU for each destination server — the GPU attached to the NIC
    holding the optical circuit (or an EPS NIC when no circuit exists).
    """

    src_server: int
    dst_server: int
    nic_index: int
    via_circuit: bool


def delegation_assignments(
    servers: Sequence[int],
    circuits: Dict[Tuple[int, int], int],
    cluster: ClusterSpec,
) -> List[DelegationAssignment]:
    """Assign delegation NICs for every ordered server pair of a region."""
    assignments: List[DelegationAssignment] = []
    next_ocs_nic: Dict[int, int] = {s: 0 for s in servers}
    next_eps_nic: Dict[int, int] = {s: 0 for s in servers}
    ocs_count = cluster.server.ocs_nics
    eps_count = cluster.server.eps_nics
    for src in servers:
        for dst in servers:
            if src == dst:
                continue
            key = (src, dst) if src <= dst else (dst, src)
            if circuits.get(key, 0) > 0 and ocs_count > 0:
                nic = next_ocs_nic[src] % ocs_count
                next_ocs_nic[src] += 1
                assignments.append(DelegationAssignment(src, dst, nic, True))
            else:
                nic = ocs_count + (next_eps_nic[src] % max(1, eps_count))
                next_eps_nic[src] += 1
                assignments.append(DelegationAssignment(src, dst, nic, False))
    return assignments
