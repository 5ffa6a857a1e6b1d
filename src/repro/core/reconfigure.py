"""Topology reconfiguration — Algorithm 1 of the paper (§5.2).

Finding an optimal circuit schedule is NP-hard, so MixNet uses a greedy
bottleneck-first heuristic: repeatedly find the server pair whose transfer
would currently take the longest (demand divided by allocated circuits) and
give it one more optical circuit, until either side of the bottleneck pair has
exhausted its optical NICs.  The resulting circuit-count matrix is then turned
into a concrete NIC-level TX/RX mapping, permuted so that multiple circuits
between the same server pair land on different NUMA nodes (step 4), which the
collective runtime relies on to avoid intra-host congestion.

One engine drives the greedy loop in production (DESIGN.md §5): a lazily
invalidated max-heap over per-pair completion times (:func:`_greedy_heap`).
NIC availability and the blocked-pair set are maintained incrementally with
no per-step matrix copies, so each greedy step costs O(log P), and the
post-loop bookkeeping (circuit-map extraction, completion estimate) runs as
numpy reductions.

The seed's pure-Python loop (:func:`_greedy_scalar` over
:func:`find_bottleneck_link`, with the loop form of
:func:`_completion_time_estimate`) is kept as the oracle.  It is reachable
from tests only: ``tests/test_reconfigure_engines.py`` monkeypatches it in
for :func:`_greedy_heap` and checks that allocations are bit-identical (same
circuit map, NIC mapping, completion estimate and iteration count).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec, NICFabric
from repro.core.demand import symmetrize_upper


@dataclass(frozen=True)
class CircuitAllocation:
    """Result of one run of the reconfiguration algorithm.

    Attributes:
        servers: Server ids covered by this regional OCS slice.
        circuits: Unordered server-pair -> number of optical circuits.
        nic_mapping: NIC-level endpoints, one ``((server, nic), (server, nic))``
            entry per circuit.
        completion_time_estimate: The greedy objective after allocation — the
            longest per-pair transfer time assuming each circuit carries the
            pair's demand at NIC line rate (seconds).
        iterations: Number of greedy steps performed.
    """

    servers: Tuple[int, ...]
    circuits: Dict[Tuple[int, int], int]
    nic_mapping: List[Tuple[Tuple[int, int], Tuple[int, int]]]
    completion_time_estimate: float
    iterations: int

    def total_circuits(self) -> int:
        return sum(self.circuits.values())

    def circuits_of(self, server_a: int, server_b: int) -> int:
        key = (server_a, server_b) if server_a <= server_b else (server_b, server_a)
        return self.circuits.get(key, 0)

    def degree_of(self, server: int) -> int:
        return sum(
            count for (a, b), count in self.circuits.items() if server in (a, b)
        )


def calculate_server_demand(demand: np.ndarray) -> np.ndarray:
    """Step 1 of Algorithm 1: fold TX+RX demand into an upper triangle."""
    return symmetrize_upper(demand)


def find_bottleneck_link(
    demand_upper: np.ndarray, circuits: np.ndarray
) -> Optional[Tuple[int, int]]:
    """Step 2 of Algorithm 1: the pair with the longest completion time.

    Completion time of pair ``(i, j)`` is ``demand / circuits``; pairs without
    any circuit yet have infinite completion time, ties broken by demand.
    Returns ``None`` when there is no pair with positive demand.
    """
    n = demand_upper.shape[0]
    best: Optional[Tuple[int, int]] = None
    best_time = -1.0
    best_demand = -1.0
    for i in range(n):
        for j in range(i + 1, n):
            demand = demand_upper[i, j]
            if demand <= 0:
                continue
            allocated = circuits[i, j]
            time = float("inf") if allocated == 0 else demand / allocated
            if time > best_time or (time == best_time and demand > best_demand):
                best = (i, j)
                best_time = time
                best_demand = demand
    return best


def _greedy_scalar(
    demand_upper: np.ndarray, optical_degree: int, skip_saturated_pairs: bool
) -> Tuple[np.ndarray, int]:
    """The seed's pure-Python greedy loop, kept verbatim as the oracle.

    Every step copies the demand matrix to mask blocked pairs and rescans all
    O(n²) pairs via :func:`find_bottleneck_link`.
    """
    n = demand_upper.shape[0]
    circuits = np.zeros((n, n), dtype=int)
    available = {idx: optical_degree for idx in range(n)}
    iterations = 0
    blocked: Set[Tuple[int, int]] = set()

    while True:
        masked = demand_upper.copy()
        for (i, j) in blocked:
            masked[i, j] = 0.0
        pair = find_bottleneck_link(masked, circuits)
        if pair is None:
            break
        i, j = pair
        if available[i] > 0 and available[j] > 0:
            circuits[i, j] += 1
            circuits[j, i] += 1
            available[i] -= 1
            available[j] -= 1
            iterations += 1
        else:
            if skip_saturated_pairs:
                blocked.add((i, j))
                continue
            break
    return circuits, iterations


def _greedy_heap(
    demand_upper: np.ndarray, optical_degree: int, skip_saturated_pairs: bool
) -> Tuple[np.ndarray, int]:
    """Heap-driven greedy loop: the bottleneck pair in O(log P) per step.

    The max-heap orders pairs by ``(-completion_time, -demand, i, j)``, which
    reproduces the oracle's selection rule exactly: longest completion time
    first (unallocated pairs are infinite), ties broken by larger demand, then
    by row-major pair order (the first strict improvement the oracle's scan
    would keep).  Entries are invalidated lazily: allocating a circuit pushes
    the pair's refreshed entry, so a popped entry whose recorded circuit count
    disagrees with the current one is stale and dropped.  Saturated pairs are
    dropped permanently when popped (the blocked set of the ablation), so no
    masked matrix copy is ever made.
    """
    n = demand_upper.shape[0]
    circuits = np.zeros((n, n), dtype=int)
    pair_i, pair_j = np.nonzero(demand_upper > 0.0)
    neg_inf = float("-inf")
    heap: List[Tuple[float, float, int, int, int]] = [
        (neg_inf, -demand, i, j, 0)
        for demand, i, j in zip(
            demand_upper[pair_i, pair_j].tolist(), pair_i.tolist(), pair_j.tolist()
        )
    ]
    heapq.heapify(heap)
    allocated: Dict[Tuple[int, int], int] = {}
    available = [optical_degree] * n
    iterations = 0
    pop = heapq.heappop
    push = heapq.heappush

    while heap:
        _, neg_demand, i, j, count = pop(heap)
        if allocated.get((i, j), 0) != count:
            continue  # stale: superseded by the entry pushed at allocation time
        if available[i] > 0 and available[j] > 0:
            count += 1
            allocated[(i, j)] = count
            available[i] -= 1
            available[j] -= 1
            iterations += 1
            # (-d)/c == -(d/c) exactly in IEEE 754, so the key matches the
            # oracle's ``demand / allocated`` comparison bit for bit.
            push(heap, (neg_demand / count, neg_demand, i, j, count))
        elif skip_saturated_pairs:
            continue  # permanently blocked: drop the pair's only live entry
        else:
            break

    if allocated:
        rows, cols = zip(*allocated)
        counts = list(allocated.values())
        circuits[rows, cols] = counts
        circuits[cols, rows] = counts
    return circuits, iterations


def reconfigure_ocs(
    demand: np.ndarray,
    optical_degree: int,
    servers: Sequence[int],
    cluster: Optional[ClusterSpec] = None,
    link_bandwidth_gbps: float = 400.0,
    skip_saturated_pairs: bool = False,
) -> CircuitAllocation:
    """Algorithm 1: greedy bottleneck-first circuit allocation.

    Args:
        demand: Directed inter-server demand in bytes, indexed positionally
            over ``servers`` (use :func:`repro.core.demand.rank_to_server_demand`
            to produce it).
        optical_degree: Optical NICs per server available for circuits (alpha).
        servers: Server ids of the region, aligned with ``demand``.
        cluster: Optional cluster spec used to derive the NUMA-aware NIC
            mapping; if omitted, NICs alternate between two NUMA nodes.
        link_bandwidth_gbps: Per-circuit line rate, used for the completion
            time estimate returned with the allocation.
        skip_saturated_pairs: The paper's pseudo-code stops as soon as the
            current bottleneck pair has no free NICs; setting this flag makes
            the greedy loop skip such pairs instead (used as an ablation).

    Returns:
        A :class:`CircuitAllocation` with per-pair circuit counts and a
        NUMA-balanced NIC mapping.
    """
    servers = list(servers)
    n = len(servers)
    demand = np.asarray(demand, dtype=float)
    if demand.shape != (n, n):
        raise ValueError(f"demand must be {n}x{n} to match servers, got {demand.shape}")
    if optical_degree < 0:
        raise ValueError("optical_degree must be non-negative")

    demand_upper = calculate_server_demand(demand)
    circuits, iterations = _greedy_heap(
        demand_upper, optical_degree, skip_saturated_pairs
    )
    rows, cols = np.nonzero(np.triu(circuits, k=1))
    circuit_map = {
        (servers[a], servers[b]): int(circuits[a, b])
        for a, b in zip(rows.tolist(), cols.tolist())
    }
    completion = _completion_time_estimate_vectorized(
        demand_upper, circuits, link_bandwidth_gbps
    )
    nic_mapping = _nic_mapping(circuit_map, servers, optical_degree, cluster)
    return CircuitAllocation(
        servers=tuple(servers),
        circuits=circuit_map,
        nic_mapping=nic_mapping,
        completion_time_estimate=completion,
        iterations=iterations,
    )


def _completion_time_estimate(
    demand_upper: np.ndarray, circuits: np.ndarray, link_bandwidth_gbps: float
) -> float:
    """Longest per-pair transfer time over allocated circuits (0 circuits -> inf)."""
    bandwidth = link_bandwidth_gbps * 1e9 / 8.0
    worst = 0.0
    n = demand_upper.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            demand = demand_upper[i, j]
            if demand <= 0:
                continue
            if circuits[i, j] == 0:
                return float("inf")
            worst = max(worst, demand / (circuits[i, j] * bandwidth))
    return worst


def _completion_time_estimate_vectorized(
    demand_upper: np.ndarray, circuits: np.ndarray, link_bandwidth_gbps: float
) -> float:
    """Numpy-reduction twin of :func:`_completion_time_estimate`.

    Elementwise ``demand / (circuits * bandwidth)`` performs the same IEEE
    operations as the scalar loop, so the maxima are bit-identical.
    """
    bandwidth = link_bandwidth_gbps * 1e9 / 8.0
    mask = demand_upper > 0.0
    if not mask.any():
        return 0.0
    allocated = circuits[mask]
    if np.any(allocated == 0):
        return float("inf")
    return float(np.max(demand_upper[mask] / (allocated * bandwidth)))


def _nic_mapping(
    circuit_map: Dict[Tuple[int, int], int],
    servers: Sequence[int],
    optical_degree: int,
    cluster: Optional[ClusterSpec],
) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Steps 4–5 of Algorithm 1: concrete, NUMA-balanced NIC assignment.

    NIC indices are handed out per server in the order that alternates NUMA
    nodes, so when two or more circuits connect the same server pair their
    endpoints fall on different NUMA domains (the ``permuteLinks`` step).
    A degree-0 slice owns no NICs on any server, so it yields an empty
    mapping regardless of the requested circuits.
    """
    if cluster is not None:
        ocs_nic_indices: Dict[int, List[int]] = {}
        for server in servers:
            nics = [n.index for n in cluster.server.nics_for_server(server)
                    if n.fabric is NICFabric.OCS]
            ocs_nic_indices[server] = nics[:optical_degree]
    else:
        ocs_nic_indices = {server: list(range(optical_degree)) for server in servers}

    next_slot = {server: 0 for server in servers}
    mapping: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for (a, b), count in sorted(circuit_map.items()):
        nics_a = ocs_nic_indices[a]
        nics_b = ocs_nic_indices[b]
        if not nics_a or not nics_b:
            continue  # no OCS NICs on one side: the circuit has no endpoints
        for _ in range(count):
            idx_a = nics_a[next_slot[a] % len(nics_a)]
            idx_b = nics_b[next_slot[b] % len(nics_b)]
            mapping.append(((a, idx_a), (b, idx_b)))
            next_slot[a] += 1
            next_slot[b] += 1
    return mapping


def uniform_allocation(
    optical_degree: int, servers: Sequence[int]
) -> CircuitAllocation:
    """Demand-oblivious round-robin allocation (ablation baseline).

    Spreads each server's optical NICs evenly over the other servers of the
    region, which is what a static expander-style OCS wiring would provide.
    The round-robin offsets are cycled until a full cycle makes no progress:
    the seed made a single pass over the offsets (breaking on the first
    zero-progress pass), which stranded free NICs — always when
    ``optical_degree > n - 1`` (pairs must receive multiple circuits), and
    also for many smaller degrees where one saturated pass hid progress
    available at later offsets.
    """
    servers = list(servers)
    n = len(servers)
    circuit_map: Dict[Tuple[int, int], int] = {}
    if n > 1 and optical_degree > 0:
        available = {idx: optical_degree for idx in range(n)}
        while True:
            progress = False
            for offset in range(1, n):
                for i in range(n):
                    j = (i + offset) % n
                    a, b = min(i, j), max(i, j)
                    if available[a] > 0 and available[b] > 0:
                        key = (servers[a], servers[b])
                        circuit_map[key] = circuit_map.get(key, 0) + 1
                        available[a] -= 1
                        available[b] -= 1
                        progress = True
            if not progress:
                break
    nic_mapping = _nic_mapping(circuit_map, servers, optical_degree, None)
    return CircuitAllocation(
        servers=tuple(servers),
        circuits=circuit_map,
        nic_mapping=nic_mapping,
        completion_time_estimate=float("nan"),
        iterations=0,
    )
