"""Fluid (flow-level) network model with max–min fair bandwidth sharing.

This is the reproduction's substitute for the paper's htsim packet-level
simulator: every communication is a *flow* with a byte size and a directed
link path; at any instant the active flows share each link's capacity
max–min fairly (progressive water-filling).  The event-driven executor asks
the network for the time until the next flow completes and advances all flows
by that amount, which yields exact fluid-model completion times.

Two interchangeable, *exact* rate solvers are provided (see DESIGN.md §2):

* ``"native"`` — a small compiled C kernel (:mod:`repro.sim._native`) fed the
  flow×link incidence as CSR arrays.  The arrays are maintained
  *incrementally* (adding or removing one flow touches only that flow's
  links), and the folded advance (:func:`service_advance_requests`) runs the
  whole solve → next-completion → advance loop of many networks in one
  kernel call.
* ``"scalar"`` — the pure-Python reference implementation.  It rebuilds the
  link bookkeeping from the flow set on every solve; it is the oracle of the
  differential tests (``tests/test_sim_flows_properties.py`` asserts the
  kernel agrees with it to 1e-9 on randomised topologies) and the fallback
  when no C compiler is available.

``"auto"`` (the default) resolves to ``"native"`` when the kernel is
available and ``"scalar"`` otherwise; so does an explicit ``"native"``, and a
native network whose kernel later fails to load or to allocate demotes itself
to ``"scalar"``.  Selection is per call only: per network with
``FluidNetwork(region, solver=...)``, per run with
``RuntimeOptions(fluid_solver=...)``, per sweep with ``SweepRunner(solver=...)``
or the CLI's ``--solver``.  There is no process-wide override.

Note on capacity changes: the scalar solver re-reads link capacities from the
region on every solve; the native solver caches them and refreshes on
:meth:`FluidNetwork.mark_topology_changed` (which all in-tree capacity
mutations already trigger, e.g. the executor after reconfiguration callbacks).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fabric.base import GBPS_TO_BYTES_PER_S, RegionNetwork

#: Accepted solver names (``"auto"`` resolves at construction time).
SOLVERS = ("auto", "native", "scalar")


def resolve_solver(solver: Optional[str]) -> str:
    """Resolve a requested solver name to a concrete implementation.

    ``None`` means ``"auto"``.  ``"auto"`` and ``"native"`` resolve to
    ``"native"`` when the C kernel is available and to ``"scalar"`` otherwise.
    """
    if solver is None:
        solver = "auto"
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if solver == "scalar":
        return solver
    from repro.sim._native import native_available

    return "native" if native_available() else "scalar"


@dataclass(slots=True)
class Flow:
    """A single data transfer over a fixed path.

    Attributes:
        flow_id: Unique identifier.
        size_bytes: Total bytes to transfer.
        path: Directed link ids traversed, in order.
        remaining_bytes: Bytes still to transfer.
        rate: Current max–min fair rate in bytes/s (set by the network).
    """

    flow_id: str
    size_bytes: float
    path: List[str]
    remaining_bytes: float = field(init=False)
    rate: float = 0.0
    _finish_threshold: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("flow size must be non-negative")
        if not self.path:
            raise ValueError("flow path must contain at least one link")
        self.remaining_bytes = float(self.size_bytes)
        # Residue far below the flow's size (or below a millibyte) is
        # floating-point dust left over when several flows complete at
        # (mathematically) the same instant; treating it as finished prevents
        # the event loop from chasing ever-smaller time steps.
        self._finish_threshold = max(1e-3, 1e-9 * self.size_bytes)

    @property
    def finished(self) -> bool:
        return self.remaining_bytes <= self._finish_threshold

    @classmethod
    def make(cls, flow_id: str, size_bytes: float, path: List[str]) -> "Flow":
        """Construct without argument validation.

        For callers that create flows in bulk from already-validated specs
        (positive sizes, resolver-produced paths); semantically identical to
        the normal constructor.
        """
        flow = object.__new__(cls)
        flow.flow_id = flow_id
        flow.size_bytes = size_bytes
        flow.path = path
        flow.remaining_bytes = float(size_bytes)
        flow.rate = 0.0
        threshold = 1e-9 * size_bytes
        flow._finish_threshold = threshold if threshold > 1e-3 else 1e-3
        return flow


class FluidNetwork:
    """Max–min fair fluid bandwidth sharing over a :class:`RegionNetwork`.

    Args:
        region: The region whose links carry the flows.  Link capacities are
            re-read whenever :meth:`mark_topology_changed` signals a change,
            so topology reconfigurations (capacity changes, new optical
            circuits) made between events take effect immediately.
        solver: One of :data:`SOLVERS`; ``None`` means ``"auto"``.
            The concrete implementation in use is exposed as ``self.solver``.
    """

    def __init__(self, region: RegionNetwork, solver: Optional[str] = None) -> None:
        self.region = region
        self.solver = resolve_solver(solver)
        self._flows: Dict[str, Flow] = {}
        self._rates_dirty = True
        # Optional flow grouping (used by the executor to map flows back to
        # their owning communication task): the folded advance loop stops as
        # soon as any group drains, because completing the owning task needs
        # Python.  Groups are orthogonal to the rate solvers.  Drained groups
        # accumulate in drain order (the order their last flow finished) until
        # the owner consumes them via consume_drained_groups().
        self._flow_group: Dict[str, object] = {}
        self._group_left: Dict[object, int] = {}
        self._drained_groups: List[object] = []
        # Per-network remaining-bytes mirror aligned with _csr_flows.  Synced
        # means the mirror matches every flow's remaining_bytes under the
        # current CSR layout, letting the batch assembly copy an array slice
        # instead of gathering the attribute per flow; any flow mutation or
        # layout change outside the batch path clears the bit (the attribute
        # gather is always correct, just slower).
        self._rem_buf = np.zeros(0)
        self._rem_synced = False
        # Lazy flow-attribute mirror: after a batched kernel call the
        # surviving flows' ``rate``/``remaining_bytes`` live only in
        # _rate_buf/_rem_buf until a Python-path consumer forces
        # _sync_flow_attrs().  On the folded path most networks drain
        # completely before anything reads the attributes, so the per-flow
        # writeback loop is skipped entirely.
        self._rate_buf = np.zeros(0)
        self._attrs_synced = True
        if self.solver != "scalar":
            self._init_incremental_state()

    # -------------------------------------------------------- incremental state
    def _init_incremental_state(self) -> None:
        self._link_row: Dict[str, int] = {}     # link id -> incidence row
        self._link_ids: List[str] = []          # row -> link id
        self._cap_list: List[float] = []        # bytes/s per row
        self._cap_arr = np.zeros(0)             # numpy mirror for the kernel
        self._capacity_dirty = True
        self._path_rows: Dict[str, List[int]] = {}
        # Paths repeat heavily across tasks (the same server pairs talk every
        # layer); rows are assigned once per link and never reassigned, so
        # the path -> rows translation is cacheable for the network's
        # lifetime.  Values are shared (read-only) across flows.
        # Keyed by id(path list); the value pins the path object so its id
        # can never be recycled by a different list.  The executor shares one
        # path list per (src, dst, route), making this an O(1) int lookup on
        # the hottest add_flows path.
        self._rows_of_path: Dict[int, Tuple[List[str], List[int]]] = {}
        # Native-kernel scratch: CSR buffers are persistent and only refilled
        # when the flow set changes; cffi pointers are cached per allocation.
        self._native_loaded = None
        self._csr_valid = False
        self._csr_flows: List[Flow] = []
        self._thr_buf = np.zeros(0)
        self._active_buf = np.zeros(0, dtype=np.uint8)
        self._csr_groups: List[object] = []
        self._grp_buf = np.zeros(0, dtype=np.int32)
        self._grp_keys: List[object] = []
        self._csr_inactive = 0
        self._ptr_buf = np.zeros(0, dtype=np.int32)
        self._rows_buf = np.zeros(0, dtype=np.int32)
        self._rates_buf = np.zeros(0)
        self._ptr_ptr = self._rows_ptr = self._rates_ptr = self._cap_ptr = None

    def _row_for(self, link_id: str) -> int:
        row = self._link_row.get(link_id)
        if row is not None:
            return row
        row = len(self._link_ids)
        self._link_row[link_id] = row
        self._link_ids.append(link_id)
        self._cap_list.append(0.0)
        self._capacity_dirty = True
        return row

    def _refresh_capacities(self) -> None:
        links = self.region.links
        for row, link_id in enumerate(self._link_ids):
            # A link can vanish from the region (e.g. an optical circuit torn
            # down by a reconfiguration); no active flow references it then,
            # so it only needs a capacity that keeps it off the bottleneck
            # scan.
            link = links.get(link_id)
            capacity = max(0.0, link.capacity_gbps) if link is not None else 0.0
            self._cap_list[row] = capacity * GBPS_TO_BYTES_PER_S
        if len(self._cap_arr) == len(self._cap_list):
            # Same row set: refresh in place — cached cffi pointers into the
            # array stay valid, and no allocation happens on the (hot)
            # capacity-changed-between-solves path.
            self._cap_arr[:] = self._cap_list
        else:
            self._cap_arr = np.array(self._cap_list)
            self._cap_ptr = None  # pointed into the replaced array
        self._capacity_dirty = False

    # --------------------------------------------------------------- flow ops
    @property
    def flows(self) -> Dict[str, Flow]:
        self._sync_flow_attrs()
        return dict(self._flows)

    def active_flow_count(self) -> int:
        return len(self._flows)

    def _sync_flow_attrs(self) -> None:
        """Write deferred ``rate``/``remaining_bytes`` back onto the flows.

        :func:`_advance_native_batch` parks each block's post-advance rates
        and remaining bytes in ``_rate_buf``/``_rem_buf`` (retired flows get
        their attributes at retirement) instead of looping over every
        surviving flow; any Python-path reader or mutator must call this
        first.  A drained network — the dominant folded pattern — makes it a
        no-op.
        """
        if self._attrs_synced:
            return
        self._attrs_synced = True
        if not self._flows:
            return
        flows = self._csr_flows
        count = len(flows)
        active = self._active_buf[:count].tolist()
        rate_list = self._rate_buf[:count].tolist()
        rem_list = self._rem_buf[:count].tolist()
        for index, is_active in enumerate(active):
            if is_active:
                flow = flows[index]
                flow.rate = rate_list[index]
                flow.remaining_bytes = rem_list[index]

    def add_flow(self, flow: Flow, group: Optional[object] = None) -> None:
        self._sync_flow_attrs()
        if flow.flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow.flow_id!r}")
        for link_id in flow.path:
            if link_id not in self.region.links:
                raise KeyError(f"flow {flow.flow_id} uses unknown link {link_id!r}")
        self._flows[flow.flow_id] = flow
        if group is not None:
            self._flow_group[flow.flow_id] = group
            self._group_left[group] = self._group_left.get(group, 0) + 1
        if self.solver != "scalar":
            self._path_rows[flow.flow_id] = [
                self._row_for(link_id) for link_id in flow.path
            ]
            self._csr_valid = False
        self._rem_synced = False
        self._rates_dirty = True

    def add_flows(
        self,
        flows: Sequence[Flow],
        group: Optional[object] = None,
        staged: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Bulk :meth:`add_flow`: one bookkeeping pass for a task's flow batch.

        Semantically identical to calling :meth:`add_flow` per flow in order,
        but hoists the attribute lookups out of the loop — the executor adds
        every flow of a communication task at once, which makes this the
        hottest path of graph construction.  Unknown-link validation runs
        only the first time a path is seen; a path that validated once stays
        valid because incidence rows are never reassigned.

        ``staged`` is an optional ``(remaining, finish_thresholds)`` float64
        array pair aligned with ``flows`` (see
        :meth:`AdmissionPlan.staged_arrays`): when the batch lands on an
        empty network, the arrays are copied straight into the CSR mirrors,
        skipping both the per-flow threshold gather here and the
        remaining-bytes gather in the next batched advance.
        """
        if not flows:
            return
        self._sync_flow_attrs()
        rem_synced = False
        links = self.region.links
        flow_map = self._flows
        if self.solver == "scalar":
            for flow in flows:
                if flow.flow_id in flow_map:
                    raise ValueError(f"duplicate flow id {flow.flow_id!r}")
                for link_id in flow.path:
                    if link_id not in links:
                        raise KeyError(
                            f"flow {flow.flow_id} uses unknown link {link_id!r}"
                        )
                flow_map[flow.flow_id] = flow
        else:
            link_row = self._link_row
            path_rows = self._path_rows
            rows_of_path = self._rows_of_path
            row_of = link_row.get
            # Fused CSR construction: in the dominant pattern the network is
            # empty when a task's batch arrives (all prior flows completed),
            # so the bookkeeping pass below sees exactly the flow set the
            # next solve needs.  Building the CSR arrays here skips the
            # otherwise-inevitable full _rebuild_csr pass over the same
            # flows.
            # (Gated on a loaded kernel: _ensure_native_buffers needs its ffi,
            # and a network that never reaches the native solver never needs
            # CSR arrays at all.)
            fuse_csr = not flow_map and self._native_loaded is not None
            flow_rows: List[int] = []
            flow_ptr: List[int] = [0]
            # Bulk-register ids first (two C-speed dict ops instead of a
            # membership probe plus a setitem per flow); a length mismatch
            # means a duplicate, identified on the cold path below.
            flow_ids = [flow.flow_id for flow in flows]
            before = len(flow_map)
            flow_map.update(zip(flow_ids, flows))
            if len(flow_map) != before + len(flows):
                seen: set = set()
                for flow_id in flow_ids:
                    if flow_id in seen or flow_id in path_rows:
                        raise ValueError(f"duplicate flow id {flow_id!r}")
                    seen.add(flow_id)
            rows_list: List[List[int]] = []
            for flow in flows:
                path = flow.path
                entry = rows_of_path.get(id(path))
                if entry is None:
                    rows = []
                    for link_id in path:
                        if link_id not in links:
                            raise KeyError(
                                f"flow {flow.flow_id} uses unknown link "
                                f"{link_id!r}"
                            )
                        row = row_of(link_id)
                        rows.append(
                            row if row is not None else self._row_for(link_id)
                        )
                    rows_of_path[id(path)] = (path, rows)
                else:
                    rows = entry[1]
                rows_list.append(rows)
                if fuse_csr:
                    flow_rows.extend(rows)
                    flow_ptr.append(len(flow_rows))
            path_rows.update(zip(flow_ids, rows_list))
            if fuse_csr:
                count = len(flows)
                self._ensure_native_buffers(count, len(flow_rows))
                self._ptr_buf[: len(flow_ptr)] = flow_ptr
                self._rows_buf[: len(flow_rows)] = flow_rows
                self._csr_flows = list(flows)
                if staged is not None:
                    self._thr_buf[:count] = staged[1]
                    # Fresh flows: remaining == size, so the mirror can be
                    # stamped now and the next batched advance skips its
                    # remaining-bytes gather entirely.
                    if len(self._rem_buf) < count:
                        self._rem_buf = np.empty(
                            max(count, 64), dtype=np.float64
                        )
                    self._rem_buf[:count] = staged[0]
                    rem_synced = True
                else:
                    self._thr_buf[:count] = [
                        flow._finish_threshold for flow in flows
                    ]
                self._active_buf[:count] = 1
                # Reuse one grown-geometric buffer for the group-slot vector
                # (it is all zeros or all -1 on this path — a task's batch is
                # one group); consumers treat it as read-only between adds.
                grp_cap = getattr(self, "_grp_cap_buf", None)
                if grp_cap is None or len(grp_cap) < count:
                    grp_cap = np.empty(
                        max(count, 64, 0 if grp_cap is None else 2 * len(grp_cap)),
                        dtype=np.int32,
                    )
                    self._grp_cap_buf = grp_cap
                if group is not None:
                    self._csr_groups = [group] * count
                    grp_cap[:count] = 0
                    self._grp_buf = grp_cap[:count]
                    self._grp_keys = [group]
                else:
                    self._csr_groups = [None] * count
                    grp_cap[:count] = -1
                    self._grp_buf = grp_cap[:count]
                    self._grp_keys = []
                self._csr_inactive = 0
                self._csr_valid = True
            else:
                self._csr_valid = False
        if group is not None:
            self._flow_group.update((flow.flow_id, group) for flow in flows)
            self._group_left[group] = self._group_left.get(group, 0) + len(flows)
        self._rem_synced = rem_synced
        self._rates_dirty = True

    def _forget_flow(self, flow: Flow) -> None:
        self._path_rows.pop(flow.flow_id)
        self._csr_valid = False
        self._rem_synced = False

    def _release_group(self, flow_id: str) -> None:
        group = self._flow_group.pop(flow_id, None)
        if group is None:
            return
        left = self._group_left[group] - 1
        if left:
            self._group_left[group] = left
        else:
            del self._group_left[group]
            self._drained_groups.append(group)

    def consume_drained_groups(self) -> List[object]:
        """Groups whose last flow finished since the previous call, in drain
        order.  The executor completes the owning comm tasks in this order —
        the same order its per-flow ownership maps used to produce."""
        drained = self._drained_groups
        if drained:
            self._drained_groups = []
        return drained

    def mark_topology_changed(self) -> None:
        """Signal that link capacities changed (forces a rate recomputation)."""
        self._rates_dirty = True
        if self.solver != "scalar":
            self._capacity_dirty = True

    # ------------------------------------------------------------ rate solver
    def compute_rates(self) -> None:
        """Max–min fair allocation; updates every flow's ``rate``."""
        self._sync_flow_attrs()
        if self.solver == "native":
            if self._capacity_dirty:
                self._refresh_capacities()
            self._solve_native()
        else:
            self._compute_rates_scalar()
        self._rates_dirty = False

    def _ensure_native_buffers(self, num_flows: int, nnz: int) -> None:
        """Grow the persistent CSR buffers, preserving their contents.

        Preservation matters for the incremental append path
        (:meth:`add_flows` onto a valid CSR), where existing entries stay
        live across a growth.
        """
        _, ffi = self._native_loaded
        if len(self._ptr_buf) < num_flows + 1:
            grown = np.zeros(max(2 * (num_flows + 1), 64), dtype=np.int32)
            grown[: len(self._ptr_buf)] = self._ptr_buf
            self._ptr_buf = grown
            self._ptr_ptr = ffi.cast("const int *", ffi.from_buffer(self._ptr_buf))
        if len(self._rows_buf) < nnz:
            grown = np.zeros(max(2 * nnz, 256), dtype=np.int32)
            grown[: len(self._rows_buf)] = self._rows_buf
            self._rows_buf = grown
            self._rows_ptr = ffi.cast("const int *", ffi.from_buffer(self._rows_buf))
        if len(self._rates_buf) < num_flows:
            grown = np.zeros(max(2 * num_flows, 64))
            grown[: len(self._rates_buf)] = self._rates_buf
            self._rates_buf = grown
            self._rates_ptr = ffi.cast("double *", ffi.from_buffer(self._rates_buf))
        if len(self._thr_buf) < num_flows:
            grown = np.zeros(max(2 * num_flows, 64))
            grown[: len(self._thr_buf)] = self._thr_buf
            self._thr_buf = grown
        if len(self._active_buf) < num_flows:
            grown = np.zeros(max(2 * num_flows, 64), dtype=np.uint8)
            grown[: len(self._active_buf)] = self._active_buf
            self._active_buf = grown

    def _native_ready(self) -> bool:
        """Lazily load the C kernel; degrade to ``scalar`` if unavailable."""
        if self.solver != "native":
            return False
        if self._native_loaded is None:
            from repro.sim._native import native_lib

            self._native_loaded = native_lib()
            if self._native_loaded is None:
                # Compiler/kernel unavailable after all; degrade gracefully.
                self.solver = "scalar"
                return False
        return True

    def _native_oom_fallback(self, entry_point: str) -> None:
        """The C kernel reported scratch-allocation failure (WF_OOM).

        Its rates are zeroed, not valid — previously this surfaced much later
        as an inexplicable executor "deadlock".  Demote to the scalar solver
        (the allocation would just fail again) and solve with it.
        """
        warnings.warn(
            f"native fluid kernel ({entry_point}) could not allocate scratch "
            f"memory; falling back to the scalar rate solver",
            RuntimeWarning,
            stacklevel=3,
        )
        self.solver = "scalar"
        self._compute_rates_scalar()

    def _rebuild_csr(self) -> None:
        """Refill the persistent CSR buffers from the current flow set."""
        # Deferred attributes must land before the layout shifts: the
        # mirror buffers are positional against the old _csr_flows.
        self._sync_flow_attrs()
        self._rem_synced = False  # positions shift under compaction
        flows = list(self._flows.values())
        path_rows = self._path_rows
        flow_ptr = [0]
        flow_rows: List[int] = []
        for flow in flows:
            flow_rows.extend(path_rows[flow.flow_id])
            flow_ptr.append(len(flow_rows))
        self._ensure_native_buffers(len(flows), len(flow_rows))
        self._ptr_buf[: len(flow_ptr)] = flow_ptr
        self._rows_buf[: len(flow_rows)] = flow_rows
        self._csr_flows = flows
        # Per-flow constants aligned with _csr_flows, gathered once per
        # rebuild instead of once per batch round: finish thresholds are
        # immutable, and a flow's group never changes while it is active.
        self._thr_buf[: len(flows)] = [flow._finish_threshold for flow in flows]
        self._active_buf[: len(flows)] = 1
        flow_group = self._flow_group
        if flow_group:
            self._csr_groups = [flow_group.get(flow.flow_id) for flow in flows]
            # Local group slots (-1 = ungrouped), remapped into the batch's
            # shared slot space with one vectorized add per round.
            slots: Dict[object, int] = {}
            grp_buf = np.full(len(flows), -1, dtype=np.int32)
            for position, key in enumerate(self._csr_groups):
                if key is None:
                    continue
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(slots)
                grp_buf[position] = slot
            self._grp_buf = grp_buf
            self._grp_keys = list(slots)
        else:
            self._csr_groups = [None] * len(flows)
            self._grp_buf = np.full(len(flows), -1, dtype=np.int32)
            self._grp_keys = []
        self._csr_inactive = 0
        self._csr_valid = True

    def _solve_native(self) -> None:
        """Feed the incremental incidence (as CSR arrays) to the C kernel."""
        if not self._native_ready():
            self._compute_rates_scalar()
            return
        lib, ffi = self._native_loaded
        if not self._flows:
            return
        if not self._csr_valid or self._csr_inactive:
            # The one-shot entry point has no active mask, so retired CSR
            # entries must be compacted away first.
            self._rebuild_csr()
        flows = self._csr_flows
        if self._cap_ptr is None:
            self._cap_ptr = ffi.cast("const double *", ffi.from_buffer(self._cap_arr))
        status = lib.waterfill(
            len(flows),
            len(self._link_ids),
            self._ptr_ptr,
            self._rows_ptr,
            self._cap_ptr,
            self._rates_ptr,
        )
        if status != 0:
            self._native_oom_fallback("waterfill")
            return
        for flow, rate in zip(flows, self._rates_buf[: len(flows)].tolist()):
            flow.rate = rate

    def _compute_rates_scalar(self) -> None:
        """Reference implementation: pure-Python progressive water-filling."""
        flows = list(self._flows.values())
        for flow in flows:
            flow.rate = 0.0
        if not flows:
            return

        link_capacity: Dict[str, float] = {}
        link_flows: Dict[str, List[Flow]] = {}
        for flow in flows:
            for link_id in flow.path:
                if link_id not in link_capacity:
                    link = self.region.links[link_id]
                    link_capacity[link_id] = max(0.0, link.capacity_gbps) * GBPS_TO_BYTES_PER_S
                    link_flows[link_id] = []
                link_flows[link_id].append(flow)

        unfrozen = set(f.flow_id for f in flows)
        residual = dict(link_capacity)
        active_on_link = {lid: len(fls) for lid, fls in link_flows.items()}

        while unfrozen:
            # Find the most constraining link among links carrying unfrozen flows.
            bottleneck_share = None
            bottleneck_link = None
            for link_id, count in active_on_link.items():
                if count <= 0:
                    continue
                share = residual[link_id] / count
                if bottleneck_share is None or share < bottleneck_share:
                    bottleneck_share = share
                    bottleneck_link = link_id
            if bottleneck_link is None:
                # No remaining constraints: unconstrained flows get "infinite"
                # rate; in practice every path has at least one finite link.
                for flow in flows:
                    if flow.flow_id in unfrozen:
                        flow.rate = float("inf")
                break
            share = max(0.0, bottleneck_share or 0.0)
            # Freeze every unfrozen flow crossing the bottleneck at this rate.
            for flow in link_flows[bottleneck_link]:
                if flow.flow_id not in unfrozen:
                    continue
                flow.rate = share
                unfrozen.discard(flow.flow_id)
                for link_id in flow.path:
                    residual[link_id] = max(0.0, residual[link_id] - share)
                    active_on_link[link_id] -= 1

    # ------------------------------------------------------------ progression
    def time_to_next_completion(self) -> Optional[float]:
        """Time until the first active flow finishes, or ``None`` if no flows."""
        self._sync_flow_attrs()
        if self._rates_dirty:
            self.compute_rates()
        best: Optional[float] = None
        for flow in self._flows.values():
            if flow.rate <= 0:
                continue
            dt = flow.remaining_bytes / flow.rate
            if best is None or dt < best:
                best = dt
        if self._flows and best is None:
            # Flows exist but none can make progress (all paths dark).
            return None
        return best

    def advance(self, dt: float) -> List[Flow]:
        """Advance all flows by ``dt`` seconds; return the flows that finished."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        self._sync_flow_attrs()
        if self._rates_dirty:
            self.compute_rates()
        self._rem_synced = False
        finished: List[Flow] = []
        scalar = self.solver == "scalar"
        for flow in list(self._flows.values()):
            rate = flow.rate
            if rate > 0:
                remaining = flow.remaining_bytes - rate * dt
                flow.remaining_bytes = remaining if remaining > 0.0 else 0.0
            if flow.remaining_bytes <= flow._finish_threshold:
                finished.append(flow)
                del self._flows[flow.flow_id]
                if not scalar:
                    self._forget_flow(flow)
                self._release_group(flow.flow_id)
        if finished:
            self._rates_dirty = True
        return finished

    def advance_through(
        self,
        now: float,
        budget: Optional[float] = None,
        max_steps: int = 5_000_000,
    ) -> "FlowAdvanceOutcome":
        """Run the solve → next-completion → advance loop to the next stop.

        Convenience wrapper over :func:`service_advance_requests` for a single
        network; see :class:`FlowAdvanceRequest` for the stop conditions.
        """
        return service_advance_requests(
            [FlowAdvanceRequest(self, now, budget, max_steps)]
        )[0]


# --------------------------------------------------------------- folded advance
@dataclass
class FlowAdvanceRequest:
    """One network's slice of a folded advance (see DESIGN.md §6).

    Asks for the network to be advanced from ``now`` through consecutive flow
    completions until one of the stop conditions of :class:`FlowAdvanceOutcome`
    is reached.  ``budget`` is the absolute time of the next timed event
    (``None`` when none is pending): the loop stops *before* consuming a
    completion at or past it, because timed events win ties in the executor.
    """

    network: FluidNetwork
    now: float
    budget: Optional[float] = None
    max_steps: int = 5_000_000


@dataclass
class FlowAdvanceOutcome:
    """What happened to one network during a folded advance.

    Attributes:
        now: Simulated time after the last consumed completion.
        finished: Flows that completed, in completion (then flow) order.
        next_flow: Absolute time of the first unconsumed completion when the
            stop reason is ``"budget"``; ``None`` otherwise.
        steps: Flow-completion events consumed.
        reason: ``"budget"`` (next completion at/after the budget),
            ``"group"`` (a flow group drained — its owner needs Python),
            ``"stall"`` (flows exist but none can progress),
            ``"steps"`` (``max_steps`` exhausted), or ``"idle"`` (no flows).
        solve_rounds: Water-filling rounds the native kernel executed for
            this network (0 on the Python paths — a solver-cost counter, not
            part of the simulation result).
        rounds_replayed: Rounds the native kernel inherited from the
            carried freeze record instead of re-executing (0 on the Python
            paths).
    """

    now: float
    finished: List[Flow]
    next_flow: Optional[float]
    steps: int
    reason: str
    solve_rounds: int = 0
    rounds_replayed: int = 0


#: waterfill_batch stop codes, in C enum order (WF_STOP_*).
_STOP_REASONS = ("budget", "group", "stall", "steps")


def service_advance_requests(
    requests: Sequence[FlowAdvanceRequest],
) -> List[FlowAdvanceOutcome]:
    """Advance many fluid networks at once — the folded execution core.

    Networks backed by the native solver are stacked into one block-diagonal
    CSR and advanced by a single ``waterfill_batch`` call (no Python between
    their flow events); the rest run an equivalent per-network Python loop.
    Blocks are independent (no shared links), so batch results are
    bit-identical to advancing each network alone.
    """
    outcomes: List[Optional[FlowAdvanceOutcome]] = [None] * len(requests)
    native_indices: List[int] = []
    for index, request in enumerate(requests):
        network = request.network
        if not network._flows:
            outcomes[index] = FlowAdvanceOutcome(request.now, [], None, 0, "idle")
        elif network._native_ready():
            native_indices.append(index)
        else:
            outcomes[index] = _advance_python(request)
    if native_indices:
        batch = _advance_native_batch([requests[i] for i in native_indices])
        if batch is None:
            # Kernel scratch OOM (already warned): nothing was touched, so the
            # Python loop can service each request from the same state.
            batch = [_advance_python(requests[i]) for i in native_indices]
        for index, outcome in zip(native_indices, batch):
            outcomes[index] = outcome
    return outcomes  # type: ignore[return-value]


def _advance_python(request: FlowAdvanceRequest) -> FlowAdvanceOutcome:
    """Reference implementation of one folded advance, via the public
    per-event primitives (so it works with every solver)."""
    network = request.network
    now = request.now
    finished: List[Flow] = []
    steps = 0
    while True:
        dt = network.time_to_next_completion()
        if dt is None:
            reason = "stall" if network._flows else "idle"
            return FlowAdvanceOutcome(now, finished, None, steps, reason)
        at = now + dt
        if request.budget is not None and request.budget <= at:
            return FlowAdvanceOutcome(now, finished, at, steps, "budget")
        if steps >= request.max_steps:
            return FlowAdvanceOutcome(now, finished, None, steps, "steps")
        drained_before = len(network._drained_groups)
        finished.extend(network.advance(dt))
        now = at
        steps += 1
        if len(network._drained_groups) > drained_before:
            return FlowAdvanceOutcome(now, finished, None, steps, "group")


class _BatchScratch:
    """Persistent assembly buffers for :func:`_advance_native_batch`.

    A folded sweep calls the batch advance hundreds of times with
    near-constant sizes; rebuilding the stacked CSR out of per-network
    ``np.concatenate`` temporaries dominated the Python side of the call.
    Buffers grow geometrically, never shrink, and are filled in place via
    slice views each call.  Like the fluid networks themselves the scratch is
    single-threaded per process (pool workers are separate processes), and
    :func:`_advance_native_batch` is not reentrant anyway — the kernel call
    consumes the buffers before returning.
    """

    __slots__ = ("_arrays", "_ptrs")

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}
        self._ptrs: Dict[str, object] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` contiguous view of the named buffer (uninitialised)."""
        array = self._arrays.get(name)
        if array is None or len(array) < size:
            capacity = max(size, 64)
            if array is not None:
                capacity = max(capacity, 2 * len(array))
            array = np.empty(capacity, dtype=dtype)
            self._arrays[name] = array
            self._ptrs.pop(name, None)  # pointed into the replaced array
        return array[:size]

    def ptr(self, ffi, name: str, ctype: str):
        """Cached cffi pointer to the named buffer's base.

        Buffers are stable between reallocations, so the (measurably
        non-free) ``ffi.from_buffer``/``ffi.cast`` pair runs once per growth
        instead of once per kernel call; :meth:`get` drops the cached
        pointer whenever it replaces the backing array.  The cdata keeps the
        array alive, never the reverse.
        """
        pointer = self._ptrs.get(name)
        if pointer is None:
            pointer = ffi.cast(ctype, ffi.from_buffer(self._arrays[name]))
            self._ptrs[name] = pointer
        return pointer


_BATCH_SCRATCH = _BatchScratch()


def _advance_native_batch(
    requests: Sequence[FlowAdvanceRequest],
) -> Optional[List[FlowAdvanceOutcome]]:
    """Advance all requests with one ``waterfill_batch`` call.

    Returns ``None`` (after warning) if the kernel reports scratch OOM; the
    networks are untouched in that case.
    """
    lib, ffi = requests[0].network._native_loaded
    num_blocks = len(requests)
    scratch = _BATCH_SCRATCH
    block_flows = scratch.get("block_flows", num_blocks + 1, np.int32)
    block_rows = scratch.get("block_rows", num_blocks + 1, np.int32)
    block_flows[0] = 0
    block_rows[0] = 0
    # First pass: bring every block's CSR up to date and size the batch.
    blocks: List[Tuple[FluidNetwork, List[Flow], int, int]] = []
    flow_base = row_base = nnz_base = group_total = 0
    for index, request in enumerate(requests):
        network = request.network
        if network._capacity_dirty:
            network._refresh_capacities()
        if (
            not network._csr_valid
            or 2 * network._csr_inactive > len(network._csr_flows)
        ):
            network._rebuild_csr()
        flows = network._csr_flows
        num_flows = len(flows)
        nnz = int(network._ptr_buf[num_flows])
        blocks.append((network, flows, num_flows, nnz))
        flow_base += num_flows
        row_base += len(network._link_ids)
        nnz_base += nnz
        group_total += len(network._grp_keys)
        block_flows[index + 1] = flow_base
        block_rows[index + 1] = row_base

    total_flows, total_rows, total_nnz = flow_base, row_base, nnz_base
    flow_ptr = scratch.get("flow_ptr", total_flows + 1, np.int32)
    flow_rows = scratch.get("flow_rows", total_nnz, np.int32)
    caps = scratch.get("caps", total_rows, np.float64)
    remaining = scratch.get("remaining", total_flows, np.float64)
    threshold = scratch.get("threshold", total_flows, np.float64)
    group_of = scratch.get("group_of", total_flows, np.int32)
    active = scratch.get("active", total_flows, np.uint8)
    rates = scratch.get("rates", total_flows, np.float64)
    finished = scratch.get("finished", total_flows, np.int32)

    # Second pass: stack each block into the scratch slices, offsetting row
    # and nnz indices into batch coordinates.
    flow_ptr[0] = 0
    group_left = scratch.get("group_left", max(group_total, 1), np.int32)
    group_fill = 0
    block_flow_lists: List[List[Flow]] = []
    flow_base = row_base = nnz_base = 0
    for network, flows, num_flows, nnz in blocks:
        flow_slice = slice(flow_base, flow_base + num_flows)
        np.add(
            network._ptr_buf[1 : num_flows + 1],
            nnz_base,
            out=flow_ptr[flow_base + 1 : flow_base + 1 + num_flows],
        )
        np.add(
            network._rows_buf[:nnz],
            row_base,
            out=flow_rows[nnz_base : nnz_base + nnz],
        )
        caps[row_base : row_base + len(network._link_ids)] = network._cap_arr
        if network._rem_synced:
            # The previous batch call wrote this block's post-advance
            # remaining bytes back into the network's buffer and nothing
            # mutated flows since: an array copy replaces the per-flow
            # attribute gather.
            remaining[flow_slice] = network._rem_buf[:num_flows]
        else:
            remaining[flow_slice] = np.fromiter(
                (flow.remaining_bytes for flow in flows), np.float64, num_flows
            )
        threshold[flow_slice] = network._thr_buf[:num_flows]
        active[flow_slice] = network._active_buf[:num_flows]
        grp_buf = network._grp_buf
        group_view = group_of[flow_slice]
        group_view[:] = grp_buf
        if network._grp_keys:
            slot_base = group_fill
            network_left = network._group_left
            # A key can be gone from _group_left once its group drained; its
            # flows are all inactive then, so the kernel never consults the
            # placeholder count.
            for key in network._grp_keys:
                group_left[group_fill] = network_left.get(key, 0)
                group_fill += 1
            if slot_base:
                np.add(group_view, slot_base, out=group_view, where=grp_buf >= 0)
        block_flow_lists.append(flows)
        flow_base += num_flows
        row_base += len(network._link_ids)
        nnz_base += nnz
    now_arr = scratch.get("now", num_blocks, np.float64)
    budget = scratch.get("budget", num_blocks, np.float64)
    max_steps = scratch.get("max_steps", num_blocks, np.int32)
    for index, request in enumerate(requests):
        now_arr[index] = request.now
        budget[index] = np.inf if request.budget is None else request.budget
        max_steps[index] = request.max_steps
    # Output buffers the kernel accumulates into (vs. assigns) start zeroed.
    rates[:] = 0.0
    finished_count = scratch.get("finished_count", num_blocks, np.int32)
    finished_count[:] = 0
    next_flow = scratch.get("next_flow", num_blocks, np.float64)
    next_flow[:] = 0.0
    steps = scratch.get("steps", num_blocks, np.int32)
    steps[:] = 0
    stop_reason = scratch.get("stop_reason", num_blocks, np.int32)
    stop_reason[:] = 0
    solve_rounds = scratch.get("solve_rounds", num_blocks, np.int32)
    rounds_replayed = scratch.get("rounds_replayed", num_blocks, np.int32)

    status = lib.waterfill_batch(
        num_blocks,
        scratch.ptr(ffi, "block_flows", "const int *"),
        scratch.ptr(ffi, "block_rows", "const int *"),
        scratch.ptr(ffi, "flow_ptr", "const int *"),
        scratch.ptr(ffi, "flow_rows", "const int *"),
        scratch.ptr(ffi, "caps", "const double *"),
        scratch.ptr(ffi, "remaining", "double *"),
        scratch.ptr(ffi, "threshold", "const double *"),
        scratch.ptr(ffi, "group_of", "const int *"),
        scratch.ptr(ffi, "group_left", "int *"),
        scratch.ptr(ffi, "now", "double *"),
        scratch.ptr(ffi, "budget", "const double *"),
        scratch.ptr(ffi, "rates", "double *"),
        scratch.ptr(ffi, "active", "unsigned char *"),
        scratch.ptr(ffi, "finished", "int *"),
        scratch.ptr(ffi, "finished_count", "int *"),
        scratch.ptr(ffi, "next_flow", "double *"),
        scratch.ptr(ffi, "steps", "int *"),
        scratch.ptr(ffi, "stop_reason", "int *"),
        scratch.ptr(ffi, "max_steps", "const int *"),
        scratch.ptr(ffi, "solve_rounds", "int *"),
        scratch.ptr(ffi, "rounds_replayed", "int *"),
    )
    if status != 0:
        warnings.warn(
            "native fluid kernel (waterfill_batch) could not allocate scratch "
            "memory; falling back to the Python advance loop",
            RuntimeWarning,
            stacklevel=3,
        )
        return None

    outcomes: List[FlowAdvanceOutcome] = []
    for index in range(num_blocks):
        network = requests[index].network
        flows = block_flow_lists[index]
        base = int(block_flows[index])
        count = len(flows)
        # Surviving flows' attributes are deferred: the post-advance rates
        # and remaining bytes land in the network's mirror buffers and are
        # written back lazily by _sync_flow_attrs() on the next Python-path
        # access (never, for the common fully-drained folded block).
        if len(network._rem_buf) < count:
            network._rem_buf = np.empty(max(count, 64), dtype=np.float64)
        if len(network._rate_buf) < count:
            network._rate_buf = np.empty(max(count, 64), dtype=np.float64)
        network._rem_buf[:count] = remaining[base : base + count]
        network._rate_buf[:count] = rates[base : base + count]
        network._rem_synced = True
        network._attrs_synced = False
        done: List[Flow] = []
        retired = int(finished_count[index])
        if retired:
            # Retired flows keep their CSR positions (masked inactive) so
            # the block's layout survives into the next round without a
            # rebuild; _path_rows upkeep is what _forget_flow would do.
            network._active_buf[:count] = active[base : base + count]
            network._csr_inactive += retired
            network_flows = network._flows
            path_rows = network._path_rows
            flow_group = network._flow_group
            group_left_map = network._group_left
            rate_list = rates[base : base + count].tolist()
            rem_list = remaining[base : base + count].tolist()
            for fi in finished[base : base + retired].tolist():
                slot_index = fi - base
                flow = flows[slot_index]
                # Retired flows leave _csr_flows' active set, so the lazy
                # sync will never visit them: stamp their final attributes
                # here (same values the eager writeback used to assign).
                flow.rate = rate_list[slot_index]
                flow.remaining_bytes = rem_list[slot_index]
                done.append(flow)
                flow_id = flow.flow_id
                del network_flows[flow_id]
                path_rows.pop(flow_id)
                # Inline _release_group: this loop retires every flow of the
                # run on the folded path.
                group = flow_group.pop(flow_id, None)
                if group is not None:
                    left = group_left_map[group] - 1
                    if left:
                        group_left_map[group] = left
                    else:
                        del group_left_map[group]
                        network._drained_groups.append(group)
        reason = _STOP_REASONS[int(stop_reason[index])]
        if reason == "stall" and not network._flows:
            reason = "idle"
        # After a budget/stall stop the last solve covered exactly the
        # surviving flow set, so its rates can be reused (e.g. by the timed
        # branch's advance()); after a group/steps stop the flow set changed.
        network._rates_dirty = reason not in ("budget", "stall")
        first_unconsumed = float(next_flow[index])
        outcomes.append(
            FlowAdvanceOutcome(
                now=float(now_arr[index]),
                finished=done,
                next_flow=None if first_unconsumed == np.inf else first_unconsumed,
                steps=int(steps[index]),
                reason=reason,
                solve_rounds=int(solve_rounds[index]),
                rounds_replayed=int(rounds_replayed[index]),
            )
        )
    return outcomes


def total_path_bytes(flows: Iterable[Flow]) -> Dict[str, float]:
    """Aggregate bytes traversing each link (used for link-utilisation stats)."""
    usage: Dict[str, float] = {}
    for flow in flows:
        for link_id in flow.path:
            usage[link_id] = usage.get(link_id, 0.0) + flow.size_bytes
    return usage
