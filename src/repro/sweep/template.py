"""Structural template cache: amortise config materialisation (DESIGN.md §8).

All configurations sharing a :meth:`~repro.sweep.spec.SweepConfig.structural_key`
build the *same* parameter-independent artifacts — parallelism plan and EP
group layout, fabric region graph and routing path tables, analytic compute
profile, Algorithm 1 circuit allocations for the memoised demand record,
TopoOpt profiled-demand hints — and differ only in numerics (bandwidths,
delays, seeds, policies already being part of the key).  A
:class:`StructuralTemplate` is built lazily, once per structural key, and a
:class:`~repro.core.runtime.TrainingSimulator` constructed with
``template=...`` consults it instead of recomputing; what cannot be shared
outright (a region whose link capacities failures and circuit installs
mutate) is *stamped*: cloned from a blueprint with fresh numeric state but
shared structure (path lists, server lists), so instantiation is O(stamp)
rather than O(rebuild).

Invalidation is the structural key itself: every memo inside a template is
additionally keyed by the stamped axes that influence it (seed for demand,
NIC bandwidth and optical degree for allocations, micro-batch size for
profiles), so a template can never serve a value computed for different
numerics.  Templates hold *only* values that are pure functions of
their keys; sharing them across configs is therefore bit-identity-preserving
by construction, and the differential tests in
``tests/test_sweep_template.py`` enforce it against from-scratch
materialisation.

Two tiers:

* a process-wide in-memory cache (:func:`get_template`), capped, cleared via
  :func:`clear_template_cache`;
* an optional content-addressed on-disk store (:class:`TemplateStore`)
  keyed by the hash of the structural key, holding the *expensive* numeric
  artifacts (circuit allocations, profiled-demand hints) as schema-versioned
  JSON next to the result cache.  Corrupt, missing or stale entries are
  silently recomputed — the store is an accelerator, never a correctness
  dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.caches import register_cache
from repro.core.reconfigure import CircuitAllocation

#: Bumped whenever the on-disk template payload layout (or the meaning of a
#: memo key inside it) changes; mismatched payloads are recomputed.  v2: the
#: allocation memo key no longer carries an Algorithm 1 implementation name.
TEMPLATE_SCHEMA_VERSION = 2

#: Process-wide template cache, keyed by structural key.
_TEMPLATE_CACHE: Dict[tuple, "StructuralTemplate"] = {}
_TEMPLATE_CACHE_LIMIT = 32

#: How templates used by this process were obtained (reset with
#: :func:`clear_template_cache`): ``built`` from scratch, ``memory`` from the
#: process cache, ``disk`` seeded from a :class:`TemplateStore` payload.
TEMPLATE_STATS: Dict[str, int] = {"built": 0, "memory": 0, "disk": 0}

#: Per-template memo caps.  Templates are long-lived (the point), so every
#: internal dict is bounded, mirroring the process-wide caches in
#: ``repro.core.runtime`` / ``repro.moe.gate``: clear-on-full, which is
#: harmless (entries are recomputable) and keeps a sweep service flat.
_REGION_LIMIT = 8
_ALLOCATION_LIMIT = 512
_PROFILE_LIMIT = 16
_HINT_LIMIT = 16
_RECORD_LIMIT = 16
_ADMISSION_LIMIT = 512


def structural_hash(key: Sequence[object]) -> str:
    """Stable content hash of a structural key (the on-disk address)."""
    canonical = json.dumps(
        {"schema": TEMPLATE_SCHEMA_VERSION, "key": list(key)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


def _allocation_to_payload(allocation: CircuitAllocation) -> Dict[str, object]:
    """JSON form of an allocation, order-preserving.

    ``circuits`` iteration order matters downstream — it decides the order
    optical links are added to a region and therefore the CSR row order of
    the fluid network — so it is serialised as a list of triples in dict
    order, not sorted.  JSON round-trips Python floats exactly (repr-based),
    so a disk-loaded allocation is bit-identical to the computed one.
    """
    return {
        "servers": list(allocation.servers),
        "circuits": [[a, b, n] for (a, b), n in allocation.circuits.items()],
        "nic_mapping": [
            [[sa, na], [sb, nb]] for (sa, na), (sb, nb) in allocation.nic_mapping
        ],
        "completion_time_estimate": allocation.completion_time_estimate,
        "iterations": allocation.iterations,
    }


def _allocation_from_payload(payload: Dict[str, object]) -> CircuitAllocation:
    return CircuitAllocation(
        servers=tuple(payload["servers"]),
        circuits={(a, b): n for a, b, n in payload["circuits"]},
        nic_mapping=[
            ((sa, na), (sb, nb)) for (sa, na), (sb, nb) in payload["nic_mapping"]
        ],
        completion_time_estimate=float(payload["completion_time_estimate"]),
        iterations=int(payload["iterations"]),
    )


class StructuralTemplate:
    """Parameter-independent artifacts of one structural key, built lazily.

    Every public method is a get-or-compute memo whose key includes the
    stamped axes the value depends on; the structural axes are implied by the
    template's identity.  Values are treated as immutable by all consumers.
    """

    def __init__(self, key: tuple) -> None:
        self.key = key
        #: Set when a memo gained an entry worth persisting; cleared by
        #: :meth:`TemplateStore.save`.
        self.dirty = False
        self._plan = None
        self._group_ranks = None
        self._region_servers: Optional[List[int]] = None
        self._regions: Dict[tuple, object] = {}
        self._profiles: Dict[tuple, object] = {}
        self._allocations: Dict[str, CircuitAllocation] = {}
        self._hints: Dict[str, np.ndarray] = {}
        self._records: Dict[tuple, object] = {}
        self._admissions: Dict[tuple, object] = {}

    # ---------------------------------------------------------------- layout
    def layout(self, model, cluster) -> Tuple[object, object, List[int]]:
        """(parallelism plan, EP group ranks, region servers) — structural.

        Computed from the first stamped config; the plan depends only on
        model and cluster *shape* (degrees, GPU counts), which the structural
        key fixes, so sharing it across bandwidth/seed variants is exact.
        """
        if self._plan is None:
            from repro.moe.parallelism import ParallelismPlan

            plan = ParallelismPlan(model, cluster)
            group = plan.ep_groups()[0]
            self._plan = plan
            self._group_ranks = group
            self._region_servers = cluster.servers_of_gpus(group)
        return self._plan, self._group_ranks, self._region_servers

    # ---------------------------------------------------------------- region
    def region(
        self,
        fabric,
        servers: Sequence[int],
        nic_bandwidth_gbps: float,
        seed: Optional[int] = None,
        demand_hint: Optional[np.ndarray] = None,
    ):
        """A fresh region stamped from a per-(bandwidth[, seed]) blueprint.

        The blueprint is built once via ``fabric.build_region`` and cloned
        per config (:meth:`~repro.fabric.base.RegionNetwork.clone`): fresh
        ``Link`` objects (failure effects and circuit installs mutate
        capacities) around shared, content-stable path lists — which is what
        keeps the fluid network's id-keyed CSR row caches warm across the
        fold.  Demand-aware fabrics (TopoOpt) key the blueprint by seed too,
        because the profiled hint shapes the wiring.
        """
        key = (nic_bandwidth_gbps, seed if demand_hint is not None else None)
        blueprint = self._regions.get(key)
        if blueprint is None:
            if demand_hint is not None:
                blueprint = fabric.build_region(servers, demand_hint=demand_hint)
            else:
                blueprint = fabric.build_region(servers)
            if len(self._regions) >= _REGION_LIMIT:
                self._regions.clear()
            self._regions[key] = blueprint
        return blueprint.clone()

    # --------------------------------------------------------------- profile
    def block_profile(self, profiler, model, mbs: int):
        """Analytic per-block compute profile, shared across variants."""
        key = (profiler.gpu, mbs)
        profile = self._profiles.get(key)
        if profile is None:
            profile = profiler.block_profile(model, mbs)
            if len(self._profiles) >= _PROFILE_LIMIT:
                self._profiles.clear()
            self._profiles[key] = profile
        return profile

    # ----------------------------------------------------------- allocations
    @staticmethod
    def _allocation_key(parts: Sequence[object]) -> str:
        return json.dumps(list(parts), separators=(",", ":"))

    def allocation(self, parts: Sequence[object]) -> Optional[CircuitAllocation]:
        """Look up a memoised Algorithm 1 result (exact or uniform plan)."""
        return self._allocations.get(self._allocation_key(parts))

    def store_allocation(
        self, parts: Sequence[object], allocation: CircuitAllocation
    ) -> None:
        if len(self._allocations) >= _ALLOCATION_LIMIT:
            self._allocations.clear()
        self._allocations[self._allocation_key(parts)] = allocation
        self.dirty = True

    # ----------------------------------------------------------- demand hints
    def demand_hint(self, seed: int, layers: Sequence[int]) -> Optional[np.ndarray]:
        """TopoOpt profiled-average-demand hint for one seed (read-only)."""
        return self._hints.get(self._allocation_key([seed, list(layers)]))

    def store_demand_hint(
        self, seed: int, layers: Sequence[int], hint: np.ndarray
    ) -> None:
        hint = np.asarray(hint, dtype=np.float64)
        hint.setflags(write=False)
        if len(self._hints) >= _HINT_LIMIT:
            self._hints.clear()
        self._hints[self._allocation_key([seed, list(layers)])] = hint
        self.dirty = True

    # ---------------------------------------------------------------- records
    def record(self, key: tuple):
        """A pinned demand record (survives `_RECORD_CACHE` cap clears)."""
        return self._records.get(key)

    def pin_record(self, key: tuple, record) -> None:
        if key in self._records:
            return
        if len(self._records) >= _RECORD_LIMIT:
            self._records.clear()
        self._records[key] = record

    # ------------------------------------------------------------- admissions
    def admission(self, key: tuple):
        """A staged :class:`~repro.sim.dag.AdmissionPlan` (DESIGN.md §10).

        The key carries every stamped axis the plan depends on — task id,
        seed, micro-batch size, both collective efficiencies and the set of
        circuit-holding pairs — so two configs share a plan exactly when the
        executor's from-scratch admission loop would produce the same flows.
        In-memory only: plans rebuild in microseconds, so persisting them
        would bloat the store for no win.
        """
        return self._admissions.get(key)

    def store_admission(self, key: tuple, plan) -> None:
        if len(self._admissions) >= _ADMISSION_LIMIT:
            self._admissions.clear()
        self._admissions[key] = plan

    # ---------------------------------------------------------- serialisation
    def to_payload(self) -> Dict[str, object]:
        """The on-disk tier persists only the expensive numeric artifacts
        (allocations, demand hints); graphs and plans rebuild quickly and
        would bloat the store."""
        return {
            "schema": TEMPLATE_SCHEMA_VERSION,
            "key": list(self.key),
            "allocations": {
                key: _allocation_to_payload(allocation)
                for key, allocation in self._allocations.items()
            },
            "demand_hints": {
                key: np.asarray(hint).tolist() for key, hint in self._hints.items()
            },
        }

    def absorb_payload(self, payload: Dict[str, object]) -> None:
        """Seed the memos from a store payload (validated by the store)."""
        for key, entry in payload.get("allocations", {}).items():
            if len(self._allocations) >= _ALLOCATION_LIMIT:
                break
            self._allocations[key] = _allocation_from_payload(entry)
        for key, entry in payload.get("demand_hints", {}).items():
            if len(self._hints) >= _HINT_LIMIT:
                break
            hint = np.asarray(entry, dtype=np.float64)
            hint.setflags(write=False)
            self._hints[key] = hint


class TemplateStore:
    """Content-addressed on-disk template tier (second level of the cache).

    One JSON document per structural key, addressed by
    :func:`structural_hash`, written atomically (temp file + ``os.replace``,
    like the result cache).  Every load failure — missing file, truncated or
    corrupt JSON, schema or key mismatch — degrades to ``None`` so the
    caller rebuilds from scratch; the store can be deleted at any time.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, key: Sequence[object]) -> str:
        return os.path.join(self.root, f"{structural_hash(key)}.json")

    def load(self, key: Sequence[object]) -> Optional[Dict[str, object]]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("schema") != TEMPLATE_SCHEMA_VERSION:
                return None
            if payload.get("key") != list(key):  # hash collision / stale file
                return None
            # Validate the expensive parts eagerly so a corrupt entry fails
            # here (and is ignored) rather than mid-sweep.
            for entry in payload.get("allocations", {}).values():
                _allocation_from_payload(entry)
            return payload
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def save(self, template: StructuralTemplate) -> None:
        os.makedirs(self.root, exist_ok=True)
        path = self.path_for(template.key)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(template.to_payload(), handle, separators=(",", ":"))
            os.replace(tmp_path, path)
            template.dirty = False
        except OSError:
            pass  # best-effort tier; never fail a sweep over it
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)


def get_template(
    key: tuple, store: Optional[TemplateStore] = None
) -> Tuple[StructuralTemplate, str]:
    """Get-or-create the template of one structural key.

    Returns ``(template, source)`` where ``source`` is ``"memory"`` (process
    cache hit), ``"disk"`` (fresh template seeded from the store) or
    ``"built"`` (fresh and empty).  Stats accumulate in
    :data:`TEMPLATE_STATS` for the CLI ``--profile`` report and the CI
    warm-cache smoke.
    """
    template = _TEMPLATE_CACHE.get(key)
    if template is not None:
        TEMPLATE_STATS["memory"] += 1
        return template, "memory"
    template = StructuralTemplate(key)
    source = "built"
    if store is not None:
        payload = store.load(key)
        if payload is not None:
            template.absorb_payload(payload)
            template.dirty = False
            source = "disk"
    TEMPLATE_STATS[source] += 1
    if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_LIMIT:
        _TEMPLATE_CACHE.clear()
    _TEMPLATE_CACHE[key] = template
    return template, source


def clear_template_cache() -> None:
    """Drop every in-memory template and reset the source counters."""
    _TEMPLATE_CACHE.clear()
    for name in TEMPLATE_STATS:
        TEMPLATE_STATS[name] = 0


def _memo_family(attr: str):
    """(clear, size) hooks over one instance-memo dict of every live template.

    The per-:class:`StructuralTemplate` memos are not module-level stores, so
    they register as a *family*: clearing walks the templates currently in
    :data:`_TEMPLATE_CACHE` (templates outside it die with their owner), and
    the cap is enforced per instance by the accessor methods.
    """

    def _clear() -> None:
        for template in _TEMPLATE_CACHE.values():
            getattr(template, attr).clear()

    def _size() -> int:
        return sum(len(getattr(t, attr)) for t in _TEMPLATE_CACHE.values())

    return _clear, _size


register_cache(
    "repro.sweep.template._TEMPLATE_CACHE",
    _TEMPLATE_CACHE,
    axes=(
        "fabric",
        "model",
        "first_a2a_policy",
        "failure",
        "num_servers",
        "ocs_nics",
    ),
    cap=_TEMPLATE_CACHE_LIMIT,
    doc="Structural templates keyed by SweepConfig.structural_key; every "
    "value inside is additionally keyed by its stamped axes.",
    clear=clear_template_cache,
)

_regions_clear, _regions_size = _memo_family("_regions")
register_cache(
    "repro.sweep.template.StructuralTemplate._regions",
    axes=("nic_bandwidth_gbps", "seed"),
    cap=_REGION_LIMIT,
    doc="Fabric region blueprints, stamped per config via clone().",
    clear=_regions_clear,
    size=_regions_size,
)
_profiles_clear, _profiles_size = _memo_family("_profiles")
register_cache(
    "repro.sweep.template.StructuralTemplate._profiles",
    axes=("gpu", "micro_batch_size"),
    cap=_PROFILE_LIMIT,
    doc="Analytic per-block compute profiles.",
    clear=_profiles_clear,
    size=_profiles_size,
)
_allocations_clear, _allocations_size = _memo_family("_allocations")
register_cache(
    "repro.sweep.template.StructuralTemplate._allocations",
    axes=(
        "seed",
        "micro_batch_size",
        "optical_degree",
        "nic_bandwidth_gbps",
    ),
    cap=_ALLOCATION_LIMIT,
    doc="Algorithm 1 circuit allocations for the memoised demand record "
    "(exact and uniform plans).",
    clear=_allocations_clear,
    size=_allocations_size,
)
_hints_clear, _hints_size = _memo_family("_hints")
register_cache(
    "repro.sweep.template.StructuralTemplate._hints",
    axes=("seed", "layers"),
    cap=_HINT_LIMIT,
    doc="TopoOpt profiled-average demand hints (read-only arrays).",
    clear=_hints_clear,
    size=_hints_size,
)
_admissions_clear, _admissions_size = _memo_family("_admissions")
register_cache(
    "repro.sweep.template.StructuralTemplate._admissions",
    axes=(
        "task_id",
        "seed",
        "micro_batch_size",
        "ocs_collective_efficiency",
        "eps_collective_efficiency",
        "circuit_pairs",
    ),
    cap=_ADMISSION_LIMIT,
    doc="Staged flow-admission plans (pre-filtered flow tuples with resolved "
    "route keys and flow ids) stamped into COMM tasks at DAG-build time.",
    clear=_admissions_clear,
    size=_admissions_size,
)
_records_clear, _records_size = _memo_family("_records")
register_cache(
    "repro.sweep.template.StructuralTemplate._records",
    axes=("model", "seed", "iteration"),
    cap=_RECORD_LIMIT,
    doc="Demand records pinned past _RECORD_CACHE cap clears.",
    clear=_records_clear,
    size=_records_size,
)
