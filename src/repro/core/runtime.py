"""End-to-end training-iteration simulation on any fabric.

This is the glue that reproduces the paper's large-scale evaluation: it builds
the task DAG of one pipeline stage's forward and backward pass (Figure 1b /
Figure 20), routes every collective through the fabric under test, lets the
MixNet topology controller reconfigure the regional OCS where the fabric
supports it, executes the DAG on the fluid network simulator, and composes the
result into a full iteration time using the standard pipeline-parallel
schedule plus the (deterministic) DP all-reduce and PP transfers.

Scaling note: a regional OCS only ever spans one EP group (§4.2), and EP
groups in different regions use disjoint OCS slices and disjoint server
uplinks, so the simulator models one representative region in detail and
scales throughput by the number of data-parallel replicas — see DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.core.caches import clear_all_caches, register_cache
from repro.core.collective import (
    ep_all_to_all_flows,
    tp_all_reduce_time,
)
from repro.core.controller import RegionalTopologyController
from repro.core.failures import (
    FailureEffects,
    FailureScenario,
    apply_effects_to_region,
    resolve_effects,
)
from repro.core.reconfigure import CircuitAllocation
from repro.fabric.base import Fabric, RegionNetwork
from repro.fabric.mixnet import MixNetFabric, MixNetRegionNetwork
from repro.fabric.topoopt import TopoOptFabric
from repro.moe.models import MoEModelConfig
from repro.moe.parallelism import ParallelismPlan
from repro.moe.profile import ComputeProfiler
from repro.moe.trace import IterationRecord, generate_trace
from repro.moe.traffic import activation_bytes, dp_bytes_per_gpu
from repro.sim.dag import AdmissionPlan, RouteKind, TaskGraph
from repro.sim.executor import Executor

#: Policies for handling the forward pass's first all-to-all (§5.1, §B.2).
FIRST_A2A_POLICIES = ("block", "reuse", "copilot")

#: Memoised synthetic demand records, keyed by (model, seed, iteration).
_RECORD_CACHE: Dict[tuple, IterationRecord] = {}
_RECORD_CACHE_LIMIT = 64

#: Memoised base (pre-adjustment) EP all-to-all expansions.  The expansion
#: is determined by (model, seed, micro-batch scale, layer, transpose,
#: cluster shape); a folded sweep rebuilds it for every fabric × policy ×
#: bandwidth variant otherwise.  Entries are treated as immutable.
_BASE_FLOW_CACHE: Dict[tuple, List] = {}

#: Memoised adjusted (efficiency-inflated) EP flow lists.  Beyond the base
#: key, the adjustment depends only on the concurrency factor, the two
#: collective efficiencies and *which server pairs hold a circuit* — so a
#: static fabric shares one entry across bandwidths and policies, and two
#: MixNet configs whose allocators picked the same circuits share too.
#: Entries are treated as immutable.
_ADJUSTED_FLOW_CACHE: Dict[tuple, List] = {}
_FLOW_CACHE_LIMIT = 1024

#: Memoised TopoOpt profiled-average demand matrices, keyed by
#: (model, seed, stage layers).  The 3-iteration profiling trace behind them
#: was recomputed per simulator instance before; it is a pure function of
#: the key, so every TopoOpt config of a sweep shares one (read-only) entry.
_PROFILED_DEMAND_CACHE: Dict[tuple, np.ndarray] = {}
_PROFILED_DEMAND_LIMIT = 64


register_cache(
    "repro.core.runtime._RECORD_CACHE",
    _RECORD_CACHE,
    axes=("model", "seed", "iteration"),
    cap=_RECORD_CACHE_LIMIT,
    doc="Synthetic demand records; pure function of the key via the "
    "default-dynamics trace generator.",
)
register_cache(
    "repro.core.runtime._BASE_FLOW_CACHE",
    _BASE_FLOW_CACHE,
    axes=(
        "model",
        "seed",
        "micro_batch_size",
        "group_ranks",
        "gpus_per_server",
        "layer",
        "transpose",
    ),
    cap=_FLOW_CACHE_LIMIT,
    doc="Base (pre-adjustment) EP all-to-all expansions of the memoised "
    "default record; entries are immutable.",
)
register_cache(
    "repro.core.runtime._ADJUSTED_FLOW_CACHE",
    _ADJUSTED_FLOW_CACHE,
    axes=(
        "model",
        "seed",
        "micro_batch_size",
        "group_ranks",
        "gpus_per_server",
        "layer",
        "transpose",
        "concurrency",
        "ocs_collective_efficiency",
        "eps_collective_efficiency",
        "circuit_pairs",
    ),
    cap=_FLOW_CACHE_LIMIT,
    doc="Efficiency-inflated EP flow lists; base axes plus the concurrency "
    "factor, both collective efficiencies and the circuit-holding pairs.",
)
register_cache(
    "repro.core.runtime._PROFILED_DEMAND_CACHE",
    _PROFILED_DEMAND_CACHE,
    axes=("model", "seed", "layers"),
    cap=_PROFILED_DEMAND_LIMIT,
    doc="TopoOpt profiled-average demand matrices from the 3-iteration "
    "profiling trace; read-only entries.",
)


def clear_runtime_caches() -> None:
    """Drop every registered process-wide memo (registry walk).

    All entries are recomputable pure functions of their keys; the caches
    exist for sweep throughput, and long-lived services (or tests isolating
    cold-path behaviour) can reset them at any time.  Since the registry
    migration this walks :data:`repro.core.caches.REGISTRY`, so the
    companion caches in :mod:`repro.moe.trace`, :mod:`repro.moe.gate` and
    :mod:`repro.sweep.template` — and any cache registered later — are
    cleared too; a reset path can no longer forget a cache.
    """
    clear_all_caches()


@dataclass
class RuntimeOptions:
    """Knobs of the training-iteration simulation.

    Attributes:
        first_a2a_policy: How MixNet handles the forward pass's first
            all-to-all: ``"block"`` stalls for the OCS delay with exact
            demand (the paper's default in §7.1), ``"reuse"`` keeps the
            previous layer's circuits, ``"copilot"`` proactively reconfigures
            from predicted demand and recalibrates during expert computation.
        reconfiguration_delay_s: OCS switching delay (25 ms default).
        num_micro_batches: Micro-batches per iteration (defaults to the PP
            degree, the paper's setting).
        grad_accumulation_steps: Micro-batches per optimizer step, used to
            amortise the DP all-reduce.
        include_dp_allreduce: Whether to add the DP all-reduce to the
            iteration time.
        micro_batch_size: Override of the model's micro-batch size.
        eps_collective_efficiency: Effective fraction of line rate achieved by
            all-to-all traffic on packet-switched fabrics.  Production
            all-to-all over shared Clos networks reaches only a fraction of
            the NIC rate (NCCL algorithmic bandwidth, incast, cross-rail
            forwarding — the inefficiency Figure 3's measured phases embody).
        ocs_collective_efficiency: Effective fraction of line rate achieved on
            a dedicated optical circuit (a single point-to-point RDMA stream).
        seed: Seed for synthetic traffic when no trace record is supplied.
        fluid_solver: Fluid-network rate solver (``"auto"``, ``"native"``
            or ``"scalar"``); ``None`` means ``"auto"`` (the compiled kernel
            when available, the scalar reference otherwise).  Both are exact
            max–min solvers, so results are solver-independent — the knob
            exists for differential testing.
    """

    first_a2a_policy: str = "block"
    reconfiguration_delay_s: float = 0.025
    num_micro_batches: Optional[int] = None
    grad_accumulation_steps: int = 32
    include_dp_allreduce: bool = True
    micro_batch_size: Optional[int] = None
    eps_collective_efficiency: float = 0.6
    ocs_collective_efficiency: float = 0.8
    seed: int = 0
    fluid_solver: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.sim.flows import SOLVERS

        if self.fluid_solver is not None and self.fluid_solver not in SOLVERS:
            raise ValueError(
                f"fluid_solver must be None or one of {SOLVERS}, "
                f"got {self.fluid_solver!r}"
            )
        if self.first_a2a_policy not in FIRST_A2A_POLICIES:
            raise ValueError(
                f"first_a2a_policy must be one of {FIRST_A2A_POLICIES}, "
                f"got {self.first_a2a_policy!r}"
            )
        if self.reconfiguration_delay_s < 0:
            raise ValueError("reconfiguration_delay_s must be non-negative")
        if not 0 < self.eps_collective_efficiency <= 1.0:
            raise ValueError("eps_collective_efficiency must be in (0, 1]")
        if not 0 < self.ocs_collective_efficiency <= 1.0:
            raise ValueError("ocs_collective_efficiency must be in (0, 1]")


@dataclass
class IterationResult:
    """Timing of one simulated training iteration."""

    fabric: str
    model: str
    iteration_time_s: float
    stage_time_s: float
    dp_allreduce_s: float
    pp_transfer_s: float
    reconfig_blocking_s: float
    comm_bytes: float
    compute_time_s: float
    num_micro_batches: int
    tokens_per_iteration: float
    #: Executor event-loop observability (DESIGN.md §10): events is the
    #: number of executor events consumed; solve_rounds / rounds_replayed
    #: count water-filling rounds executed vs. inherited from the
    #: incremental kernel's freeze record (both 0 outside the folded
    #: native-batch path).
    events: int = 0
    solve_rounds: int = 0
    rounds_replayed: int = 0

    @property
    def tokens_per_second(self) -> float:
        if self.iteration_time_s <= 0:
            return 0.0
        return self.tokens_per_iteration / self.iteration_time_s


@dataclass
class _PreparedIteration:
    """Intermediate state between building an iteration and executing it."""

    region: RegionNetwork
    controller: Optional[RegionalTopologyController]
    graph: TaskGraph
    compute_total: float
    mbs: int


class TrainingSimulator:
    """Simulates distributed MoE training iterations on a fabric.

    Args:
        model: MoE model configuration.
        cluster: Physical cluster (must fit the model's TP/PP/EP degrees).
        fabric: Interconnect under test.
        options: Runtime options.
        template: Optional
            :class:`~repro.sweep.template.StructuralTemplate` holding the
            parameter-independent artifacts of this config's structural key
            (DESIGN.md §8).  When given, the simulator *stamps* — the plan
            and EP group layout are adopted from the template, the region is
            cloned from a per-bandwidth blueprint, and compute profiles,
            circuit allocations and demand hints are looked up before being
            computed.  Every template memo is keyed by the stamped numerics
            it depends on, so results are bit-identical with and without a
            template (enforced by ``tests/test_sweep_template.py``).
    """

    def __init__(
        self,
        model: MoEModelConfig,
        cluster: ClusterSpec,
        fabric: Fabric,
        options: Optional[RuntimeOptions] = None,
        template=None,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.fabric = fabric
        self.options = options or RuntimeOptions()
        self._template = template
        if template is not None:
            self.plan, self.group_ranks, self.region_servers = template.layout(
                model, cluster
            )
        else:
            self.plan = ParallelismPlan(model, cluster)
            self.group_ranks = self.plan.ep_groups()[0]
            self.region_servers = cluster.servers_of_gpus(self.group_ranks)
        self.profiler = ComputeProfiler(gpu=cluster.server.gpu)

    # ----------------------------------------------------------------- inputs
    def default_record(self, iteration: int = 0) -> IterationRecord:
        """Synthesize a demand record when no trace is supplied.

        Records are deterministic in (model, seed, iteration) and read-only
        downstream, so they are memoised process-wide — a folded sweep asks
        for the same record once per (fabric, policy, bandwidth) variant.
        """
        key = (self.model, self.options.seed, iteration)
        record = _RECORD_CACHE.get(key)
        if record is None and self._template is not None:
            # The template pins records past _RECORD_CACHE cap clears, so a
            # long sweep never regenerates a trace it already holds.  Re-seat
            # it process-wide: the flow caches gate sharing on identity with
            # the _RECORD_CACHE entry.
            record = self._template.record(key)
            if record is not None:
                if len(_RECORD_CACHE) >= _RECORD_CACHE_LIMIT:
                    _RECORD_CACHE.clear()
                _RECORD_CACHE[key] = record
        if record is None:
            trace = generate_trace(
                self.model,
                num_iterations=iteration + 1,
                sample_every=max(1, iteration + 1),
                seed=self.options.seed,
                layers=self._stage_layers(),
            )
            record = trace[-1]
            if len(_RECORD_CACHE) >= _RECORD_CACHE_LIMIT:
                _RECORD_CACHE.clear()
            _RECORD_CACHE[key] = record
        if self._template is not None:
            self._template.pin_record(key, record)
        return record

    def _stage_layers(self) -> List[int]:
        """Layer indices hosted by the representative pipeline stage."""
        blocks = self.model.blocks_per_pp_stage
        return list(range(min(blocks, self.model.num_moe_blocks)))

    # ----------------------------------------------------------------- region
    def _build_region(self, record: IterationRecord) -> RegionNetwork:
        template = self._template
        if isinstance(self.fabric, TopoOptFabric):
            # TopoOpt optimises its one-shot topology for the *profiled*
            # (time-averaged) demand before training starts, not for the
            # iteration under evaluation — that mismatch is exactly the
            # adaptivity gap §7.3 quantifies.
            demand_hint = self._profiled_average_demand()
            if template is not None:
                return template.region(
                    self.fabric,
                    self.region_servers,
                    self.cluster.server.nic_bandwidth_gbps,
                    seed=self.options.seed,
                    demand_hint=demand_hint,
                )
            return self.fabric.build_region(self.region_servers, demand_hint=demand_hint)
        if template is not None:
            return template.region(
                self.fabric,
                self.region_servers,
                self.cluster.server.nic_bandwidth_gbps,
            )
        return self.fabric.build_region(self.region_servers)

    def _profiled_average_demand(self) -> np.ndarray:
        """Time-averaged profiled demand (read-only), memoised two tiers up.

        The 3-iteration profiling trace is a pure function of
        (model, seed, stage layers) — and of the cluster's *shape*, which
        those fix — yet was regenerated per simulator instance for every
        TopoOpt config.  Process-wide memo first, template second (the
        template can also carry it in from the on-disk store).
        """
        from repro.core.demand import rank_to_server_demand

        layers = self._stage_layers()
        key = (
            self.model, self.options.seed, tuple(layers),
            tuple(self.group_ranks), self.cluster.gpus_per_server,
        )
        cached = _PROFILED_DEMAND_CACHE.get(key)
        if cached is not None:
            return cached
        template = self._template
        if template is not None:
            hint = template.demand_hint(self.options.seed, layers)
            if hint is not None:
                if len(_PROFILED_DEMAND_CACHE) >= _PROFILED_DEMAND_LIMIT:
                    _PROFILED_DEMAND_CACHE.clear()
                _PROFILED_DEMAND_CACHE[key] = hint
                return hint
        profile_trace = generate_trace(
            self.model,
            num_iterations=3,
            sample_every=1,
            seed=self.options.seed + 9973,
            layers=layers,
        )
        total: Optional[np.ndarray] = None
        count = 0
        for profiled in profile_trace:
            for index in range(len(layers)):
                matrix = profiled.traffic_matrices[index]
                demand, _ = rank_to_server_demand(matrix, self.group_ranks, self.cluster)
                total = demand if total is None else total + demand
                count += 1
        assert total is not None and count > 0
        average = total / count
        average.setflags(write=False)
        if len(_PROFILED_DEMAND_CACHE) >= _PROFILED_DEMAND_LIMIT:
            _PROFILED_DEMAND_CACHE.clear()
        _PROFILED_DEMAND_CACHE[key] = average
        if template is not None:
            template.store_demand_hint(self.options.seed, layers, average)
        return average

    # -------------------------------------------------------------- iteration
    def _prepare_iteration(
        self,
        record: Optional[IterationRecord],
        failure: Optional[FailureScenario],
    ) -> "_PreparedIteration":
        """Everything of one iteration up to (but excluding) DAG execution."""
        record = record or self.default_record()
        options = self.options
        mbs = options.micro_batch_size or self.model.micro_batch_size
        if self._template is not None:
            profile = self._template.block_profile(self.profiler, self.model, mbs)
        else:
            profile = self.profiler.block_profile(self.model, mbs)
        scaled_activation = activation_bytes(self.model) * mbs / self.model.micro_batch_size
        # All TP groups sharing a server all-reduce concurrently over the same
        # NVSwitch, so each group sees its proportional share of the fabric.
        tp_share = min(1.0, self.model.tp_degree / self.cluster.gpus_per_server)
        tp_time = tp_all_reduce_time(
            scaled_activation,
            self.model.tp_degree,
            self.cluster.server.nvswitch_bandwidth_gbps * tp_share,
        )

        effects = FailureEffects()
        if failure is not None:
            effects = resolve_effects(
                failure, self.cluster, self.region_servers, scaled_activation
            )

        region = self._build_region(record)
        apply_effects_to_region(region, effects)

        controller: Optional[RegionalTopologyController] = None
        if isinstance(self.fabric, MixNetFabric) and isinstance(region, MixNetRegionNetwork):
            controller = RegionalTopologyController(
                region,
                self.cluster,
                optical_degree=self._effective_optical_degree(effects),
                reconfiguration_delay_s=options.reconfiguration_delay_s,
            )
            # Start from a demand-oblivious wiring, like a freshly-cabled OCS.
            if self._template is not None and not controller._excluded_servers:
                # plan_uniform is a pure function of (degree, usable servers);
                # the controller is freshly built, so no exclusions apply yet.
                uniform_key = (
                    "uniform", controller.optical_degree,
                    list(self.region_servers),
                )
                uniform = self._template.allocation(uniform_key)
                if uniform is None:
                    uniform = controller.plan_uniform(self.region_servers)
                    self._template.store_allocation(uniform_key, uniform)
            else:
                uniform = controller.plan_uniform(self.region_servers)
            region.apply_circuits(uniform.circuits)

        graph, compute_total = self._build_stage_graph(
            record, profile, tp_time, effects, controller, mbs
        )
        return _PreparedIteration(
            region=region,
            controller=controller,
            graph=graph,
            compute_total=compute_total,
            mbs=mbs,
        )

    def _compose_result(
        self, prepared: "_PreparedIteration", execution
    ) -> IterationResult:
        """Fold the executed stage DAG into a full iteration time."""
        options = self.options
        stage_time = execution.makespan
        pp_transfer = self._pp_transfer_time(prepared.mbs)
        micro_batches = options.num_micro_batches or self.model.pp_degree
        pipeline_factor = micro_batches + self.model.pp_degree - 1
        dp_time = self._dp_allreduce_time() if options.include_dp_allreduce else 0.0

        iteration_time = pipeline_factor * (stage_time + pp_transfer) + dp_time
        tokens = (
            self.model.seq_len * prepared.mbs * micro_batches * self.plan.dp
        )
        controller = prepared.controller
        reconfig_blocking = controller.total_blocking_s if controller else 0.0
        return IterationResult(
            fabric=self.fabric.name,
            model=self.model.name,
            iteration_time_s=iteration_time,
            stage_time_s=stage_time,
            dp_allreduce_s=dp_time,
            pp_transfer_s=pp_transfer,
            reconfig_blocking_s=reconfig_blocking,
            comm_bytes=execution.comm_bytes,
            compute_time_s=prepared.compute_total,
            num_micro_batches=micro_batches,
            tokens_per_iteration=tokens,
            events=execution.events,
            solve_rounds=execution.solve_rounds,
            rounds_replayed=execution.rounds_replayed,
        )

    def simulate_iteration(
        self,
        record: Optional[IterationRecord] = None,
        failure: Optional[FailureScenario] = None,
    ) -> IterationResult:
        """Simulate one training iteration and return its timing."""
        prepared = self._prepare_iteration(record, failure)
        execution = Executor(
            prepared.graph, prepared.region, solver=self.options.fluid_solver
        ).run()
        return self._compose_result(prepared, execution)

    def iter_simulation(
        self,
        record: Optional[IterationRecord] = None,
        failure: Optional[FailureScenario] = None,
    ):
        """Generator form of :meth:`simulate_iteration` for folded sweeps.

        Yields :class:`~repro.sim.flows.FlowAdvanceRequest` objects (see
        :meth:`repro.sim.executor.Executor.iter_run`) and returns the
        :class:`IterationResult` as the generator's value, letting a driver
        advance many simulations through one batched solve/advance loop.
        """
        prepared = self._prepare_iteration(record, failure)
        executor = Executor(
            prepared.graph, prepared.region, solver=self.options.fluid_solver
        )
        execution = yield from executor.iter_run()
        return self._compose_result(prepared, execution)

    def _effective_optical_degree(self, effects: FailureEffects) -> int:
        """Optical degree available to Algorithm 1 after failures.

        All servers of the region share one OCS slice, so the slice must be
        planned for the worst case — the largest degree penalty any affected
        server in the region suffers — not for whichever server happens to be
        visited last.
        """
        worst_penalty = max(
            (
                penalty
                for server, penalty in effects.ocs_degree_penalty.items()
                if server in self.region_servers
            ),
            default=0,
        )
        return max(0, self.fabric.optical_degree - worst_penalty)

    # ------------------------------------------------------------ DAG builder
    def _build_stage_graph(
        self,
        record: IterationRecord,
        profile,
        tp_time: float,
        effects: FailureEffects,
        controller: Optional[RegionalTopologyController],
        mbs: int,
    ) -> tuple[TaskGraph, float]:
        """Build the forward+backward DAG of one micro-batch on one stage."""
        graph = TaskGraph()
        options = self.options
        model = self.model
        layers = self._stage_layers()
        scale = mbs / model.micro_batch_size
        route = RouteKind.EP
        delay = options.reconfiguration_delay_s
        penalty = effects.compute_penalty_s_per_block
        compute_total = 0.0

        def matrix_of(layer: int) -> np.ndarray:
            return record.traffic_matrices[min(layer, record.num_layers - 1)] * scale

        allocation_cache: Dict[tuple, CircuitAllocation] = {}
        # Template-level Algorithm 1 memo: an allocation is a pure function
        # of the demand matrix and the controller knobs, and the demand
        # matrix is determined by (record identity, mbs, effective source
        # layer).  The "effective source layer" also collapses copilot's
        # predicted allocation for layer L onto the exact allocation of
        # L-1 — identical inputs by construction.  Only the memoised default
        # record participates (caller-supplied records may carry arbitrary
        # matrices under the same seed), and the key carries every stamped
        # knob the result depends on: seed, mbs, optical degree and the NIC
        # bandwidth feeding the completion-time estimate.
        template = self._template
        allocation_memo_base: Optional[tuple] = None
        if (
            template is not None
            and controller is not None
            and record is _RECORD_CACHE.get((model, options.seed, 0))
            and not controller._excluded_servers
        ):
            allocation_memo_base = (
                "alloc",
                options.seed,
                mbs,
                controller.optical_degree,
                self.cluster.server.nic_bandwidth_gbps,
            )

        def allocation_for(layer: int, predicted: bool = False) -> CircuitAllocation:
            assert controller is not None
            key = (layer, predicted)
            cached = allocation_cache.get(key)
            if cached is not None:
                return cached
            source_layer = layer - 1 if predicted and layer > 0 else layer
            effective_source = min(source_layer, record.num_layers - 1)
            if allocation_memo_base is not None:
                memo_key = allocation_memo_base + (effective_source,)
                allocation = template.allocation(memo_key)
                if allocation is None:
                    allocation = controller.plan_from_rank_matrix(
                        matrix_of(source_layer), self.group_ranks
                    )
                    template.store_allocation(memo_key, allocation)
            else:
                allocation = controller.plan_from_rank_matrix(
                    matrix_of(source_layer), self.group_ranks
                )
            allocation_cache[key] = allocation
            return allocation

        def install_callback(allocation: CircuitAllocation) -> Callable[[], None]:
            assert controller is not None

            def _install() -> None:
                controller.install(allocation)

            return _install

        # The dispatch/combine pair of a layer (and its backward mirror) share
        # the same base server-level expansion; only the per-call efficiency
        # adjustment differs.  Calls with the same allocation (e.g. a layer's
        # combine and its backward grad-combine) share the adjusted list too.
        group_ranks_key = tuple(self.group_ranks)
        adjusted_flow_cache: Dict[tuple, List] = {}
        # Share base expansions across the whole process only for the
        # memoised default record — a caller-supplied record may carry
        # arbitrary matrices under the same (model, seed).
        shareable = record is _RECORD_CACHE.get((model, options.seed, 0))
        base_cache: Dict[tuple, List] = _BASE_FLOW_CACHE if shareable else {}
        adjusted_shared: Optional[Dict[tuple, List]] = (
            _ADJUSTED_FLOW_CACHE if shareable else None
        )

        def ep_flows(
            layer: int,
            matrix: np.ndarray,
            transpose: bool,
            allocation: Optional[CircuitAllocation],
        ) -> List:
            """All-to-all flows with concurrency and efficiency adjustments.

            All ``tp`` expert-parallel groups of the region run their
            all-to-all simultaneously over the same servers, so the
            server-level volume is ``tp`` times one group's matrix.  Packet-
            switched paths only achieve ``eps_collective_efficiency`` of line
            rate for all-to-all traffic, while dedicated optical circuits
            reach ``ocs_collective_efficiency`` — both are expressed by
            inflating the flow's wire volume accordingly.
            """
            from repro.sim.dag import FlowSpec

            effective_layer = min(layer, record.num_layers - 1)
            adjusted_key = (
                effective_layer, transpose,
                id(allocation) if allocation is not None else None,
            )
            cached = adjusted_flow_cache.get(adjusted_key)
            if cached is not None:
                return cached
            base_key = (
                model, options.seed, mbs, group_ranks_key,
                self.cluster.gpus_per_server, effective_layer, transpose,
            )
            base = base_cache.get(base_key)
            if base is None:
                base = ep_all_to_all_flows(
                    matrix, self.group_ranks, self.cluster, route=route,
                    transpose=transpose,
                )
                if base_cache is _BASE_FLOW_CACHE and len(base_cache) >= _FLOW_CACHE_LIMIT:
                    base_cache.clear()
                base_cache[base_key] = base
            concurrency = float(model.tp_degree)
            circuits = allocation.circuits if allocation is not None else None
            ocs_efficiency = options.ocs_collective_efficiency
            eps_efficiency = options.eps_collective_efficiency
            # Process-wide reuse: the adjustment is a pure function of the
            # base expansion, the efficiencies and the set of circuit-holding
            # pairs — a key that collapses bandwidth variants (and allocation
            # objects that picked identical circuits) onto one entry.
            if adjusted_shared is not None:
                circuit_pairs = (
                    None if circuits is None
                    else frozenset(p for p, n in circuits.items() if n > 0)
                )
                shared_key = base_key + (
                    concurrency, ocs_efficiency, eps_efficiency, circuit_pairs,
                )
                adjusted = adjusted_shared.get(shared_key)
                if adjusted is not None:
                    adjusted_flow_cache[adjusted_key] = adjusted
                    return adjusted
            intra = RouteKind.INTRA
            adjusted = []
            for spec in base:
                src = spec.src_server
                dst = spec.dst_server
                size = spec.size_bytes * concurrency
                if spec.route is not intra:
                    has_circuit = circuits is not None and (
                        circuits.get((src, dst) if src <= dst else (dst, src), 0)
                        > 0
                    )
                    size /= ocs_efficiency if has_circuit else eps_efficiency
                adjusted.append(FlowSpec(src, dst, size, spec.route))
            if adjusted_shared is not None:
                if len(adjusted_shared) >= _FLOW_CACHE_LIMIT:
                    adjusted_shared.clear()
                adjusted_shared[shared_key] = adjusted
            adjusted_flow_cache[adjusted_key] = adjusted
            return adjusted

        # Template-staged flow admission (DESIGN.md §10): for the memoised
        # default record, the executor-side admission artifacts — zero-size
        # filter, route keys, flow-id strings — are computed once per
        # (task, stamped numerics) and stamped into the Task, so
        # ``start_task`` admits from prebuilt tuples instead of re-deriving
        # them per config.  The key mirrors the registered axes of the
        # ``_admissions`` memo family: task id, seed, micro-batch size, both
        # collective efficiencies and the circuit-holding pairs (everything
        # else that shapes the adjusted flow list is structural).
        admission_base: Optional[tuple] = None
        if template is not None and shareable:
            admission_base = (
                options.seed,
                mbs,
                options.ocs_collective_efficiency,
                options.eps_collective_efficiency,
            )

        # The circuit-pair component of the memo key is shared by every task
        # staged under the same allocation; compute it once per allocation
        # object instead of once per task.
        pairs_of_allocation: Dict[int, Optional[frozenset]] = {}

        def stage_admission(task, allocation: Optional[CircuitAllocation]) -> None:
            if admission_base is None:
                return
            if allocation is None:
                circuit_pairs: Optional[frozenset] = None
            else:
                circuit_pairs = pairs_of_allocation.get(id(allocation))
                if circuit_pairs is None:
                    circuit_pairs = frozenset(
                        p for p, n in allocation.circuits.items() if n > 0
                    )
                    pairs_of_allocation[id(allocation)] = circuit_pairs
            key = (task.task_id,) + admission_base + (circuit_pairs,)
            plan = template.admission(key)
            if plan is None:
                plan = AdmissionPlan.from_specs(task.task_id, task.flow_specs)
                template.store_admission(key, plan)
            task.admission = plan

        prev: Optional[str] = None
        previous_exact: Optional[CircuitAllocation] = None
        # ------------------------------------------------------------ forward
        for layer in layers:
            matrix = matrix_of(layer)
            attn = graph.add_compute(
                f"L{layer}.fwd.attention",
                profile.attention + tp_time / 4.0 + penalty / 2.0,
                deps=[prev] if prev else [],
            )
            gate = graph.add_compute(f"L{layer}.fwd.gate", profile.gate, deps=[attn.task_id])
            compute_total += attn.duration_s + gate.duration_s
            a2a1_deps = [gate.task_id]
            a2a1_allocation: Optional[CircuitAllocation] = None
            exact_allocation: Optional[CircuitAllocation] = None
            if controller is not None:
                exact_allocation = allocation_for(layer)
                if options.first_a2a_policy == "block":
                    reconfig = graph.add_reconfig(
                        f"L{layer}.fwd.reconfig1",
                        delay,
                        deps=[gate.task_id],
                        on_complete=install_callback(exact_allocation),
                    )
                    controller.total_blocking_s += delay
                    a2a1_deps.append(reconfig.task_id)
                    a2a1_allocation = exact_allocation
                elif options.first_a2a_policy == "copilot":
                    predicted_allocation = allocation_for(layer, predicted=True)
                    reconfig = graph.add_reconfig(
                        f"L{layer}.fwd.reconfig1",
                        delay,
                        deps=[prev] if prev else [],
                        on_complete=install_callback(predicted_allocation),
                    )
                    a2a1_deps.append(reconfig.task_id)
                    a2a1_allocation = predicted_allocation
                else:
                    # "reuse": keep whatever circuits the previous layer used.
                    a2a1_allocation = previous_exact
            a2a1 = graph.add_comm(
                f"L{layer}.fwd.a2a_dispatch",
                ep_flows(layer, matrix, transpose=False, allocation=a2a1_allocation),
                deps=a2a1_deps,
            )
            stage_admission(a2a1, a2a1_allocation)
            experts = graph.add_compute(
                f"L{layer}.fwd.experts",
                profile.experts + tp_time / 4.0 + penalty / 2.0,
                deps=[a2a1.task_id],
            )
            compute_total += experts.duration_s
            a2a2_deps = [experts.task_id]
            if controller is not None and options.first_a2a_policy in ("reuse", "copilot"):
                recalibrate = graph.add_reconfig(
                    f"L{layer}.fwd.reconfig2",
                    delay,
                    deps=[a2a1.task_id],
                    on_complete=install_callback(exact_allocation),
                )
                a2a2_deps.append(recalibrate.task_id)
            a2a2 = graph.add_comm(
                f"L{layer}.fwd.a2a_combine",
                ep_flows(layer, matrix, transpose=True, allocation=exact_allocation),
                deps=a2a2_deps,
            )
            stage_admission(a2a2, exact_allocation)
            norm = graph.add_compute(
                f"L{layer}.fwd.add_norm", profile.add_norm, deps=[a2a2.task_id]
            )
            compute_total += norm.duration_s
            prev = norm.task_id
            previous_exact = exact_allocation

        # ----------------------------------------------------------- backward
        hide_anchor = prev
        for layer in reversed(layers):
            matrix = matrix_of(layer)
            exact_allocation = allocation_for(layer) if controller is not None else None
            norm_b = graph.add_compute(
                f"L{layer}.bwd.add_norm",
                profile.add_norm * 2.0,
                deps=[prev] if prev else [],
            )
            compute_total += norm_b.duration_s
            a2a1_deps = [norm_b.task_id]
            if controller is not None:
                reconfig_b = graph.add_reconfig(
                    f"L{layer}.bwd.reconfig",
                    delay,
                    deps=[hide_anchor] if hide_anchor else [],
                    on_complete=install_callback(exact_allocation),
                )
                a2a1_deps.append(reconfig_b.task_id)
            a2a_b1 = graph.add_comm(
                f"L{layer}.bwd.a2a_grad_combine",
                ep_flows(layer, matrix, transpose=True, allocation=exact_allocation),
                deps=a2a1_deps,
            )
            stage_admission(a2a_b1, exact_allocation)
            experts_b = graph.add_compute(
                f"L{layer}.bwd.experts",
                (profile.experts + tp_time / 4.0 + penalty / 2.0) * 2.0,
                deps=[a2a_b1.task_id],
            )
            compute_total += experts_b.duration_s
            a2a_b2 = graph.add_comm(
                f"L{layer}.bwd.a2a_grad_dispatch",
                ep_flows(layer, matrix, transpose=False, allocation=exact_allocation),
                deps=[experts_b.task_id],
            )
            stage_admission(a2a_b2, exact_allocation)
            attn_b = graph.add_compute(
                f"L{layer}.bwd.attention",
                (profile.attention + profile.gate + tp_time / 4.0 + penalty / 2.0) * 2.0,
                deps=[a2a_b2.task_id],
            )
            compute_total += attn_b.duration_s
            # The next (earlier) layer's reconfiguration hides inside this
            # layer's attention backward computation (Figure 20); anchoring it
            # after this layer's last all-to-all also guarantees no circuits
            # are swapped underneath an in-flight optical transfer.
            hide_anchor = a2a_b2.task_id
            prev = attn_b.task_id

        return graph, compute_total

    # ----------------------------------------------------------- deterministic
    def _dp_allreduce_time(self) -> float:
        """Hierarchical DP all-reduce over the EPS fabric, amortised.

        ``dp_bytes_per_gpu`` already applies the ring factor ``2 (n-1)/n`` and
        the gradient-accumulation amortisation, so the time is simply those
        bytes over the per-GPU share of the server's EPS bandwidth.
        """
        wire_bytes = dp_bytes_per_gpu(
            self.model, self.plan.dp, self.options.grad_accumulation_steps
        )
        if wire_bytes <= 0:
            return 0.0
        per_gpu_eps_bps = (
            self.fabric.eps_bandwidth_per_server_gbps()
            / self.cluster.gpus_per_server
            * 1e9
            / 8.0
        )
        return wire_bytes / per_gpu_eps_bps

    def _pp_transfer_time(self, mbs: int) -> float:
        if self.model.pp_degree <= 1:
            return 0.0
        bytes_per_boundary = activation_bytes(self.model) * mbs / self.model.micro_batch_size
        bandwidth = self.fabric.eps_bandwidth_per_server_gbps() * 1e9 / 8.0
        return bytes_per_boundary / bandwidth


def simulate_fabrics(
    model: MoEModelConfig,
    fabrics: Sequence[Fabric],
    options: Optional[RuntimeOptions] = None,
    record: Optional[IterationRecord] = None,
) -> Dict[str, IterationResult]:
    """Simulate the same workload on several fabrics (Figure 12 style).

    Thin wrapper over the sweep engine's single-case runner
    (:func:`repro.sweep.runner.run_case`); prefer :class:`repro.sweep.SweepRunner`
    for grids of configurations (caching, parallel workers).
    """
    from repro.sweep.runner import run_case

    results: Dict[str, IterationResult] = {}
    for fabric in fabrics:
        results[fabric.name] = run_case(model, fabric, options=options, record=record)
    return results


def normalized_iteration_times(results: Dict[str, IterationResult],
                               reference: str = "Fat-tree") -> Dict[str, float]:
    """Normalize iteration times to a reference fabric (lower is better)."""
    if reference not in results:
        raise KeyError(f"reference fabric {reference!r} not in results")
    base = results[reference].iteration_time_s
    if base <= 1e-12:
        raise ValueError(
            f"reference fabric {reference!r} has a zero or near-zero iteration "
            f"time ({base!r}); cannot normalize against it"
        )
    return {name: result.iteration_time_s / base for name, result in results.items()}
