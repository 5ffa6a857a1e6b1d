"""Training-trace generation.

A :class:`TrainingTrace` is the reproduction's stand-in for the production
token-routing traces used in the paper's measurement study (§3) and for the
runtime demand information the MixNet controller consumes (§5.1).  It records,
for each training iteration, the per-layer expert-load distribution and the
per-layer EP-rank all-to-all traffic matrix produced by the synthetic gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.caches import register_cache
from repro.moe.gate import GateDynamicsConfig, GateSimulator
from repro.moe.models import MoEModelConfig


@dataclass(frozen=True)
class IterationRecord:
    """Traffic demand observed during one training iteration.

    Attributes:
        iteration: Training-step index.
        expert_loads: Load fractions of MoE blocks ``0..max(layers)``, where
            ``layers`` are the trace's selected layers (all by default);
            shape ``(max(layers) + 1, num_experts)``.
        traffic_matrices: One ``(ep, ep)`` byte matrix per MoE layer; entry
            ``[i, j]`` is the volume EP rank ``i`` dispatches to EP rank ``j``
            in a single all-to-all phase.
    """

    iteration: int
    expert_loads: np.ndarray
    traffic_matrices: List[np.ndarray]

    @property
    def num_layers(self) -> int:
        return len(self.traffic_matrices)

    def layer_matrix(self, layer: int) -> np.ndarray:
        if not 0 <= layer < self.num_layers:
            raise ValueError(f"layer {layer} out of range")
        return self.traffic_matrices[layer]

    def total_all_to_all_bytes(self) -> float:
        """Total all-to-all volume over all layers and the four phases."""
        # Two all-to-alls in the forward pass and two in the backward pass,
        # with the same (or transposed) traffic matrix (§5.1).
        return 4.0 * float(sum(m.sum() for m in self.traffic_matrices))

    def per_expert_receive_bytes(self, experts_per_rank: int) -> np.ndarray:
        """Bytes received by each expert, aggregated over layers (Figure 4a)."""
        received_per_rank = sum(m.sum(axis=0) for m in self.traffic_matrices)
        # Split each rank's receive volume evenly across its hosted experts.
        return np.repeat(received_per_rank / experts_per_rank, experts_per_rank)


@dataclass
class TrainingTrace:
    """A sequence of :class:`IterationRecord` for one training run."""

    model: MoEModelConfig
    records: List[IterationRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[IterationRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> IterationRecord:
        return self.records[index]

    def iterations(self) -> List[int]:
        return [r.iteration for r in self.records]

    def expert_load_history(self, layer: int = 0) -> np.ndarray:
        """Expert loads of ``layer`` over time, shape ``(iters, experts)``."""
        return np.stack([r.expert_loads[layer] for r in self.records])

    def traffic_history(self, layer: int = 0) -> np.ndarray:
        """Traffic matrices of ``layer`` over time, shape ``(iters, ep, ep)``."""
        return np.stack([r.traffic_matrices[layer] for r in self.records])


#: Memo of default-dynamics traces (they are pure functions of their
#: arguments and sweeps re-request the same trace for every fabric/policy).
#: Bounded clear-on-full: a long-lived sweep service cycling through many
#: (model, seed) pairs stays flat instead of leaking, and any evicted trace
#: is recomputable.
_TRACE_MEMO: dict = {}
_TRACE_MEMO_LIMIT = 256


def clear_trace_memo() -> None:
    """Drop every memoised trace (entries are recomputable)."""
    _TRACE_MEMO.clear()


register_cache(
    "repro.moe.trace._TRACE_MEMO",
    _TRACE_MEMO,
    axes=("model", "num_iterations", "sample_every", "seed", "selected_layers"),
    cap=_TRACE_MEMO_LIMIT,
    doc="Default-dynamics training traces; pure function of the key "
    "(custom dynamics bypass the memo entirely).",
    clear=clear_trace_memo,
)


def generate_trace(
    model: MoEModelConfig,
    num_iterations: int,
    sample_every: int = 1,
    dynamics: Optional[GateDynamicsConfig] = None,
    seed: int = 0,
    layers: Optional[Sequence[int]] = None,
) -> TrainingTrace:
    """Generate a synthetic training trace.

    Args:
        model: MoE model configuration to simulate.
        num_iterations: Number of training steps to cover.
        sample_every: Record one iteration out of every ``sample_every`` steps
            (the gate still advances every step, so dynamics are continuous).
        dynamics: Optional gate dynamics overrides.
        seed: RNG seed.
        layers: Optional subset of layers to materialise traffic matrices for
            (all layers by default).  Loads are recorded for layers
            ``0..max(layers)``, and the gate simulates no block past them.

    Returns:
        A :class:`TrainingTrace` with ``ceil(num_iterations / sample_every)``
        records.  Traces are deterministic in their arguments and memoized
        (for default dynamics), so callers share one instance per argument
        set and must treat it as immutable.
    """
    if num_iterations <= 0:
        raise ValueError("num_iterations must be positive")
    if sample_every <= 0:
        raise ValueError("sample_every must be positive")
    selected_layers = list(layers) if layers is not None else list(range(model.num_moe_blocks))
    for layer in selected_layers:
        if not 0 <= layer < model.num_moe_blocks:
            raise ValueError(f"layer {layer} out of range")

    memo_key = None
    if dynamics is None:
        memo_key = (model, num_iterations, sample_every, seed, tuple(selected_layers))
        cached = _TRACE_MEMO.get(memo_key)
        if cached is not None:
            return cached

    gate = GateSimulator(
        model, dynamics=dynamics, seed=seed,
        num_layers=max(selected_layers, default=0) + 1,
    )
    trace = TrainingTrace(model=model)
    for step in range(0, num_iterations, sample_every):
        loads = gate.expert_loads(step)
        matrices = [
            gate.rank_traffic_matrix(loads[layer], sender_seed=seed * 1_000_003 + step * 131 + layer)
            for layer in selected_layers
        ]
        trace.records.append(
            IterationRecord(iteration=step, expert_loads=loads, traffic_matrices=matrices)
        )
    if memo_key is not None:
        if len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.clear()
        # The memoized instance is shared between callers, so enforce the
        # immutability contract: in-place writes raise instead of silently
        # poisoning every later consumer of the same trace.
        for record in trace.records:
            record.expert_loads.setflags(write=False)
            for matrix in record.traffic_matrices:
                matrix.setflags(write=False)
        _TRACE_MEMO[memo_key] = trace
    return trace
