"""Synthetic MoE gate simulator.

The MixNet paper's measurement study (§3) characterises expert-parallel
all-to-all traffic during production training of Mixtral 8x7B.  Production
token-routing traces are not available, so this module provides a stochastic
gate whose routing statistics reproduce the properties the paper relies on:

* **Temporal non-determinism** (Figure 4a): per-expert activation intensity
  follows a logit-space random walk, so loads differ between iterations.
* **Load-balancing-loss annealing** (Figure 4a): the spread between experts
  shrinks as training progresses, but never fully disappears.
* **Spatial non-uniformity / sparsity** (Figure 4b): each sender has its own
  expert affinity, so the all-to-all matrix has a few heavy entries.
* **Inter-layer conditional structure** (Appendix B.1): the load of layer
  ``l+1`` is approximately a fixed column-stochastic transition applied to the
  load of layer ``l``.  This is the structure MixNet-Copilot estimates.
* **Non-uniform per-block token distribution** (Figure 18).

All randomness flows through an explicit :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.caches import register_cache
from repro.moe.models import MoEModelConfig


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


#: Memoised initial draws of :class:`GateSimulator`: key ->
#: (layer_logits, transitions, generator state after the draws).
#: Bounded clear-on-full at ``_INIT_STATE_LIMIT`` entries (see
#: ``GateSimulator.__init__``).
_INIT_STATE_CACHE: dict = {}
_INIT_STATE_LIMIT = 64


def clear_gate_cache() -> None:
    """Drop the memoised initial gate states (entries are recomputable)."""
    _INIT_STATE_CACHE.clear()


register_cache(
    "repro.moe.gate._INIT_STATE_CACHE",
    _INIT_STATE_CACHE,
    axes=(
        "num_layers",
        "num_experts",
        "initial_logit_std",
        "transition_concentration",
        "seed",
    ),
    cap=_INIT_STATE_LIMIT,
    doc="Initial gate draws plus the generator state after them; the "
    "simulation replays deterministically from that state.",
    clear=clear_gate_cache,
)


@dataclass
class GateDynamicsConfig:
    """Tunable parameters of the synthetic gate's stochastic process.

    The defaults are calibrated so the generated traces match the qualitative
    statistics of the paper's production measurements (see
    ``tests/test_moe_gate.py`` for the properties asserted).
    """

    #: Standard deviation of the per-iteration logit random walk.
    drift_std: float = 0.08
    #: Mean-reversion rate of the logit process (Ornstein-Uhlenbeck style);
    #: keeps the long-run spread bounded so load-balancing loss wins over time.
    mean_reversion: float = 0.01
    #: Initial spread of expert affinities (larger => more skewed loads).
    initial_logit_std: float = 1.2
    #: Strength of the pull toward uniform loads at the end of training.
    final_balance: float = 0.6
    #: Iterations over which load balancing ramps up.
    balance_horizon: int = 8000
    #: Dirichlet concentration controlling per-sender sparsity
    #: (smaller => sparser, heavier point-to-point entries).
    sender_concentration: float = 0.5
    #: Std of the slow drift applied to inter-layer transition matrices.
    transition_drift_std: float = 0.01
    #: Concentration of the initial transition-matrix columns.
    transition_concentration: float = 0.6


class GateSimulator:
    """Generates per-iteration, per-layer expert-load distributions.

    Args:
        model: MoE model whose expert count and layer count to simulate.
        dynamics: Stochastic-process parameters.
        seed: Seed for the internal random generator.
    """

    def __init__(
        self,
        model: MoEModelConfig,
        dynamics: Optional[GateDynamicsConfig] = None,
        seed: int = 0,
    ) -> None:
        self.model = model
        self.dynamics = dynamics or GateDynamicsConfig()
        self._rng = np.random.default_rng(seed)
        num_layers = model.num_moe_blocks
        num_experts = model.num_experts
        dyn = self.dynamics

        # The initial draws depend only on the shapes, the two concentration
        # parameters, and the seed; sweeps construct many simulators with the
        # same ones, so memoise the arrays together with the generator state
        # reached after drawing them.  The arrays are shared, never mutated in
        # place (updates always rebind), and restoring the generator state
        # makes every later draw identical to a cold construction.
        memo_key = (
            num_layers, num_experts,
            dyn.initial_logit_std, dyn.transition_concentration, seed,
        )
        memo = _INIT_STATE_CACHE.get(memo_key)
        if memo is None:
            # Base affinity logits for layer 0 plus per-layer offsets: every
            # block has its own (non-uniform) preferred experts, reproducing
            # Figure 18.
            self._layer_logits = self._rng.normal(
                0.0, dyn.initial_logit_std, size=(num_layers, num_experts)
            )
            # Column-stochastic inter-layer transition matrices P[l]: given a
            # token went to expert i at layer l, P[l][j, i] is the probability
            # it goes to expert j at layer l+1.  MixNet-Copilot estimates
            # these (§B.1).
            self._transitions = np.stack(
                [
                    self._rng.dirichlet(
                        np.full(num_experts, dyn.transition_concentration),
                        size=num_experts,
                    ).T
                    for _ in range(max(1, num_layers - 1))
                ]
            )
            if len(_INIT_STATE_CACHE) >= _INIT_STATE_LIMIT:
                _INIT_STATE_CACHE.clear()
            _INIT_STATE_CACHE[memo_key] = (
                self._layer_logits,
                self._transitions,
                self._rng.bit_generator.state,
            )
        else:
            self._layer_logits, self._transitions, rng_state = memo
            self._rng.bit_generator.state = rng_state
        self._iteration = 0

    # ----------------------------------------------------------------- access
    @property
    def num_layers(self) -> int:
        return self.model.num_moe_blocks

    @property
    def num_experts(self) -> int:
        return self.model.num_experts

    def transition_matrix(self, layer: int) -> np.ndarray:
        """Ground-truth transition matrix from layer ``layer`` to ``layer+1``."""
        if not 0 <= layer < self.num_layers - 1:
            raise ValueError(f"layer {layer} has no successor")
        return self._transitions[layer].copy()

    # --------------------------------------------------------------- evolution
    def _balance_strength(self, iteration: int) -> float:
        dyn = self.dynamics
        progress = min(1.0, iteration / max(1, dyn.balance_horizon))
        return dyn.final_balance * progress

    def advance(self, iterations: int = 1) -> None:
        """Advance the stochastic process by ``iterations`` training steps."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        dyn = self.dynamics
        for _ in range(iterations):
            noise = self._rng.normal(0.0, dyn.drift_std, size=self._layer_logits.shape)
            self._layer_logits = (1.0 - dyn.mean_reversion) * self._layer_logits + noise
            if self.num_layers > 1:
                noise = self._rng.normal(
                    0.0, dyn.transition_drift_std, size=self._transitions.shape
                )
                perturbed = np.clip(self._transitions + noise, 1e-6, None)
                self._transitions = perturbed / perturbed.sum(axis=1, keepdims=True)
            self._iteration += 1

    def expert_loads(self, iteration: Optional[int] = None) -> np.ndarray:
        """Per-layer expert load fractions, shape ``(num_layers, num_experts)``.

        Layer 0's load comes directly from its affinity logits; each subsequent
        layer's load is the previous layer's load pushed through that layer's
        transition matrix, mixed with the layer's own affinity.  Every row sums
        to 1.
        """
        if iteration is not None and iteration != self._iteration:
            if iteration < self._iteration:
                raise ValueError(
                    "GateSimulator cannot rewind; requested iteration "
                    f"{iteration} < current {self._iteration}"
                )
            self.advance(iteration - self._iteration)
        balance = self._balance_strength(self._iteration)
        uniform = np.full(self.num_experts, 1.0 / self.num_experts)
        loads = np.empty((self.num_layers, self.num_experts))
        base = _softmax(self._layer_logits[0])
        loads[0] = (1.0 - balance) * base + balance * uniform
        for layer in range(1, self.num_layers):
            propagated = self._transitions[layer - 1] @ loads[layer - 1]
            own = _softmax(self._layer_logits[layer])
            mixed = 0.7 * propagated + 0.3 * own
            mixed = mixed / mixed.sum()
            loads[layer] = (1.0 - balance) * mixed + balance * uniform
        return loads

    # ---------------------------------------------------------- traffic matrix
    def rank_traffic_matrix(
        self,
        layer_loads: np.ndarray,
        sender_seed: Optional[int] = None,
    ) -> np.ndarray:
        """EP-rank all-to-all traffic matrix in **bytes** for one MoE layer.

        Entry ``[i, j]`` is the number of bytes EP rank ``i`` dispatches to the
        experts hosted on EP rank ``j`` during one all-to-all phase.  Each
        sender dispatches ``tokens_per_micro_batch * top_k`` token copies of
        ``token_hidden_bytes`` each, sharded across its TP group; destinations
        follow the aggregate expert loads perturbed by a per-sender Dirichlet
        affinity, which yields the sparse, non-uniform pattern of Figure 4b.

        Args:
            layer_loads: Expert load fractions for one layer (length
                ``num_experts``; will be renormalised).
            sender_seed: Optional seed for the per-sender perturbation so the
                matrix is reproducible independently of simulator state.
        """
        model = self.model
        loads = np.asarray(layer_loads, dtype=float)
        if loads.shape != (model.num_experts,):
            raise ValueError(
                f"layer_loads must have shape ({model.num_experts},), got {loads.shape}"
            )
        loads = np.clip(loads, 1e-12, None)
        loads = loads / loads.sum()

        ep = model.ep_degree
        per_rank = model.experts_per_ep_rank
        rank_loads = loads.reshape(ep, per_rank).sum(axis=1)

        rng = self._rng if sender_seed is None else np.random.default_rng(sender_seed)
        concentration = self.dynamics.sender_concentration
        alpha = np.clip(rank_loads * ep * concentration, 1e-3, None)
        sender_affinities = rng.dirichlet(alpha, size=ep)

        tokens = model.tokens_per_micro_batch * model.top_k
        bytes_per_sender = tokens * model.token_hidden_bytes / model.tp_degree
        matrix = sender_affinities * bytes_per_sender
        return matrix

    def iteration_traffic(
        self, iteration: Optional[int] = None
    ) -> List[np.ndarray]:
        """All-to-all traffic matrices for every MoE layer of one iteration."""
        loads = self.expert_loads(iteration)
        return [self.rank_traffic_matrix(loads[layer]) for layer in range(self.num_layers)]


def expert_load_variability(loads_over_time: np.ndarray) -> np.ndarray:
    """Coefficient of variation of expert loads at each recorded iteration.

    Args:
        loads_over_time: Array of shape ``(iterations, num_experts)``.

    Returns:
        Array of length ``iterations`` with ``std / mean`` per iteration; the
        paper observes this decreasing as load-balancing loss kicks in.
    """
    loads = np.asarray(loads_over_time, dtype=float)
    if loads.ndim != 2:
        raise ValueError("loads_over_time must be 2-D (iterations, experts)")
    mean = loads.mean(axis=1)
    std = loads.std(axis=1)
    return np.divide(std, np.where(mean == 0, 1.0, mean))
