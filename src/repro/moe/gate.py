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
from typing import List, Optional, Tuple

import numpy as np

from repro.moe.models import MoEModelConfig


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


#: Values drawn per call when paying owed draws, so paying never allocates
#: a whole skipped tensor (60 DeepSeek-R1 transitions are 31.5 MB).
_PAY_CHUNK = 65_536


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

    The gate can simulate a prefix of the model's MoE blocks only: a
    pipeline stage reads the traffic of its own blocks, and blocks
    ``0..num_layers-1`` depend only on their own logits and transitions.
    The random stream is still consumed exactly as by the full gate.  Draws
    for blocks past the horizon are *owed* instead of made, and paid (drawn
    and thrown away, in stream order) just before the generator is used
    again, so every value the gate returns is identical to the full gate's.

    Args:
        model: MoE model whose expert count and layer count to simulate.
        dynamics: Stochastic-process parameters.
        seed: Seed for the internal random generator.
        num_layers: Simulate MoE blocks ``0..num_layers-1`` only; ``None``
            means all of the model's blocks.
    """

    def __init__(
        self,
        model: MoEModelConfig,
        dynamics: Optional[GateDynamicsConfig] = None,
        seed: int = 0,
        *,
        num_layers: Optional[int] = None,
    ) -> None:
        total = model.num_moe_blocks
        horizon = total if num_layers is None else num_layers
        if not 1 <= horizon <= total:
            raise ValueError(f"num_layers must be in [1, {total}], got {num_layers}")
        self.model = model
        self.dynamics = dynamics or GateDynamicsConfig()
        self._rng = np.random.default_rng(seed)
        #: MoE blocks simulated (the horizon).
        self.num_layers = horizon
        #: Skipped draws as ``(generator method, arguments, count)``.
        self._owed: List[Tuple[str, tuple, int]] = []
        num_experts = model.num_experts
        dyn = self.dynamics

        # Base affinity logits for layer 0 plus per-layer offsets: every
        # block has its own (non-uniform) preferred experts, reproducing
        # Figure 18.  All rows are drawn: the transitions come after them.
        self._layer_logits = self._rng.normal(
            0.0, dyn.initial_logit_std, size=(total, num_experts)
        )[:horizon]
        # Column-stochastic inter-layer transition matrices P[l]: given a
        # token went to expert i at layer l, P[l][j, i] is the probability
        # it goes to expert j at layer l+1.  MixNet-Copilot estimates these
        # (§B.1).  A one-block model still draws one (unused) matrix.
        alpha = np.full(num_experts, dyn.transition_concentration)
        # Each P[l] is a transposed Dirichlet sample.  Keep it a transposed
        # view: ``P[l] @ loads`` rounds differently on a C-ordered copy.
        drawn = self._rng.dirichlet(alpha, size=(horizon - 1, num_experts))
        self._transitions = drawn.transpose(0, 2, 1)
        owed_rows = (max(1, total - 1) - (horizon - 1)) * num_experts
        self._owed.append(("dirichlet", (alpha,), owed_rows))
        self._iteration = 0

    # ----------------------------------------------------------------- access
    @property
    def num_experts(self) -> int:
        return self.model.num_experts

    def transition_matrix(self, layer: int) -> np.ndarray:
        """Ground-truth transition matrix from layer ``layer`` to ``layer+1``."""
        if not 0 <= layer < self.num_layers - 1:
            raise ValueError(f"layer {layer} has no successor")
        return self._transitions[layer].copy()

    # ------------------------------------------------------------ owed draws
    def _pay_owed(self) -> None:
        """Make the skipped draws, in stream order, and discard them."""
        for kind, args, count in self._owed:
            draw = getattr(self._rng, kind)
            # A Dirichlet draw is one row of ``len(alpha)`` values.
            per_call = _PAY_CHUNK // (len(args[0]) if kind == "dirichlet" else 1)
            while count > 0:
                draw(*args, size=min(count, per_call))
                count -= per_call
        self._owed.clear()

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
        total = self.model.num_moe_blocks
        num_experts = self.num_experts
        for _ in range(iterations):
            self._pay_owed()
            noise = self._rng.normal(0.0, dyn.drift_std, size=(total, num_experts))
            self._layer_logits = (
                (1.0 - dyn.mean_reversion) * self._layer_logits + noise[: self.num_layers]
            )
            if total > 1:
                noise = self._rng.normal(
                    0.0, dyn.transition_drift_std, size=self._transitions.shape
                )
                owed = (total - self.num_layers) * num_experts * num_experts
                self._owed.append(("normal", (0.0, dyn.transition_drift_std), owed))
                perturbed = np.clip(self._transitions + noise, 1e-6, None)
                self._transitions = perturbed / perturbed.sum(axis=1, keepdims=True)
            self._iteration += 1

    def expert_loads(self, iteration: Optional[int] = None) -> np.ndarray:
        """Per-layer expert load fractions, shape ``(num_layers, num_experts)``.

        Layer 0's load comes directly from its affinity logits; each subsequent
        layer's load is the previous layer's load pushed through that layer's
        transition matrix, mixed with the layer's own affinity.  Every row sums
        to 1.  Only the horizon's rows are computed.
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

        if sender_seed is None:
            self._pay_owed()
            rng = self._rng
        else:
            rng = np.random.default_rng(sender_seed)
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
        """All-to-all traffic matrices for every simulated layer of one iteration."""
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
