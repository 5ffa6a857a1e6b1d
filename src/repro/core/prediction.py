"""MixNet-Copilot: traffic-demand prediction (Appendix B.1).

The first all-to-all of a layer's forward pass starts before its gate output
is known, so MixNet predicts it from the *previous* layer's expert-load
distribution using an estimated conditional-probability (transition) matrix
``P``: given the previous layer's load ``x``, the predicted load of the
current layer is ``P @ x``.  ``P`` is fitted per layer by minimising a
weighted squared error over a sliding window of recent iterations, subject to
``P`` being column-stochastic (every column sums to one, entries in [0, 1]).

Two solvers are provided:

* ``"slsqp"`` — the paper's Sequential Least Squares Programming formulation
  (scipy), practical for small expert counts;
* ``"projected"`` — unconstrained least squares followed by projection of
  each column onto the probability simplex, which scales to hundreds of
  experts and is the default for large models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def project_to_simplex(vector: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(vector, dtype=float)
    if v.ndim != 1:
        raise ValueError("vector must be 1-D")
    n = v.size
    sorted_desc = np.sort(v)[::-1]
    cumulative = np.cumsum(sorted_desc)
    rho_candidates = sorted_desc - (cumulative - 1.0) / np.arange(1, n + 1)
    rho = np.nonzero(rho_candidates > 0)[0]
    if rho.size == 0:
        # Degenerate input (e.g. all equal, extremely negative): uniform.
        return np.full(n, 1.0 / n)
    k = rho[-1] + 1
    theta = (cumulative[k - 1] - 1.0) / k
    return np.clip(v - theta, 0.0, None)


def _window_weights(count: int, decay: float) -> np.ndarray:
    """Exponentially decaying weights, newest sample heaviest, summing to 1."""
    weights = decay ** np.arange(count - 1, -1, -1)
    return weights / weights.sum()


def estimate_transition_matrix(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    method: str = "auto",
    decay: float = 0.8,
    max_slsqp_experts: int = 16,
) -> np.ndarray:
    """Estimate the column-stochastic transition matrix from (x, y) pairs.

    Args:
        pairs: Sequence of ``(previous_layer_load, current_layer_load)``
            vectors, oldest first.  Both are normalised internally.
        method: ``"slsqp"``, ``"projected"`` or ``"auto"`` (SLSQP for small
            expert counts, projected least squares otherwise).
        decay: Exponential decay of the per-sample weights ``w_i`` (Eq. 1).
        max_slsqp_experts: Expert-count threshold for the automatic method.

    Returns:
        ``P`` with shape ``(num_experts, num_experts)`` such that
        ``predicted_y = P @ x``; every column sums to 1.
    """
    if not pairs:
        raise ValueError("at least one (x, y) pair is required")
    xs = np.stack([np.asarray(x, dtype=float) for x, _ in pairs])
    ys = np.stack([np.asarray(y, dtype=float) for _, y in pairs])
    if xs.shape != ys.shape or xs.ndim != 2:
        raise ValueError("x and y vectors must share the same length")
    xs = xs / np.clip(xs.sum(axis=1, keepdims=True), 1e-12, None)
    ys = ys / np.clip(ys.sum(axis=1, keepdims=True), 1e-12, None)
    num_experts = xs.shape[1]
    weights = _window_weights(len(pairs), decay)

    if method == "auto":
        method = "slsqp" if num_experts <= max_slsqp_experts else "projected"
    if method == "projected":
        return _estimate_projected(xs, ys, weights)
    if method == "slsqp":
        return _estimate_slsqp(xs, ys, weights)
    raise ValueError(f"unknown method {method!r}")


def _estimate_projected(xs: np.ndarray, ys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted ridge least squares followed by column-wise simplex projection."""
    num_experts = xs.shape[1]
    w = np.sqrt(weights)[:, None]
    a = xs * w
    b = ys * w
    gram = a.T @ a + 1e-6 * np.eye(num_experts)
    cross = a.T @ b
    # Solve P A^T = B^T  =>  P = (solve(gram, cross)).T
    p = np.linalg.solve(gram, cross).T
    for col in range(num_experts):
        p[:, col] = project_to_simplex(p[:, col])
    return p


def _estimate_slsqp(xs: np.ndarray, ys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The paper's SLSQP formulation of Eq. (1)."""
    # Imported here, not at module level: scipy costs most of the start-up
    # of every entry point that imports repro, and only this fit needs it.
    from scipy import optimize

    num_experts = xs.shape[1]
    size = num_experts * num_experts

    def unpack(flat: np.ndarray) -> np.ndarray:
        return flat.reshape(num_experts, num_experts)

    def objective(flat: np.ndarray) -> float:
        p = unpack(flat)
        predictions = xs @ p.T
        residual = predictions - ys
        return float(np.sum(weights[:, None] * residual**2))

    def gradient(flat: np.ndarray) -> np.ndarray:
        p = unpack(flat)
        predictions = xs @ p.T
        residual = (predictions - ys) * weights[:, None]
        grad = 2.0 * residual.T @ xs
        return grad.ravel()

    constraints = [
        {
            "type": "eq",
            "fun": lambda flat, col=col: unpack(flat)[:, col].sum() - 1.0,
        }
        for col in range(num_experts)
    ]
    bounds = [(0.0, 1.0)] * size
    initial = np.full((num_experts, num_experts), 1.0 / num_experts).ravel()
    result = optimize.minimize(
        objective,
        initial,
        jac=gradient,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 200, "ftol": 1e-9},
    )
    p = unpack(result.x)
    p = np.clip(p, 0.0, 1.0)
    col_sums = np.clip(p.sum(axis=0, keepdims=True), 1e-12, None)
    return p / col_sums


@dataclass
class PredictionReport:
    """Top-k accuracy of a prediction strategy (Figure 19)."""

    strategy: str
    top_k_accuracy: Dict[int, float]

    def accuracy(self, k: int) -> float:
        return self.top_k_accuracy[k]


class MixNetCopilot:
    """Per-layer transition-matrix estimator and load predictor.

    Args:
        num_layers: MoE blocks in the model.
        num_experts: Experts per block.
        window: Sliding-window length ``k`` of Eq. (1).
        method: Estimation method passed to :func:`estimate_transition_matrix`.
            Defaults to the projected least-squares solver, which matches the
            SLSQP formulation's accuracy while staying fast enough to refit
            every MoE block online each iteration; pass ``"slsqp"`` for the
            paper's exact optimiser.
        decay: Exponential window-weight decay.
    """

    def __init__(
        self,
        num_layers: int,
        num_experts: int,
        window: int = 8,
        method: str = "projected",
        decay: float = 0.8,
    ) -> None:
        if num_layers <= 1:
            raise ValueError("Copilot needs at least two layers")
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.window = window
        self.method = method
        self.decay = decay
        self._pairs: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {
            layer: [] for layer in range(1, num_layers)
        }
        self._matrices: Dict[int, np.ndarray] = {}

    # -------------------------------------------------------------- recording
    def observe_iteration(self, expert_loads: np.ndarray) -> None:
        """Feed one iteration's per-layer loads (shape ``(layers, experts)``)."""
        loads = np.asarray(expert_loads, dtype=float)
        if loads.shape != (self.num_layers, self.num_experts):
            raise ValueError(
                f"expert_loads must be ({self.num_layers}, {self.num_experts})"
            )
        for layer in range(1, self.num_layers):
            pairs = self._pairs[layer]
            pairs.append((loads[layer - 1].copy(), loads[layer].copy()))
            if len(pairs) > self.window:
                del pairs[0]
        self._matrices.clear()

    def transition_matrix(self, layer: int) -> np.ndarray:
        """Estimated transition matrix from ``layer-1`` to ``layer``."""
        if layer not in self._pairs:
            raise ValueError(f"layer {layer} has no predecessor")
        if layer not in self._matrices:
            pairs = self._pairs[layer]
            if not pairs:
                raise ValueError(f"no observations recorded for layer {layer}")
            self._matrices[layer] = estimate_transition_matrix(
                pairs, method=self.method, decay=self.decay
            )
        return self._matrices[layer]

    # -------------------------------------------------------------- prediction
    def predict_loads(self, layer: int, previous_layer_loads: np.ndarray) -> np.ndarray:
        """Predicted load distribution of ``layer`` given layer ``layer-1``'s."""
        x = np.asarray(previous_layer_loads, dtype=float)
        x = x / np.clip(x.sum(), 1e-12, None)
        p = self.transition_matrix(layer)
        predicted = p @ x
        total = predicted.sum()
        return predicted / total if total > 0 else np.full_like(predicted, 1.0 / x.size)

    # -------------------------------------------------------------- evaluation
    @staticmethod
    def top_k_hit(predicted: np.ndarray, actual: np.ndarray, k: int) -> float:
        """Fraction of the actual top-k experts recovered by the prediction."""
        if k <= 0:
            raise ValueError("k must be positive")
        pred_top = set(np.argsort(predicted)[::-1][:k])
        true_top = set(np.argsort(actual)[::-1][:k])
        return len(pred_top & true_top) / k

    def evaluate(
        self,
        loads_by_iteration: Sequence[np.ndarray],
        ks: Sequence[int] = (1, 2, 3, 4),
        warmup: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, PredictionReport]:
        """Compare Copilot with the Random and Unmodified baselines (Fig. 19).

        Args:
            loads_by_iteration: Per-iteration ``(layers, experts)`` loads, in
                temporal order; the copilot observes each iteration after
                predicting it (online evaluation).
            ks: Top-k values to report.
            warmup: Iterations observed before scoring begins.
            rng: Random generator for the random baseline.

        Returns:
            Mapping of strategy name (``"MixNet-Copilot"``, ``"Random"``,
            ``"Unmodified"``) to its :class:`PredictionReport`.
        """
        rng = rng or np.random.default_rng(0)
        hits: Dict[str, Dict[int, List[float]]] = {
            name: {k: [] for k in ks} for name in ("MixNet-Copilot", "Random", "Unmodified")
        }
        for index, loads in enumerate(loads_by_iteration):
            loads = np.asarray(loads, dtype=float)
            if index >= warmup:
                for layer in range(1, self.num_layers):
                    actual = loads[layer]
                    previous = loads[layer - 1]
                    copilot_pred = self.predict_loads(layer, previous)
                    random_pred = rng.dirichlet(np.ones(self.num_experts))
                    unmodified_pred = previous
                    for k in ks:
                        hits["MixNet-Copilot"][k].append(self.top_k_hit(copilot_pred, actual, k))
                        hits["Random"][k].append(self.top_k_hit(random_pred, actual, k))
                        hits["Unmodified"][k].append(self.top_k_hit(unmodified_pred, actual, k))
            self.observe_iteration(loads)
        return {
            name: PredictionReport(
                strategy=name,
                top_k_accuracy={k: float(np.mean(values)) if values else 0.0
                                for k, values in per_k.items()},
            )
            for name, per_k in hits.items()
        }
