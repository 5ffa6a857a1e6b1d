"""Tests for the synthetic gate simulator (the §3 measurement substitute)."""

import numpy as np
import pytest

from repro.analysis.locality import temporal_variability
from repro.moe.gate import GateDynamicsConfig, GateSimulator, expert_load_variability
from repro.moe.models import MIXTRAL_8x7B, QWEN_MOE
from repro.sweep.registry import SWEEP_MODELS


@pytest.fixture
def gate():
    return GateSimulator(MIXTRAL_8x7B, seed=7)


class TestExpertLoads:
    def test_shape_and_normalisation(self, gate):
        loads = gate.expert_loads(0)
        assert loads.shape == (32, 8)
        np.testing.assert_allclose(loads.sum(axis=1), 1.0, atol=1e-9)
        assert (loads > 0).all()

    def test_loads_vary_across_iterations(self, gate):
        """Figure 4a: activation intensities differ between iterations."""
        first = gate.expert_loads(0).copy()
        later = gate.expert_loads(50)
        assert not np.allclose(first, later)

    def test_loads_vary_across_layers(self, gate):
        """Figure 18: token distribution differs across MoE blocks."""
        loads = gate.expert_loads(0)
        assert not np.allclose(loads[0], loads[1])

    def test_cannot_rewind(self, gate):
        gate.expert_loads(10)
        with pytest.raises(ValueError):
            gate.expert_loads(5)

    def test_load_balancing_reduces_variability(self):
        """Figure 4a: the spread between experts shrinks as training progresses."""
        gate = GateSimulator(MIXTRAL_8x7B, seed=3)
        history = []
        for step in range(0, 8001, 500):
            history.append(gate.expert_loads(step)[0])
        variability = expert_load_variability(np.stack(history))
        assert variability[-1] < variability[0]

    def test_loads_never_fully_uniform(self):
        """Even late in training the matrices stay sparse/non-uniform (§3)."""
        gate = GateSimulator(MIXTRAL_8x7B, seed=3)
        late = gate.expert_loads(8000)
        assert late.std(axis=1).max() > 1e-3

    def test_determinism_with_seed(self):
        a = GateSimulator(MIXTRAL_8x7B, seed=11).expert_loads(5)
        b = GateSimulator(MIXTRAL_8x7B, seed=11).expert_loads(5)
        np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self):
        a = GateSimulator(MIXTRAL_8x7B, seed=1).expert_loads(0)
        b = GateSimulator(MIXTRAL_8x7B, seed=2).expert_loads(0)
        assert not np.allclose(a, b)


class TestTransitionStructure:
    def test_transition_matrices_column_stochastic(self, gate):
        for layer in (0, 10, 30):
            matrix = gate.transition_matrix(layer)
            np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-6)

    def test_last_layer_has_no_transition(self, gate):
        with pytest.raises(ValueError):
            gate.transition_matrix(31)

    def test_consecutive_layers_are_correlated(self, gate):
        """Appendix B.1: the next layer's loads depend on the previous layer's."""
        loads = gate.expert_loads(0)
        predicted = gate.transition_matrix(0) @ loads[0]
        baseline_error = np.abs(loads[1] - np.full(8, 1 / 8)).sum()
        prediction_error = np.abs(loads[1] - predicted).sum()
        assert prediction_error < baseline_error


class TestTrafficMatrix:
    def test_matrix_shape_and_positivity(self, gate):
        loads = gate.expert_loads(0)
        matrix = gate.rank_traffic_matrix(loads[0])
        assert matrix.shape == (8, 8)
        assert (matrix >= 0).all()

    def test_total_dispatch_volume(self, gate):
        """Each rank dispatches tokens*top_k hidden vectors sharded over TP."""
        loads = gate.expert_loads(0)
        matrix = gate.rank_traffic_matrix(loads[0])
        expected_per_rank = (
            MIXTRAL_8x7B.tokens_per_micro_batch
            * MIXTRAL_8x7B.top_k
            * MIXTRAL_8x7B.token_hidden_bytes
            / MIXTRAL_8x7B.tp_degree
        )
        np.testing.assert_allclose(matrix.sum(axis=1), expected_per_rank, rtol=1e-9)

    def test_matrix_is_non_uniform(self, gate):
        """Figure 4b: heavy communication between only a few pairs."""
        loads = gate.expert_loads(0)
        matrix = gate.rank_traffic_matrix(loads[0], sender_seed=5)
        off_diag = matrix[~np.eye(8, dtype=bool)]
        assert off_diag.max() > 3.0 * off_diag.mean()

    def test_sender_seed_reproducible(self, gate):
        loads = gate.expert_loads(0)
        a = gate.rank_traffic_matrix(loads[0], sender_seed=42)
        b = gate.rank_traffic_matrix(loads[0], sender_seed=42)
        np.testing.assert_allclose(a, b)

    def test_bad_load_shape_rejected(self, gate):
        with pytest.raises(ValueError):
            gate.rank_traffic_matrix(np.ones(4))

    def test_iteration_traffic_covers_all_layers(self):
        gate = GateSimulator(QWEN_MOE, seed=0)
        matrices = gate.iteration_traffic(0)
        assert len(matrices) == QWEN_MOE.num_moe_blocks
        assert matrices[0].shape == (16, 16)


class TestVariabilityHelpers:
    def test_expert_load_variability_shape(self):
        history = np.random.default_rng(0).dirichlet(np.ones(8), size=20)
        cv = expert_load_variability(history)
        assert cv.shape == (20,)
        assert (cv >= 0).all()

    def test_expert_load_variability_rejects_1d(self):
        with pytest.raises(ValueError):
            expert_load_variability(np.ones(8))

    def test_temporal_variability_summary(self):
        gate = GateSimulator(MIXTRAL_8x7B, seed=5)
        history = np.stack([gate.expert_loads(step)[0] for step in range(0, 200, 20)])
        stats = temporal_variability(history)
        assert stats["mean_step_change"] > 0


class TestDynamicsConfig:
    def test_advance_negative_rejected(self, gate):
        with pytest.raises(ValueError):
            gate.advance(-1)

    def test_custom_dynamics_respected(self):
        dynamics = GateDynamicsConfig(final_balance=0.0, drift_std=0.0)
        gate = GateSimulator(MIXTRAL_8x7B, dynamics=dynamics, seed=0)
        early = gate.expert_loads(0)[0].copy()
        late = GateSimulator(MIXTRAL_8x7B, dynamics=dynamics, seed=0).expert_loads(0)[0]
        np.testing.assert_allclose(early, late)


def _stage_size(model):
    return min(model.blocks_per_pp_stage, model.num_moe_blocks)


class TestPrefixHorizon:
    """A gate simulating blocks ``0..h-1`` returns exactly the full gate's
    values for those blocks, and leaves its generator where the full gate
    leaves it once the stream is read again."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", sorted(SWEEP_MODELS))
    def test_prefix_identical_to_full_gate(self, name, seed):
        model = SWEEP_MODELS[name]
        full = GateSimulator(model, seed=seed)
        horizons = sorted({1, _stage_size(model), model.num_moe_blocks})
        gates = {h: GateSimulator(model, seed=seed, num_layers=h) for h in horizons}
        for iteration in range(4):
            loads = full.expert_loads(iteration)
            for h, gate in gates.items():
                prefix = gate.expert_loads(iteration)
                assert prefix.shape == (h, model.num_experts)
                assert (prefix == loads[:h]).all(), (h, iteration)
                for k in range(h - 1):
                    assert (gate.transition_matrix(k) == full.transition_matrix(k)).all()
                for layer in range(h):
                    sender_seed = iteration * 131 + layer
                    assert (
                        gate.rank_traffic_matrix(prefix[layer], sender_seed=sender_seed)
                        == full.rank_traffic_matrix(loads[layer], sender_seed=sender_seed)
                    ).all()
        # Unseeded matrices read the shared stream: the owed draws of the
        # init and of every advance must have been paid, in order.
        expected = full.rank_traffic_matrix(loads[0])
        for gate in gates.values():
            assert (gate.rank_traffic_matrix(loads[0]) == expected).all()

    def test_prefix_matches_reference_draws(self):
        """Iteration-0 loads recomputed from the gate's defining draw order:
        every logit row, then one Dirichlet sample per transition, used
        transposed.  Pins the values themselves, not only prefix == full."""
        model, seed, h = SWEEP_MODELS["DeepSeek-R1"], 4, 4
        experts = model.num_experts
        dyn = GateDynamicsConfig()
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, dyn.initial_logit_std, size=(model.num_moe_blocks, experts))
        alpha = np.full(experts, dyn.transition_concentration)
        transitions = np.stack([rng.dirichlet(alpha, size=experts).T for _ in range(h - 1)])

        def softmax(row):
            exp = np.exp(row - row.max())
            return exp / exp.sum()

        expected = [softmax(logits[0])]
        for layer in range(1, h):
            mixed = 0.7 * (transitions[layer - 1] @ expected[-1]) + 0.3 * softmax(logits[layer])
            expected.append(mixed / mixed.sum())
        loads = GateSimulator(model, seed=seed, num_layers=h).expert_loads(0)
        assert (loads == np.stack(expected)).all()

    def test_init_debt_paid_before_unseeded_matrix(self):
        full = GateSimulator(QWEN_MOE, seed=3)
        gate = GateSimulator(QWEN_MOE, seed=3, num_layers=2)
        loads = full.expert_loads(0)
        assert (gate.rank_traffic_matrix(loads[1]) == full.rank_traffic_matrix(loads[1])).all()
        assert (gate.expert_loads(2) == full.expert_loads(2)[:2]).all()

    def test_horizon_bounds_transitions(self):
        gate = GateSimulator(QWEN_MOE, seed=0, num_layers=3)
        assert gate.num_layers == 3
        gate.transition_matrix(1)
        with pytest.raises(ValueError):
            gate.transition_matrix(2)

    @pytest.mark.parametrize("num_layers", [0, -1, QWEN_MOE.num_moe_blocks + 1])
    def test_bad_horizon_rejected(self, num_layers):
        with pytest.raises(ValueError):
            GateSimulator(QWEN_MOE, seed=0, num_layers=num_layers)


def _fig12_cluster(model_name):
    from repro.cluster import simulation_cluster
    from repro.sweep import SweepSpec

    return simulation_cluster(SweepSpec(num_servers=32).servers_for(model_name))


class TestPrefixHorizonEndToEnd:
    """Production (stage-deep gates) against the full-horizon gate."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("fabric", ["Fat-tree", "TopoOpt", "MixNet"])
    @pytest.mark.parametrize("model", ["DeepSeek-R1", "Qwen-MoE-EP32"])
    def test_iteration_identical(self, monkeypatch, model, fabric, seed):
        from repro.core.caches import clear_all_caches
        from repro.core.runtime import RuntimeOptions, TrainingSimulator
        from repro.moe import trace as trace_mod
        from repro.sweep.registry import build_fabric

        cluster = _fig12_cluster(model)

        def simulate():
            clear_all_caches()
            simulator = TrainingSimulator(
                SWEEP_MODELS[model],
                cluster,
                build_fabric(fabric, cluster),
                options=RuntimeOptions(seed=seed),
            )
            return simulator.simulate_iteration()

        production = simulate()
        horizons = []

        def full_gate(*args, num_layers=None, **kwargs):
            horizons.append(num_layers)
            return GateSimulator(*args, **kwargs)

        monkeypatch.setattr(trace_mod, "GateSimulator", full_gate)
        oracle = simulate()
        clear_all_caches()
        assert horizons and all(h is not None for h in horizons)
        for name in (
            "iteration_time_s",
            "stage_time_s",
            "comm_bytes",
            "reconfig_blocking_s",
            "events",
        ):
            assert getattr(oracle, name) == getattr(production, name), name

    def test_default_record_draws_only_the_stage(self):
        from repro.core.caches import clear_all_caches
        from repro.core.runtime import TrainingSimulator
        from repro.sweep.registry import build_fabric

        clear_all_caches()
        cluster = _fig12_cluster("DeepSeek-R1")
        model = SWEEP_MODELS["DeepSeek-R1"]
        simulator = TrainingSimulator(model, cluster, build_fabric("Fat-tree", cluster))
        record = simulator.default_record()
        stage = simulator._stage_layers()
        assert len(record.traffic_matrices) == len(stage) == 4
        assert record.expert_loads.shape == (4, model.num_experts) == (4, 256)
        clear_all_caches()
