"""Tests for the MoE model zoo (Table 1 / Appendix D.1 configurations)."""

import pytest

from repro.moe.models import (
    DEEPSEEK_R1,
    DEEPSEEK_V3,
    LLAMA_MOE,
    MIXTRAL_8x7B,
    MIXTRAL_8x22B,
    MODEL_ZOO,
    QWEN_MOE,
    QWEN_MOE_EP32,
    SIMULATED_MODELS,
    TABLE1_MODELS,
    get_model,
)


class TestTable1Configurations:
    """The Table 1 rows the paper profiles."""

    def test_mixtral_8x7b(self):
        assert MIXTRAL_8x7B.num_moe_blocks == 32
        assert MIXTRAL_8x7B.num_experts == 8
        assert MIXTRAL_8x7B.ep_degree == 8
        assert MIXTRAL_8x7B.tp_degree == 4
        assert MIXTRAL_8x7B.pp_degree == 4
        assert MIXTRAL_8x7B.seq_len == 4096
        assert MIXTRAL_8x7B.micro_batch_size == 8

    def test_llama_moe(self):
        assert LLAMA_MOE.num_moe_blocks == 32
        assert LLAMA_MOE.num_experts == 16
        assert LLAMA_MOE.ep_degree == 16
        assert LLAMA_MOE.tp_degree == 1
        assert LLAMA_MOE.pp_degree == 4

    def test_qwen_moe(self):
        assert QWEN_MOE.num_moe_blocks == 24
        assert QWEN_MOE.num_experts == 64
        assert QWEN_MOE.ep_degree == 16
        assert QWEN_MOE.pp_degree == 4

    def test_table1_models_list(self):
        assert [m.name for m in TABLE1_MODELS] == [
            "Mixtral-8x7B",
            "LLaMA-MoE",
            "Qwen-MoE",
        ]


class TestSimulatedModels:
    """Appendix D.1 parallelisation strategies."""

    def test_deepseek_r1_parallelism(self):
        assert DEEPSEEK_R1.ep_degree == 64
        assert DEEPSEEK_R1.pp_degree == 16
        assert DEEPSEEK_R1.num_experts == 256

    def test_deepseek_v3_for_nvl72_study(self):
        assert DEEPSEEK_V3.ep_degree == 128
        assert DEEPSEEK_V3.pp_degree == 16
        assert DEEPSEEK_V3.micro_batch_size == 240

    def test_mixtral_8x22b_parallelism(self):
        assert MIXTRAL_8x22B.tp_degree == 8
        assert MIXTRAL_8x22B.pp_degree == 8
        assert MIXTRAL_8x22B.ep_degree == 8

    def test_qwen_ep32_variant(self):
        assert QWEN_MOE_EP32.ep_degree == 32
        assert QWEN_MOE_EP32.num_experts == QWEN_MOE.num_experts

    def test_simulated_models_cover_figure12(self):
        assert len(SIMULATED_MODELS) == 4


class TestDerivedQuantities:
    def test_experts_per_ep_rank(self):
        assert MIXTRAL_8x7B.experts_per_ep_rank == 1
        assert QWEN_MOE.experts_per_ep_rank == 4
        assert DEEPSEEK_R1.experts_per_ep_rank == 4

    def test_tokens_per_micro_batch(self):
        assert MIXTRAL_8x7B.tokens_per_micro_batch == 4096 * 8

    def test_token_hidden_bytes(self):
        assert MIXTRAL_8x7B.token_hidden_bytes == 4096 * 2

    def test_blocks_per_pp_stage_rounds_up(self):
        assert MIXTRAL_8x7B.blocks_per_pp_stage == 8
        assert DEEPSEEK_R1.blocks_per_pp_stage == 4  # ceil(61 / 16)

    def test_param_counts_positive_and_ordered(self):
        for model in MODEL_ZOO.values():
            assert model.expert_params() > 0
            assert model.block_params() > model.dense_equivalent_params()

    def test_with_overrides_returns_new_config(self):
        modified = MIXTRAL_8x7B.with_overrides(micro_batch_size=32)
        assert modified.micro_batch_size == 32
        assert MIXTRAL_8x7B.micro_batch_size == 8
        assert modified.name == MIXTRAL_8x7B.name


class TestValidation:
    def test_top_k_bounds(self):
        with pytest.raises(ValueError):
            MIXTRAL_8x7B.with_overrides(top_k=0)
        with pytest.raises(ValueError):
            MIXTRAL_8x7B.with_overrides(top_k=9)

    def test_ep_degree_must_divide_experts(self):
        with pytest.raises(ValueError):
            MIXTRAL_8x7B.with_overrides(ep_degree=3)

    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError):
            MIXTRAL_8x7B.with_overrides(hidden_size=0)


class TestLookup:
    def test_get_model_exact(self):
        assert get_model("Mixtral-8x7B") is MIXTRAL_8x7B

    def test_get_model_aliases(self):
        assert get_model("mixtral") is MIXTRAL_8x7B
        assert get_model("deepseek-r1") is DEEPSEEK_R1
        assert get_model("Qwen MoE") is QWEN_MOE

    def test_get_model_unknown(self):
        with pytest.raises(KeyError):
            get_model("gpt-5")
