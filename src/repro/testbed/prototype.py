"""Emulation of the 32-GPU hardware prototype (§6, Appendix C).

The prototype has four servers, each with eight A100 GPUs and four 100 Gbps
ConnectX-6 NICs.  In the MixNet configuration three NICs per server attach to
the Polatis OCS and one to the Ethernet switch; the baseline attaches all four
NICs to the Ethernet switch (an ideal non-blocking EPS).  The paper trains
truncated versions of the three Table 1 models (7 / 16 / 12 MoE blocks) and
reports end-to-end iteration time (Figure 10).

This module reproduces that experiment with the same simulator used for the
large-scale evaluation, swapping in the testbed's cluster, NIC split, models
and measured OCS reconfiguration delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.spec import A100, ClusterSpec, ServerSpec
from repro.core.runtime import RuntimeOptions, TrainingSimulator
from repro.fabric.electrical import FatTreeFabric
from repro.fabric.mixnet import MixNetFabric
from repro.fabric.ocs import PIEZO_POLATIS
from repro.moe.models import LLAMA_MOE, MIXTRAL_8x7B, QWEN_MOE, MoEModelConfig


#: Truncated model configurations used on the prototype (Appendix C): the
#: parallelism is shrunk to fit 32 GPUs and only a subset of the MoE blocks
#: is trained.
TESTBED_MODELS: Dict[str, MoEModelConfig] = {
    "Mixtral 8x7B": MIXTRAL_8x7B.with_overrides(
        num_moe_blocks=7, tp_degree=1, pp_degree=4, ep_degree=8
    ),
    "Qwen-MoE": QWEN_MOE.with_overrides(
        num_moe_blocks=12, tp_degree=1, pp_degree=2, ep_degree=16
    ),
    "Llama-MoE": LLAMA_MOE.with_overrides(
        num_moe_blocks=16, tp_degree=1, pp_degree=2, ep_degree=16
    ),
}


def testbed_cluster(ocs_nics: int) -> ClusterSpec:
    """The 4-server, 32-GPU prototype with a given EPS/OCS NIC split."""
    return ClusterSpec(
        num_servers=4,
        server=ServerSpec(
            num_gpus=8,
            num_nics=4,
            nic_bandwidth_gbps=100.0,
            ocs_nics=ocs_nics,
            gpu=A100,
            nvswitch_bandwidth_gbps=2400.0,
        ),
    )


@dataclass(frozen=True)
class TestbedComparison:
    """Iteration time of the EPS baseline vs the MixNet prototype for one model."""

    model: str
    eps_iteration_s: float
    mixnet_iteration_s: float

    @property
    def relative_difference(self) -> float:
        """MixNet's iteration time relative to the EPS baseline (1.0 = equal)."""
        return self.mixnet_iteration_s / self.eps_iteration_s


def run_prototype_experiment(
    model_name: str,
    seed: int = 0,
    reconfiguration_delay_s: float = 0.047,
) -> TestbedComparison:
    """Reproduce one bar pair of Figure 10.

    Args:
        model_name: One of :data:`TESTBED_MODELS`.
        seed: Seed of the synthetic gate.
        reconfiguration_delay_s: Measured average OCS reconfiguration delay
            for a 16-pair batch (Figure 21).
    """
    if model_name not in TESTBED_MODELS:
        raise KeyError(f"unknown testbed model {model_name!r}; known: {sorted(TESTBED_MODELS)}")
    model = TESTBED_MODELS[model_name]
    options = RuntimeOptions(
        first_a2a_policy="block",
        reconfiguration_delay_s=reconfiguration_delay_s,
        seed=seed,
    )

    eps_cluster = testbed_cluster(ocs_nics=0)
    eps_fabric = FatTreeFabric(eps_cluster, oversubscription=1.0, name="EPS")
    eps_result = TrainingSimulator(model, eps_cluster, eps_fabric, options=options).simulate_iteration()

    mix_cluster = testbed_cluster(ocs_nics=3)
    mix_fabric = MixNetFabric(
        mix_cluster, ocs_technology=PIEZO_POLATIS,
        blocking_reconfiguration_s=reconfiguration_delay_s,
    )
    mix_result = TrainingSimulator(model, mix_cluster, mix_fabric, options=options).simulate_iteration()

    return TestbedComparison(
        model=model_name,
        eps_iteration_s=eps_result.iteration_time_s,
        mixnet_iteration_s=mix_result.iteration_time_s,
    )


def run_all_prototype_experiments(seed: int = 0) -> List[TestbedComparison]:
    """Figure 10: all three models on the prototype."""
    return [run_prototype_experiment(name, seed=seed) for name in TESTBED_MODELS]
