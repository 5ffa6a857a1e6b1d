"""Sweep specification: a declarative grid of simulation configurations.

A :class:`SweepSpec` is the cartesian product of the axes the paper sweeps in
its large-scale evaluation; :meth:`SweepSpec.expand` materialises it into
concrete, content-hashed :class:`SweepConfig` records that the runner (and its
result cache) consume.
"""

from __future__ import annotations

import hashlib
import json
import itertools
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.runtime import FIRST_A2A_POLICIES
from repro.moe.parallelism import minimal_world_size
from repro.sweep.registry import FABRIC_BUILDERS, parse_failure, resolve_model

#: Bumped whenever the meaning of a config field (and therefore the validity
#: of cached results) changes.  v2: added the ``reconfig_engine`` axis; v3:
#: removed it again (the engines are identical by contract, so the axis could
#: not change a result).
CONFIG_SCHEMA_VERSION = 3

#: GPUs per server of the §7.1 simulation cluster (``simulation_cluster``).
_GPUS_PER_SERVER = 8


@dataclass(frozen=True)
class SweepConfig:
    """One fully-specified simulation run.

    All fields are primitives so configs pickle cheaply to worker processes
    and hash stably for the result cache.  Fabrics, models and failures are
    referenced by registry name (see :mod:`repro.sweep.registry`).
    """

    fabric: str
    model: str
    first_a2a_policy: str = "block"
    reconfiguration_delay_s: float = 0.025
    failure: str = "none"
    nic_bandwidth_gbps: float = 400.0
    num_servers: int = 16
    ocs_nics: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fabric not in FABRIC_BUILDERS:
            raise ValueError(
                f"unknown fabric {self.fabric!r}; known: {sorted(FABRIC_BUILDERS)}"
            )
        resolve_model(self.model)  # raises KeyError on unknown models
        if self.first_a2a_policy not in FIRST_A2A_POLICIES:
            raise ValueError(
                f"first_a2a_policy must be one of {FIRST_A2A_POLICIES}, "
                f"got {self.first_a2a_policy!r}"
            )
        parse_failure(self.failure)  # raises ValueError on unknown scenarios
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if self.nic_bandwidth_gbps <= 0:
            raise ValueError("nic_bandwidth_gbps must be positive")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepConfig":
        return cls(**payload)

    def config_hash(self) -> str:
        """Stable content hash identifying this configuration (cache key)."""
        canonical = json.dumps(
            {"schema": CONFIG_SCHEMA_VERSION, **self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]

    def structural_key(self) -> Tuple[object, ...]:
        """Hashable signature of what shapes the task DAG and flow graph.

        Configurations sharing a key build structurally-compatible
        simulations — same fabric shape, model, policy and failure scenario —
        and can therefore be folded into one block-diagonal batch
        (:class:`repro.sweep.runner.SweepRunner`).  The remaining axes
        (bandwidths, seeds, delays) only change link capacities, flow sizes
        and task durations, which fold freely.

        The key is also the identity of a
        :class:`~repro.sweep.template.StructuralTemplate`: one template per
        key caches the parameter-independent artifacts every member shares,
        and memos inside the template re-key themselves by whichever stamped
        axes (seed, bandwidth, delay) they additionally depend on —
        so changing this key's definition invalidates both the fold grouping
        and the template cache consistently.
        """
        return (
            self.fabric,
            self.model,
            self.first_a2a_policy,
            self.failure,
            self.num_servers,
            self.ocs_nics,
        )


def structural_groups(
    configs: Sequence[SweepConfig],
) -> Dict[Tuple[object, ...], List[int]]:
    """Group config positions by :meth:`SweepConfig.structural_key`.

    The returned dict maps each structural key to the positions (into
    ``configs``) of its members, in first-seen key order with positions
    ascending — the fold-compatibility classes that drive folded admission
    and group sharding.
    """
    groups: Dict[Tuple[object, ...], List[int]] = {}
    for position, config in enumerate(configs):
        groups.setdefault(config.structural_key(), []).append(position)
    return groups


@dataclass
class SweepSpec:
    """Cartesian grid over the evaluation axes of §7.

    Attributes:
        fabrics: Fabric registry names (defaults to all five of Figure 12).
        models: Model registry names.
        first_a2a_policies: Policies for the forward pass's first all-to-all.
        reconfiguration_delays_s: OCS switching delays to sweep (Figure 21/28).
        failures: Failure-scenario strings (see
            :func:`repro.sweep.registry.parse_failure`).
        nic_bandwidths_gbps: Per-NIC link bandwidths (Figure 12 sweeps
            100-800 Gbps).
        num_servers: Cluster size; with ``auto_fit_servers`` the per-model
            floor is raised to the model's minimal TP×PP×EP world size.
        ocs_nics: Optical NICs per server.
        seeds: Synthetic-traffic seeds (one config per seed).
        auto_fit_servers: Grow ``num_servers`` per model so its default
            parallelism plan fits the cluster.
    """

    fabrics: Sequence[str] = field(default_factory=lambda: list(FABRIC_BUILDERS))
    models: Sequence[str] = ("Mixtral-8x7B",)
    first_a2a_policies: Sequence[str] = ("block",)
    reconfiguration_delays_s: Sequence[float] = (0.025,)
    failures: Sequence[str] = ("none",)
    nic_bandwidths_gbps: Sequence[float] = (400.0,)
    num_servers: int = 16
    ocs_nics: int = 6
    seeds: Sequence[int] = (0,)
    auto_fit_servers: bool = True

    def servers_for(self, model_name: str) -> int:
        if not self.auto_fit_servers:
            return self.num_servers
        model = resolve_model(model_name)
        return max(self.num_servers, minimal_world_size(model) // _GPUS_PER_SERVER)

    def expand(self) -> List[SweepConfig]:
        """Materialise the grid in deterministic (row-major) order."""
        configs = [
            SweepConfig(
                fabric=fabric,
                model=model,
                first_a2a_policy=policy,
                reconfiguration_delay_s=delay,
                failure=failure,
                nic_bandwidth_gbps=bandwidth,
                num_servers=self.servers_for(model),
                ocs_nics=self.ocs_nics,
                seed=seed,
            )
            for model, fabric, policy, delay, failure, bandwidth, seed in itertools.product(
                self.models,
                self.fabrics,
                self.first_a2a_policies,
                self.reconfiguration_delays_s,
                self.failures,
                self.nic_bandwidths_gbps,
                self.seeds,
            )
        ]
        hashes = {config.config_hash() for config in configs}
        if len(hashes) != len(configs):
            raise ValueError("sweep axes expand to duplicate configurations")
        return configs
