"""OCS control-plane emulation for the hardware prototype (Appendix C).

The paper profiles three aspects of the testbed's Polatis OCS control path:

* the reconfiguration turnaround per number of switched pairs (Figure 21) —
  roughly 41–47 ms on average, 99 % under 70 ms;
* the end-to-end control timeline from issuing a TL1 command to a successful
  RDMA send (Figure 22) — dominated by transceiver/NIC initialisation;
* the NIC activation time after the optical path is up (Figure 23) — about
  5.7 s on average because commodity transceivers are not optimised for fast
  optical switching.

This module emulates those distributions so the prototype experiments and
their benchmarks can be reproduced without hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class ReconfigurationDelayModel:
    """Empirical model of the OCS reconfiguration delay (Figure 21).

    The mean grows mildly with the number of pairs switched in one batch; the
    spread is log-normal-ish with a 99th percentile below 70 ms.
    """

    base_mean_s: float = 0.04144
    per_pair_mean_s: float = 0.00035
    sigma: float = 0.12

    def mean_for_pairs(self, pairs: int) -> float:
        if pairs <= 0:
            raise ValueError("pairs must be positive")
        return self.base_mean_s + self.per_pair_mean_s * (pairs - 1)

    def sample(self, pairs: int, count: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``count`` reconfiguration delays for a batch of ``pairs`` pairs."""
        if count <= 0:
            raise ValueError("count must be positive")
        rng = rng or np.random.default_rng(0)
        mean = self.mean_for_pairs(pairs)
        mu = np.log(mean) - 0.5 * self.sigma**2
        return rng.lognormal(mean=mu, sigma=self.sigma, size=count)


@dataclass(frozen=True)
class NICActivationModel:
    """NIC/transceiver re-activation time after the optical path is up (Fig. 23)."""

    mean_s: float = 5.67
    p99_s: float = 6.33

    def sample(self, count: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        if count <= 0:
            raise ValueError("count must be positive")
        rng = rng or np.random.default_rng(1)
        # Fit a log-normal whose p99 matches the reported tail.
        sigma = max(1e-3, np.log(self.p99_s / self.mean_s) / 2.326 + 0.02)
        mu = np.log(self.mean_s) - 0.5 * sigma**2
        return rng.lognormal(mean=mu, sigma=sigma, size=count)


@dataclass(frozen=True)
class ControlTimelineStage:
    """One stage of the end-to-end OCS control timeline (Figure 22)."""

    name: str
    duration_s: float


def control_timeline(
    reconfiguration_s: float = 0.045,
    transceiver_init_s: float = 4.2,
    nic_init_s: float = 1.4,
) -> List[ControlTimelineStage]:
    """The two-stage control timeline: OCS switch, then link/NIC bring-up.

    The paper's key finding is that the OCS switch itself is tens of
    milliseconds while transceiver + NIC initialisation dominates (seconds)
    on unmodified commodity hardware — which is why the testbed excludes NIC
    activation time (engineering fix: burst-mode transceivers, §C).
    """
    return [
        ControlTimelineStage("ocs_reconfiguration", reconfiguration_s),
        ControlTimelineStage("transceiver_initialization", transceiver_init_s),
        ControlTimelineStage("nic_initialization", nic_init_s),
    ]


def timeline_total(stages: Sequence[ControlTimelineStage]) -> float:
    return float(sum(stage.duration_s for stage in stages))


def empirical_cdf(samples: np.ndarray) -> Dict[str, np.ndarray]:
    """Return sorted samples and their empirical CDF values."""
    samples = np.sort(np.asarray(samples, dtype=float))
    cdf = np.arange(1, samples.size + 1) / samples.size
    return {"values": samples, "cdf": cdf}


def percentile(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))
