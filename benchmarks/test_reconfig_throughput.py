"""Reconfiguration micro-benchmark: Algorithm 1, production engine vs oracle.

Times whole :func:`reconfigure_ocs` calls over random dense demand matrices
at growing region sizes (16 to 256 servers — the scales the heap engine was
built to unlock), once with the seed's pure-Python scalar oracle patched in
for the production pair (greedy loop and completion estimate) and once as
shipped.  It asserts the two produce identical allocations (circuit map, NIC
mapping, completion estimate, iteration count), records the headline numbers
in ``.bench_build/BENCH_reconfig.json`` (untracked), and enforces the >= 5x
speedup budget the engine rewrite was sized for at a 128-server region.

``--quick`` (CI smoke mode) shrinks the sizes and skips the speedup floor.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import print_series

from repro.core import reconfigure
from repro.core.reconfigure import reconfigure_ocs

BENCH_PATH = (
    Path(__file__).resolve().parents[1] / ".bench_build" / "BENCH_reconfig.json"
)

OPTICAL_DEGREE = 6
FULL_SIZES = (16, 64, 128, 256)
QUICK_SIZES = (16, 32)


def random_demand(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    demand = rng.uniform(1e6, 1e9, size=(n, n))
    np.fill_diagonal(demand, 0.0)
    return demand


def timed_reconfigure(demand: np.ndarray, servers):
    start = time.perf_counter()
    allocation = reconfigure_ocs(demand, OPTICAL_DEGREE, servers)
    return allocation, time.perf_counter() - start


def timed_oracle(demand: np.ndarray, servers):
    """:func:`timed_reconfigure` with the oracle pair patched in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reconfigure, "_greedy_heap", reconfigure._greedy_scalar)
        patch.setattr(
            reconfigure,
            "_completion_time_estimate_vectorized",
            reconfigure._completion_time_estimate,
        )
        return timed_reconfigure(demand, servers)


def test_reconfig_throughput(run_once, request):
    quick = request.config.getoption("--quick")
    sizes = QUICK_SIZES if quick else FULL_SIZES

    def build():
        rows = []
        for n in sizes:
            demand = random_demand(n, seed=n)
            servers = list(range(n))
            scalar_alloc, scalar_s = timed_oracle(demand, servers)
            heap_alloc, heap_s = timed_reconfigure(demand, servers)
            # Identical allocations: the heap engine reproduces the oracle's
            # greedy selection (incl. tie-breaks) exactly.
            assert heap_alloc.circuits == scalar_alloc.circuits
            assert heap_alloc.nic_mapping == scalar_alloc.nic_mapping
            assert (
                heap_alloc.completion_time_estimate
                == scalar_alloc.completion_time_estimate
            )
            assert heap_alloc.iterations == scalar_alloc.iterations
            rows.append((n, scalar_s, heap_s, scalar_s / heap_s))
        return rows

    rows = run_once(build)

    if not quick:
        # Smoke runs use toy sizes; don't overwrite the recorded numbers.
        record = {
            "description": "Algorithm 1 greedy circuit allocation over random "
                           f"dense demand, optical degree {OPTICAL_DEGREE}: "
                           "seed scalar oracle vs the heap-driven production "
                           "engine (whole reconfigure_ocs calls)",
            "optical_degree": OPTICAL_DEGREE,
            "sizes": [
                {
                    "num_servers": n,
                    "scalar_s": round(scalar_s, 4),
                    "heap_s": round(heap_s, 4),
                    "speedup": round(speedup, 2),
                }
                for n, scalar_s, heap_s, speedup in rows
            ],
        }
        BENCH_PATH.parent.mkdir(exist_ok=True)
        BENCH_PATH.write_text(json.dumps(record, indent=1) + "\n")

    print_series("ReconfigBench", [
        ("servers", "scalar_s", "heap_s", "speedup"),
        *[
            (n, round(scalar_s, 4), round(heap_s, 4), round(speedup, 1))
            for n, scalar_s, heap_s, speedup in rows
        ],
    ])

    if not quick:
        speedup_by_size = {n: speedup for n, _, _, speedup in rows}
        # Typical measured speedup at 128 servers is ~50-100x; 5.0 is the
        # budget the engine rewrite was sized for.
        assert speedup_by_size[128] >= 5.0, (
            f"reconfig speedup at 128 servers regressed to "
            f"{speedup_by_size[128]:.2f}x"
        )
