"""Per-config phase timing for sweep runs (DESIGN.md §8).

"Fast but silently different" is the failure mode of every setup-amortisation
change, and "fast" itself needs evidence: this module defines the phase
split every runner records into :class:`~repro.sweep.runner.SweepResult` —

* ``setup_s``   — materialisation + simulator construction + DAG build up to
  (and including) executor construction: everything the template cache
  attacks;
* ``solve_s``   — time inside the batched ``service_advance_requests`` calls
  (folded) or the executor's ``run()`` (:func:`~repro.sweep.runner.run_config`),
  i.e. the solver;
* ``advance_s`` — Python-side generator time between solves (folded only:
  task bookkeeping, flow admission);
* ``store_s``   — result-cache write.

Timing lives entirely in the runner (generator step deltas and apportioned
batch-solve wall time), so the simulator and executor hot paths carry zero
instrumentation.  The CLI surfaces the split via ``--profile`` and the sweep
benchmark (``benchmarks/test_sweep_throughput.py``) records a template-cold
vs template-warm breakdown into ``.bench_build/BENCH_sweep.json``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

#: Phase fields of :class:`~repro.sweep.runner.SweepResult`.
PHASE_FIELDS = ("setup_s", "solve_s", "advance_s", "store_s")


def phase_clock() -> float:
    """The wall clock behind every phase measurement (``perf_counter``).

    This module is the single allow-listed home of wall-clock reads (lint
    rule ``DET02``): phase timings are *observability* fields — they never
    feed a simulation result, a cache key, or result ordering — and funneling
    every read through here keeps that provable by grep.  Timing code
    elsewhere calls :func:`phase_clock` instead of importing :mod:`time`.
    """
    return time.perf_counter()


class PhaseAccumulator:
    """Mutable per-config phase counters while its generator is in flight."""

    __slots__ = ("setup_s", "solve_s", "advance_s", "store_s")

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.solve_s = 0.0
        self.advance_s = 0.0
        self.store_s = 0.0

    def apply(self, result) -> None:
        """Write the accumulated phases onto a finished ``SweepResult``."""
        for name in PHASE_FIELDS:
            setattr(result, name, getattr(self, name))


def summarize_phases(results: Sequence[object]) -> Dict[str, object]:
    """Aggregate phase means and template-source counts over a result set.

    Cached results (``from_cache``) are excluded from the means — they carry
    the phases of the run that computed them, not of this run.
    """
    fresh = [result for result in results if not getattr(result, "from_cache", False)]
    sources: Dict[str, int] = {}
    for result in results:
        source = getattr(result, "template_source", "none")
        sources[source] = sources.get(source, 0) + 1
    summary: Dict[str, object] = {
        "num_results": len(results),
        "num_fresh": len(fresh),
        "template_sources": sources,
    }
    for name in PHASE_FIELDS:
        values = [getattr(result, name, 0.0) for result in fresh]
        summary[f"mean_{name}"] = sum(values) / len(values) if values else 0.0
    return summary


def format_profile(results: Sequence[object]) -> List[str]:
    """Human-readable ``--profile`` report: one line per config + summary."""
    lines = [
        f"{'hash':24s}  {'setup_s':>9s} {'solve_s':>9s} {'advance_s':>9s} "
        f"{'store_s':>9s}  {'events':>7s} {'rounds':>7s} {'replay':>7s}"
        f"  {'template':>8s}"
    ]
    for result in results:
        if getattr(result, "from_cache", False):
            lines.append(f"{result.config_hash:24s}  {'(cached)':>9s}")
            continue
        lines.append(
            f"{result.config_hash:24s}  {result.setup_s:9.4f} "
            f"{result.solve_s:9.4f} {result.advance_s:9.4f} "
            f"{result.store_s:9.4f}  "
            f"{getattr(result, 'events', 0):7d} "
            f"{getattr(result, 'solve_rounds', 0):7d} "
            f"{getattr(result, 'rounds_replayed', 0):7d}"
            f"  {getattr(result, 'template_source', 'none'):>8s}"
        )
    summary = summarize_phases(results)
    sources = summary["template_sources"]
    source_text = " ".join(
        f"{name}={count}" for name, count in sorted(sources.items())
    )
    fresh = [
        result for result in results if not getattr(result, "from_cache", False)
    ]
    lines.append(
        f"phase means over {summary['num_fresh']} fresh config(s): "
        f"setup={summary['mean_setup_s']:.4f}s solve={summary['mean_solve_s']:.4f}s "
        f"advance={summary['mean_advance_s']:.4f}s store={summary['mean_store_s']:.4f}s"
    )
    executed = sum(getattr(result, "solve_rounds", 0) for result in fresh)
    replayed = sum(getattr(result, "rounds_replayed", 0) for result in fresh)
    lines.append(
        f"waterfill rounds over {summary['num_fresh']} fresh config(s): "
        f"executed={executed} replayed={replayed} "
        f"events={sum(getattr(result, 'events', 0) for result in fresh)}"
    )
    lines.append(f"template sources: {source_text}")
    return lines
