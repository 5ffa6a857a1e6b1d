"""Sweep-engine micro-benchmark: configs/second, solver stack and folding.

Runs an identical 16-configuration sweep (Mixtral-8x22B on Fat-tree and
MixNet, two first-all-to-all policies, two link bandwidths, two traffic
seeds — the Figure 12 hot path) three times: once per config through
:func:`~repro.sweep.run_config` with the seed's pure-Python scalar rate
solver, once the same way with the default solver stack (the compiled kernel
when a C compiler is present, the same scalar solver otherwise),
and once through the folded :class:`~repro.sweep.SweepRunner` — every config
advanced through one batched solve → next-completion → advance loop
(DESIGN.md §6).  Timed passes repeat a few times and report the best
(steady-state throughput, scheduler noise stripped).  It asserts all three
produce identical iteration times (the folded pass bit-identically, on every
repetition), records the headline numbers in ``.bench_build/BENCH_sweep.json``
(untracked), and enforces the speedup budgets the solver rewrite and the
folding rewrite were sized for as ratios measured in the same run.
``--quick`` (CI smoke mode) runs each pass once and keeps every equivalence
assertion but skips the speedup floors, which need a quiet machine.
"""

import gc
import json
import os
import time
from pathlib import Path

from conftest import print_series

from repro.sim.flows import resolve_solver
from repro.sweep import SweepRunner, SweepSpec, run_config

BENCH_PATH = (
    Path(__file__).resolve().parents[1] / ".bench_build" / "BENCH_sweep.json"
)

SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x22B"],
    first_a2a_policies=("block", "copilot"),
    nic_bandwidths_gbps=(100.0, 400.0),
    seeds=(0, 1),
    num_servers=32,  # auto-raised to Mixtral-8x22B's 64-server world
)

# The sharded-folding grid: the same axes at four seeds (32 configs), big
# enough that each of 4 workers still folds a multi-config shard.
PARALLEL_SPEC = SweepSpec(
    fabrics=["Fat-tree", "MixNet"],
    models=["Mixtral-8x22B"],
    first_a2a_policies=("block", "copilot"),
    nic_bandwidths_gbps=(100.0, 400.0),
    seeds=(0, 1, 2, 3),
    num_servers=32,
)

#: Worker counts the parallel_folded leg sweeps.
PARALLEL_WORKERS = (2, 4)


def usable_cpus() -> int:
    """Cores this process may actually run on (affinity-aware: containers
    and CI runners often pin fewer cores than the host physically has)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-linux
        return os.cpu_count() or 1


def run_sweep(solver, rounds=1):
    """Best-of-``rounds`` timing of the per-config reference path: each pass
    re-runs the full sweep one :func:`run_config` at a time and the minimum
    is reported, the standard way to strip scheduler noise from a
    steady-state throughput measurement."""
    best, results = float("inf"), None
    configs = SPEC.expand()
    for _ in range(rounds):
        start = time.perf_counter()
        results = [run_config(config, solver=solver) for config in configs]
        best = min(best, time.perf_counter() - start)
    return results, best


def run_sweep_folded(reference, rounds=1):
    """Best-of-``rounds`` folded pass; every repetition (not just the
    reported one) must reproduce ``reference`` bit-identically."""
    best, results = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        results = SweepRunner(SPEC).run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        for fast_result, folded_result in zip(reference, results):
            assert fast_result.config_hash == folded_result.config_hash
            assert fast_result.iteration_time_s == folded_result.iteration_time_s
            assert fast_result.stage_time_s == folded_result.stage_time_s
            assert fast_result.comm_bytes == folded_result.comm_bytes
    return results, best


def run_sweep_sharded(reference, workers, rounds=1):
    """Best-of-``rounds`` sharded folded pass on the 32-config grid.

    The persistent pool is spawned and warmed *before* timing starts — in
    real use it is paid once per runner lifetime, not per grid — and every
    repetition must reproduce ``reference`` (the serial folded results)
    bit-identically.
    """
    best, results = float("inf"), None
    with SweepRunner(PARALLEL_SPEC, workers=workers) as runner:
        runner.warm_up()
        for _ in range(rounds):
            start = time.perf_counter()
            results = runner.run()
            best = min(best, time.perf_counter() - start)
            for serial_result, sharded_result in zip(reference, results):
                assert serial_result.config_hash == sharded_result.config_hash
                assert (
                    serial_result.iteration_time_s
                    == sharded_result.iteration_time_s
                )
                assert serial_result.stage_time_s == sharded_result.stage_time_s
                assert serial_result.comm_bytes == sharded_result.comm_bytes
    return results, best


def run_phase_breakdown(reference, rounds=1):
    """Template-cold vs template-warm phase means on the 16-config grid.

    The cold leg clears every process-wide memo tier (templates, runtime
    records/flows/demand, traces, gate states) before each round, so it pays
    full materialisation; the warm leg reuses them all.  Per-config phase
    means are best-of-``rounds`` (by setup, the phase under test), and every
    round — cold or warm — must reproduce ``reference`` bit-identically:
    the amortisation must never be "fast but silently different".
    """
    from repro.core.caches import clear_all_caches
    from repro.sweep import summarize_phases

    def one(cold):
        if cold:
            clear_all_caches()
        results = SweepRunner(SPEC).run()
        for fast_result, folded_result in zip(reference, results):
            assert fast_result.config_hash == folded_result.config_hash
            assert fast_result.iteration_time_s == folded_result.iteration_time_s
            assert fast_result.comm_bytes == folded_result.comm_bytes
        summary = summarize_phases(results)
        expected = "built" if cold else "memory"
        assert summary["template_sources"] == {expected: len(results)}
        return summary

    cold = min((one(True) for _ in range(rounds)),
               key=lambda s: s["mean_setup_s"])
    warm = min((one(False) for _ in range(rounds)),
               key=lambda s: s["mean_setup_s"])
    return cold, warm


def test_sweep_throughput(run_once, request):
    quick = request.config.getoption("--quick")

    def build():
        # Warm one config per seed and solver first so one-time costs
        # (synthetic trace memoization covers one seed per entry, kernel
        # load) don't bias any timed pass.
        from repro.sweep import run_config

        configs = SPEC.expand()
        for seed in SPEC.seeds:
            warm_config = next(c for c in configs if c.seed == seed)
            run_config(warm_config, solver="scalar")
            run_config(warm_config, solver=None)
        parallel_configs = PARALLEL_SPEC.expand()
        for seed in PARALLEL_SPEC.seeds:  # memoized trace, one per seed
            run_config(next(c for c in parallel_configs if c.seed == seed))
        rounds = (1, 1, 1, 1, 1) if quick else (2, 3, 5, 3, 3)
        # Collector pauses inside a timed pass are the dominant noise source
        # when the whole benchmark suite shares one process (earlier tests
        # leave a large heap behind): take the hit once here, then keep the
        # collector out of every timed leg.
        gc.collect()
        gc.disable()
        try:
            scalar_results, scalar_s = run_sweep("scalar", rounds=rounds[0])
            fast_results, fast_s = run_sweep(None, rounds=rounds[1])  # default
            folded_results, folded_s = run_sweep_folded(
                fast_results, rounds=rounds[2]
            )
            # Serial folded baseline on the 32-config grid, then the sharded
            # passes measured against it.
            serial32_results, serial32_s = None, float("inf")
            for _ in range(rounds[3]):
                start = time.perf_counter()
                serial32_results = SweepRunner(PARALLEL_SPEC).run()
                serial32_s = min(serial32_s, time.perf_counter() - start)
            sharded = {
                workers: run_sweep_sharded(
                    serial32_results, workers, rounds=rounds[3]
                )[1]
                for workers in PARALLEL_WORKERS
            }
            # Phase breakdown last: its cold rounds clear process-wide
            # caches, which must not perturb the timed legs above.
            cold_phases, warm_phases = run_phase_breakdown(
                fast_results, rounds=rounds[4]
            )
        finally:
            gc.enable()
        return (scalar_results, scalar_s, fast_results, fast_s,
                folded_results, folded_s, serial32_s, sharded,
                cold_phases, warm_phases)

    (scalar_results, scalar_s, fast_results, fast_s,
     folded_results, folded_s, serial32_s, sharded,
     cold_phases, warm_phases) = run_once(build)
    num_configs = len(scalar_results)
    assert num_configs == 16

    # Both solver stacks are exact max-min solvers: identical results.
    for seed_result, fast_result in zip(scalar_results, fast_results):
        assert seed_result.config_hash == fast_result.config_hash
        assert abs(seed_result.iteration_time_s - fast_result.iteration_time_s) <= (
            1e-9 * seed_result.iteration_time_s
        )

    # Folding is a pure execution transformation: bit-identical results on
    # every config, not merely close ones.
    for fast_result, folded_result in zip(fast_results, folded_results):
        assert fast_result.config_hash == folded_result.config_hash
        assert fast_result.iteration_time_s == folded_result.iteration_time_s
        assert fast_result.stage_time_s == folded_result.stage_time_s
        assert fast_result.comm_bytes == folded_result.comm_bytes

    speedup = scalar_s / fast_s
    folded_speedup = fast_s / folded_s
    default_solver = resolve_solver(None)
    num_parallel = len(PARALLEL_SPEC.expand())
    # configs/s vs worker count on the 32-config grid, serial folded = the
    # baseline.  host_cpus is recorded because the scaling is meaningless
    # without it: shards are CPU-bound, so a 1-core host shows slowdown, not
    # speedup, and the ≥2x floor below only applies on ≥4 cores.
    parallel_leg = {
        "num_configs": num_parallel,
        "host_cpus": usable_cpus(),
        "serial_folded_s": round(serial32_s, 3),
        "serial_folded_configs_per_s": round(num_parallel / serial32_s, 3),
        "workers": {
            str(workers): {
                "total_s": round(elapsed, 3),
                "configs_per_s": round(num_parallel / elapsed, 3),
                "speedup_vs_serial_folded": round(serial32_s / elapsed, 2),
            }
            for workers, elapsed in sharded.items()
        },
    }
    warm_setup_speedup = (
        cold_phases["mean_setup_s"] / warm_phases["mean_setup_s"]
        if warm_phases["mean_setup_s"] > 0 else float("inf")
    )
    # Per-phase means of the folded 16-config pass with every cache tier
    # cleared per round (cold) vs fully warm — the evidence that the
    # structural-template cache attacks setup, not the solver.
    phase_leg = {
        side: {
            f"mean_{name}": round(summary[f"mean_{name}"], 6)
            for name in ("setup_s", "solve_s", "advance_s", "store_s")
        }
        for side, summary in (("cold", cold_phases), ("warm", warm_phases))
    }
    phase_leg["warm_setup_speedup"] = round(warm_setup_speedup, 2)
    record = {
        "description": "16-config sweep (Mixtral-8x22B x {Fat-tree, MixNet} x "
                       "2 policies x 2 bandwidths x 2 seeds), seed scalar "
                       "solver vs default solver stack vs folded execution; "
                       "parallel_folded shards the same grid at 4 seeds (32 "
                       "configs) across a persistent warm worker pool; phases "
                       "is the per-config wall-time split of the folded pass "
                       "with every cache tier cleared per round (cold) vs "
                       "fully warm (the structural-template amortisation)",
        "num_configs": num_configs,
        "seed_solver_s": round(scalar_s, 3),
        "seed_solver_configs_per_s": round(num_configs / scalar_s, 3),
        "default_solver": default_solver,
        "default_solver_s": round(fast_s, 3),
        "default_solver_configs_per_s": round(num_configs / fast_s, 3),
        "speedup": round(speedup, 2),
        "folded_s": round(folded_s, 3),
        "folded_configs_per_s": round(num_configs / folded_s, 3),
        "folded_speedup_vs_default": round(folded_speedup, 2),
        "folded_speedup_vs_seed": round(scalar_s / folded_s, 2),
        # Water-filling work counters summed over the folded grid (PR 10):
        # solve_rounds = argmin rounds the kernel executed, rounds_replayed
        # = rounds inherited from the freeze-level record instead of
        # re-solved — the direct evidence for the freeze-level replay's claim.
        "folded_counters": {
            "events": sum(r.events for r in folded_results),
            "solve_rounds": sum(r.solve_rounds for r in folded_results),
            "rounds_replayed": sum(r.rounds_replayed for r in folded_results),
        },
        "parallel_folded": parallel_leg,
        "phases": phase_leg,
    }
    if not quick:  # smoke timings would shadow the real measurement
        BENCH_PATH.parent.mkdir(exist_ok=True)
        BENCH_PATH.write_text(json.dumps(record, indent=1) + "\n")

    print_series("SweepBench", [
        ("runner", "total_s", "configs_per_s"),
        ("scalar (seed)", round(scalar_s, 2), round(num_configs / scalar_s, 2)),
        (default_solver, round(fast_s, 2), round(num_configs / fast_s, 2)),
        ("folded", round(folded_s, 2), round(num_configs / folded_s, 2)),
        ("folded x32 grid", round(serial32_s, 2),
         round(num_parallel / serial32_s, 2)),
    ] + [
        (f"sharded w={workers}", round(elapsed, 2),
         round(num_parallel / elapsed, 2))
        for workers, elapsed in sharded.items()
    ] + [
        ("solver speedup", round(speedup, 2), ""),
        ("folding speedup", round(folded_speedup, 2), ""),
        ("warm setup speedup", round(warm_setup_speedup, 2), ""),
    ])

    if default_solver == "native":
        # Incremental water-filling must actually engage on the folded grid
        # (quick mode included): the kernel inherits rounds from the
        # freeze-level record on every multi-event block.
        assert sum(r.rounds_replayed for r in folded_results) > 0, (
            "incremental water-filling never replayed a round on the "
            "folded grid"
        )

    if quick:
        return

    if default_solver == "native":
        # Typical measured speedup is ~4x; 3.0 is the budget the solver
        # rewrite was sized for, eased to 2.7 because shared-host CPU
        # contention moves the scalar and native passes disproportionately.
        assert speedup >= 2.7, f"sweep speedup regressed to {speedup:.2f}x"
        # Folding batches every config's flow events through one
        # waterfill_batch call per round; measured gain is ~6.5-8x on top of
        # the default stack run one config at a time (2-core VM).  2.5x is
        # the regression floor.
        assert folded_speedup >= 2.5, (
            f"folding speedup regressed to {folded_speedup:.2f}x"
        )
        # The structural-template cache was sized for >=2x setup
        # amortisation (measured ~2.6-5x: plan/region/profile/allocation
        # materialisation collapses to blueprint stamping on a warm tier).
        assert warm_setup_speedup >= 2.0, (
            f"warm-template setup amortisation regressed to "
            f"{warm_setup_speedup:.2f}x"
        )
        if usable_cpus() >= 4:
            # Sharded folding was sized for ≥2x serial folded at 4 workers
            # (whole structural groups per worker, so near-linear up to the
            # group count).  Shards are CPU-bound; on hosts with fewer than
            # 4 cores the workers time-slice one another and the figure is
            # recorded but cannot be asserted.
            sharded4 = serial32_s / sharded[4]
            assert sharded4 >= 2.0, (
                f"sharded folding at 4 workers regressed to {sharded4:.2f}x "
                f"serial folded"
            )
    else:
        # No C compiler in this environment: the default stack is the scalar
        # solver itself, so there is no solver speedup to gate; folding must
        # at least not cost anything (it folds through a per-network Python
        # loop).
        assert folded_speedup >= 0.9, (
            f"folded execution slower than per-config runs: "
            f"{folded_speedup:.2f}x"
        )
