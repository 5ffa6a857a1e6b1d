"""CLI for the sweep engine.

Examples::

    # The Figure 12 grid for one model at two bandwidths, two workers:
    python -m repro.sweep --models Mixtral-8x7B --bandwidths 100 400 \
        --workers 2 --cache-dir .sweep-cache --output results.json

    # What would run, without running it:
    python -m repro.sweep --failures none nic:1 gpu server --dry-run

    # Registry contents:
    python -m repro.sweep --list
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.runtime import FIRST_A2A_POLICIES
from repro.sim.flows import SOLVERS
from repro.sweep.registry import FABRIC_BUILDERS, SWEEP_MODELS
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description=(
            "Sweep training-iteration simulations over a cartesian grid of "
            "fabrics, models, policies, delays, failures, bandwidths and seeds."
        ),
    )
    parser.add_argument("--fabrics", nargs="+", default=list(FABRIC_BUILDERS),
                        help="fabric registry names (default: all)")
    parser.add_argument("--models", nargs="+", default=["Mixtral-8x7B"],
                        help="model registry names")
    parser.add_argument("--policies", nargs="+", default=["block"],
                        choices=list(FIRST_A2A_POLICIES), metavar="POLICY",
                        help=f"first-all-to-all policies {FIRST_A2A_POLICIES}")
    parser.add_argument("--delays", nargs="+", type=float, default=[0.025],
                        help="OCS reconfiguration delays in seconds")
    parser.add_argument("--failures", nargs="+", default=["none"],
                        help="failure scenarios: none, nic:<n>[@s], gpu[@s], server[@s]")
    parser.add_argument("--bandwidths", nargs="+", type=float, default=[400.0],
                        help="per-NIC link bandwidths in Gbps")
    parser.add_argument("--servers", type=int, default=16,
                        help="cluster size floor (auto-raised to fit each model)")
    parser.add_argument("--ocs-nics", type=int, default=6,
                        help="optical NICs per server")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0],
                        help="synthetic-traffic seeds")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0/1 = run inline; otherwise "
                             "whole structural groups are sharded across "
                             "workers; results are identical either way)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache per-config results here, keyed by config hash")
    parser.add_argument("--template-dir", default=None,
                        help="on-disk structural-template store "
                             "(default: <cache-dir>/templates when --cache-dir "
                             "is set; pass an empty string to disable)")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-config phase breakdown "
                             "(setup/solve/advance/store) and template-source "
                             "counts after the run")
    parser.add_argument("--solver", choices=list(SOLVERS), default=None,
                        help="fluid rate solver override (default: auto — the "
                             "compiled native kernel when a C compiler is "
                             "present, the pure-Python scalar solver otherwise)")
    parser.add_argument("--output", default=None,
                        help="write results as JSON to this file (default: stdout summary only)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the expanded configurations and exit")
    parser.add_argument("--list", action="store_true", dest="list_registry",
                        help="list known fabrics and models and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_registry:
        print("fabrics:")
        for name in FABRIC_BUILDERS:
            print(f"  {name}")
        print("models:")
        for name in SWEEP_MODELS:
            print(f"  {name}")
        return 0

    spec = SweepSpec(
        fabrics=args.fabrics,
        models=args.models,
        first_a2a_policies=args.policies,
        reconfiguration_delays_s=args.delays,
        failures=args.failures,
        nic_bandwidths_gbps=args.bandwidths,
        num_servers=args.servers,
        ocs_nics=args.ocs_nics,
        seeds=args.seeds,
    )
    try:
        configs = spec.expand()
    except (KeyError, ValueError) as exc:
        # Unknown fabric/model/failure names surface here; keep the CLI's
        # error a single line instead of a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2

    if args.dry_run:
        for config in configs:
            print(f"{config.config_hash()}  {json.dumps(config.to_dict(), sort_keys=True)}")
        print(f"{len(configs)} configuration(s)", file=sys.stderr)
        return 0

    template_dir = args.template_dir
    if template_dir is None and args.cache_dir is not None:
        template_dir = os.path.join(args.cache_dir, "templates")
    elif template_dir == "":
        template_dir = None
    with SweepRunner(
        configs,
        workers=args.workers,
        cache_dir=args.cache_dir,
        solver=args.solver,
        template_dir=template_dir,
    ) as runner:
        results = runner.run()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump([result.to_dict() for result in results], handle, indent=1)

    header = f"{'hash':24s}  {'fabric':18s} {'model':16s} {'failure':10s} " \
             f"{'bw':>5s} {'iter_s':>10s} {'cached':>6s}"
    print(header)
    for result in results:
        config = result.config
        print(
            f"{result.config_hash:24s}  {result.fabric:18s} {str(config['model']):16s} "
            f"{str(config['failure']):10s} {config['nic_bandwidth_gbps']:5.0f} "
            f"{result.iteration_time_s:10.3f} {'yes' if result.from_cache else 'no':>6s}"
        )
    if args.profile:
        from repro.sweep.phases import format_profile

        print()
        for line in format_profile(results):
            print(line)
    print(f"{len(results)} configuration(s) simulated", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
