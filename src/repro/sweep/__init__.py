"""Parallel configuration-sweep engine (DESIGN.md §3).

The paper's large-scale evaluation (Figures 12-14, 26) is a grid of
fabrics × models × runtime policies × failure scenarios.  This package turns
that grid into first-class objects:

* :class:`SweepSpec` — a declarative cartesian grid over fabrics, models,
  first-all-to-all policies, reconfiguration delays, failure scenarios, link
  bandwidths and seeds, expanded into concrete :class:`SweepConfig` records;
* :class:`SweepConfig` — one fully-specified simulation, JSON-serializable
  and content-hashed so results can be cached and reproduced;
* :class:`SweepRunner` — batches structurally-compatible configs through
  one solve/advance loop (DESIGN.md §6), inline or sharded whole groups at a
  time across a persistent pool of warm worker processes (§7), with
  per-configuration result caching keyed by the config hash;
  ``fold_width`` is its one execution knob;
* :class:`SweepResult` — a structured, JSON-serializable record of one run,
  including a per-phase wall-time breakdown (:mod:`repro.sweep.phases`);
* :class:`StructuralTemplate` / :class:`TemplateStore` — the two-tier
  structural template cache that amortises config materialisation across a
  folded group and across runs (DESIGN.md §8);
* a CLI: ``python -m repro.sweep --help``.

Every figure-style driver (``simulate_fabrics``, the examples, the
``benchmarks/test_fig*`` harness) routes through :func:`run_case` /
:class:`SweepRunner`, so scenario-diversity work only has to extend the grid.
"""

from repro.sweep.registry import (
    FABRIC_BUILDERS,
    SWEEP_MODELS,
    build_fabric,
    parse_failure,
    resolve_model,
)
from repro.sweep.pool import PersistentWorkerPool
from repro.sweep.spec import (
    CONFIG_SCHEMA_VERSION,
    SweepConfig,
    SweepSpec,
    structural_groups,
)
from repro.sweep.phases import (
    PHASE_FIELDS,
    format_profile,
    summarize_phases,
)
from repro.sweep.runner import (
    FoldedSweepRunner,  # alias of SweepRunner, for perfbench/workloads.py
    SweepError,
    SweepResult,
    SweepRunError,
    SweepRunner,
    iter_run_config,
    run_case,
    run_config,
)
from repro.sweep.template import (
    TEMPLATE_SCHEMA_VERSION,
    TEMPLATE_STATS,
    StructuralTemplate,
    TemplateStore,
    clear_template_cache,
    get_template,
    structural_hash,
)

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "FABRIC_BUILDERS",
    "FoldedSweepRunner",
    "PHASE_FIELDS",
    "PersistentWorkerPool",
    "SWEEP_MODELS",
    "StructuralTemplate",
    "SweepConfig",
    "SweepError",
    "SweepResult",
    "SweepRunError",
    "SweepRunner",
    "SweepSpec",
    "TEMPLATE_SCHEMA_VERSION",
    "TEMPLATE_STATS",
    "TemplateStore",
    "build_fabric",
    "clear_template_cache",
    "format_profile",
    "get_template",
    "iter_run_config",
    "parse_failure",
    "resolve_model",
    "run_case",
    "run_config",
    "structural_groups",
    "structural_hash",
    "summarize_phases",
]
