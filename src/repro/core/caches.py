"""The process-wide cache registry (DESIGN.md §9).

Every module-level memo in ``src/`` — the trace memo, the runtime
record/flow/demand caches, the structural-template cache and its
per-template instance memos — registers here with three declarations:

* **axes** — the named inputs its keys may depend on.  A memo whose key
  omits an axis the cached value depends on returns stale results silently;
  ``python -m repro.lint`` (rule ``CACHE03``) cross-checks key construction
  against this schema, so the dependency set is written down once and
  enforced statically.
* **cap** — a size bound.  Every cache is clear-on-full; an uncapped memo
  is a slow leak in a long-lived sweep service (rule ``CACHE02``).
* **clear** — a hook that drops every entry.  :func:`clear_all_caches` is a
  registry walk, so a newly added cache cannot be forgotten by the reset
  paths (``clear_runtime_caches``, the worker-pool reset task, benchmarks).

Registration is done at module-definition time with a literal
:func:`register_cache` call next to the cache itself; the lint parses those
calls statically (rule ``CACHE01`` flags module-level mutable containers
used as caches that never reach one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class CacheSpec:
    """One registered cache.

    Attributes:
        name: Qualified store name, ``<module>.<variable>`` (or
            ``<module>.<Class>.<attr>`` for per-instance memo families).
        axes: Names of the inputs the cache key may depend on.  Anything
            else feeding a key is a lint violation (``CACHE03``).
        cap: Entry bound the owner enforces (clear-on-full).  For memo
            families the bound is per instance.
        doc: One-line statement of what is memoised and why the axes are
            complete.
        clear: Drops every entry (and any derived statistics).
        size: Current entry count, for tests and debugging.
    """

    name: str
    axes: Tuple[str, ...]
    cap: int
    doc: str
    clear: Callable[[], None]
    size: Callable[[], int]


#: The registry, keyed by qualified store name.  Populated via
#: :func:`register_cache` at import time of each owning module.
REGISTRY: Dict[str, CacheSpec] = {}


def register_cache(
    name: str,
    store: Optional[object] = None,
    *,
    axes: Tuple[str, ...],
    cap: int,
    doc: str,
    clear: Optional[Callable[[], None]] = None,
    size: Optional[Callable[[], int]] = None,
) -> object:
    """Register one cache and return its store (module-definition time only).

    ``store`` is the module-level dict/list itself; ``clear`` and ``size``
    default to the store's own ``clear``/``len``.  Memo *families* (e.g. the
    per-``StructuralTemplate`` instance memos) pass ``store=None`` with
    explicit ``clear``/``size`` hooks that walk the live instances.
    """
    if name in REGISTRY:
        raise ValueError(f"cache {name!r} registered twice")
    if not isinstance(cap, int) or cap <= 0:
        raise ValueError(f"cache {name!r} needs a positive int cap, got {cap!r}")
    if not axes or not all(isinstance(a, str) for a in axes):
        raise ValueError(f"cache {name!r} needs a tuple of axis names")
    if store is None and (clear is None or size is None):
        raise ValueError(
            f"cache {name!r}: a family registration (store=None) must "
            f"supply explicit clear and size hooks"
        )
    if clear is None:
        clear = store.clear  # type: ignore[union-attr]
    if size is None:
        size = lambda: len(store)  # type: ignore[arg-type]  # noqa: E731
    spec = CacheSpec(
        name=name, axes=tuple(axes), cap=cap, doc=doc, clear=clear, size=size
    )
    REGISTRY[name] = spec
    return store


def clear_all_caches() -> Tuple[str, ...]:
    """Clear every registered cache; returns the names walked (sorted).

    This is the single reset path: ``clear_runtime_caches()``, the pool
    worker reset task and the benchmarks all route through it, so a cache
    that registers is guaranteed to participate in every reset.
    """
    names = tuple(sorted(REGISTRY))
    for name in names:
        REGISTRY[name].clear()
    return names


def cache_sizes() -> Dict[str, int]:
    """Current entry count of every registered cache (sorted by name)."""
    return {name: REGISTRY[name].size() for name in sorted(REGISTRY)}
