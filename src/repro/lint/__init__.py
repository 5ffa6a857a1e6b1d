"""``repro.lint`` — AST-based invariant checker (DESIGN.md §9).

The sweep engine's bit-identity promise rests on invariants that runtime
differential tests can only sample: every memo re-keys by exactly the axes
it depends on and nothing nondeterministic feeds a result.  This package checks those invariants from
the source itself — ``python -m repro.lint src`` parses every file with the
stdlib :mod:`ast` module (zero new runtime dependencies) and cross-checks
the code against the two declaration tables the package maintains:

* :data:`repro.core.caches.REGISTRY` — every module-level memo registers
  with a key-axis schema, a size cap and a clear hook (rules ``CACHE01``–
  ``CACHE03``);
* :data:`repro.flags.FLAGS` — every environment read goes through the
  declared flag table (rules ``ENV01``–``ENV02``).

Determinism rules (``DET01``–``DET05``) forbid global-state randomness,
stray wall-clock reads, unsorted directory listings, ``id()`` and set-order
escapes.

Audited exceptions live in a checked-in baseline file
(``lint_baseline.json``), one justification string per entry; the CLI's
``--explain RULE_ID`` prints the invariant catalogue entry for any rule.
"""

from repro.lint.engine import FileContext, LintReport, Violation, lint_paths
from repro.lint.rules import RULES, explain_rule

__all__ = [
    "FileContext",
    "LintReport",
    "RULES",
    "Violation",
    "explain_rule",
    "lint_paths",
]
