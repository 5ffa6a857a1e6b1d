"""The invariant catalogue: one checker per rule id (DESIGN.md §9).

Each rule is a :class:`Rule` with a one-line summary, a catalogue paragraph
(printed by ``--explain``), and a ``check(ctx)`` generator over one file.
Rules are deliberately narrow: they flag the patterns that have actually
bitten (or would bite) the sweep engine's bit-identity contract, and prefer
a missed exotic case over a false positive that trains people to ignore
the lint.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import FileContext, Violation

#: Files exempt per rule, by basename — the declaration tables themselves.
FLAG_TABLE_BASENAMES = ("flags.py",)
REGISTRY_BASENAMES = ("caches.py", "flags.py")
TIMING_BASENAMES = ("phases.py",)

#: Local names treated as cache-key "carriers": attribute reads off these
#: inside a key expression must name a declared axis (CACHE03).  The set is
#: the repo's naming convention for config/option objects.
CARRIERS = ("options", "config", "dyn", "dynamics", "opts")

#: ``REPRO_*`` literal shape checked by ENV02 (fullmatch only — mentions
#: inside prose or longer strings are not reads).
_REPRO_LITERAL = re.compile(r"REPRO_[A-Z0-9_]+")

#: Global-state random functions allowed nowhere (DET01).
_ALLOWED_NUMPY_RANDOM = {"default_rng", "Generator", "SeedSequence", "PCG64",
                         "Philox", "BitGenerator"}
_ALLOWED_RANDOM_MODULE = {"Random"}

#: Unsorted-listing producers (DET03).
_LISTING_CALLS = {
    ("os", "listdir"),
    ("os", "scandir"),
    ("glob", "glob"),
    ("glob", "iglob"),
}


@dataclass(frozen=True)
class Rule:
    rule_id: str
    summary: str
    explain: str
    check: Callable[[FileContext], Iterator[Violation]]


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted module path, for plain imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for item in node.names:
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute chain, through import aliases."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    return ".".join([root] + list(reversed(parts)))


# --------------------------------------------------------------------- CACHE01
def _module_level_empty_containers(tree: ast.Module) -> Dict[str, int]:
    """{name: lineno} of module-level ``NAME = {}`` / ``NAME = []``."""
    out: Dict[str, int] = {}
    for node in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        is_empty_dict = isinstance(value, ast.Dict) and not value.keys
        is_empty_list = isinstance(value, ast.List) and not value.elts
        if is_empty_dict or is_empty_list:
            out[target.id] = node.lineno
    return out


def _check_cache01(ctx: FileContext) -> Iterator[Violation]:
    if ctx.basename in REGISTRY_BASENAMES:
        return
    candidates = _module_level_empty_containers(ctx.tree)
    if not candidates:
        return
    registered: Set[str] = set()
    mutated: Set[str] = set()
    read: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and _call_name(node) == "register_cache":
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name):
                    registered.add(arg.id)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                mutated.add(node.value.id)
            else:
                read.add(node.value.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if isinstance(target, ast.Name):
                if node.func.attr in ("append", "setdefault", "update"):
                    mutated.add(target.id)
                if node.func.attr in ("get", "setdefault"):
                    read.add(target.id)
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            for comparator in node.comparators:
                if isinstance(comparator, ast.Name):
                    read.add(comparator.id)
    for name, line in sorted(candidates.items()):
        if name in registered or name not in mutated or name not in read:
            continue
        anchor = ast.Name(id=name)
        anchor.lineno = line
        yield ctx.violation(
            "CACHE01",
            anchor,
            f"module-level container {name!r} is written and read like a "
            f"cache but never registered via register_cache() — register it "
            f"in repro.core.caches with axes, cap and a clear hook",
        )


# --------------------------------------------------------------------- CACHE02
def _check_cache02(ctx: FileContext) -> Iterator[Violation]:
    for reg in ctx.project.registrations.get(ctx.path, []):
        anchor = ast.Name(id="register_cache")
        anchor.lineno = reg.line
        label = reg.name or reg.store_name or "<unknown>"
        if not reg.cap_valid:
            yield ctx.violation(
                "CACHE02",
                anchor,
                f"register_cache({label!r}) has no statically-resolvable "
                f"positive int cap= (literal or module-level int constant)",
            )
        if reg.axes is None:
            yield ctx.violation(
                "CACHE02",
                anchor,
                f"register_cache({label!r}) has no axes= tuple of string "
                f"literals — the key schema must be statically declared",
            )


# --------------------------------------------------------------------- CACHE03
def _carrier_attrs(node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """(attribute name, node) for every read off a carrier inside ``node``."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        base = sub.value
        if isinstance(base, ast.Name) and base.id in CARRIERS:
            yield sub.attr, sub
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and base.attr in CARRIERS
        ):
            yield sub.attr, sub


def _scope_assignments(body: Sequence[ast.stmt]) -> Dict[str, ast.expr]:
    """Simple ``name = expr`` assignments in a scope body (last wins),
    not descending into nested function/class definitions."""
    out: Dict[str, ast.expr] = {}

    def visit(statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target = statement.targets[0]
                if isinstance(target, ast.Name):
                    out[target.id] = statement.value
            elif (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and statement.value is not None
            ):
                out[statement.target.id] = statement.value
            for child_body in (
                getattr(statement, "body", []),
                getattr(statement, "orelse", []),
                getattr(statement, "finalbody", []),
            ):
                if child_body:
                    visit(child_body)
            for handler in getattr(statement, "handlers", []):
                visit(handler.body)

    visit(body)
    return out


def _resolve_key_nodes(
    node: ast.AST, chain: Sequence[Dict[str, ast.expr]], depth: int = 4
) -> List[ast.AST]:
    """Expand a key expression through local names and ``+`` concatenation."""
    if depth <= 0:
        return [node]
    if isinstance(node, ast.Name):
        for scope in reversed(chain):
            if node.id in scope:
                return _resolve_key_nodes(scope[node.id], chain, depth - 1)
        return [node]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _resolve_key_nodes(
            node.left, chain, depth - 1
        ) + _resolve_key_nodes(node.right, chain, depth - 1)
    if isinstance(node, ast.Tuple):
        resolved: List[ast.AST] = []
        for element in node.elts:
            resolved.extend(_resolve_key_nodes(element, chain, depth - 1))
        return resolved
    return [node]


def _store_key_exprs(
    body: Sequence[ast.stmt], store_names: Set[str], chain: List[Dict[str, ast.expr]]
) -> Iterator[Tuple[str, ast.AST, List[Dict[str, ast.expr]]]]:
    """Yield (store, key expression, scope chain) for cache accesses.

    Walks one scope; recurses into nested functions with the extended scope
    chain, and extends ``store_names`` with local aliases whose assigned
    expression mentions a registered store (e.g. the ``base_cache =
    _BASE_FLOW_CACHE if shareable else {}`` pattern).
    """
    scope_assigns = _scope_assignments(body)
    local_chain = chain + [scope_assigns]
    names = set(store_names)
    for name, value in scope_assigns.items():
        for sub in ast.walk(value):
            if isinstance(sub, ast.Name) and sub.id in store_names:
                names.add(name)
                break

    def visit(node: ast.AST) -> Iterator[
        Tuple[str, ast.AST, List[Dict[str, ast.expr]]]
    ]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested scope: recurse with the extended chain, do not scan
            # its body as part of this scope.
            yield from _store_key_exprs(node.body, names, local_chain)
            return
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if node.value.id in names:
                yield node.value.id, node.slice, local_chain
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if (
                isinstance(target, ast.Name)
                and target.id in names
                and node.func.attr in ("get", "setdefault", "pop")
                and node.args
            ):
                yield target.id, node.args[0], local_chain
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    for statement in body:
        yield from visit(statement)


def _check_cache03(ctx: FileContext) -> Iterator[Violation]:
    stores = ctx.project.stores_of(ctx.path)
    if not stores:
        return
    alias_axes: Dict[str, Tuple[str, ...]] = dict(stores)
    seen: Set[Tuple[str, int]] = set()
    for store, key_expr, chain in _store_key_exprs(
        ctx.tree.body, set(stores), []
    ):
        axes = alias_axes.get(store)
        if axes is None:
            # Alias of a registered store: find which one its assignment
            # mentions (unambiguous in practice; first match wins).
            for scope in reversed(chain):
                value = scope.get(store)
                if value is None:
                    continue
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name) and sub.id in stores:
                        axes = stores[sub.id]
                        break
                if axes is not None:
                    break
            if axes is None:
                continue
            alias_axes[store] = axes
        for resolved in _resolve_key_nodes(key_expr, chain):
            for attr, node in _carrier_attrs(resolved):
                if attr in axes:
                    continue
                marker = (attr, getattr(node, "lineno", 0))
                if marker in seen:
                    continue
                seen.add(marker)
                yield ctx.violation(
                    "CACHE03",
                    node,
                    f"cache key for {store!r} reads carrier attribute "
                    f"{attr!r} which is not a declared axis "
                    f"{tuple(axes)!r} — declare the axis or drop the "
                    f"dependency",
                )


# ----------------------------------------------------------------------- DET01
def _check_det01(ctx: FileContext) -> Iterator[Violation]:
    aliases = _import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for item in node.names:
                    if item.name not in _ALLOWED_RANDOM_MODULE:
                        yield ctx.violation(
                            "DET01",
                            node,
                            f"'from random import {item.name}' binds global-"
                            f"state randomness — use a seeded random.Random "
                            f"or numpy default_rng(seed)",
                        )
            elif node.module == "numpy.random":
                for item in node.names:
                    if item.name not in _ALLOWED_NUMPY_RANDOM:
                        yield ctx.violation(
                            "DET01",
                            node,
                            f"'from numpy.random import {item.name}' binds "
                            f"global-state randomness — only seeded "
                            f"default_rng/Generator allowed",
                        )
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, aliases)
        if dotted is None:
            continue
        if dotted.startswith("random."):
            member = dotted.split(".", 1)[1]
            if member in _ALLOWED_RANDOM_MODULE:
                if not node.args:
                    yield ctx.violation(
                        "DET01",
                        node,
                        "random.Random() without a seed is nondeterministic "
                        "— pass an explicit seed",
                    )
                continue
            yield ctx.violation(
                "DET01",
                node,
                f"global-state randomness {dotted}() is nondeterministic "
                f"across processes/import orders — use a seeded "
                f"random.Random or numpy default_rng(seed)",
            )
        elif dotted.startswith("numpy.random.") or dotted == "numpy.random":
            member = dotted.split(".")[-1]
            if member == "default_rng":
                if not node.args:
                    yield ctx.violation(
                        "DET01",
                        node,
                        "default_rng() without a seed draws OS entropy — "
                        "pass an explicit seed",
                    )
                continue
            if member not in _ALLOWED_NUMPY_RANDOM:
                yield ctx.violation(
                    "DET01",
                    node,
                    f"np.random.{member}() uses the global numpy generator "
                    f"— use a seeded default_rng(seed) instead",
                )


# ----------------------------------------------------------------------- DET02
def _check_det02(ctx: FileContext) -> Iterator[Violation]:
    if ctx.basename in TIMING_BASENAMES:
        return
    aliases = _import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for item in node.names:
                if item.name in ("time", "perf_counter", "perf_counter_ns"):
                    yield ctx.violation(
                        "DET02",
                        node,
                        f"'from time import {item.name}' outside the "
                        f"phases timing module — route wall-clock reads "
                        f"through repro.sweep.phases.phase_clock()",
                    )
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, aliases)
        if dotted in ("time.time", "time.perf_counter", "time.perf_counter_ns"):
            yield ctx.violation(
                "DET02",
                node,
                f"{dotted}() outside the phases timing module — wall-clock "
                f"reads feed timing fields only and must go through "
                f"repro.sweep.phases.phase_clock()",
            )


# ----------------------------------------------------------------------- DET03
def _check_det03(ctx: FileContext) -> Iterator[Violation]:
    aliases = _import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, aliases)
        if dotted is None:
            continue
        parts = tuple(dotted.split("."))
        if len(parts) != 2 or parts not in _LISTING_CALLS:
            continue
        parent = ctx.parent(node)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
        ):
            continue
        yield ctx.violation(
            "DET03",
            node,
            f"{dotted}() returns entries in filesystem order — wrap it in "
            f"sorted() so results cannot depend on directory layout",
        )


# ----------------------------------------------------------------------- DET04
def _check_det04(ctx: FileContext) -> Iterator[Violation]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            yield ctx.violation(
                "DET04",
                node,
                "id() is per-process and per-allocation — it must never "
                "reach a cross-process cache key or the pool boundary; if "
                "this use is process-local and audited, baseline it with a "
                "justification",
            )


# ----------------------------------------------------------------------- DET05
def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _check_det05(ctx: FileContext) -> Iterator[Violation]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple") and len(node.args) == 1:
                if _is_set_expr(node.args[0]):
                    yield ctx.violation(
                        "DET05",
                        node,
                        f"{node.func.id}(set(...)) materialises set iteration "
                        f"order — use sorted(...) so ordering is value-"
                        f"determined",
                    )
        if isinstance(node, ast.For) and _is_set_expr(node.iter):
            yield ctx.violation(
                "DET05",
                node,
                "iterating a set in a for loop exposes hash order — iterate "
                "sorted(...) instead",
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    yield ctx.violation(
                        "DET05",
                        node,
                        "comprehension over a set exposes hash order — "
                        "iterate sorted(...) instead",
                    )


# ----------------------------------------------------------------------- ENV01
def _check_env01(ctx: FileContext) -> Iterator[Violation]:
    if ctx.basename in FLAG_TABLE_BASENAMES:
        return
    aliases = _import_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        dotted = None
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node, aliases)
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func, aliases)
        if dotted in ("os.environ", "os.getenv", "os.putenv", "os.environ.get"):
            parent = ctx.parent(node)
            if isinstance(parent, ast.Attribute):
                continue  # the enclosing attribute access reports once
            if (
                isinstance(node, ast.Attribute)
                and isinstance(parent, ast.Call)
                and parent.func is node
            ):
                continue  # the Call node reports once
            yield ctx.violation(
                "ENV01",
                node,
                f"{dotted} outside the flag table — declare the variable in "
                f"repro.flags and read it via read_flag()",
            )


# ----------------------------------------------------------------------- ENV02
def _check_env02(ctx: FileContext) -> Iterator[Violation]:
    if ctx.basename in FLAG_TABLE_BASENAMES:
        return
    declared = ctx.project.declared_flags
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        if not _REPRO_LITERAL.fullmatch(node.value):
            continue
        if node.value in declared:
            continue
        yield ctx.violation(
            "ENV02",
            node,
            f"{node.value!r} is not declared in the repro.flags table — "
            f"declare it there (name, default, contract, reference) first",
        )


_RULE_DEFS = (
    (
        "CACHE01",
        "module-level cache containers must register in repro.core.caches",
        "A module-level dict/list that is subscript-written and read back is "
        "a memo.  Unregistered memos dodge every reset path (worker resets, "
        "clear_runtime_caches, benchmarks' cold legs) and carry undeclared "
        "key schemas, which is how stale-result bugs are born.  Register the "
        "container with register_cache(name, store, axes=..., cap=..., "
        "doc=...) next to its definition; declaration tables (flags.py, "
        "caches.py) are exempt.",
        _check_cache01,
    ),
    (
        "CACHE02",
        "register_cache calls must declare a static cap and axes",
        "register_cache(...) must carry cap= as an int literal (or a "
        "module-level int constant) and axes= as a tuple of string "
        "literals.  Both are read statically by this lint and by reviewers; "
        "a cap or schema hidden behind computed expressions cannot be "
        "audited and defeats the point of the registry.",
        _check_cache02,
    ),
    (
        "CACHE03",
        "cache keys may only read declared axes off carrier objects",
        "For every registered store, key expressions (subscripts, .get, "
        ".setdefault) are resolved through local assignments, aliases and "
        "tuple concatenation, and every attribute read off a carrier object "
        "(options/config/dyn/dynamics/opts) must name a declared axis.  A "
        "key that silently reads an undeclared attribute means the cache "
        "either over-shares (stale results when that attribute varies) or "
        "the registry under-documents the dependency.",
        _check_cache03,
    ),
    (
        "DET01",
        "no global-state randomness; generators must be explicitly seeded",
        "random.random()/np.random.rand() and friends draw from process-"
        "global generators whose state depends on import order and sharing "
        "across call sites — results then differ between folded/unfolded "
        "execution or across pool workers.  Only seeded constructors are "
        "allowed: random.Random(seed), np.random.default_rng(seed), "
        "Generator/SeedSequence.  Unseeded default_rng() draws OS entropy "
        "and is equally forbidden.",
        _check_det01,
    ),
    (
        "DET02",
        "wall-clock reads only inside the phases timing module",
        "time.time()/time.perf_counter() anywhere near simulation code is a "
        "nondeterminism hazard: a timing value that leaks into a result, a "
        "key or an ordering varies per run.  All phase timing goes through "
        "repro.sweep.phases.phase_clock(), whose module is the single "
        "allow-listed home of wall-clock reads; timing fields it feeds are "
        "observability-only by contract.  (time.monotonic for timeouts is "
        "fine — it never feeds results.)",
        _check_det02,
    ),
    (
        "DET03",
        "directory listings must be sorted before use",
        "os.listdir/os.scandir/glob.glob return entries in filesystem order, "
        "which differs across machines, filesystems and creation history.  "
        "Any listing that feeds results (cache scans, shared-object "
        "discovery, sweep inputs) must be wrapped directly in sorted().",
        _check_det03,
    ),
    (
        "DET04",
        "id() must not feed cache keys or cross the pool boundary",
        "id() values are per-process and recycled per-allocation: two "
        "objects can share an id over a cache's lifetime, and no id is "
        "meaningful in another process.  An id-keyed entry is therefore "
        "either a correctness bug (collision) or dead weight (cross-"
        "process).  Audited process-local uses — e.g. identity-keyed memo "
        "of an immutable object alive for the cache's whole lifetime — are "
        "baselined with a justification, not silently allowed.",
        _check_det04,
    ),
    (
        "DET05",
        "set iteration order must not escape into results",
        "Iterating a set (list(set(...)), for x in set(...), comprehensions "
        "over sets) observes hash order, which varies with PYTHONHASHSEED "
        "and insertion history.  Where the iteration feeds anything ordered "
        "— results, file writes, flow admission — use sorted(...).  "
        "Membership tests and frozenset-valued keys are fine: they never "
        "observe order.",
        _check_det05,
    ),
    (
        "ENV01",
        "os.environ is read only by the flag table",
        "Every environment read is a hidden input to the process; scattered "
        "os.environ.get calls are exactly how an 'identical' sweep differs "
        "between two shells.  repro.flags is the single module allowed to "
        "touch os.environ; everything else calls read_flag() "
        "on a declared flag.",
        _check_env01,
    ),
    (
        "ENV02",
        "every REPRO_* literal must be a declared flag",
        "A string literal that is exactly a REPRO_* name is either a flag "
        "read (must be declared in repro.flags with default, contract and "
        "reference) or a typo'd one (worse).  Mentions inside longer "
        "strings — docs, error messages — do not match; only exact "
        "literals do.",
        _check_env02,
    ),
)

RULES: Dict[str, Rule] = {
    rule_id: Rule(rule_id, summary, explain, check)
    for rule_id, summary, explain, check in _RULE_DEFS
}


def explain_rule(rule_id: str) -> Optional[str]:
    rule = RULES.get(rule_id.upper())
    if rule is None:
        return None
    return f"{rule.rule_id} — {rule.summary}\n\n{rule.explain}"
