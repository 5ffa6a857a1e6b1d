"""Lint engine: file discovery, the project index, and rule dispatch.

Linting is two-phase.  The *collection* phase parses every file once and
builds a :class:`ProjectIndex` — declared environment flags and registered
cache stores — because several rules are cross-file by nature: an
``os.environ`` read in one module is judged against declarations in
another.  The *check* phase then runs every rule over every file with the
index in hand.

Module roles are recognised by basename: a file named ``flags.py`` is the
flag table (exempt from ``ENV01``, contributes ``declare_flag`` calls),
``caches.py`` is the cache registry, ``phases.py`` is the timing allowlist.
This keeps the engine equally usable on the real tree and on the inline
fixture trees of ``tests/test_lint.py``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.baseline import Baseline, load_baseline


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str
    line_content: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class RegisteredCache:
    """One ``register_cache(...)`` call as seen statically."""

    name: Optional[str]
    store_name: Optional[str]
    axes: Optional[Tuple[str, ...]]
    cap_valid: bool
    line: int


@dataclass
class ProjectIndex:
    """Cross-file facts collected before any rule runs."""

    #: Flag names from ``declare_flag("NAME", ...)`` calls in flags modules.
    declared_flags: Set[str] = field(default_factory=set)
    #: Per file path: every register_cache call found in it.
    registrations: Dict[str, List[RegisteredCache]] = field(default_factory=dict)

    def stores_of(self, path: str) -> Dict[str, Tuple[str, ...]]:
        """``{store variable name: axes}`` registered in one file."""
        stores: Dict[str, Tuple[str, ...]] = {}
        for reg in self.registrations.get(path, []):
            if reg.store_name is not None and reg.axes is not None:
                stores[reg.store_name] = reg.axes
        return stores


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    path: str
    basename: str
    tree: ast.Module
    lines: List[str]
    project: ProjectIndex
    _parents: Dict[int, ast.AST] = field(default_factory=dict)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def line_content(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        line = getattr(node, "lineno", 1)
        return Violation(
            rule=rule,
            path=self.path,
            line=line,
            message=message,
            line_content=self.line_content(line),
        )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: List[Violation]
    suppressed: List[Violation]
    parse_errors: List[str]
    config_errors: List[str]

    @property
    def exit_code(self) -> int:
        if self.parse_errors or self.config_errors:
            return 2
        return 1 if self.violations else 0


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths``, sorted (DET03 discipline)."""
    found: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.add(os.path.normpath(path))
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    found.add(os.path.normpath(os.path.join(root, name)))
    return sorted(found)


def _parse_file(path: str) -> Tuple[Optional[ast.Module], List[str], Optional[str]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return None, [], f"{path}: unreadable: {exc}"
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, [], f"{path}:{exc.lineno}: syntax error: {exc.msg}"
    return tree, source.splitlines(), None


def _build_parents(tree: ast.AST) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _collect_declared_flags(tree: ast.Module, flags: Set[str]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "declare_flag" or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            flags.add(first.value)


def _literal_int(node: ast.AST, consts: Dict[str, int]) -> Optional[int]:
    """An int literal, or a module-level name bound to one (one level)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _literal_str_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if not isinstance(node, ast.Tuple):
        return None
    values: List[str] = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant) and isinstance(element.value, str)
        ):
            return None
        values.append(element.value)
    return tuple(values)


def _collect_registrations(
    path: str, tree: ast.Module, index: ProjectIndex
) -> None:
    consts: Dict[str, int] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            consts[node.targets[0].id] = node.value.value
    regs: List[RegisteredCache] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "register_cache":
            continue
        cache_name: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                cache_name = node.args[0].value
        store_name: Optional[str] = None
        if len(node.args) > 1 and isinstance(node.args[1], ast.Name):
            store_name = node.args[1].id
        axes: Optional[Tuple[str, ...]] = None
        cap_valid = False
        for keyword in node.keywords:
            if keyword.arg == "axes":
                axes = _literal_str_tuple(keyword.value)
            elif keyword.arg == "cap":
                cap = _literal_int(keyword.value, consts)
                cap_valid = cap is not None and cap > 0
        regs.append(
            RegisteredCache(
                name=cache_name,
                store_name=store_name,
                axes=axes,
                cap_valid=cap_valid,
                line=node.lineno,
            )
        )
    if regs:
        index.registrations[path] = regs


def build_index(
    files: Iterable[str],
) -> Tuple[ProjectIndex, Dict[str, Tuple[ast.Module, List[str]]], List[str]]:
    """Parse every file once; collect the cross-file declarations."""
    index = ProjectIndex()
    parsed: Dict[str, Tuple[ast.Module, List[str]]] = {}
    errors: List[str] = []
    for path in files:
        tree, lines, error = _parse_file(path)
        if error is not None:
            errors.append(error)
            continue
        assert tree is not None
        parsed[path] = (tree, lines)
        if os.path.basename(path) == "flags.py":
            _collect_declared_flags(tree, index.declared_flags)
        _collect_registrations(path, tree, index)
    return index, parsed, errors


def lint_paths(
    paths: Sequence[str],
    baseline_path: Optional[str] = None,
    use_baseline: bool = True,
) -> LintReport:
    """Lint every Python file under ``paths``; apply the baseline if given."""
    from repro.lint.rules import RULES

    files = iter_python_files(paths)
    index, parsed, parse_errors = build_index(files)
    violations: List[Violation] = []
    for path in files:
        if path not in parsed:
            continue
        tree, lines = parsed[path]
        ctx = FileContext(
            path=path,
            basename=os.path.basename(path),
            tree=tree,
            lines=lines,
            project=index,
            _parents=_build_parents(tree),
        )
        for rule in RULES.values():
            violations.extend(rule.check(ctx))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))

    config_errors: List[str] = []
    suppressed: List[Violation] = []
    if use_baseline and baseline_path is not None and os.path.exists(baseline_path):
        baseline: Baseline = load_baseline(baseline_path)
        config_errors.extend(baseline.errors)
        active: List[Violation] = []
        for violation in violations:
            if baseline.matches(violation):
                suppressed.append(violation)
            else:
                active.append(violation)
        violations = active
    return LintReport(
        violations=violations,
        suppressed=suppressed,
        parse_errors=parse_errors,
        config_errors=config_errors,
    )
