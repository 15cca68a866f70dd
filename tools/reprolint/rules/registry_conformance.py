"""Registry conformance (RPL3xx).

Every concrete ``Embedder`` subclass under a solvers/ package must be
reachable through the solver registry (``_REGISTRY`` in ``registry.py``),
otherwise the CLI, figures and sweeps silently can't exercise it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from ..engine import FileContext, ProjectContext, rule


@dataclass
class _ClassInfo:
    name: str
    bases: tuple[str, ...]
    node: ast.ClassDef
    ctx: FileContext


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_abstract(node: ast.ClassDef) -> bool:
    """Abstract by decorator convention or by ``raise NotImplementedError``."""
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in item.decorator_list:
            name = _base_name(dec) if isinstance(dec, (ast.Name, ast.Attribute)) else None
            if name in ("abstractmethod", "abstractproperty"):
                return True
        for stmt in ast.walk(item):
            if isinstance(stmt, ast.Raise):
                exc = stmt.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                if (
                    target is not None
                    and _base_name(target) == "NotImplementedError"
                ):
                    return True
    return False


def _registered_names(registry_tree: ast.Module, dict_name: str) -> set[str]:
    """Every identifier referenced by a registry value expression.

    Covers ``_REGISTRY = {...}`` literals (including lambda factories) and
    later ``_REGISTRY[...] = Factory`` item assignments.
    """
    names: set[str] = set()

    def collect(expr: ast.AST) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)

    for node in ast.walk(registry_tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == dict_name:
                    collect(value)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == dict_name
                ):
                    collect(value)
    return names


def _find_registry_tree(
    solver_files: list[FileContext], basename: str
) -> ast.Module | None:
    """The registry module: prefer a linted file, else load it from disk."""
    for ctx in solver_files:
        if ctx.basename == basename:
            return ctx.tree
    for ctx in solver_files:
        candidate = ctx.path.resolve().parent / basename
        if candidate.is_file():
            try:
                return ast.parse(candidate.read_text(encoding="utf-8"))
            except SyntaxError:
                return None
    return None


@rule(
    "RPL301",
    "registry-unreachable-embedder",
    "every concrete Embedder subclass under solvers/ must be referenced by "
    "registry._REGISTRY (directly or inside a factory lambda)",
    scope="project",
)
def check_registry_conformance(project: ProjectContext) -> None:
    cfg = project.config
    solver_files = [ctx for ctx in project.files if ctx.in_dir(cfg.solver_dir_names)]
    if not solver_files:
        return

    classes: dict[str, _ClassInfo] = {}
    for ctx in solver_files:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                bases = tuple(
                    b for b in (_base_name(base) for base in node.bases) if b
                )
                classes[node.name] = _ClassInfo(node.name, bases, node, ctx)

    # Transitive subclass closure of the embedder base within the linted set.
    embedders: set[str] = set()
    changed = True
    while changed:
        changed = False
        for info in classes.values():
            if info.name in embedders:
                continue
            if any(b == cfg.embedder_base or b in embedders for b in info.bases):
                embedders.add(info.name)
                changed = True

    if not embedders:
        return
    registry_tree = _find_registry_tree(solver_files, cfg.registry_basename)
    if registry_tree is None:
        return  # nothing to check against (e.g. a single file outside a package)
    registered = _registered_names(registry_tree, cfg.registry_dict)

    for name in sorted(embedders):
        info = classes[name]
        if name.startswith("_") or _is_abstract(info.node):
            continue
        if name not in registered:
            info.ctx.report(
                "RPL301",
                info.node,
                f"concrete Embedder subclass `{name}` is not reachable from "
                f"{cfg.registry_basename}:{cfg.registry_dict}; register it or "
                "mark it abstract",
            )
