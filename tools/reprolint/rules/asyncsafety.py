"""Async safety (RPL7xx).

The service tier's correctness argument is the single-writer dispatcher: one
task per shard owns the engine, connection handlers only screen and enqueue,
and nothing on the event loop blocks. These rules check that argument
statically, using the whole-program call graph (:mod:`..callgraph`) for the
interprocedural half:

* **RPL701** — a blocking primitive (``time.sleep``, socket/subprocess IO,
  file ``open``/``fsync``, a direct solver ``embed()``) is transitively
  reachable from an ``async def`` with no executor hop in between. The loop
  stalls for the duration; every other connection pays for it.
* **RPL702** — shared engine/ledger/fault state is mutated in a coroutine
  that also awaits, outside the dispatcher modules. Another task can
  interleave at the await and observe (or clobber) half-applied state.
* **RPL703** — ``create_task`` whose handle is dropped on the floor. The
  task can be garbage-collected mid-flight and its exceptions vanish.
* **RPL704** — a lock acquired without ``try/finally`` (an exception leaks
  the lock) or a *sync* lock held across an ``await`` (blocks every thread
  and invites lock-order deadlocks).

The static pack is checked dynamically by :mod:`repro.utils.sanitizer`
(event-loop stall monitor + cross-task mutation tripwire) in the service
e2e suites.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, ProjectContext, rule


def _attr_chain(expr: ast.expr) -> list[str]:
    """``["self", "engine", "submit"]`` for ``self.engine.submit``; [] if not
    a plain name/attribute chain."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_nodes(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Every node of ``fn``'s body excluding nested function/class bodies."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _await_lines(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[int]:
    return sorted(
        node.lineno
        for node in _own_nodes(fn)
        if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith))
    )


# ---------------------------------------------------------------------------
# RPL701 — blocking call reachable from a coroutine
# ---------------------------------------------------------------------------


@rule(
    "RPL701",
    "blocking-call-in-coroutine",
    "a blocking primitive (sleep/socket/subprocess/file IO/solver embed) is "
    "transitively reachable from an async def without an executor hop",
    scope="project",
)
def check_blocking_reachable(project: ProjectContext) -> None:
    graph = project.callgraph
    by_display = {ctx.display: ctx for ctx in project.files}
    for root in graph.async_roots():
        ctx = by_display.get(root.path)
        if ctx is None:
            continue
        anchored: set[tuple[int, int]] = set()
        for hit in graph.blocking_reachable(root.qualname):
            key = (hit.line, hit.col)
            if key in anchored:
                continue  # one diagnostic per call site, whatever it reaches
            anchored.add(key)
            _, _, local = root.qualname.partition("::")
            if len(hit.chain) == 1:
                how = f"calls blocking `{hit.site.primitive}` directly"
            else:
                tail = " > ".join(q.rpartition("::")[2] for q in hit.chain[1:])
                how = (
                    f"reaches blocking `{hit.site.primitive}` via {tail} "
                    f"(defined at {hit.chain[-1].partition('::')[0]}:"
                    f"{hit.site.line})"
                )
            ctx.report(
                "RPL701",
                hit.line,
                f"coroutine `{local}` {how}; move the blocking work off the "
                "event loop with `asyncio.to_thread(...)` or "
                "`run_in_executor`",
            )


# ---------------------------------------------------------------------------
# RPL702 — shared-state mutation across an await outside the dispatcher
# ---------------------------------------------------------------------------


def _shared_mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, ctx: FileContext
) -> Iterator[tuple[ast.AST, str]]:
    """(node, description) for every shared-state mutation in ``fn``."""
    shared = set(ctx.config.shared_state_attrs)
    mutators = set(ctx.config.shared_mutator_methods)
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                base = target.value if isinstance(target, ast.Subscript) else target
                chain = _attr_chain(base)
                # writes *through* shared state (`self.engine.x = ...`), not
                # plain rebinding of the handle itself (`self.engine = ...`).
                if len(chain) >= 2 and set(chain[:-1]) & shared:
                    yield target, f"assignment through `{'.'.join(chain)}`"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr not in mutators:
                continue
            chain = _attr_chain(node.func.value)
            if chain and set(chain) & shared:
                yield node, f"call `{'.'.join(chain)}.{node.func.attr}(...)`"


@rule(
    "RPL702",
    "shared-state-mutation-across-await",
    "a coroutine outside the single-writer dispatcher modules mutates shared "
    "engine/ledger/fault state while also awaiting",
)
def check_shared_state_across_await(ctx: FileContext) -> None:
    if ctx.has_suffix(ctx.config.dispatcher_module_suffixes):
        return
    for fn in _functions(ctx.tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        awaits = _await_lines(fn)
        if not awaits:
            continue
        for node, what in _shared_mutations(fn, ctx):
            line = getattr(node, "lineno", fn.lineno)
            # "across an await": some await happens on a different line, so
            # another task can interleave while this mutation is in flight.
            if any(a != line for a in awaits):
                ctx.report(
                    "RPL702",
                    node,
                    f"{what} mutates shared state in coroutine `{fn.name}`, "
                    "which awaits elsewhere; only the single-writer "
                    "dispatcher may mutate engine/ledger/fault state "
                    "across await points",
                )


# ---------------------------------------------------------------------------
# RPL703 — fire-and-forget create_task
# ---------------------------------------------------------------------------


def _is_create_task(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "create_task"
    return isinstance(func, ast.Attribute) and func.attr == "create_task"


@rule(
    "RPL703",
    "fire-and-forget-task",
    "asyncio.create_task result must be awaited, stored, or given a done "
    "callback; a dropped handle can be garbage-collected mid-flight",
)
def check_fire_and_forget_task(ctx: FileContext) -> None:
    for node in ast.walk(ctx.tree):
        # Only a bare expression statement drops the handle; assignments,
        # awaits, container.append(...), gather(...) args all keep it.
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and _is_create_task(node.value)
        ):
            ctx.report(
                "RPL703",
                node.value,
                "create_task handle is dropped; store it (and await or "
                "add_done_callback it) so the task cannot be collected "
                "mid-flight and its exceptions surface",
            )


# ---------------------------------------------------------------------------
# RPL704 — lock discipline
# ---------------------------------------------------------------------------


def _is_lockish(chain: list[str], fragments: tuple[str, ...]) -> bool:
    return any(frag in part.lower() for part in chain for frag in fragments)


def _finally_releases(fn: ast.FunctionDef | ast.AsyncFunctionDef, name: str) -> bool:
    """Does any finally block in ``fn`` call ``<...>.release()`` on ``name``?"""
    for node in _own_nodes(fn):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                    and name in _attr_chain(sub.func.value)
                ):
                    return True
    return False


@rule(
    "RPL704",
    "lock-discipline",
    "locks must be acquired via context manager or try/finally, and a sync "
    "lock must never be held across an await",
)
def check_lock_discipline(ctx: FileContext) -> None:
    fragments = ctx.config.lock_name_fragments
    for fn in _functions(ctx.tree):
        for node in _own_nodes(fn):
            # acquire() on a lock-like receiver with no matching finally
            # release: an exception between acquire and release leaks it.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                chain = _attr_chain(node.func.value)
                if chain and _is_lockish(chain, fragments):
                    holder = chain[-1]
                    if not _finally_releases(fn, holder):
                        ctx.report(
                            "RPL704",
                            node,
                            f"`{'.'.join(chain)}.acquire()` has no matching "
                            "release() in a finally block; use `with`/"
                            "`async with` or try/finally",
                        )
            # sync `with lock:` whose body awaits: the lock is held across
            # the suspension, blocking other threads and inviting deadlock.
            elif isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    target = expr.func if isinstance(expr, ast.Call) else expr
                    chain = _attr_chain(target)
                    if not chain or not _is_lockish(chain, fragments):
                        continue
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Await):
                            ctx.report(
                                "RPL704",
                                sub,
                                f"await while holding sync lock "
                                f"`{'.'.join(chain)}`; a suspended holder "
                                "blocks every other thread — use an "
                                "asyncio lock or release before awaiting",
                            )
                            break

