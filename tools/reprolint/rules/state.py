"""Residual-state discipline (RPL201).

All capacity bookkeeping must flow through the ResidualState
reserve/release API in ``network/state.py`` so the referee, the online
simulator and every solver agree on residual capacity. Who may *call* that
API is RPL212's business (:mod:`.wal`).
"""

from __future__ import annotations

import ast

from ..engine import FileContext, rule

def _is_state_module(ctx: FileContext) -> bool:
    return ctx.has_suffix(ctx.config.state_module_suffixes)


@rule(
    "RPL201",
    "state-private-access",
    "capacity/bandwidth bookkeeping dicts are private to network/state.py; "
    "go through the reserve/release API",
)
def check_private_state_access(ctx: FileContext) -> None:
    if _is_state_module(ctx):
        return
    private = set(ctx.config.state_private_attrs)
    capacity = set(ctx.config.capacity_attrs)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in private:
            ctx.report(
                "RPL201",
                node,
                f"direct access to ResidualState.{node.attr} outside "
                "network/state.py; use reserve_*/release_*/used_* instead",
            )
        elif (
            node.attr in capacity
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            ctx.report(
                "RPL201",
                node,
                f"rebinding .{node.attr} on a network object bypasses "
                "ResidualState; reserve/release capacity instead",
            )

