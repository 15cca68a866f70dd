"""Effect-path discipline (RPL212; absorbs the retired RPL202 and RPL213).

Every engine state transition is one effect, applied by the engine's single
``_apply`` and appended to the write-ahead log by the method that performed
it — live and on replay alike. Two kinds of call fork that path:

* appending a WAL record outside the engine forks the journal from the
  state machine it is supposed to mirror — replay would no longer
  reconstruct the engine, silently breaking crash recovery and standby
  promotion;
* reserving or releasing on a ledger outside the engine changes capacity
  that no record describes — and a bare release+reserve pair is not even
  atomic (the re-reserve can fail after the release succeeded).

Outside the engine core (which also loads checkpoints), the WAL package and
the ledger itself, both are lint errors; go through the engine's
commit/release/migrate/apply_fault surface instead. One level down, the
per-element ``ResidualState.reserve_*``/``release_*`` calls belong to the
state itself and to the ledger's all-or-nothing ``Reservation.claim``;
anywhere else a failed multi-element attempt would leave a partial claim.
The in-place view mutators (``Graph.resize_link``,
``DeploymentMap.resize_instance``) belong to the state alone: it patches
the views it built, and a call on any other network — the base network
above all — would silently corrupt every later build.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, rule

#: ResidualState's per-element capacity writes, and the only modules that
#: may call them: the state itself and the ledger's all-or-nothing claim.
_STATE_WRITES = frozenset({"reserve_link", "reserve_vnf", "release_link", "release_vnf"})
_STATE_WRITE_OWNERS = ("network/state.py", "network/reservations.py")
#: The in-place view mutators, and the only module that may call them.
_VIEW_WRITES = frozenset({"resize_link", "resize_instance"})
_VIEW_WRITE_OWNERS = ("network/state.py",)


def _is_effect_owner(ctx: FileContext) -> bool:
    return ctx.has_suffix(ctx.config.effect_module_suffixes) or ctx.in_dir(
        ctx.config.wal_dir_names
    )


def _is_ledger_write(node: ast.Call, fragments: tuple[str, ...]) -> bool:
    assert isinstance(node.func, ast.Attribute)
    receiver = ast.unparse(node.func.value).lower()
    return any(fragment in receiver for fragment in fragments)


@rule(
    "RPL212",
    "effect-outside-engine",
    "WAL appends and ledger reserve/release calls belong to the engine's "
    "effect path (engine core, WAL package, ledger), and per-element "
    "ResidualState reserve_*/release_* calls to the state and the ledger, "
    "in-place view resize_* calls to the state; everything else must go "
    "through the engine",
)
def check_effect_outside_engine(ctx: FileContext) -> None:
    state_owner = ctx.has_suffix(_STATE_WRITE_OWNERS)
    view_owner = ctx.has_suffix(_VIEW_WRITE_OWNERS)
    effect_owner = _is_effect_owner(ctx)
    appends = frozenset(ctx.config.wal_append_methods)
    ledger_methods = frozenset(ctx.config.ledger_write_methods)
    fragments = tuple(f.lower() for f in ctx.config.ledger_receiver_fragments)
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        call = ast.unparse(node.func)
        if node.func.attr in _VIEW_WRITES:
            if not view_owner:
                ctx.report(
                    "RPL212",
                    node,
                    f"`{call}(...)` rewrites a network in place outside "
                    "network/state.py; only ResidualState.patch_network may, "
                    "on a view it built — on the base network it would "
                    "corrupt every later residual view",
                )
        elif node.func.attr in _STATE_WRITES:
            if not state_owner:
                ctx.report(
                    "RPL212",
                    node,
                    f"`{call}(...)` writes residual capacity outside "
                    "network/state.py and the ledger, so a failed "
                    "multi-element attempt leaves a partial claim — claim a "
                    "Reservation (all or nothing) or go through the engine",
                )
        elif effect_owner:
            continue
        elif node.func.attr in appends:
            ctx.report(
                "RPL212",
                node,
                f"`{call}(...)` appends a WAL record outside the engine core; "
                "the journal must stay a faithful trace of engine effects — "
                "call engine.commit/release/migrate/apply_fault and let the "
                "engine log the effect",
            )
        elif node.func.attr in ledger_methods and _is_ledger_write(node, fragments):
            ctx.report(
                "RPL212",
                node,
                f"`{call}(...)` changes ledger capacity outside the engine's "
                "effect path, so no WAL record describes it (and a bare "
                "release+reserve pair is not atomic) — call "
                "engine.commit/release/migrate instead",
            )
