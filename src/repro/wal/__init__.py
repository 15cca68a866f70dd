"""Durability subsystem: write-ahead log, recovery, warm-standby promotion.

The package splits into three layers:

* :mod:`repro.wal.log` — the storage format: append-only fingerprint-chained
  JSON lines with fsync batching, torn-tail tolerance, and an incremental
  tailing reader;
* :mod:`repro.wal.records` — the record vocabulary: the header, one
  frozen effect value per engine transition (commit / release / fault /
  repair / migrate), the ``checkpoint`` record recovery starts from, and
  the ledger fingerprint recovery is asserted against;
* :mod:`repro.wal.standby` — the warm-standby tier: an engine that tails a
  primary's log and can be promoted in place when the primary dies.

Only the first two are imported eagerly; :class:`StandbyEngine` (which pulls
in the full engine) loads on first attribute access, so ``import repro.wal``
stays cheap for pure log tooling.
"""

from __future__ import annotations

from typing import Any

from . import records
from .log import WalRecord, WalScan, WalTail, WalWriter, read_wal, shard_wal_path

__all__ = [
    "records",
    "WalRecord",
    "WalScan",
    "WalTail",
    "WalWriter",
    "read_wal",
    "shard_wal_path",
    "StandbyEngine",
]

_LAZY = {"StandbyEngine": ("repro.wal.standby", "StandbyEngine")}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
