"""Warm standby: an engine that tails a primary's WAL, ready for promotion.

A :class:`StandbyEngine` owns a private, WAL-less
:class:`~repro.engine.core.EmbeddingEngine` over the *same* substrate as the
primary. It seeds itself the way every restore does
(:meth:`~repro.engine.core.EmbeddingEngine.restore`: the log's last
checkpoint plus the records after it) and then stays replay-consistent by
consuming the primary's log incrementally (:meth:`poll`); a ``checkpoint``
appended later is checked against the tailed state. Because the log records
state *effects* — reservations, embeddings, repair outcomes — the standby
never runs a solver; catching up is pure deterministic bookkeeping.

Promotion (:meth:`promote`) is the fail-over step after the primary dies:
drain the last complete records, resume a writer on the very same log file
(truncating any torn tail the dying primary left), attach it, and hand the
inner engine over. The promoted engine continues the decision sequence and
the chaos seed stream exactly where the primary stopped, so the next batch
of decisions is identical to what a never-crashed primary would have made.
:meth:`repro.engine.tick.ShardTick.promote` wires this into a shard: the
served shard's ``promote`` verb and the durability drill both call it.
"""

from __future__ import annotations

from ..embedding.base import Embedder
from ..engine.core import EmbeddingEngine
from ..exceptions import WalError
from ..network.cloud import CloudNetwork
from . import records as wal_records
from .log import WalTail, WalWriter

__all__ = ["StandbyEngine"]


class StandbyEngine:
    """Tails one primary's write-ahead log; promotable into its replacement."""

    def __init__(
        self,
        network: CloudNetwork,
        solver: Embedder | str,
        wal_path: str,
        *,
        seed: int = 0,
    ) -> None:
        self._engine, _ = EmbeddingEngine.restore(network, solver, wal_path, seed=seed)
        self._path = wal_path
        self._tail = WalTail(wal_path)
        self._promoted = False

    # -- introspection ---------------------------------------------------------------

    @property
    def engine(self) -> EmbeddingEngine:
        """The replay-consistent inner engine (read-only until promotion)."""
        return self._engine

    @property
    def path(self) -> str:
        return self._path

    @property
    def applied_seq(self) -> int:
        """Last log sequence number folded into the standby state."""
        return self._engine.wal_applied_seq

    @property
    def promoted(self) -> bool:
        return self._promoted

    def ledger_fingerprint(self) -> str:
        return self._engine.ledger_fingerprint()

    # -- catch-up --------------------------------------------------------------------

    def poll(self) -> int:
        """Fold in every complete record appended since the last poll.

        Returns the number of records applied. Safe to call before the
        primary has created the log (no file → nothing to do).
        """
        if self._promoted:
            raise WalError("standby was already promoted; poll the engine's own WAL")
        applied = 0
        for record in self._tail.poll():
            if record.type == wal_records.HEADER:
                wal_records.check_header(
                    record.payload, network_fingerprint=self._engine.fingerprint
                )
                continue
            if record.seq <= self.applied_seq:
                continue  # already folded in by the seeding restore
            self._engine.apply_wal_record(record)
            applied += 1
        return applied

    # -- fail-over -------------------------------------------------------------------

    def promote(
        self, *, attach_writer: bool = True
    ) -> EmbeddingEngine:
        """Take over as primary: final catch-up, resume the log, hand over.

        Resuming the writer truncates any torn tail the dying primary left
        (records past the last complete one were never acknowledged, so
        dropping them loses nothing a client was promised). The returned
        engine appends to the same log the old primary wrote.
        """
        if self._promoted:
            raise WalError("standby was already promoted")
        self.poll()
        engine = self._engine
        if attach_writer:
            writer = WalWriter(self._path)
            try:
                engine.attach_wal(writer)
            except Exception:
                writer.close()
                raise
        self._promoted = True
        return engine
