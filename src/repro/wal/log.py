"""Append-only, fingerprint-chained write-ahead log (JSON lines).

One log records the lifecycle of one :class:`~repro.engine.core.EmbeddingEngine`
as a sequence of records, one JSON object per line::

    {"chain": <hex>, "payload": {...}, "seq": <int>, "type": <str>}

``seq`` starts at 0 with a mandatory ``header`` record (log identity: network
fingerprint, solver, seed — see :mod:`repro.wal.records`) and increases by
exactly one per record. ``chain`` is a SHA-256 over the previous record's
chain value and the canonical JSON of the record body, so any in-place edit,
reordering, or truncation in the middle of the log is detected on read.

Durability model:

* :meth:`WalWriter.append_record` only buffers the encoded line in memory —
  it never touches the file, so the engine can append from an event-loop
  thread without blocking IO (the PR-6 sanitizer contract).
* :meth:`WalWriter.sync` writes the buffered lines, flushes, and
  ``os.fsync``\\ s; transports call it off-loop once per dispatch cycle and
  acknowledge clients only afterwards (ack-after-fsync), so an acknowledged
  commit is never lost to a crash.
* A crash can leave at most one torn line at the *tail*; readers tolerate it
  (:func:`read_wal` reports ``torn``) and a resuming writer truncates it.

:class:`WalTail` is the standby side: an incremental reader that consumes
complete, chain-valid records as they are appended by a live primary.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping

from ..exceptions import WalError

__all__ = [
    "WalRecord",
    "WalScan",
    "WalTail",
    "WalWriter",
    "chain_hash",
    "logged_shard_ids",
    "read_wal",
    "shard_wal_path",
]

#: chain value before the first record (the header chains off this).
GENESIS_CHAIN = ""


def shard_wal_path(wal_dir: str, network_id: str) -> str:
    """The per-shard log file path under a service's ``--wal`` directory."""
    return os.path.join(wal_dir, f"{network_id}.wal")


def logged_shard_ids(wal_dir: str) -> set[str]:
    """The network ids with a non-empty log under ``wal_dir``."""
    if not os.path.isdir(wal_dir):
        return set()
    return {
        network_id
        for network_id, ext in map(os.path.splitext, os.listdir(wal_dir))
        if ext == ".wal"
        and os.path.getsize(shard_wal_path(wal_dir, network_id))
    }


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One decoded, chain-verified log record."""

    seq: int
    type: str
    payload: Mapping[str, Any]
    chain: str

    def body_json(self) -> str:
        """The canonical JSON the chain hash covers (everything but chain)."""
        return json.dumps(
            {"payload": self.payload, "seq": self.seq, "type": self.type},
            sort_keys=True,
            separators=(",", ":"),
        )


def chain_hash(prev_chain: str, body_json: str) -> str:
    """The chain value of a record: SHA-256 over predecessor chain + body."""
    return hashlib.sha256((prev_chain + body_json).encode("utf-8")).hexdigest()


def _encode_record(record: WalRecord) -> bytes:
    doc = {
        "chain": record.chain,
        "payload": record.payload,
        "seq": record.seq,
        "type": record.type,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def _decode_line(line: bytes, prev_chain: str, expect_seq: int) -> WalRecord | None:
    """Decode and chain-verify one line; None on any mismatch (caller decides
    whether that is a tolerable torn tail or hard corruption)."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict):
        return None
    try:
        record = WalRecord(
            seq=int(doc["seq"]),
            type=str(doc["type"]),
            payload=dict(doc["payload"]),
            chain=str(doc["chain"]),
        )
    except (KeyError, TypeError, ValueError):
        return None
    if record.seq != expect_seq:
        return None
    if chain_hash(prev_chain, record.body_json()) != record.chain:
        return None
    return record


@dataclass(frozen=True, slots=True)
class WalScan:
    """The result of reading a whole log file."""

    records: tuple[WalRecord, ...]
    #: True when the file ended in an invalid/incomplete final line (a torn
    #: write from a crash) that was skipped rather than rejected.
    torn: bool
    #: byte offset of the end of the last valid record (truncation point).
    valid_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else -1

    @property
    def last_chain(self) -> str:
        return self.records[-1].chain if self.records else GENESIS_CHAIN


def read_wal(path: str, *, allow_torn_tail: bool = True) -> WalScan:
    """Read and chain-verify a log file.

    An invalid *final* line is reported as ``torn`` (unless
    ``allow_torn_tail`` is False); an invalid line with data after it is
    hard corruption and raises :class:`~repro.exceptions.WalError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    records: list[WalRecord] = []
    chain = GENESIS_CHAIN
    offset = 0
    torn = False
    while offset < len(data):
        newline = data.find(b"\n", offset)
        end = newline if newline >= 0 else len(data)
        line = data[offset:end]
        record = _decode_line(line, chain, len(records))
        if record is None or newline < 0:
            trailing = data[end + 1 :] if newline >= 0 else b""
            if trailing.strip():
                raise WalError(
                    f"corrupt WAL record at seq {len(records)} in {path!r} "
                    "(data continues after the bad line)"
                )
            if not allow_torn_tail:
                raise WalError(f"torn tail at seq {len(records)} in {path!r}")
            torn = True
            break
        records.append(record)
        chain = record.chain
        offset = newline + 1
    if records and records[0].type != "header":
        raise WalError(f"WAL {path!r} does not start with a header record")
    return WalScan(records=tuple(records), torn=torn, valid_bytes=offset)


class WalWriter:
    """Single-writer append handle over one log file.

    Creating a writer on a fresh/empty path requires ``header`` (the identity
    payload for record 0, written and fsynced immediately). Creating one on
    an existing log *resumes* it: the file is scanned, a torn tail is
    truncated, and appends continue the chain.

    Appends are always pure in-memory buffering; every durability point is
    an explicit :meth:`sync` call. That split is what lets the engine append
    from an event-loop thread (loop-safe by construction) while the service
    dispatcher batches one off-loop fsync per cycle and acknowledges only
    after it.
    """

    def __init__(
        self,
        path: str,
        *,
        header: Mapping[str, Any] | None = None,
    ) -> None:
        self._path = path
        self._pending: list[bytes] = []
        self._closed = False
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        if exists:
            scan = read_wal(path)
            if not scan.records:
                raise WalError(f"existing WAL {path!r} holds no valid records")
            if scan.torn:
                with open(path, "r+b") as fh:
                    fh.truncate(scan.valid_bytes)
            self._seq = scan.last_seq
            self._chain = scan.last_chain
            self._header = dict(scan.records[0].payload)
            if header is not None:
                for key, value in header.items():
                    have = self._header.get(key)
                    if have != value:
                        raise WalError(
                            f"WAL {path!r} header mismatch on {key!r}: "
                            f"log has {have!r}, caller expects {value!r}"
                        )
            self._fh = open(path, "ab")
        else:
            if header is None:
                raise WalError(f"WAL {path!r} is new and no header payload was given")
            self._seq = -1
            self._chain = GENESIS_CHAIN
            self._header = dict(header)
            self._fh = open(path, "ab")
            self._buffer_record("header", self._header)
            self.sync()
            _fsync_dir(os.path.dirname(os.path.abspath(path)))

    # -- introspection ---------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def seq(self) -> int:
        """Sequence number of the last appended record (header = 0)."""
        return self._seq

    @property
    def chain(self) -> str:
        """Chain value of the last appended record."""
        return self._chain

    @property
    def header(self) -> dict[str, Any]:
        """The identity payload of record 0."""
        return dict(self._header)

    @property
    def pending_count(self) -> int:
        """Appended records not yet fsynced."""
        return len(self._pending)

    # -- appends ---------------------------------------------------------------------

    def _buffer_record(self, record_type: str, payload: Mapping[str, Any]) -> int:
        record = WalRecord(
            seq=self._seq + 1, type=record_type, payload=dict(payload), chain=""
        )
        chained = WalRecord(
            seq=record.seq,
            type=record.type,
            payload=record.payload,
            chain=chain_hash(self._chain, record.body_json()),
        )
        self._pending.append(_encode_record(chained))
        self._seq = chained.seq
        self._chain = chained.chain
        return chained.seq

    def append_record(self, record_type: str, payload: Mapping[str, Any]) -> int:
        """Buffer one record; returns its sequence number.

        Pure in-memory work — no file IO, so it is loop-safe anywhere. The
        record becomes durable at the next :meth:`sync`.
        """
        if self._closed:
            raise WalError(f"WAL writer for {self._path!r} is closed")
        return self._buffer_record(record_type, payload)

    def sync(self) -> None:
        """Write buffered records, flush, and fsync (blocking file IO)."""
        if self._closed:
            raise WalError(f"WAL writer for {self._path!r} is closed")
        if self._pending:
            self._fh.write(b"".join(self._pending))
            self._pending.clear()
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the file handle. Refuses to drop unsynced records: callers
        :meth:`sync` first (closing would silently lose acknowledged state)."""
        if self._closed:
            return
        if self._pending:
            raise WalError(
                f"WAL writer for {self._path!r} has {len(self._pending)} "
                "unsynced record(s); sync() before close()"
            )
        self._closed = True
        self._fh.close()

    def abandon(self) -> None:
        """Close *discarding* unsynced records (the fail-over path).

        A dead primary's buffer holds decisions that were never fsynced and
        therefore never acknowledged; flushing them into the log its
        successor has already resumed would fork the chain. Dropping them
        loses nothing a client was promised.
        """
        if self._closed:
            return
        self._pending.clear()
        self._closed = True
        self._fh.close()


class WalTail:
    """Incremental chain-verifying reader over a (possibly growing) log.

    Each :meth:`poll` consumes every *complete* record appended since the
    last call. An incomplete or invalid final line is left unconsumed — it is
    either an in-flight append (the primary's write raced the read) or a torn
    tail that a resuming writer will truncate and overwrite in place; both
    resolve by waiting. Invalid data with more data *after* it can never
    become valid and raises :class:`~repro.exceptions.WalError`.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._offset = 0
        self._chain = GENESIS_CHAIN
        self._next_seq = 0

    @property
    def path(self) -> str:
        return self._path

    @property
    def offset(self) -> int:
        """Byte offset of the next unread record."""
        return self._offset

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def poll(self) -> list[WalRecord]:
        """Read every complete record appended since the last poll."""
        try:
            with open(self._path, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return []
        records: list[WalRecord] = []
        consumed = 0
        while True:
            newline = data.find(b"\n", consumed)
            if newline < 0:
                break
            record = _decode_line(data[consumed:newline], self._chain, self._next_seq)
            if record is None:
                if data[newline + 1 :].strip():
                    raise WalError(
                        f"corrupt WAL record at seq {self._next_seq} in "
                        f"{self._path!r} while tailing"
                    )
                break
            records.append(record)
            self._chain = record.chain
            self._next_seq = record.seq + 1
            consumed = newline + 1
        self._offset += consumed
        return records


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of a directory (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
