"""The transport-agnostic embedding engine.

One :class:`EmbeddingEngine` owns the *authoritative* state of one
substrate network — the residual capacity (via the shared
:class:`~repro.network.reservations.ReservationLedger`), the live
:class:`~repro.faults.model.FaultState`, the tracked embeddings, and the
:class:`~repro.faults.repair.RepairEngine` that plans damaged requests' way
down the reroute → re-embed → evict ladder — and exposes the full admission
lifecycle as plain synchronous methods:

* :meth:`view` — the residual network solves run on, without the dead
  elements under active faults; one cached object that every effect
  patches in place (or drops, for a rebuild on the next call);
* :meth:`solve` / :meth:`commit` — the two halves of one decision, split
  so a transport can run the solve in a thread and feed the result back
  into the sole state mutator;
* :meth:`submit` — the synchronous composition of the two for in-process
  drivers (batch embedding, tests);
* :meth:`release`, :meth:`apply_fault`, :meth:`stats`,
  :meth:`checkpoint` / :meth:`restore` — departures, chaos, telemetry,
  durability (the write-ahead log is a shard's only durable artifact:
  restore loads its last checkpoint and replays the records after it);
* :meth:`migrate` — the rebalancer's atomic apply: release-old +
  reserve-new as one ledger effect with apply-time re-validation, rolled
  back cleanly on conflict and logged as one ``migrate`` WAL record.

Every mutator follows one effect path: validate, build a frozen effect value
(:mod:`repro.wal.records`), fold it in through :meth:`_apply`, then append
it to the write-ahead log. WAL replay decodes a record and calls the same
:meth:`_apply`, so a replayed engine equals the live one by construction.

Everything here is synchronous and transport-free by design: the asyncio
server (:mod:`repro.service.server`) and offline replay
(:func:`repro.sim.trace.replay`) both drive it through one
:meth:`~repro.engine.tick.ShardTick.step`, so offline replay ≡ service
decisions holds by construction instead of by hand-maintained duplication.

The engine is **not** thread-safe; a transport must funnel all mutations
through one writer (the service's dispatcher task already does).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from ..constraints.base import ConstraintSet
from ..embedding.base import Embedder, EmbeddingResult
from ..exceptions import (
    CapacityError,
    ConfigurationError,
    LedgerError,
    WalError,
)
from ..faults.model import FaultAction, FaultEvent, FaultState
from ..faults.repair import EmbeddedRequest, RepairAction, RepairEngine, RepairOutcome
from ..network.cloud import CloudNetwork
from ..network.reservations import Reservation, ReservationLedger
from ..network.state import ResidualState
from ..solvers.registry import make_solver
from ..utils.rng import RngStream, trial_seed
from ..utils.stats import p50_p95_max
from ..wal import records as wal_records
from ..wal.log import WalRecord, WalWriter, read_wal
from . import state_store
from .request import EmbeddingRequest

__all__ = [
    "ENGINE_COUNTER_KEYS",
    "FLOAT_COUNTER_KEYS",
    "REBALANCE_COUNTER_KEYS",
    "Decision",
    "Migration",
    "EmbeddingEngine",
]

#: Seed salt for engine-derived solver streams (callers may override per
#: request); distinct from the runner's 0xA160 so service traffic never
#: aliases experiment streams.
_SERVICE_SEED_SALT = 0x5EC5

#: Seed salt for the repair ladder's re-embed solves (one stream per fault
#: event), distinct from both the runner's and the submit-path salts.
_CHAOS_SEED_SALT = 0xFA17

#: Counters the engine itself maintains (decision + fault lifecycle).
#: Transport-level counters (``submitted``, ``shed_*``) live with the
#: transport; :meth:`EmbeddingEngine.stats` reports only these.
ENGINE_COUNTER_KEYS = (
    "dispatched",
    "accepted",
    "rejected_no_solution",
    "rejected_conflict",
    "departed",
    "faults_injected",
    "recoveries",
    "repairs_rerouted",
    "repairs_reembedded",
    "evictions",
    "total_cost_accepted",
    "repair_cost_delta",
)

#: counters that accumulate objective values rather than event counts.
FLOAT_COUNTER_KEYS = frozenset({"total_cost_accepted", "repair_cost_delta"})

#: Counters of the migrate transaction, kept in a block of their own so the
#: historical wire/checkpoint counter order (and every golden gated on it)
#: stays byte-identical while the rebalancer is off. ``cost_recovered`` is
#: a float (accumulated objective), the other two are event counts.
REBALANCE_COUNTER_KEYS = (
    "migrations_applied",
    "migrations_conflicted",
    "cost_recovered",
)


@dataclass(frozen=True)
class Decision:
    """The engine's verdict on one submitted request.

    A transport formats this into its wire reply; the engine keeps it
    protocol-free. ``decision_index`` is the engine-global decision sequence
    number; ``commit_index`` is the order among accepted requests (``None``
    when rejected).
    """

    request_id: int
    msg_id: int
    accepted: bool
    decision_index: int
    #: structured rejection code (``no_solution`` / ``capacity_conflict``).
    code: str | None = None
    reason: str | None = None
    total_cost: float | None = None
    vnf_cost: float | None = None
    link_cost: float | None = None
    runtime: float | None = None
    commit_index: int | None = None


@dataclass(frozen=True)
class Migration:
    """The engine's verdict on one attempted rebalancer move.

    ``applied`` mirrors :class:`Decision.accepted`: the move either took
    effect atomically or the ledger is exactly as it was before the call.
    """

    request_id: int
    applied: bool
    old_cost: float
    new_cost: float
    #: structured failure code (``departed`` / ``no_solution`` /
    #: ``capacity_conflict``) when the move was not applied.
    code: str | None = None
    reason: str | None = None

    @property
    def gain(self) -> float:
        """Objective cost recovered by the move (0.0 unless applied)."""
        return self.old_cost - self.new_cost if self.applied else 0.0


class EmbeddingEngine:
    """The synchronous admission/repair state machine of one substrate."""

    def __init__(
        self,
        network: CloudNetwork,
        solver: Embedder | str,
        *,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.solver: Embedder = solver if isinstance(solver, Embedder) else make_solver(solver)
        #: master seed for engine-derived solver streams.
        self.seed = seed
        self.ledger = ReservationLedger(ResidualState(network))
        # Event counts stay ints; only accumulated costs are floats.
        self.counters: dict[str, float] = {key: 0 for key in ENGINE_COUNTER_KEYS}
        for key in FLOAT_COUNTER_KEYS:
            self.counters[key] = 0.0
        self._faults = FaultState()
        self._tracked: dict[int, EmbeddedRequest] = {}
        # The residual view of the current state, built on first use; _apply
        # patches it, or drops it when an effect changes its shape.
        self._view: CloudNetwork | None = None
        # The repair ladder plans in-process on read-only views of this
        # state (a transport's dispatcher is the sole writer, so repairs
        # cannot overlap a commit); _apply applies its effects.
        self._repair = RepairEngine(self.ledger, self.solver, self._faults, self._tracked)
        self._decision_counter = 0
        self._fault_counter = 0
        # Migrate-transaction counters live outside ``counters`` so the
        # historical checkpoint/wire counter order stays byte-identical.
        self.rebalance_counters: dict[str, float] = {
            key: 0 for key in REBALANCE_COUNTER_KEYS
        }
        self.rebalance_counters["cost_recovered"] = 0.0
        self._repair_times: list[float] = []
        self._fingerprint: str | None = None
        self._wal: WalWriter | None = None
        #: last WAL sequence number this engine's state reflects.
        self._applied_wal_seq = 0

    # -- identity -------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the substrate's canonical serialization (lazy, cached)."""
        if self._fingerprint is None:
            self._fingerprint = state_store.network_fingerprint(self.network)
        return self._fingerprint

    @property
    def faults(self) -> FaultState:
        """The live fault state (pristine unless :meth:`apply_fault` was used)."""
        return self._faults

    @property
    def repair_engine(self) -> RepairEngine:
        """The engine tracking embeddings and running the repair ladder."""
        return self._repair

    @property
    def degraded(self) -> bool:
        """True while any substrate element is dead."""
        return self._faults.any_dead

    def is_active(self, request_id: int) -> bool:
        """True while ``request_id`` holds resources."""
        return self.ledger.is_active(request_id)

    def active_ids(self) -> Iterator[int]:
        """Ids of requests currently holding resources."""
        return self.ledger.active_ids()

    def active_count(self) -> int:
        """Number of requests currently holding resources."""
        return len(self.ledger)

    def repair_times(self) -> tuple[float, ...]:
        """Wall seconds of every completed repair, in occurrence order."""
        return tuple(self._repair_times)

    # -- views and solves -----------------------------------------------------------

    def view(self) -> CloudNetwork:
        """The residual view solves run on, without the dead elements.

        One object whose contents follow every effect: an effect rewrites
        the links and instances it touches in place, and only an effect
        that adds or removes an element (a saturation crossing, a fault or
        a recovery) drops it for a rebuild on the next call. A decision's
        solve and its commit-time checks therefore share it. Callers must
        not mutate it, nor keep it as a snapshot across effects — build one
        with ``ledger.state.to_network(faults)`` instead.

        The view carries MBBE's min-cost searches
        (:attr:`~repro.network.cloud.CloudNetwork.searches`) from one
        decision to the next: each patch drops those a resized link no
        longer (or newly) admits, and a rebuild starts an empty memo.
        """
        if self._view is None:
            self._view = self.ledger.state.to_network(self._faults)
        return self._view

    def solve_seed(self, request: EmbeddingRequest) -> int:
        """The solver seed for one request: its own, or engine-derived."""
        if request.seed is not None:
            return request.seed
        return trial_seed(self.seed, request.arrival_index, salt=_SERVICE_SEED_SALT)

    def solve(
        self,
        request: EmbeddingRequest,
        *,
        view: CloudNetwork | None = None,
        rng: RngStream = None,
    ) -> EmbeddingResult:
        """Solve one request in-process (no state mutation).

        ``rng`` is passed to the solver verbatim — in-process drivers own
        their seeding discipline; transports that want the engine's derived
        stream pass ``rng=self.solve_seed(request)``.
        """
        if view is None:
            view = self.view()
        return self.solver.embed(
            view,
            request.dag,
            request.source,
            request.dest,
            request.flow,
            rng=rng,
            constraints=request.constraints,
        )

    # -- decisions (validate → build → apply → append) ---------------------------------

    def commit(self, request: EmbeddingRequest, result: EmbeddingResult) -> Decision:
        """Apply one solve outcome to the authoritative state (sync, atomic).

        Re-validates capacity through the ledger's all-or-nothing reserve:
        an embedding that no longer fits (a solve on a stale view, or a
        solver that returned an infeasible one) comes back as a
        ``capacity_conflict`` rejection instead of corrupting the residual
        state. Raises :class:`~repro.exceptions.LedgerError` for an id that
        is already active — in-process drivers treat that as a caller bug;
        transports screen duplicates before they reach the engine.
        """
        if self.ledger.is_active(request.request_id):
            raise LedgerError(
                request.request_id,
                "duplicate_request",
                f"request id {request.request_id} is already active",
            )
        effect = self._decide(request, result)
        try:
            self._apply(effect)
        except CapacityError as exc:
            # Safety net: solves run on the view the previous commit left,
            # so only a solver bug or a caller's stale view lands here.
            effect = self._rejection(
                request, effect.decision_index, "capacity_conflict", str(exc)
            )
            self._apply(effect)
        self._append(effect)
        return Decision(
            request_id=effect.request_id,
            msg_id=effect.msg_id,
            accepted=effect.accepted,
            decision_index=effect.decision_index,
            code=effect.code,
            reason=effect.reason,
            total_cost=effect.total_cost,
            vnf_cost=effect.vnf_cost,
            link_cost=effect.link_cost,
            runtime=result.runtime if effect.accepted else None,
            commit_index=effect.commit_index,
        )

    def _decide(
        self, request: EmbeddingRequest, result: EmbeddingResult
    ) -> wal_records.CommitEffect:
        index = self._decision_counter
        if not result.success:
            return self._rejection(
                request, index, "no_solution", result.reason or "no feasible embedding"
            )
        assert result.cost is not None
        if request.constraints and result.embedding is not None:
            # Commit-time re-validation: a buggy solver (or a solve on a
            # stale view) may hand back an embedding that does not satisfy
            # the request's registered rules.
            violation = request.constraints.check(
                self.view(), result.embedding, request.flow
            )
            if violation is not None:
                return self._rejection(
                    request,
                    index,
                    "constraint_violation",
                    f"{violation.constraint}: {violation}",
                )
        return wal_records.CommitEffect(
            request_id=request.request_id,
            msg_id=request.msg_id,
            decision_index=index,
            flow=request.flow,
            accepted=True,
            total_cost=result.total_cost,
            vnf_cost=result.cost.vnf_cost,
            link_cost=result.cost.link_cost,
            commit_index=int(self.counters["accepted"]),
            reservation=Reservation.from_counts(
                result.cost.alpha_vnf,
                result.cost.alpha_link,
                rate=request.flow.rate,
                cost=result.total_cost,
            ),
            embedding=result.embedding,
            constraints=request.constraints,
        )

    @staticmethod
    def _rejection(
        request: EmbeddingRequest, index: int, code: str, reason: str
    ) -> wal_records.CommitEffect:
        return wal_records.CommitEffect(
            request_id=request.request_id,
            msg_id=request.msg_id,
            decision_index=index,
            flow=request.flow,
            code=code,
            reason=reason,
            constraints=request.constraints,
        )

    def submit(self, request: EmbeddingRequest, rng: RngStream = None) -> EmbeddingResult:
        """Solve-and-commit one request on the current residual view.

        Raises :class:`~repro.exceptions.LedgerError` for a duplicate id
        (see :meth:`commit`).
        """
        result = self.solve(request, rng=rng)
        self.commit(request, result)
        return result

    def release(self, request_id: int) -> None:
        """Return all resources held by an accepted request.

        Raises :class:`~repro.exceptions.LedgerError` (a
        :class:`~repro.exceptions.ConfigurationError`) when the id is not
        active; transports translate that into a structured reply.
        """
        effect = wal_records.ReleaseEffect(request_id)
        self._apply(effect)
        self._append(effect)

    def migrate(self, request_id: int, result: EmbeddingResult) -> Migration:
        """Atomically swap an active request onto a re-planned embedding.

        The rebalancer plans moves against a point-in-time residual view;
        by apply time the substrate may have changed, so this transaction
        re-validates through the ledger's all-or-nothing reserve:
        release-old + reserve-new happen as one effect, and a capacity
        conflict re-reserves the just-freed old reservation and reports
        ``capacity_conflict`` — the ledger is never left between states.
        Applied moves log one ``migrate`` WAL record; rolled-back conflicts
        change no state, log nothing and only count
        ``migrations_conflicted``.
        """

        def refused(code: str, reason: str, old: float = 0.0, new: float = 0.0) -> Migration:
            return Migration(request_id, False, old, new, code=code, reason=reason)

        if not self.ledger.is_active(request_id):
            # The request departed between plan and apply.
            return refused("departed", f"request {request_id} no longer holds resources")
        tracked = self._tracked.get(request_id)
        if (
            not result.success
            or result.cost is None
            or result.embedding is None
            or tracked is None
        ):
            return refused(
                "no_solution",
                result.reason or "planned move carries no embedding",
                old=tracked.cost if tracked is not None else 0.0,
            )
        if tracked.constraints:
            # The move must keep honoring the rules the request was admitted
            # under; a plan that drifted out of bounds is refused pre-apply.
            violation = tracked.constraints.check(
                self.view(), result.embedding, tracked.flow
            )
            if violation is not None:
                return refused(
                    "constraint_violation",
                    f"{violation.constraint}: {violation}",
                    old=tracked.cost,
                    new=result.total_cost,
                )
        effect = wal_records.MigrateEffect(
            request_id=request_id,
            old_cost=self.ledger.reservation(request_id).cost,
            new_cost=result.total_cost,
            flow=tracked.flow,
            reservation=Reservation.from_counts(
                result.cost.alpha_vnf,
                result.cost.alpha_link,
                rate=tracked.flow.rate,
                cost=result.total_cost,
            ),
            embedding=result.embedding,
            constraints=tracked.constraints,
        )
        try:
            self._apply(effect)
        except CapacityError as exc:
            # A conflict is not an effect: nothing changed and nothing is
            # logged, so only the live engine counts it.
            self.rebalance_counters["migrations_conflicted"] += 1
            return refused(
                "capacity_conflict", str(exc), old=effect.old_cost, new=effect.new_cost
            )
        self._append(effect)
        return Migration(request_id, True, effect.old_cost, effect.new_cost)

    # -- faults ---------------------------------------------------------------------

    def apply_fault(self, event: FaultEvent) -> list[RepairOutcome]:
        """Fold one fault event in, repairing every affected embedding.

        Failures immediately run the reroute → re-embed → evict ladder over
        the affected requests, seeded from the engine's own chaos stream
        (one seed per effective failure); recoveries just restore
        visibility (a later arrival sees the element again). Only
        *effective* events are applied and logged — no-ops mutate nothing.
        """
        if not self._faults.changes(event):
            return []
        failure = event.action is FaultAction.FAIL
        rng = trial_seed(self.seed, self._fault_counter, salt=_CHAOS_SEED_SALT)
        # The auto_seed flag is logged so replay advances the chaos stream.
        effect = wal_records.FaultEffect(event, auto_seed=failure)
        self._apply(effect)
        self._append(effect)
        if not failure:
            return []
        nodes, links, instances = self._faults.dead_sets()
        outcomes: list[RepairOutcome] = []
        for request_id in self.ledger.affected_by(
            nodes=nodes, links=links, instances=instances
        ):
            # Planned and applied one at a time: each plan sees the
            # previous repair's reservation.
            repair = self._repair.plan(request_id, rng)
            if repair is not None:
                self._apply(repair)
                self._append(repair)
                outcomes.append(repair.outcome)
        return outcomes

    # -- write-ahead log --------------------------------------------------------------

    @property
    def wal(self) -> WalWriter | None:
        """The attached write-ahead log writer, if any."""
        return self._wal

    @property
    def wal_applied_seq(self) -> int:
        """Last WAL sequence number this engine's state reflects."""
        return self._applied_wal_seq

    def ledger_fingerprint(self) -> str:
        """SHA-256 of the canonical ledger state (the recovery oracle)."""
        return wal_records.ledger_fingerprint(self.ledger)

    def attach_wal(self, writer: WalWriter) -> None:
        """Start logging lifecycle events through ``writer``.

        The writer must describe *this* engine (header fingerprint) and be
        positioned exactly at the state the engine already reflects — a
        fresh log for a fresh engine, or a resumed log this engine was
        restored from (:meth:`restore`).
        """
        if self._wal is not None:
            raise ConfigurationError("engine already has a WAL attached")
        wal_records.check_header(writer.header, network_fingerprint=self.fingerprint)
        if writer.seq != self._applied_wal_seq:
            raise WalError(
                f"WAL {writer.path!r} is at seq {writer.seq} but the engine "
                f"reflects seq {self._applied_wal_seq}; restore from it "
                "(serve --resume --wal) before attaching"
            )
        self._wal = writer

    def attach_wal_file(
        self, path: str, *, network_id: str | None = None
    ) -> WalWriter:
        """Create-or-resume the log at ``path`` and attach it (blocking IO)."""
        header = None
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            header = wal_records.header_payload(
                network_fingerprint=self.fingerprint,
                solver=self.solver.name,
                seed=self.seed,
                network_id=network_id,
            )
        writer = WalWriter(path, header=header)
        try:
            self.attach_wal(writer)
        except Exception:
            writer.close()
            raise
        return writer

    def detach_wal(self) -> None:
        """Stop logging; syncs and closes the writer (blocking IO)."""
        if self._wal is not None:
            self._wal.sync()
            self._wal.close()
            self._wal = None

    def abandon_wal(self) -> None:
        """Drop the writer without syncing (this engine lost a fail-over).

        The promoted successor owns the log now; any unsynced buffer here
        was never acknowledged and is discarded, not flushed.
        """
        if self._wal is not None:
            self._wal.abandon()
            self._wal = None

    def _append(self, effect: wal_records.Effect) -> None:
        if self._wal is not None:
            self._applied_wal_seq = self._wal.append_record(
                effect.type, effect.to_payload()
            )

    def checkpoint(self, extra_counters: Mapping[str, float] | None = None) -> int:
        """Append the whole engine state as one ``checkpoint`` record and sync.

        :meth:`restore` loads the log's last checkpoint and replays only the
        records after it. ``extra_counters`` (transport counters) ride along
        and come back from :meth:`restore` as its leftovers. Returns the
        record's seq (blocking IO).
        """
        if self._wal is None:
            raise ConfigurationError("checkpoint needs an attached write-ahead log")
        self._applied_wal_seq = self._wal.append_record(
            wal_records.CHECKPOINT, self.checkpoint_payload(extra_counters)
        )
        self._wal.sync()
        return self._applied_wal_seq

    def apply_wal_record(self, record: WalRecord) -> None:
        """Re-apply one logged state transition (deterministic replay).

        A ``checkpoint`` mutates nothing: it is checked against the state
        replay reached. Raises :class:`~repro.exceptions.WalError` when a
        record cannot be applied to, or disagrees with, the current state —
        the log and the starting state do not belong together.
        """
        if record.type == wal_records.HEADER:
            wal_records.check_header(record.payload, network_fingerprint=self.fingerprint)
        else:
            try:
                if record.type == wal_records.CHECKPOINT:
                    self._verify_checkpoint(record.payload)
                else:
                    self._apply(wal_records.decode_effect(record.type, record.payload))
            except (CapacityError, LedgerError, WalError) as exc:
                raise WalError(
                    f"replaying the {record.type} record at seq {record.seq} "
                    f"diverged: {exc}"
                ) from exc
        self._applied_wal_seq = record.seq

    # -- the effect path ------------------------------------------------------------

    def _apply(self, effect: wal_records.Effect) -> None:
        """Fold one effect into the engine state — the sole state mutator.

        Every live mutator and WAL replay end here, so a replayed engine
        equals the live one by construction. An effect that does not fit
        the current state raises (:class:`CapacityError`,
        :class:`LedgerError`, or :class:`WalError` for a no-op fault)
        before anything is mutated.
        """
        if isinstance(effect, wal_records.CommitEffect):
            if effect.accepted:
                assert effect.reservation is not None and effect.total_cost is not None
                self.ledger.reserve(effect.request_id, effect.reservation)
            # decision_index and dispatched advance in lockstep.
            self._decision_counter = effect.decision_index + 1
            self.counters["dispatched"] += 1
            if not effect.accepted:
                if effect.code == "capacity_conflict":
                    self.counters["rejected_conflict"] += 1
                else:
                    self.counters["rejected_no_solution"] += 1
                return
            self._patch_view(effect.reservation)
            if effect.embedding is not None:
                self._track(effect.request_id, effect, effect.total_cost)
            self.counters["accepted"] += 1
            self.counters["total_cost_accepted"] += effect.total_cost
        elif isinstance(effect, wal_records.ReleaseEffect):
            self._patch_view(self.ledger.release(effect.request_id))
            self._tracked.pop(effect.request_id, None)
            self.counters["departed"] += 1
        elif isinstance(effect, wal_records.FaultEffect):
            if not self._faults.apply(effect.event):
                raise WalError("the fault event changes no element's liveness")
            self._view = None
            if effect.event.action is FaultAction.RECOVER:
                self.counters["recoveries"] += 1
            else:
                self.counters["faults_injected"] += 1
                self._fault_counter += int(effect.auto_seed)
        elif isinstance(effect, wal_records.RepairEffect):
            outcome = effect.outcome
            if effect.reservation is None:
                self._patch_view(self.ledger.release(outcome.request_id))
            else:
                self._swap(outcome.request_id, effect.reservation)
            self._tracked.pop(outcome.request_id, None)
            if effect.reservation is not None and effect.embedding is not None:
                self._track(outcome.request_id, effect, outcome.new_cost)
            if outcome.action is RepairAction.REROUTED:
                self.counters["repairs_rerouted"] += 1
                self.counters["repair_cost_delta"] += outcome.cost_delta
            elif outcome.action is RepairAction.RE_EMBEDDED:
                self.counters["repairs_reembedded"] += 1
                self.counters["repair_cost_delta"] += outcome.cost_delta
            else:
                self.counters["evictions"] += 1
            self._repair_times.append(outcome.duration)
        else:
            self._swap(effect.request_id, effect.reservation)
            self._track(effect.request_id, effect, effect.new_cost)
            self.rebalance_counters["migrations_applied"] += 1
            self.rebalance_counters["cost_recovered"] += effect.old_cost - effect.new_cost

    def _swap(self, request_id: int, reservation: Reservation) -> None:
        """Release-old + reserve-new as one step, or raise with nothing changed.

        On a capacity conflict the old reservation is re-reserved — it just
        vacated these exact resources, so that cannot fail. The round trip
        may still move a residual by a rounding step, so the view is dropped.
        """
        old = self.ledger.release(request_id)
        try:
            self.ledger.reserve(request_id, reservation)
        except CapacityError:
            self.ledger.reserve(request_id, old)
            self._view = None
            raise
        self._patch_view(old, reservation)

    def _patch_view(self, *reservations: Reservation) -> None:
        """Rewrite the cached view's elements ``reservations`` hold, after the
        ledger changed them; drop the view when one crossed saturation."""
        if self._view is None:
            return
        links = set().union(*(r.links for r in reservations))
        vnfs = set().union(*(r.vnf for r in reservations))
        if not self.ledger.state.patch_network(self._view, links, vnfs, self._faults):
            self._view = None

    def _track(self, request_id: int, effect: Any, cost: float) -> None:
        """Remember an effect's embedding for the repair ladder and the
        rebalancer (dropped again on release or eviction)."""
        self._tracked[request_id] = EmbeddedRequest(
            request_id=request_id,
            embedding=effect.embedding,
            flow=effect.flow,
            cost=cost,
            constraints=ConstraintSet.coerce(effect.constraints),
        )

    # -- telemetry and durability ------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The engine-level stats body (counters + live gauges)."""
        accepted = self.counters["accepted"]
        dispatched = self.counters["dispatched"]
        dead_nodes, dead_links, dead_instances = self._faults.dead_sets()
        return {
            "counters": {key: self.counters[key] for key in ENGINE_COUNTER_KEYS},
            "acceptance_ratio": accepted / dispatched if dispatched else 1.0,
            "active": len(self.ledger),
            "rebalance": {
                key: self.rebalance_counters[key] for key in REBALANCE_COUNTER_KEYS
            },
            "faults": {
                "degraded": self.degraded,
                "dead_nodes": len(dead_nodes),
                "dead_links": len(dead_links),
                "dead_instances": len(dead_instances),
                "tracked_embeddings": len(self._tracked),
                "repair_time_s": p50_p95_max(self._repair_times),
            },
        }

    def checkpoint_payload(
        self, extra_counters: Mapping[str, float] | None = None
    ) -> dict[str, Any]:
        """The body of a ``checkpoint`` record (engine + transport counters).

        Besides the reservations it carries every piece of state replay
        depends on — tracked embeddings (in the commit record's codecs), the
        dead element sets, the decision and fault sequence counters and the
        rebalance counters — so a restored engine is the engine that wrote
        it, not just its reservations.
        """
        counters: dict[str, float] = dict(extra_counters or {})
        counters.update(self.counters)
        return {
            "counters": counters,
            "tracked": [
                wal_records.tracked_to_payload(entry)
                for _, entry in sorted(self._tracked.items())
            ],
            **self._replayed_state(),
        }

    def _replayed_state(self) -> dict[str, Any]:
        """The checkpoint fields replay reproduces exactly, encoded as in the
        record: reservations, dead sets, sequence and rebalance counters."""
        dead_nodes, dead_links, dead_instances = self._faults.dead_sets()
        return {
            "reservations": [
                state_store.reservation_to_record(request_id, reservation)
                for request_id, reservation in self.ledger.reservations()
            ],
            "faults": {
                "dead_nodes": sorted(dead_nodes),
                "dead_links": [list(link) for link in sorted(dead_links)],
                "dead_instances": [list(inst) for inst in sorted(dead_instances)],
            },
            "sequence": {
                "decision": self._decision_counter,
                "fault": self._fault_counter,
            },
            "rebalance_counters": dict(self.rebalance_counters),
        }

    def _verify_checkpoint(self, payload: Mapping[str, Any]) -> None:
        """Raise :class:`WalError` unless a checkpoint matches this state.

        Compared: the reservations (what the ledger fingerprint hashes), the
        engine counters, the sequence counters, the dead sets, the tracked
        ids and the rebalance counters except ``migrations_conflicted`` — a
        rolled-back move leaves no record, so replay cannot count it.
        Embedding bodies are not compared: the codec reorders link uses.
        Built from live state, so no embedding is encoded to check one.
        """

        def replayable(
            doc: Mapping[str, Any], counters: Mapping[str, float], tracked: list[int]
        ) -> dict[str, Any]:
            rebalance = dict(doc["rebalance_counters"])
            rebalance.pop("migrations_conflicted", None)
            return {
                "ledger": doc["reservations"],
                "counters": {key: counters.get(key) for key in ENGINE_COUNTER_KEYS},
                "sequence": doc["sequence"],
                "faults": doc["faults"],
                "tracked ids": tracked,
                "rebalance counters": rebalance,
            }

        ours = replayable(self._replayed_state(), self.counters, sorted(self._tracked))
        try:
            theirs = replayable(
                payload,
                payload["counters"],
                [entry["request_id"] for entry in payload["tracked"]],
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise WalError(f"malformed checkpoint record payload: {exc!r}") from None
        drift = [key for key in ours if ours[key] != theirs[key]]
        if drift:
            raise WalError(f"the checkpoint disagrees on {', '.join(drift)}")

    def _load_checkpoint(self, record: WalRecord) -> dict[str, float]:
        """Seed this fresh engine from a checkpoint; returns its leftover
        (transport) counters.

        Every reservation is re-claimed through the capacity-checked
        reserve, so a checkpoint that over-commits the substrate raises
        instead of resuming in an impossible state.
        """
        payload = record.payload
        where = f"the checkpoint at seq {record.seq}"
        self._view = None
        try:
            for entry in payload["reservations"]:
                self.ledger.reserve(
                    int(entry["request_id"]), state_store.reservation_from_record(entry)
                )
            for entry in payload["tracked"]:
                tracked = wal_records.tracked_from_payload(entry)
                if not self.ledger.is_active(tracked.request_id):
                    raise WalError(
                        f"{where} tracks request {tracked.request_id}, which "
                        "holds no reservation"
                    )
                self._tracked[tracked.request_id] = tracked
            dead = payload["faults"]
            self._faults.dead_nodes.update(int(n) for n in dead["dead_nodes"])
            self._faults.dead_links.update((int(u), int(v)) for u, v in dead["dead_links"])
            self._faults.dead_instances.update(
                (int(n), int(t)) for n, t in dead["dead_instances"]
            )
            self._decision_counter = int(payload["sequence"]["decision"])
            self._fault_counter = int(payload["sequence"]["fault"])
            counters = dict(payload["counters"])
            for key in ENGINE_COUNTER_KEYS:
                value = counters.pop(key)
                self.counters[key] = float(value) if key in FLOAT_COUNTER_KEYS else int(value)
            for key in REBALANCE_COUNTER_KEYS:
                value = payload["rebalance_counters"][key]
                self.rebalance_counters[key] = (
                    float(value) if key == "cost_recovered" else int(value)
                )
            leftover = {str(key): float(value) for key, value in counters.items()}
        except CapacityError as exc:
            raise WalError(f"{where} over-commits the network: {exc}") from exc
        except (LedgerError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise WalError(f"{where} is malformed: {exc!r}") from None
        self._applied_wal_seq = record.seq
        return leftover

    @classmethod
    def restore(
        cls,
        network: CloudNetwork,
        solver: Embedder | str,
        wal_path: str,
        *,
        seed: int = 0,
    ) -> tuple["EmbeddingEngine", dict[str, float]]:
        """Rebuild an engine from its write-ahead log — the only loader.

        Recovery = the log's last checkpoint (a fresh engine when it has
        none) + deterministic replay of every record after it. A missing or
        empty log yields a fresh engine. The header is always identity
        checked; a torn tail is tolerated (those records were never
        acknowledged). Returns the engine plus the leftover (transport)
        counters the checkpoint carried, so a server can rehydrate its shed
        statistics.
        """
        engine = cls(network, solver, seed=seed)
        records = read_wal(wal_path).records if os.path.exists(wal_path) else ()
        if not records:
            return engine, {}
        wal_records.check_header(records[0].payload, network_fingerprint=engine.fingerprint)
        # A record's seq is its index in the log.
        last = max(
            (r.seq for r in records if r.type == wal_records.CHECKPOINT), default=0
        )
        leftover = engine._load_checkpoint(records[last]) if last else {}
        for record in records[last + 1 :]:
            engine.apply_wal_record(record)
        return engine, leftover
