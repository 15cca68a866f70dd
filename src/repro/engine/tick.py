"""One shard: its engine, its standby, and the step every driver runs.

:meth:`ShardTick.step` is the only implementation of the per-step phase
order: **releases**, then **faults** (the due fault script first, then the
step's own events), then **submits** in arrival order (view, solve,
commit), then **rebalance cycles**, then the **WAL sync**. The service
dispatcher collects one batch from its queue and runs it as one step in a
worker thread; offline replay (:func:`repro.sim.trace.replay`) runs one step
per trace step. Both drive the same engine through the same code, so an
offline replay and a service run of the same interleaving decide
identically.

The step count is the shard's only clock: :attr:`ShardTick.now` is the
number of steps run so far. A fault script event is due once its
``time`` (a trace step) is at most ``now``, and a timer rebalance cycle
runs every ``interval`` steps. No wall clock decides anything here, so a
shard's decisions depend on its inputs alone, never on host speed, and an
idle shard's time stands still. Nothing here touches asyncio.

A tick is the whole shard: it holds the engine and its optional warm
standby as plain attributes, and :meth:`ShardTick.promote` swaps one for
the other. :func:`restore_shards` rebuilds every shard's engine from its
own write-ahead log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..embedding.base import Embedder, EmbeddingResult
from ..exceptions import ConfigurationError, WalError
from ..faults.model import FaultEvent, FaultScript
from ..faults.repair import RepairOutcome
from ..network.cloud import CloudNetwork
from ..wal.log import logged_shard_ids, shard_wal_path
from ..wal.standby import StandbyEngine
from .core import Decision, EmbeddingEngine
from .rebalance import RebalanceConfig, RebalanceReport, Rebalancer
from .request import EmbeddingRequest

__all__ = [
    "DEFAULT_NETWORK_ID",
    "ShardTick",
    "StepResult",
    "advertised_vnf_types",
    "restore_shards",
]

#: the network id assigned when a single bare network is served.
DEFAULT_NETWORK_ID = "net0"


def advertised_vnf_types(network: CloudNetwork) -> int:
    """Catalog size advertised for one substrate (drives client trace
    generation): the largest deployed regular VNF category."""
    return max((t for t in network.deployments.deployed_types if t > 0), default=0)


#: ``solve(engine, request, view, seed)``: one submit's solve on ``view``.
SolveFn = Callable[[EmbeddingEngine, EmbeddingRequest, CloudNetwork, int], EmbeddingResult]


def _solve(
    engine: EmbeddingEngine, request: EmbeddingRequest, view: CloudNetwork, seed: int
) -> EmbeddingResult:
    return engine.solve(request, view=view, rng=seed)


@dataclass(frozen=True)
class StepResult:
    """What one :meth:`ShardTick.step` did, per input item, in phase order."""

    #: one entry per release: None once released, else the engine's refusal.
    released: tuple[ConfigurationError | None, ...]
    #: every repair outcome of the fault phase, in application order.
    repairs: tuple[RepairOutcome, ...]
    #: one verdict per submit, in arrival order.
    decisions: tuple[Decision, ...]
    #: each requested cycle's report with the rebalancer stats right after it.
    cycles: tuple[tuple[RebalanceReport, dict[str, Any]], ...]
    #: whether the step ended with a WAL sync (new records are durable).
    synced: bool


class ShardTick:
    """One shard: its engine, its optional standby, its phase order and step clock.

    ``fault_script`` events apply in the step whose :attr:`now` first
    reaches their ``time``; ``rebalance`` (None = no timer cycles) runs a
    timer cycle in every step whose :attr:`now` is a positive multiple of
    ``rebalance.interval``.
    """

    def __init__(
        self,
        engine: EmbeddingEngine,
        *,
        fault_script: FaultScript | None = None,
        rebalance: RebalanceConfig | None = None,
    ) -> None:
        #: the shard's current primary (:meth:`promote` replaces it).
        self.engine = engine
        #: the WAL-tailing warm standby :meth:`promote` swaps in, if any.
        self.standby: StandbyEngine | None = None
        self._interval = None if rebalance is None else rebalance.interval
        #: the defrag loop; always present so requested cycles work
        #: without timer cycles configured.
        self.rebalancer = Rebalancer(engine, rebalance)
        self._script: tuple[FaultEvent, ...] = tuple(fault_script or ())
        self._next_fault = 0
        #: steps run so far; the step running now sees this count.
        self.now = 0
        #: set once the shard drains: no further timer cycle runs.
        self.draining = False

    # -- reads (cheap; safe on the event loop) ----------------------------------------

    @property
    def chaos_complete(self) -> bool:
        """True once every scripted fault event has been applied."""
        return self._next_fault == len(self._script)

    # -- the step (blocking; run off the event loop, one at a time) ----------------------

    def step(
        self,
        releases: Sequence[int] = (),
        faults: Sequence[FaultEvent] = (),
        submits: Sequence[tuple[EmbeddingRequest, int]] = (),
        cycles: int = 0,
        *,
        solve: SolveFn = _solve,
    ) -> StepResult:
        """Run one batch through the phase order as step :attr:`now`.

        ``faults`` are injected events, applied after the due script; every
        repair draws from the engine's own chaos stream. ``submits`` pairs
        each request with its solve seed. ``solve`` runs each submit's
        solve on the view the previous commit left. ``cycles`` rebalance
        cycles run after the submits, then a due timer cycle; a step that
        folded faults in runs them paused (repair preempts defrag). The
        sync comes last, so every effect of the step is durable when it
        returns and rides one fsync.
        """
        engine = self.engine
        released: list[ConfigurationError | None] = []
        for request_id in releases:
            try:
                engine.release(request_id)
            except ConfigurationError as exc:
                released.append(exc)
            else:
                released.append(None)

        first = self._next_fault
        while not self.chaos_complete and self._script[self._next_fault].time <= self.now:
            self._next_fault += 1
        events = [*self._script[first : self._next_fault], *faults]
        repairs = [outcome for event in events for outcome in engine.apply_fault(event)]
        repair_in_flight = bool(events)

        decisions = []
        for request, seed in submits:
            result = solve(engine, request, engine.view(), seed)
            decisions.append(engine.commit(request, result))

        reports = []
        for _ in range(cycles):
            report = self.rebalancer.run_cycle(repair_in_flight=repair_in_flight)
            reports.append((report, self.rebalancer.stats()))
        if self._interval and self.now and self.now % self._interval == 0 and not self.draining:
            self.rebalancer.run_cycle(repair_in_flight=repair_in_flight)
        self.now += 1

        wal = engine.wal
        synced = False
        if wal is not None and wal.pending_count:
            wal.sync()
            synced = True
        return StepResult(
            released=tuple(released),
            repairs=tuple(repairs),
            decisions=tuple(decisions),
            cycles=tuple(reports),
            synced=synced,
        )

    # -- promotion (not part of the phase order) ---------------------------------------

    def promote(self) -> EmbeddingEngine:
        """Swap a dead primary for its caught-up standby (blocking file IO).

        Abandons the old primary's writer (it may be gone already; a dead
        process holds no lock we could check), promotes the standby into a
        fully caught-up engine writing to the same log, and rebuilds the
        rebalancer over it. Returns the new primary.
        """
        standby, self.standby = self.standby, None
        if standby is None:
            raise ConfigurationError("this shard has no standby attached")
        # Abandon, never sync: the dead primary's unsynced buffer holds
        # decisions that were never acknowledged, and the standby is about
        # to resume the log file itself.
        self.engine.abandon_wal()
        self.engine = standby.promote()
        self.rebalancer = Rebalancer(self.engine, self.rebalancer.config)
        return self.engine


def restore_shards(
    networks: Mapping[str, CloudNetwork],
    solver: Embedder | str,
    wal_dir: str,
    *,
    seed: int = 0,
) -> tuple[dict[str, EmbeddingEngine], dict[str, dict[str, float]]]:
    """Rebuild every shard's engine from its own write-ahead log in ``wal_dir``.

    Each shard goes through :meth:`EmbeddingEngine.restore` on its own log
    (a shard without one starts fresh). A non-empty log for a shard that is
    not configured raises :class:`WalError` rather than silently dropping
    the reservations it holds. Returns the engines plus the per-shard
    leftover (transport-level) counters, both keyed by network id.
    """
    logged = logged_shard_ids(wal_dir)
    if not logged <= set(networks):
        raise WalError(
            f"logged shards {sorted(logged)} in {wal_dir} do not match "
            f"the configured networks {sorted(networks)}"
        )
    engines: dict[str, EmbeddingEngine] = {}
    leftovers: dict[str, dict[str, float]] = {}
    for network_id, network in networks.items():
        engines[network_id], leftovers[network_id] = EmbeddingEngine.restore(
            network, solver, shard_wal_path(wal_dir, network_id), seed=seed
        )
    return engines, leftovers
