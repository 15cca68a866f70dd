"""One shard step: the phase order every driver of a shard runs.

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
idle shard's time stands still. Nothing here touches asyncio. The engine
and standby are read through the :class:`~repro.engine.router.ShardRouter`,
so a promotion is seen at once and the standby has one owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..embedding.base import EmbeddingResult
from ..exceptions import ConfigurationError
from ..faults.model import FaultEvent, FaultScript
from ..faults.repair import RepairOutcome
from ..network.cloud import CloudNetwork
from .core import Decision, EmbeddingEngine
from .rebalance import RebalanceConfig, RebalanceReport, Rebalancer
from .request import EmbeddingRequest
from .router import DEFAULT_NETWORK_ID, ShardRouter

__all__ = ["ShardTick", "StepResult"]

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
    """The phase order and the step clock of one shard.

    ``fault_script`` events apply in the step whose :attr:`now` first
    reaches their ``time``; ``rebalance`` (None = no timer cycles) runs a
    timer cycle in every step whose :attr:`now` is a positive multiple of
    ``rebalance.interval``.
    """

    def __init__(
        self,
        router: ShardRouter,
        network_id: str,
        *,
        fault_script: FaultScript | None = None,
        rebalance: RebalanceConfig | None = None,
    ) -> None:
        self._router = router
        self.network_id = network_id
        self._interval = None if rebalance is None else rebalance.interval
        #: the defrag loop; always present so requested cycles work
        #: without timer cycles configured.
        self.rebalancer = Rebalancer(self.engine, rebalance)
        self._script: tuple[FaultEvent, ...] = tuple(fault_script or ())
        self._next_fault = 0
        #: steps run so far; the step running now sees this count.
        self.now = 0
        #: set once the shard drains: no further timer cycle runs.
        self.draining = False

    @classmethod
    def for_engine(
        cls,
        engine: EmbeddingEngine,
        *,
        fault_script: FaultScript | None = None,
        rebalance: RebalanceConfig | None = None,
    ) -> "ShardTick":
        """A timer-free tick over one bare engine; ``rebalance`` sets requested cycles' rails."""
        router = ShardRouter({DEFAULT_NETWORK_ID: engine})
        tick = cls(router, DEFAULT_NETWORK_ID, fault_script=fault_script, rebalance=rebalance)
        tick._interval = None
        return tick

    # -- reads (cheap; safe on the event loop) ----------------------------------------

    @property
    def engine(self) -> EmbeddingEngine:
        """The shard's current primary (follows promotions)."""
        return self._router.get(self.network_id)

    @property
    def has_standby(self) -> bool:
        return self._router.has_standby(self.network_id)

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

    # -- standby (not part of the phase order) ------------------------------------------

    def poll_standby(self) -> int:
        """Fold every synced record into the standby; returns the count."""
        standby = self._router.get_standby(self.network_id)
        return 0 if standby is None else standby.poll()

    def promote(self) -> EmbeddingEngine:
        """Swap the primary for its caught-up standby (see ``ShardRouter.promote``).

        The rebalancer is rebuilt over the promoted engine.
        """
        engine = self._router.promote(self.network_id)
        self.rebalancer = Rebalancer(engine, self.rebalancer.config)
        return engine
