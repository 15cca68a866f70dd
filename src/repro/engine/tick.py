"""One shard's timed work, as synchronous steps its dispatcher calls.

Some of a served shard's work is not triggered by a request: a fault
script replays on a clock, rebalance cycles run on an interval, the WAL is
synced before acks, and a warm standby follows the log. :class:`ShardTick`
owns that schedule, so the shard's dispatcher stays its only long-lived
task: it blocks on its queue until :meth:`ShardTick.deadline` and then
calls the steps in phase order. Nothing here touches asyncio; the blocking
steps (:meth:`~ShardTick.apply_faults`, :meth:`~ShardTick.settle`,
:meth:`~ShardTick.poll_standby`, :meth:`~ShardTick.promote`) run in a worker
thread while the dispatcher awaits them. The engine and standby are read
through the :class:`~repro.engine.router.ShardRouter`, so a promotion is
seen at once and the standby has one owner.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

from ..faults.model import FaultEvent, FaultScript
from ..faults.repair import RepairOutcome
from .core import EmbeddingEngine
from .rebalance import RebalanceConfig, RebalanceReport, Rebalancer
from .router import ShardRouter

__all__ = ["ShardTick"]


class ShardTick:
    """The timed work of one shard: fault script, rebalance timer, WAL, standby.

    ``fault_script`` replays at absolute due times ``start + step *
    chaos_tick``; ``rebalance`` (None = no timer cycles) schedules one
    cycle ``rebalance.interval`` seconds after :meth:`start` and each next
    one ``interval`` seconds after the previous one *ended*, so a slow
    cycle delays the next instead of piling cycles up. ``clock`` is any
    monotonic seconds source (tests pass a fake one).
    """

    def __init__(
        self,
        router: ShardRouter,
        network_id: str,
        *,
        fault_script: FaultScript | None = None,
        chaos_tick: float = 0.05,
        rebalance: RebalanceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._router = router
        self.network_id = network_id
        self.clock = clock
        self._rebalance = rebalance
        #: the defrag loop; always present so the ``rebalance`` verb works
        #: without timer cycles configured.
        self.rebalancer = Rebalancer(self.engine, rebalance)
        #: (due time, event) in script order; offsets until :meth:`start`.
        self._script: list[tuple[float, FaultEvent]] = [
            (event.time * chaos_tick, event) for event in (fault_script or ())
        ]
        self._next_fault = 0
        self._next_cycle: float | None = None
        #: set once the shard drains: no further timer cycle is scheduled.
        self.draining = False

    def start(self) -> None:
        """Anchor the fault script and the first timer cycle at now."""
        now = self.clock()
        self._script = [(now + offset, event) for offset, event in self._script]
        if self._rebalance is not None:
            self._next_cycle = now + self._rebalance.interval

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

    def deadline(self) -> float | None:
        """The clock time of the earliest timed item (None = nothing timed)."""
        cycle = None if self.draining else self._next_cycle
        due = [t for t in (self._fault_deadline(), cycle) if t is not None]
        return min(due, default=None)

    def faults_due(self) -> bool:
        """Whether a scripted fault event is due now."""
        deadline = self._fault_deadline()
        return deadline is not None and deadline <= self.clock()

    def _fault_deadline(self) -> float | None:
        if self._next_fault == len(self._script):
            return None
        return self._script[self._next_fault][0]

    def needs_settle(self, requested: int = 0) -> bool:
        """Whether :meth:`settle` has anything to do (a cycle or a sync)."""
        wal = self.engine.wal
        return bool(requested or self._cycle_due() or (wal is not None and wal.pending_count))

    def _cycle_due(self) -> bool:
        due = self._next_cycle
        return due is not None and not self.draining and due <= self.clock()

    # -- blocking steps (run off the event loop, one at a time) ------------------------

    def apply_faults(self, injected: Sequence[FaultEvent] = ()) -> list[RepairOutcome]:
        """Fold the due scripted events, then ``injected``, into the engine.

        Returns every repair outcome in application order. The repair
        ladder runs solver embeds, hence blocking.
        """
        engine = self.engine
        outcomes: list[RepairOutcome] = []
        while self.faults_due():
            event = self._script[self._next_fault][1]
            outcomes.extend(engine.apply_fault(event, auto_seed=True))
            self._next_fault += 1
        for event in injected:
            outcomes.extend(engine.apply_fault(event, auto_seed=True))
        return outcomes

    def settle(
        self, requested: int = 0, *, repair_in_flight: bool = False
    ) -> list[tuple[RebalanceReport, dict[str, Any]]]:
        """Post-batch work: ``requested`` cycles, a due timer cycle, then fsync.

        Returns each requested cycle's report with the rebalancer stats
        right after it. ``repair_in_flight`` marks a dispatch cycle that
        just folded faults in; its rebalance cycles report themselves
        paused (repair preempts defrag). The sync comes last so applied
        migrations ride the same fsync as the batch they follow.
        """
        results = []
        for _ in range(requested):
            report = self.rebalancer.run_cycle(repair_in_flight=repair_in_flight)
            results.append((report, self.rebalancer.stats()))
        if self._cycle_due():
            assert self._rebalance is not None
            self.rebalancer.run_cycle(repair_in_flight=repair_in_flight)
            self._next_cycle = self.clock() + self._rebalance.interval
        wal = self.engine.wal
        if wal is not None and wal.pending_count:
            wal.sync()
        return results

    def poll_standby(self) -> int:
        """Fold every synced record into the standby; returns the count."""
        standby = self._router.get_standby(self.network_id)
        return 0 if standby is None else standby.poll()

    def promote(self) -> EmbeddingEngine:
        """Swap the primary for its caught-up standby (see ``ShardRouter.promote``).

        The rebalancer is rebuilt over the promoted engine.
        """
        engine = self._router.promote(self.network_id)
        self.rebalancer = Rebalancer(engine, self._rebalance)
        return engine
