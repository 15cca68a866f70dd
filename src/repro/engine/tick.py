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

The tick also owns a shard's timed work: a fault script replays at
``step * chaos_tick`` wall seconds and rebalance cycles run every
``interval`` seconds; :meth:`ShardTick.deadline` tells the dispatcher how
long it may block on its queue. Nothing here touches asyncio. The engine
and standby are read through the :class:`~repro.engine.router.ShardRouter`,
so a promotion is seen at once and the standby has one owner.
"""

from __future__ import annotations

import time
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
    """The phase order and timed work of one shard.

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
        #: the defrag loop; always present so requested cycles work
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

    @classmethod
    def for_engine(
        cls, engine: EmbeddingEngine, *, rebalance: RebalanceConfig | None = None
    ) -> "ShardTick":
        """A tick over one bare engine (in-process drivers; nothing timed).

        ``rebalance`` configures the rebalancer of requested cycles; no
        timer cycle runs until :meth:`start` is called.
        """
        return cls(
            ShardRouter({DEFAULT_NETWORK_ID: engine}), DEFAULT_NETWORK_ID, rebalance=rebalance
        )

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
        fault = None if self.chaos_complete else self._script[self._next_fault][0]
        cycle = None if self.draining else self._next_cycle
        return min((t for t in (fault, cycle) if t is not None), default=None)

    # -- the step (blocking; run off the event loop, one at a time) ----------------------

    def step(
        self,
        releases: Sequence[int] = (),
        faults: Sequence[tuple[FaultEvent, int | None]] = (),
        submits: Sequence[tuple[EmbeddingRequest, int]] = (),
        cycles: int = 0,
        *,
        solve: SolveFn = _solve,
    ) -> StepResult:
        """Run one batch through the phase order; returns per-item results.

        ``faults`` pairs each event with its repair seed (None = the
        engine's own chaos stream, as scripted events use); ``submits``
        pairs each request with its solve seed. ``solve`` runs each
        submit's solve on the view the previous commit left. ``cycles``
        rebalance cycles run after the submits, then a due timer cycle; a
        step that folded faults in runs them paused (repair preempts
        defrag). The sync comes last, so every effect of the step is
        durable when it returns and rides one fsync.
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

        repairs: list[RepairOutcome] = []
        repair_in_flight = bool(faults)
        while not self.chaos_complete and self._script[self._next_fault][0] <= self.clock():
            event = self._script[self._next_fault][1]
            repairs.extend(engine.apply_fault(event, auto_seed=True))
            self._next_fault += 1
            repair_in_flight = True
        for event, seed in faults:
            repairs.extend(engine.apply_fault(event, rng=seed, auto_seed=seed is None))

        decisions = []
        for request, seed in submits:
            result = solve(engine, request, engine.view(), seed)
            decisions.append(engine.commit(request, result))

        reports = []
        for _ in range(cycles):
            report = self.rebalancer.run_cycle(repair_in_flight=repair_in_flight)
            reports.append((report, self.rebalancer.stats()))
        due = self._next_cycle
        if due is not None and not self.draining and due <= self.clock():
            assert self._rebalance is not None
            self.rebalancer.run_cycle(repair_in_flight=repair_in_flight)
            self._next_cycle = self.clock() + self._rebalance.interval

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
        self.rebalancer = Rebalancer(engine, self._rebalance)
        return engine
