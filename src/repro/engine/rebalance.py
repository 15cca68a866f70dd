"""Background defragmentation: plan and apply guarded live migrations.

Long-running substrates fragment — accumulated embeddings strand capacity
and inflate the marginal cost of every new DAG-SFC. The
:class:`Rebalancer` is the production defrag loop over one
:class:`~repro.engine.core.EmbeddingEngine`:

* **scan** — rank the active reservations by committed objective cost and
  examine the most expensive ones first (they have the most to give back);
* **plan** — for each candidate, re-solve on a *credited* residual view
  (the current residuals with the candidate's own reservation returned, as
  :meth:`~repro.network.reservations.ReservationLedger.credited` builds it
  for the repair planner too, so its current placement competes fairly
  with alternatives) via
  :func:`~repro.solvers.reembed.reembed` with the current placements
  pinned, biasing the solver toward minimal-movement replacements;
* **apply** — feed each planned move through
  :meth:`~repro.engine.core.EmbeddingEngine.migrate`, the atomic
  release-old + reserve-new transaction that re-validates against the
  live ledger and rolls back cleanly on conflict.

Safety rails make this robustness rather than raw optimization: a
per-cycle move budget (``max_moves``), a minimum-gain threshold
(``min_gain``, a fraction of the committed cost), per-request cooldowns
(applied *and* examined-but-unimprovable requests sit out ``cooldown``
cycles, so the scan rotates instead of thrashing), and an automatic pause
whenever the engine is degraded — faults always preempt defrag, and the
service additionally skips cycles while repairs are in flight.

Planning is pure (it never mutates the ledger); only ``apply`` — and
therefore only ``EmbeddingEngine.migrate`` — touches shared state, so a
transport can run whole cycles off-loop under its single-writer
dispatcher. Plan seeds derive from the engine seed through a dedicated
salt, so an offline replay of the same ledger state reproduces the same
move decisions (a requested cycle of :meth:`~repro.engine.tick.ShardTick.step`
runs the very same loop the service does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..embedding.base import EmbeddingResult
from ..solvers.reembed import reembed
from ..utils.rng import trial_seed
from .core import REBALANCE_COUNTER_KEYS, EmbeddingEngine, Migration

__all__ = [
    "RebalanceConfig",
    "PlannedMove",
    "RebalanceReport",
    "Rebalancer",
    "fragmentation_index",
]

#: Seed salt for rebalance planning solves (one stream per examined
#: candidate), distinct from the runner's 0xA160, the submit path's 0x5EC5
#: and the repair ladder's 0xFA17 so defrag never aliases another stream.
_REBALANCE_SEED_SALT = 0xB41A

_EPS = 1e-9


@dataclass(frozen=True)
class RebalanceConfig:
    """Safety rails and budgets of one rebalance cycle."""

    #: per-cycle move budget: at most this many migrations are applied.
    max_moves: int = 4
    #: how many worst-value candidates get a planning solve per cycle.
    candidates: int = 16
    #: minimum gain as a fraction of the committed cost; plans recovering
    #: less are discarded (hysteresis against churn-for-nothing moves).
    min_gain: float = 0.01
    #: cycles an examined request sits out before it is reconsidered.
    cooldown: int = 3
    #: shard steps between timer cycles (the service's shard tick; in-process
    #: drivers request cycles). A served shard runs about 50 steps/s under the
    #: e2ebench loads, so 50 keeps about one cycle per second (rebalancing.md).
    interval: int = 50

    def __post_init__(self) -> None:
        if self.max_moves < 0:
            raise ValueError(f"max_moves must be >= 0, got {self.max_moves}")
        if self.candidates < 1:
            raise ValueError(f"candidates must be >= 1, got {self.candidates}")
        if self.min_gain < 0:
            raise ValueError(f"min_gain must be >= 0, got {self.min_gain}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if not isinstance(self.interval, int) or self.interval < 1:
            raise ValueError(f"interval must be an int >= 1 (steps), got {self.interval}")


@dataclass(frozen=True)
class PlannedMove:
    """One improving replacement found by the planner (not yet applied)."""

    request_id: int
    old_cost: float
    result: EmbeddingResult

    @property
    def new_cost(self) -> float:
        return self.result.total_cost

    @property
    def gain(self) -> float:
        return self.old_cost - self.result.total_cost


@dataclass(frozen=True)
class RebalanceReport:
    """What one cycle did (or why it did nothing)."""

    cycle: int
    paused: bool = False
    #: pause cause (``degraded`` / ``repair_in_flight``) when paused.
    pause_reason: str | None = None
    scanned: int = 0
    planned: int = 0
    applied: int = 0
    conflicts: int = 0
    cost_recovered: float = 0.0
    moves: tuple[Migration, ...] = field(default=())

    def to_dict(self) -> dict[str, Any]:
        return {
            "cycle": self.cycle,
            "paused": self.paused,
            "pause_reason": self.pause_reason,
            "scanned": self.scanned,
            "planned": self.planned,
            "applied": self.applied,
            "conflicts": self.conflicts,
            "cost_recovered": self.cost_recovered,
        }


def fragmentation_index(engine: EmbeddingEngine) -> float:
    """How unevenly the residual capacity is spread, in ``[0, 1)``.

    ``1 - (Σr)² / (n·Σr²)`` (one minus Jain's fairness index) over the
    residual fractions ``r`` of every link and VNF instance: 0.0 when the
    leftover capacity is spread evenly across the substrate, approaching 1
    when it is stranded on a few elements while the rest run full — the
    regime where new DAG-SFCs start paying detour premiums.
    """
    state = engine.ledger.state
    base = state.network
    residuals: list[float] = []
    for link in base.graph.links():
        if link.capacity > _EPS:
            used = state.link_used(link.u, link.v)
            residuals.append(max(0.0, link.capacity - used) / link.capacity)
    for inst in base.deployments.all_instances():
        if inst.capacity > _EPS:
            used = state.vnf_used(inst.node, inst.vnf_type)
            residuals.append(max(0.0, inst.capacity - used) / inst.capacity)
    if not residuals:
        return 0.0
    total = sum(residuals)
    square = sum(r * r for r in residuals)
    if square <= _EPS:
        return 0.0
    return 1.0 - (total * total) / (len(residuals) * square)


class Rebalancer:
    """The background defrag loop over one engine (plan → migrate)."""

    def __init__(
        self, engine: EmbeddingEngine, config: RebalanceConfig | None = None
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else RebalanceConfig()
        self._cycle = 0
        #: request id -> first cycle index at which it may be examined again.
        self._cooldown_until: dict[int, int] = {}
        #: monotone plan-solve counter; seeds the per-candidate rng stream.
        self._plan_counter = 0
        self.paused_cycles = 0

    # -- selection --------------------------------------------------------------------

    def _candidates(self) -> Iterator[int]:
        """Active ids by committed cost, costliest first, cooldowns skipped."""
        ranked = sorted(
            self.engine.ledger.reservations(),
            key=lambda item: (-item[1].cost, item[0]),
        )
        for request_id, _reservation in ranked:
            if self._cooldown_until.get(request_id, 0) > self._cycle:
                continue
            if self.engine.repair_engine.tracked(request_id) is None:
                continue  # nothing to re-plan without the embedding
            yield request_id

    # -- planning (pure) ---------------------------------------------------------------

    def plan(self) -> tuple[int, list[PlannedMove]]:
        """Examine up to ``candidates`` worst-value embeddings; plan moves.

        Returns ``(scanned, moves)`` where ``moves`` holds the improving
        replacements (gain above the threshold), best gain first, already
        truncated to the per-cycle move budget. Every examined candidate —
        improvable or not — enters cooldown, so successive cycles rotate
        through the ledger instead of re-solving the same stragglers.
        Never mutates the ledger.
        """
        config = self.config
        scanned = 0
        moves: list[PlannedMove] = []
        for request_id in self._candidates():
            if scanned >= config.candidates:
                break
            scanned += 1
            self._cooldown_until[request_id] = self._cycle + 1 + config.cooldown
            tracked = self.engine.repair_engine.tracked(request_id)
            assert tracked is not None  # filtered in _candidates
            rng = trial_seed(
                self.engine.seed, self._plan_counter, salt=_REBALANCE_SEED_SALT
            )
            self._plan_counter += 1
            view = self.engine.ledger.credited(request_id).to_network(
                self.engine.faults
            )
            threshold = config.min_gain * max(tracked.cost, _EPS)
            # Minimal movement first: with the current placements pinned the
            # solver can only improve routing. Only when that fails to clear
            # the gain threshold is a full re-placement worth its churn.
            result = reembed(
                self.engine.solver,
                view,
                tracked.embedding.dag,
                tracked.embedding.source,
                tracked.embedding.dest,
                tracked.flow,
                pinned=dict(tracked.embedding.placements),
                rng=rng,
                constraints=tracked.constraints,
            )
            if not result.success or tracked.cost - result.total_cost <= threshold:
                result = self.engine.solver.embed(
                    view,
                    tracked.embedding.dag,
                    tracked.embedding.source,
                    tracked.embedding.dest,
                    tracked.flow,
                    rng=rng,
                    constraints=tracked.constraints,
                )
            if not result.success or result.embedding is None:
                continue
            gain = tracked.cost - result.total_cost
            if gain <= threshold:
                continue
            moves.append(
                PlannedMove(
                    request_id=request_id, old_cost=tracked.cost, result=result
                )
            )
        moves.sort(key=lambda move: (-move.gain, move.request_id))
        return scanned, moves[: config.max_moves]

    # -- apply (sole-writer context only) ----------------------------------------------

    def apply(self, moves: list[PlannedMove]) -> list[Migration]:
        """Apply planned moves through the engine's atomic migrate.

        Must run in the engine's single-writer context (the service
        dispatcher, or any in-process driver). Each move re-validates at
        apply time; conflicts roll back inside :meth:`EmbeddingEngine.migrate`
        and are reported, never raised.
        """
        return [
            self.engine.migrate(move.request_id, move.result) for move in moves
        ]

    # -- one full cycle ----------------------------------------------------------------

    def run_cycle(self, *, repair_in_flight: bool = False) -> RebalanceReport:
        """Plan-and-apply one guarded cycle (pauses under faults/repair).

        A degraded engine (or ``repair_in_flight=True``, set by transports
        whose repair work is queued but not yet applied) yields a paused
        report without examining anything: faults always preempt defrag.
        """
        cycle = self._cycle
        self._cycle += 1
        if repair_in_flight or self.engine.degraded:
            self.paused_cycles += 1
            return RebalanceReport(
                cycle=cycle,
                paused=True,
                pause_reason="degraded" if self.engine.degraded else "repair_in_flight",
            )
        scanned, moves = self.plan()
        outcomes = self.apply(moves)
        applied = sum(1 for m in outcomes if m.applied)
        conflicts = sum(1 for m in outcomes if m.code == "capacity_conflict")
        return RebalanceReport(
            cycle=cycle,
            scanned=scanned,
            planned=len(moves),
            applied=applied,
            conflicts=conflicts,
            cost_recovered=sum(m.gain for m in outcomes),
            moves=tuple(outcomes),
        )

    # -- telemetry ---------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The per-shard ``rebalance`` stats block (engine totals + gauges)."""
        counters = self.engine.rebalance_counters
        return {
            "cycles": self._cycle,
            "paused_cycles": self.paused_cycles,
            **{key: counters[key] for key in REBALANCE_COUNTER_KEYS},
            "fragmentation": fragmentation_index(self.engine),
        }
