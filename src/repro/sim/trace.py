"""Online arrivals: trace generation and offline replay.

The paper embeds one flow into a fresh network; a provider actually faces a
*stream* of requests competing for the same instances and links. This
module draws a reproducible discrete-time request trace — Bernoulli
arrivals per step (the discrete analogue of Poisson arrivals), geometric
holding times, and paper-style random DAG-SFCs with random endpoints — and
replays it through an :class:`~repro.engine.core.EmbeddingEngine`, one
:meth:`~repro.engine.tick.ShardTick.step` per trace step: the same step the
embedding service runs per batch. The same seed yields the same trace, so
different algorithms can be replayed against identical demand (paired
online comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..config import FlowConfig, SfcConfig
from ..engine.core import EmbeddingEngine
from ..engine.request import EmbeddingRequest
from ..engine.tick import ShardTick
from ..exceptions import ConfigurationError
from ..faults.model import FaultScript
from ..faults.repair import RepairOutcome
from ..sfc.generator import generate_dag_sfc
from ..utils.rng import RngStream, as_generator

__all__ = ["TraceEvent", "ArrivalTrace", "generate_trace", "replay"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One arrival: the request plus its departure step."""

    step: int
    request: EmbeddingRequest
    departure_step: int


@dataclass(frozen=True)
class ArrivalTrace:
    """A finite, replayable request trace."""

    events: tuple[TraceEvent, ...]
    steps: int

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def offered_load(self) -> float:
        """Mean simultaneously-held requests implied by the trace."""
        if self.steps == 0:
            return 0.0
        held = sum(ev.departure_step - ev.step for ev in self.events)
        return held / self.steps

    def departures_by_step(self) -> dict[int, list[int]]:
        """step -> request ids departing at that step."""
        out: dict[int, list[int]] = {}
        for ev in self.events:
            out.setdefault(ev.departure_step, []).append(ev.request.request_id)
        return out

    def schedule(self, until: int = 0) -> Iterator[tuple[list[int], list[TraceEvent]]]:
        """Per step, from 0 through the last departure (or ``until`` if
        later): the ids departing at it and its arrivals, in trace order.
        The one step order every driver of a trace follows."""
        departures = self.departures_by_step()
        arrivals: dict[int, list[TraceEvent]] = {}
        for ev in self.events:
            arrivals.setdefault(ev.step, []).append(ev)
        for step in range(max(self.steps, max(departures, default=0), until) + 1):
            yield departures.get(step, []), arrivals.get(step, [])


def generate_trace(
    *,
    steps: int,
    n_nodes: int,
    n_vnf_types: int,
    sfc: SfcConfig,
    arrival_probability: float = 0.5,
    mean_hold: float = 50.0,
    rate: float = 1.0,
    first_id: int = 0,
    rng: RngStream = None,
) -> ArrivalTrace:
    """Draw one discrete-time arrival trace.

    Per step one arrival occurs with ``arrival_probability``; its holding
    time is ``1 + Geometric(1/mean_hold)`` steps; endpoints are a random
    distinct node pair; the DAG-SFC follows the paper's generator.
    Request ids count up from ``first_id`` — offset it when driving a
    resumed server whose id space is already partly claimed (ids are
    per-shard and duplicates are rejected, see docs/serving.md).
    """
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if n_nodes < 2:
        raise ConfigurationError(f"need >= 2 nodes, got {n_nodes}")
    if not (0.0 <= arrival_probability <= 1.0):
        raise ConfigurationError("arrival_probability must be in [0, 1]")
    if mean_hold < 1.0:
        raise ConfigurationError("mean_hold must be >= 1")
    gen = as_generator(rng)

    if first_id < 0:
        raise ConfigurationError(f"first_id must be >= 0, got {first_id}")
    events: list[TraceEvent] = []
    next_id = first_id
    for step in range(steps):
        if gen.random() >= arrival_probability:
            continue
        dag = generate_dag_sfc(sfc, n_vnf_types, rng=gen)
        src, dst = (int(v) for v in gen.choice(n_nodes, size=2, replace=False))
        hold = 1 + int(gen.geometric(1.0 / mean_hold))
        request = EmbeddingRequest(next_id, dag, src, dst, FlowConfig(rate=rate))
        events.append(TraceEvent(step=step, request=request, departure_step=step + hold))
        next_id += 1
    return ArrivalTrace(events=tuple(events), steps=steps)


def replay(
    trace: ArrivalTrace,
    engine: EmbeddingEngine,
    *,
    faults: FaultScript | None = None,
    rng: RngStream = None,
) -> list[RepairOutcome]:
    """Feed a trace (and optionally a fault script) through ``engine``.

    Each trace step is one :meth:`~repro.engine.tick.ShardTick.step`: the
    step's **departures** of still-active requests (failed arrivals and
    evicted requests never depart), then the script's **fault events** due
    at that step (recoveries before failures — the script's canonical order
    — so freed elements are visible to same-step repairs), then its
    **arrivals** against the possibly-degraded view. The tick runs the
    script on its step count, as the service's shard does; repairs draw
    from the engine's chaos stream and ``rng`` draws one seed per arrival.
    Runs until the last departure and the last scripted event. Mutates the
    engine; read results from its ``counters``/``stats()``. Returns every
    repair outcome, in occurrence order.
    """
    gen = as_generator(rng)
    tick = ShardTick(engine, fault_script=faults)
    outcomes: list[RepairOutcome] = []
    for departing, arriving in trace.schedule(until=max((e.time for e in faults or ()), default=0)):
        result = tick.step(
            releases=[rid for rid in departing if engine.is_active(rid)],
            submits=[(ev.request, int(gen.integers(2**31))) for ev in arriving],
        )
        outcomes.extend(result.repairs)
    return outcomes
