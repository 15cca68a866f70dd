"""Fault model: timed fail/recover events over the substrate network.

The unit of the model is a :class:`FaultEvent` — at a discrete time step, one
substrate element (a node, a link, or a deployed VNF instance) either FAILs or
RECOVERs. A :class:`FaultScript` is a finite, replayable, time-sorted batch of
such events, the fault analogue of :class:`repro.sim.trace.ArrivalTrace`: the
same script replayed against the same arrival trace reproduces the same chaos
run bit for bit. Scripts come from two places — explicit scenario definitions
(tests, CI smoke runs) and :func:`generate_fault_script`, which draws MTBF/MTTR
style alternating up/down timelines per element from a :class:`FaultSpec`.

:class:`FaultState` is the mutable "what is dead right now" view that the
simulator, the repair engine, and the server consult. It deliberately never
touches :class:`~repro.network.state.ResidualState`: failures do not change
bookkeeping, they change *visibility*.
:meth:`~repro.network.state.ResidualState.to_network` takes a fault state and
drops the dead elements while it builds the solver-facing view, so solvers
simply never see them; with nothing dead it builds the fault-free view, which
keeps the no-chaos path (and the perf goldens) bit-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from ..exceptions import ConfigurationError
from ..network.cloud import CloudNetwork
from ..types import EdgeKey, NodeId, VnfTypeId, edge_key
from ..utils.rng import RngStream, as_generator

__all__ = [
    "FaultKind",
    "FaultAction",
    "FaultTarget",
    "FaultEvent",
    "FaultScript",
    "FaultState",
    "FaultSpec",
    "generate_fault_script",
    "script_to_dict",
    "script_from_dict",
]

#: Serialization identity of a fault script (mirrors the WAL header and
#: bench formats).
SCRIPT_FORMAT = "repro.dag-sfc"
SCRIPT_KIND = "fault-script"
SCRIPT_VERSION = 1


class FaultKind(enum.Enum):
    """Which class of substrate element a fault targets."""

    NODE = "node"
    LINK = "link"
    INSTANCE = "instance"


class FaultAction(enum.Enum):
    """Whether the element goes down or comes back."""

    FAIL = "fail"
    RECOVER = "recover"


@dataclass(frozen=True, slots=True)
class FaultTarget:
    """One substrate element, addressed uniformly across the three kinds.

    ``ids`` is the kind-specific identity tuple: ``(node,)`` for a node,
    the canonical :func:`~repro.types.edge_key` pair for a link, and
    ``(node, vnf_type)`` for a deployed instance. Use the named
    constructors — they canonicalize for you.
    """

    kind: FaultKind
    ids: tuple[int, ...]

    @classmethod
    def node(cls, node: NodeId) -> "FaultTarget":
        """Target a substrate node (kills incident links and hosted VNFs)."""
        return cls(FaultKind.NODE, (node,))

    @classmethod
    def link(cls, u: NodeId, v: NodeId) -> "FaultTarget":
        """Target the undirected link ``{u, v}``."""
        return cls(FaultKind.LINK, edge_key(u, v))

    @classmethod
    def instance(cls, node: NodeId, vnf_type: VnfTypeId) -> "FaultTarget":
        """Target one deployed VNF instance ``f_node(vnf_type)``."""
        return cls(FaultKind.INSTANCE, (node, vnf_type))

    @property
    def node_id(self) -> NodeId:
        """The node (NODE kind) or hosting node (INSTANCE kind)."""
        return self.ids[0]

    @property
    def link_key(self) -> EdgeKey:
        """The canonical link key (LINK kind only)."""
        return (self.ids[0], self.ids[1])

    @property
    def instance_key(self) -> tuple[NodeId, VnfTypeId]:
        """The (node, vnf_type) pair (INSTANCE kind only)."""
        return (self.ids[0], self.ids[1])

    def describe(self) -> str:
        """Human-readable element name for logs and notifications."""
        if self.kind is FaultKind.NODE:
            return f"node {self.ids[0]}"
        if self.kind is FaultKind.LINK:
            return f"link {self.ids[0]}-{self.ids[1]}"
        return f"instance f({self.ids[1]})@{self.ids[0]}"


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timed fail/recover of one element."""

    time: int
    action: FaultAction
    target: FaultTarget

    def sort_key(self) -> tuple[int, int, str, tuple[int, ...]]:
        """Total order: by time, recoveries before failures within a step.

        Recover-first within a step mirrors the departures-before-arrivals
        convention of :func:`repro.sim.trace.replay` — an element that flaps
        within one step ends the step dead, and capacity freed by a recovery
        is visible to same-step repairs.
        """
        return (
            self.time,
            0 if self.action is FaultAction.RECOVER else 1,
            self.target.kind.value,
            self.target.ids,
        )


@dataclass(frozen=True)
class FaultScript:
    """A finite, replayable, time-sorted fault schedule."""

    events: tuple[FaultEvent, ...]
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {self.horizon}")
        ordered = tuple(sorted(self.events, key=FaultEvent.sort_key))
        object.__setattr__(self, "events", ordered)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class FaultState:
    """Mutable "currently dead" view of the substrate.

    Tracks *explicitly* failed elements; the implied deaths (a node failure
    takes its incident links and hosted instances with it) are resolved by
    the alive queries rather than materialized, so a node recovery cannot
    accidentally resurrect a link that failed independently.
    """

    def __init__(self) -> None:
        self.dead_nodes: set[NodeId] = set()
        self.dead_links: set[EdgeKey] = set()
        self.dead_instances: set[tuple[NodeId, VnfTypeId]] = set()

    # -- mutation -----------------------------------------------------------------

    def _slot(self, target: FaultTarget) -> tuple[set[Any], Any]:
        if target.kind is FaultKind.NODE:
            return self.dead_nodes, target.node_id
        if target.kind is FaultKind.LINK:
            return self.dead_links, target.link_key
        return self.dead_instances, target.instance_key

    def changes(self, event: FaultEvent) -> bool:
        """True when :meth:`apply` would change the element's liveness."""
        pool, member = self._slot(event.target)
        return (member in pool) is (event.action is FaultAction.RECOVER)

    def apply(self, event: FaultEvent) -> bool:
        """Fold one event in; False when it was a no-op (already in that state)."""
        if not self.changes(event):
            return False
        pool, member = self._slot(event.target)
        if event.action is FaultAction.FAIL:
            pool.add(member)
        else:
            pool.discard(member)
        return True

    # -- queries ------------------------------------------------------------------

    @property
    def any_dead(self) -> bool:
        """True while anything is failed — the fast-path guard.

        The view builder checks this before any liveness lookup, which is
        what keeps the fault-free pipeline byte-identical to the seed.
        """
        return bool(self.dead_nodes or self.dead_links or self.dead_instances)

    def node_alive(self, node: NodeId) -> bool:
        """True when ``node`` is up."""
        return node not in self.dead_nodes

    def link_alive(self, u: NodeId, v: NodeId) -> bool:
        """True when the link and both endpoints are up."""
        return (
            edge_key(u, v) not in self.dead_links
            and u not in self.dead_nodes
            and v not in self.dead_nodes
        )

    def instance_alive(self, node: NodeId, vnf_type: VnfTypeId) -> bool:
        """True when the instance and its host are up."""
        return (node, vnf_type) not in self.dead_instances and node not in self.dead_nodes

    def dead_sets(
        self,
    ) -> tuple[frozenset[NodeId], frozenset[EdgeKey], frozenset[tuple[NodeId, VnfTypeId]]]:
        """Explicit dead (nodes, links, instances) — the ledger impact query input."""
        return (
            frozenset(self.dead_nodes),
            frozenset(self.dead_links),
            frozenset(self.dead_instances),
        )


@dataclass(frozen=True)
class FaultSpec:
    """MTBF/MTTR schedule parameters for :func:`generate_fault_script`.

    A class with ``mtbf == 0`` never fails. Times are in trace steps:
    time-between-failures is ``1 + Geometric(1/mtbf)`` and time-to-repair
    ``1 + Geometric(1/mttr)``, the discrete analogues of exponential
    up/down times.
    """

    horizon: int
    node_mtbf: float = 0.0
    node_mttr: float = 5.0
    link_mtbf: float = 0.0
    link_mttr: float = 5.0
    instance_mtbf: float = 0.0
    instance_mttr: float = 5.0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        for name in ("node_mtbf", "link_mtbf", "instance_mtbf"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        for name in ("node_mttr", "link_mttr", "instance_mttr"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")


def _element_timeline(
    target: FaultTarget,
    mtbf: float,
    mttr: float,
    horizon: int,
    gen: np.random.Generator,
) -> Iterable[FaultEvent]:
    """Alternating fail/recover events for one element, first fail < horizon."""
    t = 1 + int(gen.geometric(1.0 / mtbf))
    while t < horizon:
        yield FaultEvent(time=t, action=FaultAction.FAIL, target=target)
        down = 1 + int(gen.geometric(1.0 / mttr))
        # The recovery is always emitted, even past the horizon, so every
        # generated script eventually returns the substrate to pristine.
        yield FaultEvent(time=t + down, action=FaultAction.RECOVER, target=target)
        t = t + down + 1 + int(gen.geometric(1.0 / mtbf))


def generate_fault_script(
    spec: FaultSpec,
    network: CloudNetwork,
    *,
    rng: RngStream = None,
) -> FaultScript:
    """Draw a fault script for every element class enabled in ``spec``.

    Elements are visited in a sorted, kind-grouped order, so the same seed
    over the same network always yields the same script regardless of dict
    iteration order.
    """
    gen = as_generator(rng)
    events: list[FaultEvent] = []
    if spec.node_mtbf > 0:
        for node in sorted(network.graph.nodes()):
            events.extend(
                _element_timeline(
                    FaultTarget.node(node), spec.node_mtbf, spec.node_mttr, spec.horizon, gen
                )
            )
    if spec.link_mtbf > 0:
        for key in sorted(link.key for link in network.graph.links()):
            events.extend(
                _element_timeline(
                    FaultTarget.link(*key), spec.link_mtbf, spec.link_mttr, spec.horizon, gen
                )
            )
    if spec.instance_mtbf > 0:
        instance_keys = sorted(
            (inst.node, inst.vnf_type) for inst in network.deployments.all_instances()
        )
        for node, vnf_type in instance_keys:
            events.extend(
                _element_timeline(
                    FaultTarget.instance(node, vnf_type),
                    spec.instance_mtbf,
                    spec.instance_mttr,
                    spec.horizon,
                    gen,
                )
            )
    return FaultScript(events=tuple(events), horizon=spec.horizon)


# --------------------------------------------------------------------------
# Serialization (versioned, next to sim.trace artifacts)
# --------------------------------------------------------------------------


def script_to_dict(script: FaultScript) -> dict[str, Any]:
    """Serialize a script to the versioned JSON-safe form."""
    return {
        "format": SCRIPT_FORMAT,
        "kind": SCRIPT_KIND,
        "version": SCRIPT_VERSION,
        "horizon": script.horizon,
        "events": [
            {
                "time": ev.time,
                "action": ev.action.value,
                "target": ev.target.kind.value,
                "ids": list(ev.target.ids),
            }
            for ev in script.events
        ],
    }


def script_from_dict(payload: Mapping[str, Any]) -> FaultScript:
    """Parse :func:`script_to_dict` output, validating the envelope."""
    if payload.get("format") != SCRIPT_FORMAT or payload.get("kind") != SCRIPT_KIND:
        raise ConfigurationError("payload is not a repro.dag-sfc fault script")
    if payload.get("version") != SCRIPT_VERSION:
        raise ConfigurationError(
            f"unsupported fault-script version {payload.get('version')!r}"
        )
    events = []
    for entry in payload["events"]:
        target = FaultTarget(FaultKind(entry["target"]), tuple(int(i) for i in entry["ids"]))
        events.append(
            FaultEvent(
                time=int(entry["time"]),
                action=FaultAction(entry["action"]),
                target=target,
            )
        )
    return FaultScript(events=tuple(events), horizon=int(payload["horizon"]))
