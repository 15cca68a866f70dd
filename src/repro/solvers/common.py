"""Shared solver machinery: layer-candidate evaluation and coverage tests.

BBE and MBBE differ in *which* placements and real-paths they try, but a
candidate layer embedding is accepted, costed and chained identically. That
logic lives here so both algorithms (and the tests) agree byte-for-byte with
the cost model in :mod:`repro.embedding.costing`:

* VNF rentals: one use per position (eq. 7);
* inner-layer paths: every link traversal charged (eq. 10);
* inter-layer paths of one layer: the union of their links charged once
  (eq. 9's multicast ``min{…,1}``).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..config import FlowConfig
from ..constraints.base import ConstraintSet
from ..network.cloud import CloudNetwork
from ..network.paths import Path
from ..sfc.dag import Layer
from ..types import EdgeKey, NodeId, Position, VnfTypeId
from .counts import CountChain, flat_counts
from .subsolution import SubSolution

__all__ = [
    "vnf_admit",
    "coverage_stop",
    "evaluate_layer_candidate",
    "evaluate_tail",
    "first_overflow",
]

_EPS = 1e-9


def vnf_admit(
    network: CloudNetwork,
    vnf_counts: Mapping[tuple[NodeId, VnfTypeId], int],
    rate: float,
    constraints: ConstraintSet | None = None,
) -> Callable[[NodeId, VnfTypeId], bool]:
    """Predicate: can ``node`` absorb one more use of ``vnf_type``?

    Accounts for uses already accumulated along the current sub-solution
    chain (``vnf_counts``). Counts are flattened once up front so each probe
    is a single dict lookup even on a deep copy-on-write chain. With a
    non-empty ``constraints`` set, per-placement vetoes
    (:meth:`~repro.constraints.base.Constraint.admit_placement`) apply on
    top of the capacity test; the empty set keeps the historical closure.
    """
    counts_get = flat_counts(vnf_counts).get
    instance = network.deployments.instance

    def admit(node: NodeId, vnf_type: VnfTypeId) -> bool:
        inst = instance(node, vnf_type)
        if inst is None:
            return False
        used = counts_get((node, vnf_type), 0)
        return (used + 1) * rate <= inst.capacity + _EPS

    if not constraints:
        return admit

    admit_placement = constraints.admit_placement

    def admit_constrained(node: NodeId, vnf_type: VnfTypeId) -> bool:
        return admit(node, vnf_type) and admit_placement(network, node, vnf_type)

    return admit_constrained


def coverage_stop(
    network: CloudNetwork,
    required: tuple[VnfTypeId, ...],
    admit: Callable[[NodeId, VnfTypeId], bool],
) -> Callable[[frozenset[NodeId]], bool]:
    """Stop predicate for forward/backward searches: the searched node set
    hosts every required category with capacity for one more use
    (``L_l ⊆ F^{F,l}`` with the real-time capacities of Algorithm 1).

    The returned predicate is *incrementally stateful*: it remembers which
    nodes it has scanned and which categories those nodes already covered, so
    each BFS iteration only examines the newly added ring nodes instead of
    rescanning the whole cumulative node set. Because ``admit`` is fixed for
    the lifetime of one search and the node set only grows within one search,
    the answers are identical to a full rescan — but a predicate instance
    must not be shared across *separate* search invocations (a retried
    forward search needs a fresh one).
    """
    remaining = set(required)
    seen: set[NodeId] = set()

    def stop(node_set: frozenset[NodeId]) -> bool:
        if not remaining:
            return True
        new_nodes = node_set - seen
        if new_nodes:
            seen.update(new_nodes)
            for t in tuple(remaining):
                if any(admit(node, t) for node in new_nodes):
                    remaining.discard(t)
        return not remaining

    return stop


def first_overflow(used: int, capacity: float, rate: float, max_add: int) -> int | None:
    """The smallest ``add`` in ``1..max_add`` that :func:`_check_and_merge_counts`
    rejects for an element already carrying ``used`` uses, or None.

    The same ``total * rate > capacity + _EPS`` test, so a kernel that
    screens combos with it agrees with the full evaluation bit for bit.
    """
    for add in range(1, max_add + 1):
        if (used + add) * rate > capacity + _EPS:
            return add
    return None


def _check_and_merge_counts(
    network: CloudNetwork,
    flow: FlowConfig,
    parent: SubSolution,
    vnf_adds: dict[tuple[NodeId, VnfTypeId], int],
    link_adds: dict[EdgeKey, int],
) -> tuple[
    Mapping[tuple[NodeId, VnfTypeId], int], Mapping[EdgeKey, int], float, float
] | None:
    """Merge per-layer additions into the chain's cumulative counts.

    Returns ``(vnf_counts, link_counts, vnf_cost, link_cost)``, or None when
    any VNF-instance or link capacity would be exceeded (eq. 2–3 checked
    incrementally). The incremental rental/link costs are accumulated here
    from the same instance/link objects the capacity check already fetched
    (term order matches the additions dicts, so values are bit-identical to
    a separate pass). Copy-on-write: only the changed keys are stored (new
    totals chained over the parent's counts), so this is O(layer additions),
    not O(chain).
    """
    rate = flow.rate
    z = flow.size
    parent_vnf = parent.vnf_counts
    vnf_updates: dict[tuple[NodeId, VnfTypeId], int] = {}
    vnf_cost = 0.0
    instance = network.deployments.instance
    for key, add in vnf_adds.items():
        node, vnf_type = key
        inst = instance(node, vnf_type)
        if inst is None:
            return None
        total = parent_vnf.get(key, 0) + add
        if total * rate > inst.capacity + _EPS:
            return None
        vnf_updates[key] = total
        vnf_cost += add * inst.price * z
    get_link = network.graph.link
    parent_link = parent.link_counts
    link_updates: dict[EdgeKey, int] = {}
    link_cost = 0.0
    for key, add in link_adds.items():
        link = get_link(*key)
        total = parent_link.get(key, 0) + add
        if total * rate > link.capacity + _EPS:
            return None
        link_updates[key] = total
        link_cost += add * link.price * z
    new_vnf = CountChain.ensure(parent_vnf).chain(vnf_updates)
    new_link = CountChain.ensure(parent_link).chain(link_updates)
    return new_vnf, new_link, vnf_cost, link_cost


def evaluate_layer_candidate(
    network: CloudNetwork,
    flow: FlowConfig,
    parent: SubSolution,
    layer_index: int,
    layer: Layer,
    assignment: Mapping[int, NodeId],
    inter_paths: Mapping[int, Path],
    inner_paths: Mapping[int, Path],
    constraints: ConstraintSet | None = None,
) -> SubSolution | None:
    """Build (or reject) the sub-solution for one candidate layer embedding.

    Parameters
    ----------
    assignment:
        gamma → node for every position of the layer (merger at
        ``gamma = phi + 1`` when the layer is parallel).
    inter_paths:
        gamma → real-path from the parent's end node to the gamma-th VNF,
        for ``gamma = 1..phi``.
    inner_paths:
        gamma → real-path from the gamma-th VNF to the merger (parallel
        layers only).
    constraints:
        Registered extra constraints; candidates failing a per-path veto
        or the cumulative-placement veto are rejected like a capacity
        overrun. The empty set skips every extra probe.

    Returns ``None`` when a capacity constraint fails; otherwise the chained
    :class:`SubSolution` with exact incremental cost.
    """
    phi = layer.phi
    expected_width = layer.width
    if len(assignment) != expected_width:
        raise ValueError(
            f"assignment covers {len(assignment)} positions, layer has {expected_width}"
        )

    # --- consistency of endpoints (cheap sanity; full referee runs later).
    for gamma in range(1, phi + 1):
        p = inter_paths[gamma]
        if p.source != parent.end_node or p.target != assignment[gamma]:
            raise ValueError(f"inter path for gamma={gamma} has wrong endpoints")
    if layer.has_merger:
        merger_node = assignment[phi + 1]
        for gamma in range(1, phi + 1):
            p = inner_paths[gamma]
            if p.source != assignment[gamma] or p.target != merger_node:
                raise ValueError(f"inner path for gamma={gamma} has wrong endpoints")
        end_node = merger_node
    else:
        end_node = assignment[1]

    # --- additions.
    vnf_adds: dict[tuple[NodeId, VnfTypeId], int] = {}
    for gamma, node in assignment.items():
        key = (node, layer.vnf_at(gamma))
        vnf_adds[key] = vnf_adds.get(key, 0) + 1

    link_adds: dict[EdgeKey, int] = {}
    inter_union: set[EdgeKey] = set()
    for gamma in range(1, phi + 1):
        inter_union.update(inter_paths[gamma].edge_set())
    for e in inter_union:
        link_adds[e] = link_adds.get(e, 0) + 1
    if layer.has_merger:
        for gamma in range(1, phi + 1):
            for e in inner_paths[gamma].edges():
                link_adds[e] = link_adds.get(e, 0) + 1

    # Per-path vetoes depend on the path alone: run them before the counts
    # are merged into chains a rejection would throw away.
    if constraints:
        admit_path = constraints.admit_path
        for gamma in range(1, phi + 1):
            if not admit_path(network, flow, inter_paths[gamma]):
                return None
            if layer.has_merger and not admit_path(network, flow, inner_paths[gamma]):
                return None

    merged = _check_and_merge_counts(network, flow, parent, vnf_adds, link_adds)
    if merged is None:
        return None
    # --- exact incremental cost (shares eq. 1 semantics with compute_cost).
    new_vnf, new_link, vnf_cost, link_cost = merged
    layer_cost = vnf_cost + link_cost

    if constraints and not constraints.admit_counts(network, flat_counts(new_vnf)):
        return None

    placements = {
        Position(layer_index, gamma): node for gamma, node in assignment.items()
    }
    inter = {
        Position(layer_index, gamma): inter_paths[gamma] for gamma in range(1, phi + 1)
    }
    inner = (
        {Position(layer_index, gamma): inner_paths[gamma] for gamma in range(1, phi + 1)}
        if layer.has_merger
        else {}
    )
    return SubSolution(
        layer=layer_index,
        parent=parent,
        end_node=end_node,
        placements=placements,
        inter_paths=inter,
        inner_paths=inner,
        layer_cost=layer_cost,
        cum_cost=parent.cum_cost + layer_cost,
        vnf_counts=new_vnf,
        link_counts=new_link,
    )


def evaluate_tail(
    network: CloudNetwork,
    flow: FlowConfig,
    parent: SubSolution,
    dest_layer_index: int,
    tail_path: Path,
    constraints: ConstraintSet | None = None,
) -> SubSolution | None:
    """Chain the final hop (layer ``omega``'s end node → destination).

    The tail is the last inter-layer meta-path (eq. 5 with ``l = omega+1``);
    its links are charged once (a one-path multicast).
    """
    if tail_path.source != parent.end_node:
        raise ValueError("tail path must start at the parent's end node")
    if constraints and not constraints.admit_path(network, flow, tail_path):
        return None
    link_adds: dict[EdgeKey, int] = {}
    for e in tail_path.edge_set():
        link_adds[e] = link_adds.get(e, 0) + 1
    merged = _check_and_merge_counts(network, flow, parent, {}, link_adds)
    if merged is None:
        return None
    new_vnf, new_link, _, layer_cost = merged
    return SubSolution(
        layer=dest_layer_index,
        parent=parent,
        end_node=tail_path.target,
        placements={},
        inter_paths={Position(dest_layer_index, 1): tail_path},
        inner_paths={},
        layer_cost=layer_cost,
        cum_cost=parent.cum_cost + layer_cost,
        vnf_counts=new_vnf,
        link_counts=new_link,
    )
