"""The residual view's search memo stays exact across engine effects.

``ResidualState.to_network`` gives every view a
:class:`~repro.network.shortest.SearchMemo`, and MBBE keeps its unpriced
min-cost searches there across decisions while the engine patches the view
in place. The property: after any sequence of effects — commits, rejects,
releases, faults and recoveries with their repairs, migrations and
migrations rolled back on a conflict — every entry of the current view's
memo, resumed to any target set, equals a fresh ``dijkstra`` on the current
view under the filter its key names (:func:`repro.solvers.mbbe._search_filter`).
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import FlowConfig
from repro.constraints.registry import parse_constraint_args
from repro.engine import EmbeddingEngine, EmbeddingRequest
from repro.faults.model import FaultAction, FaultEvent, FaultTarget
from repro.network.cloud import CloudNetwork
from repro.network.graph import Graph
from repro.network.shortest import SearchMemo, dijkstra
from repro.sfc.builder import DagSfcBuilder
from repro.solvers.mbbe import _search_filter
from repro.types import MERGER_VNF

#: (u, v, price) of a 6-ring with two chords; every link carries 1.0.
_LINKS = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 0, 1.0),
          (1, 4, 2.0), (0, 3, 3.0)]

_DAGS = [
    DagSfcBuilder().single(1).build(),
    DagSfcBuilder().parallel(1, 2).build(),
    DagSfcBuilder().single(3).parallel(1, 2).build(),
]

#: bans the links between zones {0, 2, 4} and {1, 3, 5} without pricing
#: any, so the searches keep to the view memo under a link-vetoing member.
_ZONES = parse_constraint_args(["zones:count=2,max_crossings=0,multiplier=1.0"])


def ring_network() -> CloudNetwork:
    graph = Graph()
    for u, v, price in _LINKS:
        graph.add_link(u, v, price=price, capacity=1.0)
    network = CloudNetwork(graph)
    for node, vnf_type, price in [
        (1, 1, 5.0), (3, 1, 5.0), (2, 2, 4.0), (4, 2, 4.0), (5, 3, 3.0), (1, 3, 3.0),
        (2, MERGER_VNF, 1.0), (3, MERGER_VNF, 1.0), (5, MERGER_VNF, 1.0),
        (0, MERGER_VNF, 1.0),
    ]:
        network.deploy(node, vnf_type, price=price, capacity=2.0)
    return network


def _request(rid, pick, rate, ends, zoned) -> EmbeddingRequest:
    return EmbeddingRequest(
        request_id=rid, dag=_DAGS[pick % len(_DAGS)], source=ends[0], dest=ends[1],
        flow=FlowConfig(rate=rate), seed=pick,
        constraints=_ZONES if zoned else parse_constraint_args(None),
    )


def check_memo(engine: EmbeddingEngine, targets: frozenset[int], *, exhaust: bool) -> None:
    """Resume every entry of the view's memo to ``targets`` (those the view
    holds) and compare it with a fresh run; with ``exhaust``, run each on
    to its whole component and compare that too, in settle order."""
    view = engine.view()
    memo = view.searches
    assert isinstance(memo, SearchMemo)
    targets = frozenset(n for n in targets if view.graph.has_node(n))
    for (root, rejected, rate, vetoes), filed, resumed in list(memo.items()):
        assert filed == rate
        link_f = _search_filter(view, rejected, rate, vetoes)
        resumed.settle(targets)
        fresh = dijkstra(view.graph, root, targets=targets, link_filter=link_f)
        for node, d in fresh.dist.items():
            assert resumed.dist[node] == d
            assert resumed.path_to(node) == fresh.path_to(node)
        for node in targets:
            assert resumed.reachable(node) == fresh.reachable(node)
        if exhaust:
            resumed.settle(None)
            everything = dijkstra(view.graph, root, link_filter=link_f)
            assert list(resumed.dist.items()) == list(everything.dist.items())
            assert resumed.pred == everything.pred


_EFFECTS = st.lists(
    st.tuples(
        st.sampled_from(["commit", "conflict", "release", "fault", "recover", "migrate",
                         "stale_migrate"]),
        st.integers(0, 7),
        st.sampled_from([0.25, 0.4, 0.6, 1.0]),
        st.sampled_from([(0, 2), (0, 3), (1, 4), (2, 5), (5, 1)]),
        st.booleans(),
        st.frozensets(st.integers(0, 5), max_size=4),
    ),
    max_size=10,
)


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(effects=_EFFECTS)
# 0.6 on 1.0 links leaves 0.4: the committed links stay in the view but no
# longer admit 0.6, a verdict flip with no saturation crossing.
@example(effects=[("commit", 0, 0.6, (0, 2), False, frozenset({2}))])
# The second request's stale move onto the first one's saturated links
# conflicts: the swap rolls back and drops the view.
@example(effects=[
    ("commit", 0, 1.0, (0, 2), False, frozenset()),
    ("commit", 0, 1.0, (0, 2), False, frozenset()),
    ("stale_migrate", 1, 1.0, (0, 2), False, frozenset()),
])
def test_memo_entries_equal_fresh_searches_after_any_effects(effects):
    engine = EmbeddingEngine(ring_network(), "MBBE", seed=3)
    links = [(u, v) for u, v, _ in _LINKS]
    next_id = iter(range(1, 1000))

    def probe(pick, rate, ends, zoned):
        """Solve without committing: fills the view's memo."""
        engine.solve(_request(next(next_id), pick, rate, ends, zoned), rng=pick)

    # A repair's swap patches the view like a migration's; warm the view
    # first so the swap has live searches to keep exact.
    plan = engine.repair_engine.plan

    def plan_on_a_warm_view(request_id, rng):
        probe(request_id, 0.4, (0, 3), False)
        return plan(request_id, rng)

    engine.repair_engine.plan = plan_on_a_warm_view

    for kind, pick, rate, ends, zoned, targets in effects:
        active = list(engine.active_ids())
        if kind == "commit":
            request = _request(next(next_id), pick, rate, ends, zoned)
            engine.commit(request, engine.solve(request, rng=pick))
        elif kind == "conflict":
            # Two solves on one view; the second commit may be rejected.
            view = engine.view()
            pair = [_request(next(next_id), pick, rate, ends, zoned) for _ in range(2)]
            results = [engine.solve(r, view=view, rng=pick) for r in pair]
            for request, result in zip(pair, results):
                engine.commit(request, result)
        elif kind == "release" and active:
            engine.release(active[pick % len(active)])
        elif kind in ("fault", "recover"):
            action = FaultAction.FAIL if kind == "fault" else FaultAction.RECOVER
            if kind == "fault" and active and pick % 2:
                # A host an active embedding uses: its repair swaps.
                embedding = engine.repair_engine.tracked(active[pick % len(active)]).embedding
                target = FaultTarget.node(sorted(embedding.placements.values())[-1])
            elif pick < 4:
                target = FaultTarget.node(pick)
            else:
                target = FaultTarget.link(*links[pick])
            engine.apply_fault(FaultEvent(time=0, action=action, target=target))
        elif kind in ("migrate", "stale_migrate") and active:
            moved = active[pick % len(active)]
            tracked = engine.repair_engine.tracked(moved)
            # A stale move is planned on the empty substrate, blind to every
            # other reservation: it may conflict and roll back.
            planned_on = (
                engine.network if kind == "stale_migrate"
                else engine.ledger.credited(moved).to_network(engine.faults)
            )
            plan_ = engine.solver.embed(
                planned_on, tracked.embedding.dag, tracked.embedding.source,
                tracked.embedding.dest, tracked.flow, rng=pick,
                constraints=tracked.constraints,
            )
            probe(pick, rate, ends, zoned)
            engine.migrate(moved, plan_)
        check_memo(engine, targets, exhaust=False)
        probe(pick, rate, ends, zoned)
        check_memo(engine, targets, exhaust=False)
    check_memo(engine, frozenset(), exhaust=True)


def test_a_plain_network_carries_no_memo_and_a_view_a_fresh_one():
    network = ring_network()
    assert network.searches is None
    engine = EmbeddingEngine(network, "MBBE", seed=3)
    view = engine.view()
    assert len(view.searches) == 0
    engine.solve(_request(1, 0, 1.0, (0, 2), False), rng=0)
    assert len(view.searches) > 0
    assert engine.ledger.state.to_network().searches is not view.searches
