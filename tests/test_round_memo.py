"""The two facts MBBE's per-round search memo rests on.

One solve round shares its searches between parents of one residual
class (:func:`repro.solvers.mbbe._residual_class`) and resumes a stored
min-cost search for new targets instead of running a fresh one. Both are
checked here on random graphs, filters and weights:

* ``settle(T1)`` then ``settle(T2)`` leaves ``dist``/``pred`` equal to a
  fresh ``dijkstra(targets=T2)`` on every node that fresh run settles;
* two parents of one residual class get equal link-filter and ``admit``
  verdicts on every link and instance of the view.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig
from repro.constraints.registry import parse_constraint_args
from repro.network.generator import generate_network
from repro.network.graph import Graph
from repro.network.shortest import dijkstra
from repro.solvers.bbe import _residual_link_filter
from repro.solvers.common import vnf_admit
from repro.solvers.mbbe import _residual_class
from repro.solvers.subsolution import SubSolution


@st.composite
def searches(draw):
    """A random graph (ties likely), link filter, weight, root and targets."""
    n = draw(st.integers(2, 14))
    graph = Graph()
    graph.add_nodes(range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    prices = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
    for u, v in edges:
        graph.add_link(u, v, price=draw(prices), capacity=1.0)
    banned = set(draw(st.lists(st.sampled_from(edges), unique=True))) if edges else set()
    link_filter = None if not banned else (lambda link: link.key not in banned)
    surcharge = {e: draw(prices) for e in edges} if draw(st.booleans()) else None
    weight = (
        None if surcharge is None else (lambda link: link.price + surcharge[link.key])
    )
    nodes = st.lists(st.integers(0, n - 1), max_size=n)
    return graph, draw(st.integers(0, n - 1)), link_filter, weight, draw(nodes), draw(nodes)


@given(searches())
@settings(max_examples=300, deadline=None)
def test_resumed_search_matches_a_fresh_run(case):
    graph, root, link_filter, weight, t1, t2 = case
    resumed = dijkstra(graph, root, targets=t1, link_filter=link_filter, weight=weight)
    resumed.settle(t2)
    fresh = dijkstra(graph, root, targets=t2, link_filter=link_filter, weight=weight)
    for node, d in fresh.dist.items():
        assert resumed.dist[node] == d
        if node != root:
            assert resumed.pred[node] == fresh.pred[node]
        assert resumed.path_to(node) == fresh.path_to(node)
    for node in t2:
        assert resumed.reachable(node) == fresh.reachable(node)
    # Run on to the whole component: a fresh exhaustive run, node by node
    # and in settle order.
    resumed.settle(None)
    everything = dijkstra(graph, root, link_filter=link_filter, weight=weight)
    assert list(resumed.dist.items()) == list(everything.dist.items())


#: a zero crossing budget bans every cross-zone link in the link filter.
ZONES = "zones:count=2,max_crossings=0"


@given(
    seed=st.integers(0, 10_000),
    capacity=st.sampled_from([1.0, 2.0, 3.0]),
    rate=st.sampled_from([0.5, 1.0, 2.0]),
    constraint=st.sampled_from([None, ZONES]),
    data=st.data(),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_parents_of_one_class_get_equal_verdicts(seed, capacity, rate, constraint, data):
    network = generate_network(
        NetworkConfig(
            size=12, connectivity=3.0, n_vnf_types=3, deploy_ratio=0.6,
            vnf_capacity=capacity, link_capacity=capacity,
        ),
        np.random.default_rng(seed),
    )
    cset = parse_constraint_args([constraint] if constraint else None)
    links = [link.key for link in network.graph.links()]
    instances = [
        (node, t)
        for node in network.graph.nodes()
        for t, _ in network.deployments.instances_at(node)
    ]
    counts = st.integers(0, 3)
    link_counts = data.draw(st.dictionaries(st.sampled_from(links), counts))
    vnf_counts = data.draw(st.dictionaries(st.sampled_from(instances), counts))
    # The second parent moves every count by at most one and may count
    # elements the first does not: often the same class, not always.
    moves = st.sampled_from([-1, 0, 0, 1])
    other_links = {e: max(0, k + data.draw(moves)) for e, k in link_counts.items()}
    other_links.update(data.draw(st.dictionaries(st.sampled_from(links), st.integers(0, 1))))
    other_vnfs = {key: max(0, k + data.draw(moves)) for key, k in vnf_counts.items()}
    other_vnfs.update(data.draw(st.dictionaries(st.sampled_from(instances), st.integers(0, 1))))

    root = SubSolution.root(0)
    verdicts = []
    for lc, vc in ((link_counts, vnf_counts), (other_links, other_vnfs)):
        parent = dataclasses.replace(root, link_counts=lc, vnf_counts=vc)
        admit = vnf_admit(network, vc, rate, cset)
        link_f = cset.link_filter(network, _residual_link_filter(network, lc, rate))
        verdicts.append((
            _residual_class(network, parent, admit, link_f),
            [link_f(link) for link in network.graph.links()],
            [admit(node, t) for node, t in instances],
        ))
    (class_a, links_a, vnfs_a), (class_b, links_b, vnfs_b) = verdicts
    assume(class_a == class_b)
    assert links_a == links_b
    assert vnfs_a == vnfs_b
