"""Extension bench: local-search refinement gains per base algorithm.

Quantifies two things the tests only assert qualitatively:

* how much a single-move local optimum improves each base algorithm
  (RANV/MINV leave >20 % on the table; MBBE almost nothing — independent
  evidence that MBBE's layer-wise search lands near a 1-move optimum);
* what refinement costs in wall-clock (every move re-routes the embedding).
"""

import pytest

from repro.config import FlowConfig, table2_defaults
from repro.network.generator import generate_network
from repro.sfc.generator import generate_dag_sfc
from repro.solvers.local_search import RefinedEmbedder
from repro.solvers.registry import make_solver

NET_SIZE = 120


@pytest.fixture(scope="module")
def ls_instance():
    sc = table2_defaults().with_network(size=NET_SIZE)
    net = generate_network(sc.network, rng=31)
    dag = generate_dag_sfc(sc.sfc, sc.network.n_vnf_types, rng=32)
    return net, dag


@pytest.mark.parametrize("base", ["RANV", "MINV", "MBBE"])
def test_refinement_gain(benchmark, ls_instance, base):
    net, dag = ls_instance
    solver = RefinedEmbedder(make_solver(base))
    result = benchmark(
        lambda: solver.embed(net, dag, 0, NET_SIZE - 1, FlowConfig(), rng=3)
    )
    assert result.success
    benchmark.extra_info["base"] = base
    benchmark.extra_info["base_cost"] = round(result.stats["base_cost"], 2)
    benchmark.extra_info["refined_cost"] = round(result.total_cost, 2)
    benchmark.extra_info["moves"] = result.stats["ls_moves"]
    assert result.total_cost <= result.stats["base_cost"] + 1e-9


def test_mbbe_is_near_local_optimum(benchmark, ls_instance):
    """MBBE leaves < 5 % for 1-move local search; RANV leaves much more."""
    net, dag = ls_instance

    def measure():
        out = {}
        for base in ("RANV", "MBBE"):
            r = RefinedEmbedder(make_solver(base)).embed(
                net, dag, 0, NET_SIZE - 1, FlowConfig(), rng=5
            )
            out[base] = (r.stats["base_cost"], r.total_cost)
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    ranv_gain = 1 - out["RANV"][1] / out["RANV"][0]
    mbbe_gain = 1 - out["MBBE"][1] / out["MBBE"][0]
    benchmark.extra_info["ranv_relative_gain"] = round(ranv_gain, 4)
    benchmark.extra_info["mbbe_relative_gain"] = round(mbbe_gain, 4)
    assert mbbe_gain <= 0.05
    assert mbbe_gain <= ranv_gain + 1e-9
