"""Edge cases of arrival traces and online release semantics.

Covers the corners the happy-path online tests skip: empty traces, the
departures-before-arrivals convention at a shared step, request-id reuse
(overlapping vs. sequential), and releases of unknown ids.
"""

import pytest

from repro.config import FlowConfig, SfcConfig
from repro.engine import EmbeddingEngine, EmbeddingRequest
from repro.exceptions import ConfigurationError, LedgerError
from repro.network.cloud import CloudNetwork
from repro.sfc.builder import DagSfcBuilder
from repro.sim.trace import ArrivalTrace, TraceEvent, generate_trace, replay
from repro.solvers import MbbeEmbedder

from .conftest import build_line_graph


def tight_network() -> CloudNetwork:
    """0-1-2 line where one unit-rate request saturates everything."""
    net = CloudNetwork(build_line_graph(3, price=1.0, capacity=1.0))
    net.deploy(1, 1, price=5.0, capacity=1.0)
    return net


def request(rid: int) -> EmbeddingRequest:
    dag = DagSfcBuilder().single(1).build()
    return EmbeddingRequest(rid, dag, 0, 2, FlowConfig(rate=1.0))


def event(rid: int, step: int, departure_step: int) -> TraceEvent:
    return TraceEvent(step=step, request=request(rid), departure_step=departure_step)


class TestEmptyTrace:
    def test_direct_empty_trace(self):
        trace = ArrivalTrace(events=(), steps=0)
        assert len(trace) == 0
        assert trace.offered_load == 0.0
        assert trace.departures_by_step() == {}

    def test_zero_arrival_probability_yields_empty(self):
        trace = generate_trace(
            steps=20, n_nodes=5, n_vnf_types=3, sfc=SfcConfig(size=2),
            arrival_probability=0.0, rng=1,
        )
        assert len(trace) == 0
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        replay(trace, engine, rng=1)
        counters = engine.counters
        assert (counters["dispatched"], counters["accepted"], counters["departed"]) == (0, 0, 0)

    def test_generate_trace_validation(self):
        kw = dict(n_nodes=5, n_vnf_types=3, sfc=SfcConfig(size=2))
        with pytest.raises(ConfigurationError):
            generate_trace(steps=0, **kw)
        with pytest.raises(ConfigurationError):
            generate_trace(steps=5, n_nodes=1, n_vnf_types=3, sfc=SfcConfig(size=2))
        with pytest.raises(ConfigurationError):
            generate_trace(steps=5, arrival_probability=1.5, **kw)
        with pytest.raises(ConfigurationError):
            generate_trace(steps=5, mean_hold=0.5, **kw)

    def test_same_seed_same_trace(self):
        kw = dict(steps=50, n_nodes=8, n_vnf_types=4, sfc=SfcConfig(size=3))
        a = generate_trace(rng=7, **kw)
        b = generate_trace(rng=7, **kw)
        assert [(e.step, e.request.request_id, e.departure_step) for e in a] == [
            (e.step, e.request.request_id, e.departure_step) for e in b
        ]


class TestDepartureOrdering:
    def test_departure_before_arrival_at_same_step(self):
        # Request 1 arrives exactly when request 0 departs; the saturated
        # capacity must be freed *first*, so both are accepted.
        trace = ArrivalTrace(events=(event(0, 0, 5), event(1, 5, 7)), steps=8)
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        replay(trace, engine, rng=0)
        assert engine.counters["accepted"] == 2
        assert engine.counters["departed"] == 2

    def test_overlapping_arrival_is_rejected_not_crashed(self):
        # Request 1 arrives while 0 still holds everything: no capacity.
        trace = ArrivalTrace(events=(event(0, 0, 5), event(1, 3, 7)), steps=8)
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        replay(trace, engine, rng=0)
        assert engine.counters["accepted"] == 1
        # The failed arrival never departs (it held nothing).
        assert engine.counters["departed"] == 1
        assert list(engine.active_ids()) == []


class TestRequestIdReuse:
    def test_duplicate_overlapping_ids_raise(self):
        trace = ArrivalTrace(events=(event(0, 0, 10), event(0, 2, 12)), steps=13)
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        with pytest.raises(ConfigurationError, match="already active"):
            replay(trace, engine, rng=0)

    def test_sequential_id_reuse_is_allowed(self):
        # Id 0 departs at step 2, then a fresh request reuses id 0 at step 3.
        trace = ArrivalTrace(events=(event(0, 0, 2), event(0, 3, 5)), steps=6)
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        replay(trace, engine, rng=0)
        assert engine.counters["accepted"] == 2
        assert engine.counters["departed"] == 2


class TestReleaseSemantics:
    def test_release_unknown_id_raises(self):
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        with pytest.raises(ConfigurationError, match="not active"):
            engine.release(99)

    def test_double_release_raises_and_keeps_state_clean(self):
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        result = engine.submit(request(0), rng=1)
        assert result.success
        engine.release(0)
        with pytest.raises(ConfigurationError, match="not active"):
            engine.release(0)
        # The double release must not have corrupted the residual state.
        assert engine.ledger.state.link_used(0, 1) == 0.0
        assert engine.submit(request(1), rng=1).success

    def test_ledger_errors_are_structured(self):
        # The broad ConfigurationError the older tests catch is really a
        # LedgerError carrying machine-readable fields — server paths turn
        # these into typed rejections without parsing the message.
        engine = EmbeddingEngine(tight_network(), MbbeEmbedder())
        with pytest.raises(LedgerError) as exc_info:
            engine.release(99)
        assert exc_info.value.request_id == 99
        assert exc_info.value.code == "unknown_request"
        assert isinstance(exc_info.value, ConfigurationError)

        assert engine.submit(request(0), rng=1).success
        with pytest.raises(LedgerError) as exc_info:
            replay(ArrivalTrace(events=(event(0, 0, 5),), steps=6), engine, rng=0)
        assert exc_info.value.request_id == 0
        assert exc_info.value.code == "duplicate_request"
