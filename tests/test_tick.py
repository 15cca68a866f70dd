"""ShardTick: one shard step and its timed work, driven by a fake clock.

:meth:`ShardTick.step` is the only implementation of the phase order; the
service dispatcher and offline replay both call it. These tests pin the
step and the schedule it folds in (no sockets):

* one step runs releases → faults → submits → rebalance cycles → sync;
* the deadline is the earliest timed item;
* due faults come out in script order, the step's own events after them;
* the next timer cycle is scheduled from the end of the last one, so a
  slow cycle delays the next instead of piling cycles up;
* no timer cycle runs (or is waited for) while the shard drains;
* a step that folds faults in runs its cycles paused.
"""

import pytest

from repro.config import NetworkConfig, SfcConfig
from repro.engine import (
    EmbeddingEngine,
    EmbeddingRequest,
    RebalanceConfig,
    ShardRouter,
    ShardTick,
    StepResult,
)
from repro.faults.model import FaultAction, FaultEvent, FaultScript, FaultTarget
from repro.network.generator import generate_network
from repro.sfc.generator import generate_dag_sfc
from repro.utils.rng import as_generator


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def fail(step: int, node: int) -> FaultEvent:
    return FaultEvent(time=step, action=FaultAction.FAIL, target=FaultTarget.node(node))


def recover(step: int, node: int) -> FaultEvent:
    return FaultEvent(time=step, action=FaultAction.RECOVER, target=FaultTarget.node(node))


def make_tick(*, script=(), rebalance=None, chaos_tick=0.1):
    network = generate_network(NetworkConfig(size=12, n_vnf_types=4), rng=3)
    engine = EmbeddingEngine(network, "MBBE", seed=0)
    clock = FakeClock()
    tick = ShardTick(
        ShardRouter({"net0": engine}),
        "net0",
        fault_script=FaultScript(events=tuple(script), horizon=10) if script else None,
        chaos_tick=chaos_tick,
        rebalance=rebalance,
        clock=clock,
    )
    tick.start()
    return tick, engine, clock


def record_faults(engine, monkeypatch):
    applied = []
    real = engine.apply_fault

    def recording(event, **kwargs):
        applied.append(event)
        return real(event, **kwargs)

    monkeypatch.setattr(engine, "apply_fault", recording)
    return applied


def due(tick, clock) -> bool:
    deadline = tick.deadline()
    return deadline is not None and deadline <= clock.now


class TestDeadline:
    def test_nothing_timed_means_no_deadline(self, monkeypatch):
        tick, engine, clock = make_tick()
        applied = record_faults(engine, monkeypatch)
        assert tick.deadline() is None
        assert not due(tick, clock)
        assert tick.chaos_complete
        result = tick.step()
        assert result == StepResult((), (), (), (), synced=False)
        assert applied == []
        assert tick.rebalancer.stats()["cycles"] == 0

    def test_deadline_is_the_earliest_timed_item(self):
        tick, _, clock = make_tick(
            script=[fail(3, 1), fail(5, 2)], rebalance=RebalanceConfig(interval=0.2)
        )
        assert tick.deadline() == pytest.approx(100.2)  # the timer cycle
        clock.now = 100.25
        tick.step()
        # Next cycle at 100.45; the step-3 fault (100.3) is now first.
        assert tick.deadline() == pytest.approx(100.3)

    def test_fault_script_alone_sets_the_deadline(self):
        tick, _, _ = make_tick(script=[fail(4, 1)], chaos_tick=0.5)
        assert tick.deadline() == pytest.approx(102.0)


class TestFaults:
    def test_due_faults_come_out_in_script_order(self, monkeypatch):
        script = [fail(1, 1), fail(1, 2), recover(1, 3), fail(2, 4), recover(4, 1)]
        tick, engine, clock = make_tick(script=script)
        applied = record_faults(engine, monkeypatch)
        ordered = list(FaultScript(events=tuple(script), horizon=10))

        clock.now = 100.15
        assert due(tick, clock)
        tick.step()
        assert applied == ordered[:3]
        assert not due(tick, clock)
        assert not tick.chaos_complete
        assert tick.deadline() == pytest.approx(100.2)

        clock.now = 101.0
        tick.step()
        assert applied == ordered
        assert tick.chaos_complete
        assert tick.deadline() is None

    def test_injected_faults_follow_the_due_script(self, monkeypatch):
        tick, engine, clock = make_tick(script=[fail(1, 1)])
        applied = record_faults(engine, monkeypatch)
        injected = fail(0, 5)
        clock.now = 100.1
        tick.step(faults=[(injected, None)])
        assert applied == [fail(1, 1), injected]


class TestTimerCycles:
    def test_slow_cycle_delays_the_next_one(self, monkeypatch):
        tick, _, clock = make_tick(rebalance=RebalanceConfig(interval=1.0))
        cycles = []
        real = tick.rebalancer.run_cycle

        def slow_cycle(**kwargs):
            cycles.append(clock.now)
            clock.now += 3.0  # three intervals' worth of work
            return real(**kwargs)

        monkeypatch.setattr(tick.rebalancer, "run_cycle", slow_cycle)
        clock.now = 101.0
        assert due(tick, clock)
        tick.step()
        assert cycles == [101.0]
        # The cycle ended at 104.0: the next one is due at 105.0, not
        # immediately (no backlog of the ticks the slow cycle spanned).
        assert tick.deadline() == pytest.approx(105.0)
        clock.now = 104.9
        assert not due(tick, clock)
        tick.step()
        assert cycles == [101.0]
        clock.now = 105.0
        tick.step()
        assert cycles == [101.0, 105.0]

    def test_requested_cycles_run_and_report(self):
        tick, _, _ = make_tick()
        results = tick.step(cycles=2).cycles
        assert [report.cycle for report, _ in results] == [0, 1]
        assert [stats["cycles"] for _, stats in results] == [1, 2]

    def test_no_timer_cycle_while_draining(self):
        tick, _, clock = make_tick(rebalance=RebalanceConfig(interval=0.5))
        clock.now = 101.0
        tick.draining = True
        assert tick.deadline() is None
        assert not due(tick, clock)
        tick.step()
        assert tick.rebalancer.stats()["cycles"] == 0

    def test_repair_in_flight_pauses_the_cycle(self):
        tick, _, clock = make_tick(rebalance=RebalanceConfig(interval=0.5))
        clock.now = 100.5
        # The step carries a fault event (a no-op recovery, so the shard
        # is not degraded): its requested and timer cycles both pause.
        (result,) = tick.step(faults=[(recover(0, 5), None)], cycles=1).cycles
        assert result[0].paused
        assert result[0].pause_reason == "repair_in_flight"
        assert tick.rebalancer.stats()["paused_cycles"] == 2


class TestStep:
    def test_one_step_runs_the_phase_order(self, monkeypatch, tmp_path):
        tick, engine, clock = make_tick(
            script=[fail(1, 1)], rebalance=RebalanceConfig(interval=0.1)
        )
        engine.attach_wal_file(str(tmp_path / "net0.wal"), network_id="net0")
        gen = as_generator(5)
        requests = [
            EmbeddingRequest(rid, generate_dag_sfc(SfcConfig(size=3), 4, rng=gen), 0, 11)
            for rid in range(2)
        ]
        first = tick.step(submits=[(requests[0], 1)])
        assert first.synced and engine.wal.pending_count == 0

        calls = []

        def spy(owner, name):
            real = getattr(owner, name)

            def recording(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, recording)

        for name in ("release", "apply_fault", "commit"):
            spy(engine, name)
        spy(tick.rebalancer, "run_cycle")
        spy(engine.wal, "sync")
        clock.now = 100.5  # the scripted fault and a timer cycle are both due
        result = tick.step(
            releases=[requests[0].request_id, 99],
            faults=[(recover(0, 1), None)],
            submits=[(requests[1], 2)],
            cycles=1,
        )
        assert calls == [
            "release", "release",
            "apply_fault", "apply_fault",
            "commit",
            "run_cycle", "run_cycle",
            "sync",
        ]
        assert [error is None for error in result.released] == [
            first.decisions[0].accepted, False,
        ]
        assert [d.request_id for d in result.decisions] == [1]
        assert len(result.cycles) == 1
        assert result.synced and engine.wal.pending_count == 0
        engine.detach_wal()
