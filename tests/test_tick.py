"""ShardTick: one shard's timed work, stepped by a fake clock (no sockets).

The tick decides *when* scripted faults and timer-driven rebalance cycles
are due; the service dispatcher only asks for the deadline and calls the
blocking steps. These tests pin the schedule itself:

* the deadline is the earliest timed item;
* due faults come out in script order, injected ones after them;
* the next timer cycle is scheduled from the end of the last one, so a
  slow cycle delays the next instead of piling cycles up;
* no timer cycle runs (or is waited for) while the shard drains.
"""

import pytest

from repro.config import NetworkConfig
from repro.engine import EmbeddingEngine, RebalanceConfig, ShardRouter, ShardTick
from repro.faults.model import FaultAction, FaultEvent, FaultScript, FaultTarget
from repro.network.generator import generate_network


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


class TestDeadline:
    def test_nothing_timed_means_no_deadline(self):
        tick, _, _ = make_tick()
        assert tick.deadline() is None
        assert not tick.faults_due()
        assert not tick.needs_settle()
        assert tick.chaos_complete

    def test_deadline_is_the_earliest_timed_item(self):
        tick, _, clock = make_tick(
            script=[fail(3, 1), fail(5, 2)], rebalance=RebalanceConfig(interval=0.2)
        )
        assert tick.deadline() == pytest.approx(100.2)  # the timer cycle
        clock.now = 100.25
        tick.settle()
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
        assert tick.faults_due()
        tick.apply_faults()
        assert applied == ordered[:3]
        assert not tick.faults_due()
        assert not tick.chaos_complete
        assert tick.deadline() == pytest.approx(100.2)

        clock.now = 101.0
        tick.apply_faults()
        assert applied == ordered
        assert tick.chaos_complete
        assert tick.deadline() is None

    def test_injected_faults_follow_the_due_script(self, monkeypatch):
        tick, engine, clock = make_tick(script=[fail(1, 1)])
        applied = record_faults(engine, monkeypatch)
        injected = fail(0, 5)
        clock.now = 100.1
        tick.apply_faults([injected])
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
        assert tick.needs_settle()
        tick.settle()
        assert cycles == [101.0]
        # The cycle ended at 104.0: the next one is due at 105.0, not
        # immediately (no backlog of the ticks the slow cycle spanned).
        assert tick.deadline() == pytest.approx(105.0)
        clock.now = 104.9
        assert not tick.needs_settle()
        tick.settle()
        assert cycles == [101.0]
        clock.now = 105.0
        tick.settle()
        assert cycles == [101.0, 105.0]

    def test_requested_cycles_run_and_report(self):
        tick, _, _ = make_tick()
        results = tick.settle(2)
        assert [report.cycle for report, _ in results] == [0, 1]
        assert [stats["cycles"] for _, stats in results] == [1, 2]

    def test_no_timer_cycle_while_draining(self):
        tick, _, clock = make_tick(rebalance=RebalanceConfig(interval=0.5))
        clock.now = 101.0
        tick.draining = True
        assert tick.deadline() is None
        assert not tick.needs_settle()
        tick.settle()
        assert tick.rebalancer.stats()["cycles"] == 0

    def test_repair_in_flight_pauses_the_cycle(self):
        tick, _, clock = make_tick(rebalance=RebalanceConfig(interval=0.5))
        clock.now = 100.5
        (result,) = tick.settle(1, repair_in_flight=True)
        assert result[0].paused
        assert result[0].pause_reason == "repair_in_flight"
        assert tick.rebalancer.stats()["paused_cycles"] == 2
