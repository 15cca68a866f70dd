"""ShardTick: one shard step and its step clock (no sockets).

:meth:`ShardTick.step` is the only implementation of the phase order; the
service dispatcher and offline replay both call it. Its step count is the
shard's only clock. These tests pin the step and the schedule it folds in:

* one step runs releases → faults → submits → rebalance cycles → sync;
* each step advances ``now`` by one, and nothing else does;
* due faults come out in script order, the step's own events after them;
* a timer cycle runs every ``interval`` steps, however long a cycle takes,
  and only when a rebalance config is given;
* no timer cycle runs while the shard drains;
* a step that folds faults in runs its cycles paused.
"""

import time

from repro.config import NetworkConfig, SfcConfig
from repro.engine import (
    EmbeddingEngine,
    EmbeddingRequest,
    RebalanceConfig,
    ShardTick,
    StepResult,
)
from repro.faults.model import FaultAction, FaultEvent, FaultScript, FaultTarget
from repro.network.generator import generate_network
from repro.sfc.generator import generate_dag_sfc
from repro.utils.rng import as_generator


def fail(step: int, node: int) -> FaultEvent:
    return FaultEvent(time=step, action=FaultAction.FAIL, target=FaultTarget.node(node))


def recover(step: int, node: int) -> FaultEvent:
    return FaultEvent(time=step, action=FaultAction.RECOVER, target=FaultTarget.node(node))


def make_tick(*, script=(), rebalance=None):
    network = generate_network(NetworkConfig(size=12, n_vnf_types=4), rng=3)
    engine = EmbeddingEngine(network, "MBBE", seed=0)
    tick = ShardTick(
        engine,
        fault_script=FaultScript(events=tuple(script), horizon=10) if script else None,
        rebalance=rebalance,
    )
    return tick, engine


def record_faults(engine, monkeypatch):
    applied = []
    real = engine.apply_fault

    def recording(event, **kwargs):
        applied.append(event)
        return real(event, **kwargs)

    monkeypatch.setattr(engine, "apply_fault", recording)
    return applied


def run_steps(tick, n: int) -> None:
    for _ in range(n):
        tick.step()


class TestClock:
    def test_an_empty_step_only_advances_the_clock(self, monkeypatch):
        tick, engine = make_tick()
        applied = record_faults(engine, monkeypatch)
        assert tick.now == 0
        assert tick.chaos_complete
        result = tick.step()
        assert result == StepResult((), (), (), (), synced=False)
        assert tick.now == 1
        assert applied == []
        assert tick.rebalancer.stats()["cycles"] == 0

    def test_script_and_timer_share_the_step_count(self, monkeypatch):
        tick, engine = make_tick(
            script=[fail(3, 1), fail(5, 2)], rebalance=RebalanceConfig(interval=2)
        )
        applied = record_faults(engine, monkeypatch)
        cycles_at = []
        for _ in range(6):
            before = tick.rebalancer.stats()["cycles"]
            now = tick.now
            tick.step()
            if tick.rebalancer.stats()["cycles"] > before:
                cycles_at.append(now)
            assert applied == [e for e in (fail(3, 1), fail(5, 2)) if e.time <= now]
        assert cycles_at == [2, 4]
        assert tick.chaos_complete

    def test_no_rebalance_config_runs_no_timer(self):
        tick, _ = make_tick()
        run_steps(tick, 3)
        assert tick.rebalancer.stats()["cycles"] == 0
        # A requested cycle still runs, on the default rails.
        ((report, stats),) = tick.step(cycles=1).cycles
        assert stats["cycles"] == 1
        assert tick.rebalancer.config == RebalanceConfig()


class TestFaults:
    def test_due_faults_come_out_in_script_order(self, monkeypatch):
        script = [fail(1, 1), fail(1, 2), recover(1, 3), fail(2, 4), recover(4, 1)]
        tick, engine = make_tick(script=script)
        applied = record_faults(engine, monkeypatch)
        ordered = list(FaultScript(events=tuple(script), horizon=10))

        tick.step()  # step 0: nothing is due yet
        assert applied == []
        tick.step()  # step 1
        assert applied == ordered[:3]
        assert not tick.chaos_complete

        run_steps(tick, 3)  # steps 2..4
        assert applied == ordered
        assert tick.chaos_complete

    def test_injected_faults_follow_the_due_script(self, monkeypatch):
        tick, engine = make_tick(script=[fail(1, 1)])
        applied = record_faults(engine, monkeypatch)
        injected = fail(0, 5)
        tick.step()
        tick.step(faults=[injected])
        assert applied == [fail(1, 1), injected]


class TestTimerCycles:
    def test_timer_cycle_runs_every_interval_steps(self, monkeypatch):
        tick, _ = make_tick(rebalance=RebalanceConfig(interval=3))
        cycles = []
        real = tick.rebalancer.run_cycle

        def slow_cycle(**kwargs):
            cycles.append(tick.now)
            time.sleep(0.01)  # a slow cycle moves no step boundary
            return real(**kwargs)

        monkeypatch.setattr(tick.rebalancer, "run_cycle", slow_cycle)
        run_steps(tick, 10)
        assert cycles == [3, 6, 9]

    def test_requested_cycles_run_and_report(self):
        tick, _ = make_tick()
        results = tick.step(cycles=2).cycles
        assert [report.cycle for report, _ in results] == [0, 1]
        assert [stats["cycles"] for _, stats in results] == [1, 2]

    def test_no_timer_cycle_while_draining(self):
        tick, _ = make_tick(rebalance=RebalanceConfig(interval=1))
        tick.draining = True
        run_steps(tick, 3)
        assert tick.rebalancer.stats()["cycles"] == 0

    def test_repair_in_flight_pauses_the_cycle(self):
        tick, _ = make_tick(rebalance=RebalanceConfig(interval=1))
        tick.step()
        # The step carries a fault event (a no-op recovery, so the shard
        # is not degraded): its requested and timer cycles both pause.
        (result,) = tick.step(faults=[recover(0, 5)], cycles=1).cycles
        assert result[0].paused
        assert result[0].pause_reason == "repair_in_flight"
        assert tick.rebalancer.stats()["paused_cycles"] == 2


class TestStep:
    def test_one_step_runs_the_phase_order(self, monkeypatch, tmp_path):
        tick, engine = make_tick(script=[fail(1, 1)], rebalance=RebalanceConfig(interval=1))
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
        # Step 1: the scripted fault and a timer cycle are both due.
        result = tick.step(
            releases=[requests[0].request_id, 99],
            faults=[recover(0, 1)],
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
