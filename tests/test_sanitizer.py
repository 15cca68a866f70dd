"""The runtime async sanitizer must fire on real hazards and stay quiet
otherwise.

These are the "does the smoke detector detect smoke" tests the e2e suites
rely on: test_service*/test_sharding run under the sanitizer (armed in
conftest), so this file proves a deliberately blocking callback and a
deliberately racing pair of tasks are actually caught.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.faults.model import FaultAction, FaultEvent, FaultState, FaultTarget
from repro.utils.sanitizer import LoopSanitizer, SanitizerError


def fail_node(node: int, *, at: int = 0) -> FaultEvent:
    return FaultEvent(time=at, action=FaultAction.FAIL, target=FaultTarget.node(node))


def recover_node(node: int, *, at: int = 0) -> FaultEvent:
    return FaultEvent(
        time=at, action=FaultAction.RECOVER, target=FaultTarget.node(node)
    )


# -- stall monitor ----------------------------------------------------------------


def test_stall_monitor_fires_on_blocking_coroutine() -> None:
    sanitizer = LoopSanitizer(stall_threshold_s=0.05, poll_s=0.01)

    async def blocks_the_loop() -> None:
        await asyncio.sleep(0.03)  # let the watchdog start its sleep
        time.sleep(0.2)  # deliberate on-loop block
        await asyncio.sleep(0.03)  # give the watchdog a wake-up to measure

    sanitizer.run(blocks_the_loop())
    assert sanitizer.stalls, "a 0.2s sync sleep on the loop must be detected"
    assert max(s.lag_s for s in sanitizer.stalls) >= 0.05
    # The sampler thread caught the loop thread inside the blocker.
    with pytest.raises(SanitizerError, match="stall") as caught:
        sanitizer.check()
    assert "in blocks_the_loop" in str(caught.value)


def test_stall_monitor_quiet_on_well_behaved_coroutine() -> None:
    sanitizer = LoopSanitizer(stall_threshold_s=0.05, poll_s=0.01)

    async def polite() -> None:
        for _ in range(5):
            await asyncio.sleep(0.01)

    sanitizer.run(polite())
    assert sanitizer.stalls == []
    sanitizer.check()


def test_stall_monitor_quiet_when_blocking_work_is_offloaded() -> None:
    sanitizer = LoopSanitizer(stall_threshold_s=0.05, poll_s=0.01)

    async def offloads() -> None:
        await asyncio.to_thread(time.sleep, 0.2)

    sanitizer.run(offloads())
    assert sanitizer.stalls == []
    sanitizer.check()


# -- cross-task tripwire ----------------------------------------------------------


def test_tripwire_fires_on_ping_pong_ownership() -> None:
    sanitizer = LoopSanitizer()
    state = FaultState()

    async def racing() -> None:
        gate_a = asyncio.Event()
        gate_b = asyncio.Event()

        async def task_a() -> None:
            state.apply(fail_node(0))  # A owns
            gate_a.set()
            await gate_b.wait()
            state.apply(recover_node(0))  # A returns after B: the race

        async def task_b() -> None:
            await gate_a.wait()
            state.apply(fail_node(1))  # B takes over
            gate_b.set()

        await asyncio.gather(
            asyncio.create_task(task_a(), name="task-a"),
            asyncio.create_task(task_b(), name="task-b"),
        )

    sanitizer.run(racing())
    assert len(sanitizer.violations) == 1
    report = sanitizer.violations[0]
    assert report.where == "FaultState.apply"
    assert report.owners == ("task-a", "task-b", "task-a")
    with pytest.raises(SanitizerError, match="cross-task"):
        sanitizer.check()


def test_tripwire_allows_clean_ownership_handoff() -> None:
    sanitizer = LoopSanitizer()
    state = FaultState()

    async def handoff() -> None:
        async def restorer() -> None:
            state.apply(fail_node(0))
            state.apply(fail_node(1))

        async def dispatcher() -> None:
            state.apply(recover_node(0))
            state.apply(recover_node(1))

        # restore-then-serve: each owner retires before the next takes over.
        await asyncio.create_task(restorer())
        await asyncio.create_task(dispatcher())

    sanitizer.run(handoff())
    assert sanitizer.violations == []
    sanitizer.check()


def test_tripwire_exempts_worker_threads_and_sync_context() -> None:
    sanitizer = LoopSanitizer()
    state = FaultState()

    async def mixed() -> None:
        state.apply(fail_node(0))  # main task owns
        # awaited worker-thread mutations cannot interleave with the owner
        await asyncio.to_thread(state.apply, fail_node(1))
        await asyncio.to_thread(state.apply, recover_node(1))
        state.apply(recover_node(0))  # still the same (only) task owner

    sanitizer.run(mixed())
    # sync mutations outside any loop are exempt as well (offline setup code)
    state.apply(fail_node(2))
    assert sanitizer.violations == []
    sanitizer.check()


def test_tripwire_restores_patched_methods() -> None:
    sanitizer = LoopSanitizer()
    before = (FaultState.apply, type(FaultState).__name__)

    async def noop() -> None:
        await asyncio.sleep(0)

    sanitizer.run(noop())
    assert FaultState.apply is before[0]


# -- conftest integration ---------------------------------------------------------


def test_conftest_arms_sanitizer_only_for_service_suites(
    async_sanitizer: LoopSanitizer | None,
) -> None:
    # This file is not in SANITIZED_TEST_FILES, so the autouse fixture
    # must yield None and leave asyncio.run untouched.
    assert async_sanitizer is None
    assert asyncio.run.__module__ == "asyncio.runners"
