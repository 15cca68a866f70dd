"""Runtime async-safety sanitizer for the service tier's e2e tests.

The static RPL7xx pack (``tools/reprolint``) proves what it can see through
a name-based call graph; this module is the dynamic cross-check for what it
can't (monkeypatched callables, dynamic dispatch, third-party code). Two
instruments run while a test's coroutine executes:

* an **event-loop stall monitor**: a watchdog coroutine measures how late
  its own periodic sleep fires. A callback that blocks the loop (sync file
  IO, an on-loop solver embed) shows up as sleep drift beyond the
  threshold. The default threshold is generous (0.25 s) because CPU-bound
  work legitimately running in executor threads still competes for the GIL
  and adds millisecond-scale drift. A daemon sampler thread records the
  loop thread's stack while a stall lasts, so the report names the blocker.
* a **cross-task mutation tripwire** on shared state
  (:class:`~repro.network.reservations.ReservationLedger` reserve/release,
  :class:`~repro.faults.model.FaultState` apply): every mutation records the
  task that made it. Ownership may be handed off (WAL restore on the
  main task, then a dispatcher task forever after), but a *retired* owner
  mutating again (task A … task B … task A) means two live tasks are
  interleaving writes — exactly the race the single-writer dispatcher
  design exists to prevent. Mutations from plain threads or outside any
  event loop (``asyncio.to_thread`` workers, offline setup code) are
  exempt: the dispatcher awaits those, so they cannot interleave.

Usage (see ``tests/conftest.py``)::

    sanitizer = LoopSanitizer()
    result = sanitizer.run(main())   # instead of asyncio.run(main())
    sanitizer.check()                # raises SanitizerError on any report
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Coroutine, Iterator, TypeVar

__all__ = [
    "CrossTaskReport",
    "LoopSanitizer",
    "SanitizerError",
    "StallReport",
]

T = TypeVar("T")

#: sleep-drift beyond this many seconds counts as a loop stall.
DEFAULT_STALL_THRESHOLD_S = 0.25
#: watchdog period; stalls shorter than this are invisible.
DEFAULT_POLL_S = 0.05

_ENV_THRESHOLD = "REPRO_SANITIZER_STALL_S"


class SanitizerError(AssertionError):
    """Raised by :meth:`LoopSanitizer.check` when any report was recorded."""


@dataclass(frozen=True)
class StallReport:
    """One watchdog wake-up that fired late."""

    #: seconds the loop was unresponsive beyond the expected sleep.
    lag_s: float
    threshold_s: float
    #: the loop thread's stack sampled during the stall ("" = not sampled).
    stack: str = ""

    def __str__(self) -> str:
        return (
            f"event loop stalled for {self.lag_s:.3f}s "
            f"(threshold {self.threshold_s:.3f}s); some callback is "
            "blocking — move it to asyncio.to_thread / run_in_executor"
        ) + (f"; the loop thread was at:\n{self.stack}" if self.stack else "")


@dataclass(frozen=True)
class CrossTaskReport:
    """A retired owner task mutated shared state again."""

    #: ``ClassName.method`` of the mutation that tripped.
    where: str
    #: names of the distinct owner tasks in handoff order, ending with the
    #: returning owner.
    owners: tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"cross-task mutation via {self.where}: ownership ping-pong "
            f"{' -> '.join(self.owners)}; two live tasks are interleaving "
            "writes to shared state (single-writer dispatcher violated)"
        )


def _default_threshold() -> float:
    raw = os.environ.get(_ENV_THRESHOLD)
    if raw is None:
        return DEFAULT_STALL_THRESHOLD_S
    try:
        return float(raw)
    except ValueError:
        return DEFAULT_STALL_THRESHOLD_S


class LoopSanitizer:
    """Instrumented stand-in for ``asyncio.run``; collects safety reports."""

    def __init__(
        self,
        *,
        stall_threshold_s: float | None = None,
        poll_s: float = DEFAULT_POLL_S,
    ) -> None:
        self.stall_threshold_s = (
            _default_threshold() if stall_threshold_s is None else stall_threshold_s
        )
        self.poll_s = poll_s
        self.stalls: list[StallReport] = []
        self.violations: list[CrossTaskReport] = []
        #: id(obj) -> (obj, ordered distinct owner tasks). The object itself
        #: is retained so a recycled id cannot merge two histories.
        self._owners: dict[int, tuple[object, list["asyncio.Task[Any]"]]] = {}
        #: the watchdog's last heartbeat (``loop.time()``, i.e. ``time.monotonic()``)
        #: and the sampler's (heartbeat, stack) of an overdue beat; each has one
        #: writer thread, so no lock is needed.
        self._beat = float("inf")
        self._sampled = (self._beat, "")

    # -- stall monitor -----------------------------------------------------------

    async def _watchdog(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._beat = before = loop.time()
            await asyncio.sleep(self.poll_s)
            lag = loop.time() - before - self.poll_s
            if lag > self.stall_threshold_s:
                sampled, stack = self._sampled
                self.stalls.append(
                    StallReport(
                        lag_s=lag,
                        threshold_s=self.stall_threshold_s,
                        stack=stack if sampled == before else "",
                    )
                )

    def _sample(self, loop_thread: int, stop: threading.Event) -> None:
        """Sampler thread: take the loop thread's stack once per overdue beat."""
        while not stop.wait(self.poll_s):
            beat = self._beat
            overdue = time.monotonic() - beat > self.poll_s + self.stall_threshold_s
            if overdue and self._sampled[0] != beat:
                frame = sys._current_frames()[loop_thread]  # alive: it joins this thread
                self._sampled = (beat, "".join(traceback.format_stack(frame)))

    # -- cross-task tripwire -----------------------------------------------------

    def _record_mutation(self, obj: object, where: str) -> None:
        try:
            task = asyncio.current_task()
        except RuntimeError:
            task = None  # worker thread: the dispatcher awaits it, no interleave
        if task is None:
            return
        _, history = self._owners.setdefault(id(obj), (obj, []))
        if history and history[-1] is task:
            return
        if task in history:
            names = tuple(t.get_name() for t in history) + (task.get_name(),)
            self.violations.append(CrossTaskReport(where=where, owners=names))
        history.append(task)

    @contextlib.contextmanager
    def _tripwire(self) -> Iterator[None]:
        from repro.faults.model import FaultState
        from repro.network.reservations import ReservationLedger

        targets: list[tuple[type, str]] = [
            (ReservationLedger, "reserve"),
            (ReservationLedger, "release"),
            (FaultState, "apply"),
        ]
        originals: list[tuple[type, str, Callable[..., Any]]] = []

        def instrument(cls: type, name: str) -> Callable[..., Any]:
            original = getattr(cls, name)
            where = f"{cls.__name__}.{name}"

            def wrapper(obj: Any, *args: Any, **kwargs: Any) -> Any:
                self._record_mutation(obj, where)
                return original(obj, *args, **kwargs)

            wrapper.__name__ = name
            return wrapper

        try:
            for cls, name in targets:
                originals.append((cls, name, getattr(cls, name)))
                setattr(cls, name, instrument(cls, name))
            yield
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)

    # -- entry points ------------------------------------------------------------

    def run(
        self,
        coro: Coroutine[Any, Any, T],
        *,
        runner: Callable[..., T] | None = None,
    ) -> T:
        """Run ``coro`` like ``asyncio.run`` with both instruments armed.

        ``runner`` lets a caller that has monkeypatched ``asyncio.run``
        (the conftest fixture does) pass the original through, avoiding
        recursion.
        """

        async def _main() -> T:
            watchdog = asyncio.get_running_loop().create_task(
                self._watchdog(), name="repro-sanitizer-watchdog"
            )
            try:
                return await coro
            finally:
                watchdog.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await watchdog

        call = asyncio.run if runner is None else runner
        # asyncio.run drives the loop on this thread: sample this thread.
        stop = threading.Event()
        sampler = threading.Thread(
            target=self._sample, args=(threading.get_ident(), stop), daemon=True
        )
        sampler.start()
        try:
            with self._tripwire():
                return call(_main())
        finally:
            stop.set()
            sampler.join()

    def check(self) -> None:
        """Raise :class:`SanitizerError` if anything was recorded."""
        if not self.stalls and not self.violations:
            return
        lines = [str(r) for r in self.stalls] + [str(r) for r in self.violations]
        raise SanitizerError(
            "async sanitizer recorded "
            f"{len(self.stalls)} stall(s) and {len(self.violations)} "
            "cross-task mutation(s):\n  " + "\n  ".join(lines)
        )
