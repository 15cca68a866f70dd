"""RPL701: blocking primitives reachable from coroutines stall the loop."""

import asyncio
import time


def slow_helper() -> None:
    time.sleep(0.1)  # blocking, but only a problem when a coroutine reaches it


async def transitive() -> None:
    slow_helper()  # RPL701: reaches time.sleep through a sync helper
    await asyncio.sleep(0)


async def direct() -> None:
    time.sleep(0.1)  # RPL701: blocks the event loop directly
    await asyncio.sleep(0)


async def checkpoint_inline(engine) -> None:
    engine.checkpoint()  # RPL701: fsyncs the shard's log on the event loop
    await asyncio.sleep(0)
