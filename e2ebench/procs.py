"""One ``dag-sfc serve`` subprocess plus the client connected to it."""

from __future__ import annotations

import asyncio
import os
import re
import sys
import time
from typing import Any

from repro.service.client import ServiceClient

__all__ = ["ServerProcess"]

_BANNER = re.compile(rb"^serving .* on ([0-9.]+):(\d+) ")
#: generous bound on start-up (the first start also byte-compiles src/).
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """A running server; create with :meth:`spawn`, end with :meth:`shutdown`."""

    def __init__(
        self,
        proc: asyncio.subprocess.Process,
        client: ServiceClient,
        setup_s: float,
        log_path: str,
        wal_path: str,
    ) -> None:
        self.proc = proc
        self.client = client
        #: seconds from spawning the process to receiving its hello.
        self.setup_s = setup_s
        self.log_path = log_path
        #: the default shard's write-ahead log.
        self.wal_path = wal_path

    @classmethod
    async def spawn(
        cls, argv: list[str], *, env: dict[str, str], log_path: str, wal_path: str
    ) -> "ServerProcess":
        """Start ``python argv...`` and connect once it prints its banner."""
        start = time.perf_counter()
        with open(log_path, "wb") as log:  # reprolint: disable=RPL701 -- the benchmark client's loop, before any request is timed
            proc = await asyncio.create_subprocess_exec(
                sys.executable,
                *argv,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
                env=env,
            )
        try:
            port = await asyncio.wait_for(_read_port(proc), _START_TIMEOUT_S)
            client = await ServiceClient.connect("127.0.0.1", port)
        except BaseException:
            await _kill(proc)
            raise
        return cls(proc, client, time.perf_counter() - start, log_path, wal_path)

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="ascii") as fh:
            return fh.read()

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (VmHWM) in MiB."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the process has used so far."""
        stat = self._proc_file("stat")
        fields = stat[stat.rindex(")") + 2 :].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    async def drain(self) -> dict[str, Any]:
        """Flush the server's queue; returns the drained stats reply."""
        return await self.client.drain()

    async def shutdown(self) -> None:
        """Drain with shutdown, close the client, wait for a clean exit."""
        try:
            await self.client.drain(shutdown=True)
        finally:
            await self.client.close()
        try:
            await asyncio.wait_for(self.proc.communicate(), _STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            await _kill(self.proc)
            raise RuntimeError("server did not exit after drain(shutdown)") from None
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with {self.proc.returncode}; see {self.log_path}"
            )

    async def kill(self) -> None:
        """Tear down without ceremony (error paths)."""
        await self.client.close()
        await _kill(self.proc)


async def _read_port(proc: asyncio.subprocess.Process) -> int:
    assert proc.stdout is not None
    while True:
        line = await proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before serving (code {await proc.wait()})")
        match = _BANNER.match(line)
        if match:
            return int(match.group(2))


async def _kill(proc: asyncio.subprocess.Process) -> None:
    if proc.returncode is None:
        proc.kill()
    await proc.communicate()
