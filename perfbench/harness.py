"""Server processes, the closed-loop client, and /proc readings.

The server runs as a subprocess in its own session, so stopping it
also stops its shard workers. The client speaks HTTP/1.1 over one
keep-alive connection per plan, writes pre-encoded requests, and times
each request from the write to the last byte of the response. Responses
are kept raw and decoded only after the timed phase, so the client does
as little as it can between requests.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- /proc readings ------------------------------------------------------


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2:].split()


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (shard workers and helpers)."""
    parents: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None:
            parents.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(parents.get(pid, []))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU time of ``pids``, in seconds."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])
    return total / CLK_TCK


def peak_rss_mib(pids: list[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        except OSError:
            continue
    return total_kib / 1024.0


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


class Meter:
    """CPU use of the server tree, the client and the machine over a phase."""

    def __init__(self, server_pids: list[int]) -> None:
        self.pids = server_pids
        self.wall = time.perf_counter()
        self.server = cpu_seconds(server_pids)
        self.client = time.process_time()
        self.steal, self.total = cpu_times()

    def shares(self) -> dict:
        wall = time.perf_counter() - self.wall
        steal, total = cpu_times()
        return {
            "env.server_cpu_share": (cpu_seconds(self.pids) - self.server) / wall,
            "env.client_cpu_share": (time.process_time() - self.client) / wall,
            "env.steal_share": (steal - self.steal) / max(1, total - self.total),
        }


# -- the server process --------------------------------------------------


class Server:
    """One service process, stock or through the tracing launcher."""

    def __init__(self, server_args: list[str], spans_path: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        if spans_path is None:
            entry = ["-m", "repro.service"]
        else:
            entry = [str(ROOT / "perfbench" / "launcher.py"), str(spans_path)]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *entry, "serve", "--port", "0", *server_args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.host, self.port = self._await_banner()

    def _await_banner(self) -> tuple[str, int]:
        deadline = self.spawned + BOOT_TIMEOUT_S
        stdout = self.process.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if "listening on http://" in line:
                    host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
                    return host, int(port)
                if not line:
                    break
            elif self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError("the service did not come up")

    def pids(self) -> list[int]:
        return process_tree(self.process.pid)

    def stop(self) -> None:
        """SIGINT (clean shutdown, spans flushed), then kill what is left."""
        tree = self.pids()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self.process.stdout.close()
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while time.perf_counter() < deadline and any(_alive(p) for p in tree):
            time.sleep(0.05)


# -- the client ------------------------------------------------------------


@dataclass
class Sample:
    """One request as the client saw it."""

    conn: int
    phase: str
    request: object
    status: int
    latency_s: float
    sent_bytes: int
    received_bytes: int
    body: bytes
    error: str = ""


class Connection:
    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.host = f"{host}:{port}"
        self.address = (host, port)
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(*self.address)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def send(self, request, phase: str) -> Sample:
        wire = request.wire(self.host)
        began = time.perf_counter()
        try:
            self.writer.write(wire)
            await self.writer.drain()
            status_line = await self.reader.readline()
            received = len(status_line)
            length = 0
            while True:
                line = await self.reader.readline()
                received += len(line)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = await self.reader.readexactly(length) if length else b""
            latency = time.perf_counter() - began
            status = int(status_line.split()[1])
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
            return Sample(self.index, phase, request, 0, 0.0, len(wire), 0, b"", repr(exc))
        return Sample(
            self.index, phase, request, status, latency, len(wire),
            received + len(body), body,
        )


async def run_phase(
    conns: list[Connection], passes: list[list[list]], phase: str, seconds: float = 0.0
) -> tuple[list[Sample], float]:
    """Each connection sends its passes in turn; with ``seconds``, it
    keeps cycling through them until the time is up, stopping only at
    the end of a pass. Returns the samples and the wall time."""
    samples: list[Sample] = []
    began = time.perf_counter()
    deadline = began + seconds

    async def drive(conn: Connection, its_passes: list[list]) -> None:
        for requests in itertools.cycle(its_passes):
            for request in requests:
                sample = await conn.send(request, phase)
                samples.append(sample)
                if sample.error:
                    return
            if time.perf_counter() >= deadline:
                return

    await asyncio.gather(*(drive(c, p) for c, p in zip(conns, passes)))
    return samples, time.perf_counter() - began
