"""``python -m repro.service serve`` as a process: SIGTERM shuts it down
the way SIGINT does, leaving no shard worker behind."""

import contextlib
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` from the state field on, ``None`` once gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _descendants(pid: int) -> set[int]:
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None:
                parents[int(entry.name)] = int(fields[1])
    found: set[int] = set()
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, owner in parents.items():
            if owner == parent and child not in found:
                found.add(child)
                frontier.append(child)
    return found


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _read_line(stream, timeout: float) -> bytes:
    deadline = time.monotonic() + timeout
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
            raise AssertionError("the server did not report its port in time")
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            raise AssertionError("the server exited before it started listening")
        line += chunk
    return line


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads child pids from /proc"
)
def test_sigterm_exits_zero_and_leaves_no_child():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--workers", "2", "--port", "0"],
        stdout=subprocess.PIPE,
        env=env,
    )
    children: set[int] = set()
    try:
        assert b"listening on" in _read_line(process.stdout, timeout=60)
        children = _descendants(process.pid)
        assert len(children) >= 2, children  # both shard workers are up
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        deadline = time.monotonic() + 10
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in children if _alive(pid)] == []
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        process.stdout.close()
        for pid in children:
            if _alive(pid):
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
