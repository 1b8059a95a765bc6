"""Spawn ``repro serve`` and drive it with a closed-loop client.

The client is one process with one writer thread and one reader thread on
the server's stdin/stdout pipes.  At most ``window`` lines are outstanding;
the writer sends the next line only when a response has freed a slot.
Responses are kept as raw bytes and parsed after the run, so the client
does as little work as possible while it is timing the server.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

#: A server that has not answered its banner or drained by then is killed.
READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0


@dataclass(slots=True)
class Record:
    """One line sent and the response it got."""

    line: object        # workloads.Line
    sent: float         # perf_counter when the line was written
    received: float     # perf_counter when its response was read
    raw: bytes          # the response line
    generation: int     # writes sent before this line


class ServeProcess:
    """One ``repro serve`` subprocess with its pipes and stderr log."""

    def __init__(self, argv: list[str], *, env: dict, cwd: Path, log: Path):
        self._log = open(log, "wb")
        self.argv = argv
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, cwd=cwd, env=env,
        )
        self.banner: dict | None = None

    def wait_ready(self) -> dict:
        """Block until the ready banner arrives (killing a hung server)."""
        watchdog = threading.Timer(READY_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        try:
            banner = json.loads(line)
        except ValueError:
            banner = None
        if not isinstance(banner, dict) or banner.get("ready") is not True:
            self.close()
            raise RuntimeError(
                f"server did not become ready ({self.argv!r}): {line!r}"
            )
        self.banner = banner
        return banner

    def peak_rss_mb(self) -> float:
        """Peak resident set (VmHWM) summed over the server's process tree."""
        return sum(_vm_hwm_kb(pid) for pid in process_tree(self.proc.pid)) / 1024.0

    def close(self) -> int:
        """EOF the server (graceful drain) and wait for it to exit."""
        try:
            if self.proc.stdin and not self.proc.stdin.closed:
                self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            code = self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()
        self._log.close()
        return code

    def kill(self) -> None:
        for pid in reversed(process_tree(self.proc.pid)):
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass


def process_tree(root: int) -> list[int]:
    """*root* and every live descendant, parents first (from ``/proc``)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may contain spaces: fields resume after ')'
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop(0)
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class LoopResult:
    records: list[Record]
    start: float            # perf_counter at the start of the timed window
    end: float              # perf_counter when the timed window closed
    unexpected: list[bytes]  # responses that matched no outstanding line
    stalled: bool           # outstanding lines never answered
    peak_rss_mb: float      # server process tree, read just before EOF


def closed_loop(
    server: ServeProcess,
    lines,
    *,
    window: int,
    warmup_s: float,
    seconds: float,
) -> LoopResult:
    """Send *lines* with *window* outstanding for ``warmup_s + seconds``.

    A write line is a barrier: it is sent only once every earlier line has
    been answered, so no read sent before it can be answered by the new
    generation; the server applies a write before it reads the next line,
    so every later read is.  :attr:`Record.generation` counts the writes
    sent before each line.
    """
    stdin, stdout = server.proc.stdin, server.proc.stdout
    slots = threading.Semaphore(window)
    lock = threading.Condition()
    inflight: deque = deque()
    records: list[Record] = []
    unexpected: list[bytes] = []
    state = {"writes": 0, "outstanding": 0}
    start = time.perf_counter() + warmup_s
    end = start + seconds

    def reader() -> None:
        for raw in stdout:
            received = time.perf_counter()
            with lock:
                if not inflight:
                    unexpected.append(raw)
                    continue
                line, sent, generation = inflight.popleft()
                state["outstanding"] -= 1
                lock.notify_all()
            records.append(Record(line, sent, received, raw, generation))
            slots.release()

    thread = threading.Thread(target=reader, name="perfbench-reader", daemon=True)
    thread.start()
    stalled = False
    rss_mb = 0.0
    try:
        for line in lines:
            slots.acquire()
            with lock:
                if line.is_write and not lock.wait_for(
                    lambda: state["outstanding"] == 0, DRAIN_TIMEOUT_S
                ):
                    stalled = True
                    break
                sent = time.perf_counter()
                if sent >= end:
                    break
                inflight.append((line, sent, state["writes"]))
                state["outstanding"] += 1
                if line.is_write:
                    state["writes"] += 1
            stdin.write(line.text.encode() + b"\n")
            stdin.flush()
        with lock:
            if not lock.wait_for(lambda: state["outstanding"] == 0, DRAIN_TIMEOUT_S):
                stalled = True
    except BrokenPipeError:
        stalled = True
    finally:
        rss_mb = server.peak_rss_mb()
        code = server.close()
        thread.join(DRAIN_TIMEOUT_S)
    if code != 0:
        stalled = True
    return LoopResult(
        records, start, end, unexpected, stalled or bool(inflight), rss_mb,
    )
