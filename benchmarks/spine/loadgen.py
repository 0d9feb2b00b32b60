"""Closed-loop and open-loop load generation over a few worker threads.

Closed loop: each worker sends its next request only after the previous
one completed, so a slow server receives less load.  Open loop: requests
have due times fixed in advance; latency is counted from the *due* time,
so a stall charges the wait it imposes on later requests, and how late
the generator itself ran is reported beside it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from harness import now


@dataclass
class Sample:
    item: object
    worker: int
    due: float | None    # absolute due time (open loop only)
    sent: float
    done: float
    error: str | None

    @property
    def latency(self) -> float:
        """From the due time in an open loop, else from the send."""
        return self.done - (self.sent if self.due is None else self.due)

    @property
    def late(self) -> float:
        return 0.0 if self.due is None else self.sent - self.due


def _call(send, worker: int, item, due: float | None) -> Sample:
    sent = now()
    error = None
    try:
        send(worker, item)
    except Exception as exc:   # the failure is the sample
        error = f"{type(exc).__name__}: {exc}"
    return Sample(item, worker, due, sent, now(), error)


def _run_workers(n_workers: int, body) -> list[Sample]:
    samples: list[list[Sample]] = [[] for _ in range(n_workers)]
    threads = [
        threading.Thread(target=body, args=(w, samples[w]), name=f"loadgen-{w}")
        for w in range(n_workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted((s for per in samples for s in per), key=lambda s: s.sent)


def closed_loop(send, items, n_workers: int, seconds: float,
                tick=None, tick_every: int = 32) -> list[Sample]:
    """*n_workers* callers draw from the shared iterator *items* and call
    ``send(worker, item)`` back to back for *seconds*.  Worker 0 calls
    *tick* between sends, once per *tick_every* (speed readings)."""
    lock = threading.Lock()
    stop_at = now() + seconds

    def body(worker: int, out: list[Sample]) -> None:
        while now() < stop_at:
            if tick is not None and worker == 0 and len(out) % tick_every == 0:
                tick()
            with lock:
                item = next(items, None)
            if item is None:
                return
            out.append(_call(send, worker, item, None))

    return _run_workers(n_workers, body)


def open_loop(send, items, due: list[float], n_workers: int,
              drain_s: float = 2.0) -> tuple[list[Sample], int]:
    """Request *i* (``items[i]``) is due ``due[i]`` seconds after the
    start.  Workers take requests in order and wait for the due time; a
    busy worker sends late, and the latency still counts from the due
    time.  Requests not sent within *drain_s* after the last due time
    are dropped; returns ``(samples, dropped)``."""
    lock = threading.Lock()
    start = now()
    give_up = start + (due[-1] if due else 0.0) + drain_s
    cursor = 0

    def body(worker: int, out: list[Sample]) -> None:
        nonlocal cursor
        while True:
            with lock:
                index = cursor
                cursor += 1
            if index >= len(due) or now() > give_up:
                return
            due_at = start + due[index]
            wait = due_at - now()
            if wait > 0:
                time.sleep(wait)
            out.append(_call(send, worker, items[index], due_at))

    samples = _run_workers(n_workers, body)
    return samples, len(due) - len(samples)
