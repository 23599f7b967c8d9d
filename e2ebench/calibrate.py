"""Host-speed calibration: every time metric is read at a reference speed.

The benchmark runs on shared hosts whose CPU speed drifts: a fixed
pure-Python loop takes from 1x to 1.5x its fastest time, in phases from
a fraction of a second to minutes long, whatever the program does.  A
25-second window of that loop alone spreads 0.15 to 0.22 (quartile
distance / median) across windows, so wall-clock medians of two runs of
the same code can differ by more than any useful regression bound.

So the benchmark times a fixed reference loop, :func:`burst`, in short
bursts at points where the program is idle (between iterations, between
query steps, around each set-up), on every process that runs the
workload: the benchmark process and, on the remote workloads, the server
process.  Each timed sample of the run is then scaled by
``REFERENCE_S / (mean burst time within WINDOW_S of the sample)``
(averaged over the processes): the
time it would have taken on a host where the loop takes exactly
:data:`REFERENCE_S`.  The loop is part of the benchmark's definition and
never runs program code, so a change to the program moves the scaled
times exactly as it moves wall-clock time at a fixed host speed.  Every
run's record keeps the unscaled wall-clock metrics and the bursts beside
the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import threading
import time
from typing import Dict, List, Optional

#: What one burst takes on the reference host.  Scaled times read as
#: wall-clock times on a host this fast.
REFERENCE_S = 0.0025
#: Bursts within this many seconds of a sample set its scale.
WINDOW_S = 1.5
#: With no burst that close, the nearest this many are used.
NEAREST = 4

_RECORDS = [
    json.dumps({
        "id": i,
        "user": f"u{i * 7919 % 1000:04d}",
        "stars": i % 5 + 1,
        "text": " ".join(f"w{(i * j) % 97}" for j in range(12)),
        "tags": [f"t{i % 3}", f"t{i % 7}"],
        "votes": {"useful": i % 11, "funny": i % 4},
    })
    for i in range(32)
]


def burst() -> float:
    """Run the fixed reference loop once; its wall time in seconds.

    A mix of what the program spends its time on: JSON decoding, dict
    and string work, comparisons and sorting, all in the interpreter,
    with the garbage collector paused so the burst does not depend on
    what the process holds.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection's cost depends on the process's heap
    start = time.perf_counter()
    acc = 0
    seen: Dict[str, int] = {}
    for _ in range(9):
        for line in _RECORDS:
            record = json.loads(line)
            words = record["text"].split()
            for word in words:
                seen[word] = seen.get(word, 0) + 1
            key = record["user"] + ":" + record["tags"][0]
            acc += len(key) + record["stars"] * record["votes"]["useful"]
            if record["stars"] > 3 and "w1" in words:
                acc += 1
        ranked = sorted(seen.items(), key=lambda kv: (-kv[1], kv[0]))
        acc += len(ranked)
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    if acc < 0:  # never true; keeps the work observable
        raise AssertionError(acc)
    return elapsed


class Calibration:
    """The bursts of one run and the scale they give each sample.

    Bursts are kept per process: ``local`` (the benchmark process) and
    ``server`` (the server process of a remote workload).
    """

    def __init__(self) -> None:
        self._times: Dict[str, List[float]] = {"local": [], "server": []}
        self._bursts: Dict[str, List[float]] = {"local": [], "server": []}
        self._lock = threading.Lock()

    def measure(self, server=None) -> None:
        """One burst here, and at the same moment on *server* if given.

        *server* is a :class:`~e2ebench.server_proc.ServerProcess`; its
        burst runs in its own process while this one runs here.
        """
        if server is not None:
            server.request_burst()
        values = {"local": burst()}
        if server is not None:
            values["server"] = server.read_burst()
        now = time.perf_counter()
        with self._lock:
            for where, value in values.items():
                times = self._times[where]
                index = bisect.bisect(times, now)
                times.insert(index, now)
                self._bursts[where].insert(index, value)

    def _near(self, where: str, at: float) -> List[float]:
        times, bursts = self._times[where], self._bursts[where]
        if not times:
            return []
        lo = bisect.bisect_left(times, at - WINDOW_S)
        hi = bisect.bisect_right(times, at + WINDOW_S)
        if hi > lo:
            return bursts[lo:hi]
        order = sorted(range(len(times)), key=lambda i: abs(times[i] - at))
        return [bursts[i] for i in order[:NEAREST]]

    def scale(self, at: float) -> float:
        """The factor that takes a sample timed around *at* to reference
        speed; 1.0 when the run made no burst.

        The mean burst of each process near *at* is averaged over the
        processes, whichever did the sample's work: on the 2-vCPU host
        the benchmark was tuned on, that pooled figure tracked the
        remote workloads' times as well as or better than the bursts of
        the process doing most of the work.
        """
        with self._lock:
            means = [statistics.fmean(near) for near in
                     (self._near(where, at) for where in self._times)
                     if near]
        if not means:
            return 1.0
        return REFERENCE_S / statistics.fmean(means)

    def summary(self) -> Dict[str, Dict[str, Optional[float]]]:
        with self._lock:
            streams = {where: list(b) for where, b in self._bursts.items()}
        out: Dict[str, Dict[str, Optional[float]]] = {}
        for where, bursts in streams.items():
            out[where] = {
                "bursts": len(bursts),
                "mean_s": statistics.fmean(bursts) if bursts else None,
                "min_s": min(bursts) if bursts else None,
                "max_s": max(bursts) if bursts else None,
            }
        out["reference"] = {"burst_s": REFERENCE_S, "window_s": WINDOW_S}
        return out
