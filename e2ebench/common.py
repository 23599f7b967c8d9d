"""Shared pieces of the end-to-end benchmark: samples, metadata, results.

Every workload module fills a :class:`Samples` with raw, timestamped
observations and host-speed calibration bursts, and a :class:`Checks`
with correctness outcomes; :func:`summarize` turns the samples into the
fixed end-to-end metric set (medians, tails and throughputs, each with
its unit, times at reference host speed), so every workload reports
every metric the same way.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .calibrate import Calibration

#: The end-to-end metrics, in print order: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "load_records_per_s": ("records/s", "higher"),
    "end_to_end_s": ("s", "lower"),
    "covered_query_p50_ms": ("ms", "lower"),
    "covered_query_tail_ms": ("ms", "lower"),
    "uncovered_query_p50_ms": ("ms", "lower"),
    "uncovered_query_tail_ms": ("ms", "lower"),
    "queries_per_s": ("queries/s", "higher"),
    "snapshot_query_p50_ms": ("ms", "lower"),
    "snapshot_query_tail_ms": ("ms", "lower"),
    "storage_bytes_per_input_byte": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Query-latency classes; each yields a ``<class>_query_p50_ms`` and a
#: ``<class>_query_tail_ms`` metric.
LATENCY_CLASSES = ("covered", "uncovered", "snapshot")

#: A tail needs at least this many samples strictly beyond it.
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not a wrong answer)."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchmarkError("no samples to take a median of")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``: the value is the
    (TAIL_BEYOND + 1)-th largest sample, the percentile is the share of
    samples at or below it.  With too few samples the maximum is used
    and the percentile reads 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise BenchmarkError("no samples to take a tail of")
    index = n - 1 - TAIL_BEYOND
    if index < 0:
        return float(ordered[-1]), 100.0, n
    return float(ordered[index]), 100.0 * (index + 1) / n, n


#: One timed observation: (when, seconds).  *when* is the
#: ``time.perf_counter()`` reading at the middle of what was timed, so
#: the calibration bursts around it can scale it.
Timed = Tuple[float, float]


def _at(seconds: float, at: Optional[float]) -> float:
    """The middle of an interval of *seconds* that ended just now."""
    return time.perf_counter() - seconds / 2.0 if at is None else at


@dataclass
class Samples:
    """Raw observations of one measured run (thread-safe appends).

    Every time is kept with the moment it was taken, and
    :attr:`calibration` holds the run's host-speed bursts, so
    :func:`summarize` can report each time at reference speed.
    """

    setup_s: List[Timed] = field(default_factory=list)
    #: (when, records, seconds) per load.
    loads: List[Tuple[float, int, float]] = field(default_factory=list)
    end_to_end_s: List[Timed] = field(default_factory=list)
    latency_s: Dict[str, List[Timed]] = field(
        default_factory=lambda: defaultdict(list))
    #: Wall time of the query phases, in pieces.
    query_s: List[Timed] = field(default_factory=list)
    storage_bytes: List[int] = field(default_factory=list)
    input_bytes: List[int] = field(default_factory=list)
    queries: int = 0
    calibration: Calibration = field(default_factory=Calibration)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def calibrate(self, server=None) -> None:
        """One host-speed burst, here and on *server* (see calibrate)."""
        self.calibration.measure(server)

    def setup(self, seconds: float, at: Optional[float] = None) -> None:
        with self._lock:
            self.setup_s.append((_at(seconds, at), seconds))

    def latency(self, cls: str, seconds: float,
                at: Optional[float] = None) -> None:
        with self._lock:
            self.latency_s[cls].append((_at(seconds, at), seconds))

    def end_to_end(self, seconds: float, at: Optional[float] = None) -> None:
        with self._lock:
            self.end_to_end_s.append((_at(seconds, at), seconds))

    def query_time(self, seconds: float, at: Optional[float] = None) -> None:
        with self._lock:
            self.query_s.append((_at(seconds, at), seconds))

    def count_queries(self, n: int) -> None:
        with self._lock:
            self.queries += n

    def load(self, records: int, seconds: float,
             at: Optional[float] = None) -> None:
        with self._lock:
            self.loads.append((_at(seconds, at), records, seconds))

    def storage(self, stored: int, raw: int) -> None:
        with self._lock:
            self.storage_bytes.append(stored)
            self.input_bytes.append(raw)


@dataclass
class Checks:
    """Correctness bookkeeping: operations attempted, failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def record(self, ok: bool, what: str = "") -> bool:
        """Count one checked operation; keep the first few failures."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def summarize(samples: Samples, rss_kb: Optional[int] = None,
              scaled: bool = True
              ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """The end-to-end metric set plus the tail bookkeeping.

    Times are taken to reference host speed with the run's calibration
    bursts (:mod:`e2ebench.calibrate`); ``scaled=False`` gives the plain
    wall-clock figures instead.  *rss_kb* is the peak resident set of
    the process that ran the workload (``peak_rss_mb`` is left out
    without it).  Returns ``(metrics, tails)`` where *tails* records,
    per latency class, the percentile the tail metric used and the
    sample count.
    """
    calibration = samples.calibration

    def scale(at: float) -> float:
        return calibration.scale(at) if scaled else 1.0

    def times(timed: Sequence[Timed]) -> List[float]:
        return [seconds * scale(at) for at, seconds in timed]

    values: Dict[str, float] = {}
    if samples.setup_s:
        values["setup_s"] = median(times(samples.setup_s))
    # Throughput over every load of the run: within a run single loads
    # of one size vary up to 2x, and a median of their rates jumps
    # between clusters where a ratio of sums does not.
    load_s = sum(seconds * scale(at) for at, _, seconds in samples.loads)
    if load_s <= 0:
        raise BenchmarkError("no load time measured")
    values["load_records_per_s"] = (
        sum(records for _, records, _ in samples.loads) / load_s)
    values["end_to_end_s"] = median(times(samples.end_to_end_s))
    tails: Dict[str, Any] = {}
    for cls in LATENCY_CLASSES:
        lat = [1e3 * t for t in times(samples.latency_s.get(cls, []))]
        values[f"{cls}_query_p50_ms"] = median(lat)
        value, pct, n = tail(lat)
        values[f"{cls}_query_tail_ms"] = value
        tails[cls] = {"percentile": round(pct, 2), "samples": n}
    query_s = sum(times(samples.query_s))
    if query_s <= 0:
        raise BenchmarkError("no query time measured")
    values["queries_per_s"] = samples.queries / query_s
    ratios = [s / r for s, r in zip(samples.storage_bytes,
                                    samples.input_bytes) if r]
    values["storage_bytes_per_input_byte"] = median(ratios)
    if rss_kb is not None:
        values["peak_rss_mb"] = rss_kb / 1024.0
    metrics = {
        name: {"value": values[name], "unit": END_TO_END[name][0]}
        for name in END_TO_END if name in values
    }
    return metrics, tails


def peak_rss_kb() -> int:
    """This process's peak resident set (KiB)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under *path*."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except OSError:
                pass
    return total


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    try:
        return target.read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def filesystem_type(path: Path) -> str:
    """The filesystem holding *path* (``stat -f``), or ``unknown``."""
    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_metadata(root: Path, workdir: Path, seed: int,
                 traced: bool) -> Dict[str, Any]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "git_rev": git_rev(root),
        "nproc": usable,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "seed": seed,
        "data_dir_filesystem": filesystem_type(workdir),
        "traced": traced,
    }


def emit(result: Dict[str, Any]) -> None:
    """Print the result as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
