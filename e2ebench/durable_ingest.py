"""``winlog_ingest_durable``: durable remote ingest beside mid-load reads.

Set-up generates the winlog records (short, ~176 B, so per-record and
per-chunk overheads weigh more), plans at budget 0 (nothing pushed:
every record is parsed and written to columns, the sideline stays
empty) and starts the server in a process of its own
(:mod:`e2ebench.server_proc`): 2 thread shards, ``durable=True``, a
checkpoint after every CHUNKS batch.

Each measured iteration streams every record through one
:class:`repro.service.RemoteSession` writer while one reader runs a
fixed set of ``snapshot_query`` aggregates in a closed loop; the reader
starts only once the writer's load is open.  After the commit the
writer asks a fixed set of final queries (covered- and
uncovered-template) whose answers must equal the budget-0 oracle's.
``end_to_end_s`` is the load, its commit and the final queries.

Heavy: server parse, column writes, seals, manifest fsync, snapshot
publishing and the snapshot cache.  Light: client evaluation and the
sideline (none).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List

from repro.api import DataSource
from repro.recovery.manifest import Manifest
from repro.service import RemoteError, RemoteSession

from .common import BenchmarkError, Checks, Samples, dir_bytes
from .inputs import (
    QuerySpec,
    answer_bytes,
    plan_for,
    prospective_workload,
    raw_lines,
    rng_for,
    sizes,
    winlog_uncovered,
)
from .server_proc import ServerProcess

N_RECORDS = 8000
CHUNK_SIZE = 250
#: Chunks per CHUNKS message; the server checkpoints after each one.
SHIP_BATCH = 4
COUNT_SQL = "SELECT COUNT(*) FROM t"
#: What the mid-load reader polls, in order, in a closed loop.
SNAPSHOT_SQL = (
    COUNT_SQL,
    "SELECT level, COUNT(*) FROM t GROUP BY level",
    "SELECT COUNT(*) FROM t WHERE component = 'CBS'",
    "SELECT MAX(event_id) FROM t",
)
FINAL_COVERED = 6
FINAL_UNCOVERED = 8
#: Loads after which the final-query rotation starts over.
ROTATION = 10


class _OpeningSource(DataSource):
    """The writer's records; flags the moment the client first pulls one.

    :meth:`RemoteSession.load` opens the ingest stream before it pulls
    any record, so the first pull means the server's load is open.
    """

    def __init__(self, lines: List[str], opened: threading.Event):
        self._lines = lines
        self._opened = opened

    def records(self) -> Iterator[str]:
        self._opened.set()
        yield from self._lines


@dataclass
class Deployment:
    seed: int
    workdir: Path
    lines: List[str]
    server: ServerProcess
    covered: List[QuerySpec]
    uncovered: List[QuerySpec]
    expected: Dict[str, bytes] = field(default_factory=dict)

    @property
    def address(self):
        return self.server.address

    def final(self, iteration: int) -> List[QuerySpec]:
        """The final queries after load *iteration*.

        Covered queries rotate through a seeded sample of workload A so a
        run's composition barely depends on the seed; uncovered
        templates are taken in turn.
        """
        chosen = []
        for pool, n in ((self.covered, FINAL_COVERED),
                        (self.uncovered, FINAL_UNCOVERED)):
            chosen += [pool[(iteration * n + k) % len(pool)]
                       for k in range(n)]
        return chosen

    def all_sql(self) -> List[str]:
        specs = self.covered + self.uncovered
        return [spec.sql for spec in specs] + list(SNAPSHOT_SQL)

    def flush_policy(self) -> Dict[str, object]:
        return {"durable": True,
                "checkpoint": f"after every CHUNKS batch "
                              f"({SHIP_BATCH} chunks of {CHUNK_SIZE})",
                "channel": "tcp", "server": "separate process",
                "shards": "2 threads"}

    def data_sizes(self) -> Dict[str, int]:
        records, raw = sizes(self.lines)
        return {"records": records, "raw_bytes": raw,
                "records_sidelined": 0}

    def load_dir(self, iteration: int) -> Path:
        return self.server.data_dir / f"load-{iteration}"

    def close(self) -> None:
        self.server.stop()


def setup(seed: int, workdir: Path, scale: float = 1.0,
          inst=None) -> Deployment:
    """Generate, plan at budget 0, and start the server process."""
    n = max(4 * CHUNK_SIZE, int(N_RECORDS * scale))
    lines = raw_lines("winlog", seed, n)
    workload = prospective_workload("winlog")
    plan = plan_for("winlog", 0.0, workdir / "plan", scale)
    server = ServerProcess("durable", "winlog", workdir, plan, seed,
                           CHUNK_SIZE, inst is not None)
    rng = rng_for(seed, "winlog:final")
    covered = [QuerySpec(q.sql("t"), "covered") for q in workload.queries]
    rng.shuffle(covered)
    covered = covered[:ROTATION * FINAL_COVERED]
    uncovered = [QuerySpec(winlog_uncovered(rng, kind), "uncovered")
                 for kind in range(ROTATION * FINAL_UNCOVERED)]
    return Deployment(seed, workdir, lines, server, covered, uncovered)


def _reader(address, opened: threading.Event, stop: threading.Event,
            samples: Samples, checks: Checks, counts: List[int],
            offered: int, errors: List, inst) -> None:
    if not opened.wait(timeout=120.0):
        errors.append(BenchmarkError("the writer never opened its load"))
        return
    try:
        with RemoteSession(
            address, client_id="reader",
            tracer=inst.tracer if inst is not None else None,
            metrics=inst.metrics if inst is not None else None,
        ) as remote:
            # At least one full round per load, even a load so short
            # that it commits before this reader has connected.
            while True:
                for sql in SNAPSHOT_SQL:
                    began = time.perf_counter()
                    try:
                        result = remote.snapshot_query(sql)
                    except RemoteError as exc:
                        checks.record(False, f"snapshot {sql!r}: {exc}")
                        continue
                    samples.latency("snapshot", time.perf_counter() - began)
                    samples.count_queries(1)
                    if sql == COUNT_SQL:
                        count = result.scalar()
                        counts.append(count)
                        checks.record(
                            0 <= count <= offered,
                            f"mid-load COUNT(*) {count} of {offered}")
                    else:
                        checks.record(True)
                if stop.is_set():
                    break
    except Exception as exc:  # surfaced by measure() as a benchmark error
        errors.append(exc)


def measure(dep: Deployment, seconds: float, samples: Samples,
            checks: Checks, tamper=None, inst=None) -> int:
    """Durable loads with a concurrent snapshot reader, until time is up.

    A calibration burst runs, here and in the server process, before
    each load and before its final queries, while neither works.
    """
    offered, raw = sizes(dep.lines)
    deadline = time.perf_counter() + seconds
    iteration = 0
    with RemoteSession(
        dep.address, client_id="writer", chunk_size=CHUNK_SIZE,
        tracer=inst.tracer if inst is not None else None,
        metrics=inst.metrics if inst is not None else None,
    ) as writer:
        while iteration == 0 or time.perf_counter() < deadline:
            opened, stop = threading.Event(), threading.Event()
            counts: List[int] = []
            errors: List[Exception] = []
            reader = threading.Thread(target=_reader, args=(
                dep.address, opened, stop, samples, checks, counts,
                offered, errors, inst))
            samples.calibrate(dep.server)
            reader.start()
            try:
                start = time.perf_counter()
                writer.load(_OpeningSource(dep.lines, opened),
                            source_id=f"load-{iteration}",
                            batch_size=SHIP_BATCH)
                report = writer.commit()
                committed = time.perf_counter()
            finally:
                opened.set()
                stop.set()
                reader.join(timeout=120.0)
            joined = time.perf_counter()
            if reader.is_alive():
                raise BenchmarkError("the snapshot reader did not stop")
            if errors:
                raise BenchmarkError(f"snapshot reader failed: {errors[0]!r}")
            samples.calibrate(dep.server)
            answers = []
            final = dep.final(iteration)
            finals = time.perf_counter()
            for spec in final:
                began = time.perf_counter()
                try:
                    answers.append((spec.sql, writer.query(spec.sql)))
                except RemoteError as exc:
                    checks.record(False, f"final {spec.sql!r}: {exc}")
                    continue
                samples.latency(spec.cls, time.perf_counter() - began)
            done = time.perf_counter()
            samples.load(int(report.get("loaded", 0)), committed - start)
            samples.end_to_end(committed - start + done - finals,
                               at=(start + done) / 2)
            samples.count_queries(len(final))
            samples.query_time(joined - start)
            samples.query_time(done - finals)
            stored = dir_bytes(dep.load_dir(iteration))
            samples.storage(stored, raw)
            if inst is not None:
                inst.note_load(int(report.get("received", 0)),
                               int(report.get("loaded", 0)), stored)
            _check_load(dep, iteration, report, counts, offered, checks)
            for sql, result in answers:
                got = answer_bytes(sql, result)
                if tamper is not None:
                    got = tamper(sql, got)
                checks.record(got == dep.expected[sql],
                              f"final answer to {sql!r} differs from oracle")
            iteration += 1
    return iteration


def peak_rss_kb(dep: Deployment) -> int:
    """The server process's peak: it ingests, stores and answers."""
    return dep.server.peak_rss_kb


def _check_load(dep: Deployment, iteration: int, report: dict,
                counts: List[int], offered: int, checks: Checks) -> None:
    """Accounting, ledger, and mid-load monotonicity for one load."""
    received = int(report.get("received", -1))
    checks.record(
        received == offered and received == int(report.get("loaded", 0))
        + int(report.get("sidelined", 0)) + int(report.get("malformed", 0)),
        f"load {iteration}: received {received} of {offered} offered, "
        f"report {report}")
    checks.record(
        all(a <= b for a, b in zip(counts, counts[1:])),
        f"load {iteration}: mid-load COUNT(*) went backwards: {counts}")
    chunks = -(-offered // CHUNK_SIZE)
    batches = -(-chunks // SHIP_BATCH)
    _, doc = Manifest.load(Manifest.path_for(dep.load_dir(iteration), "t"))
    streams = [r for r in doc.get("ledger", [])
               if r[:2] == ["writer", f"load-{iteration}"]]
    checks.record(
        doc.get("state") == "finalized"
        and len(streams) == 1 and int(streams[0][2]) == batches
        and int(doc["summary"]["received"]) == offered,
        f"load {iteration}: manifest ledger {doc.get('ledger')} / summary "
        f"{doc.get('summary')} do not show {batches} batches applied once")
