"""``yelp_adhoc_remote``: ad-hoc queries over TCP, no ingest.

Set-up generates the Yelp records, optimizes the budget-20 plan for
workload A, and starts the server in a process of its own
(:mod:`e2ebench.server_proc`), which loads the table (a third to a half
of the records end up in the raw sideline) and serves it; the table
load is part of ``setup_s``.  Two closed-loop
:class:`repro.service.RemoteSession` clients then walk seeded, fixed
query sequences: uncovered ad-hoc queries (bare ``COUNT(*)``, a range
and a vocabulary ``LIKE`` on unpushed columns, ``GROUP BY stars``,
``AVG``) interleaved with covered workload-A queries, each ad-hoc query
followed by four covered queries sent through ``snapshot_query`` and
four sent through ``query``, in turn (:data:`STEP_PATTERN`).

There are no think times.  Each client sends its next query as soon as
its last answer arrives and the other client has its answer too, so
the two always ask queries of the same class, and of the same ad-hoc
template, at the same time.  The seeded order alone sets which query
overlaps which: two clients left to drift would lock into a phase where
covered queries either always or never wait behind ad-hoc ones, and
that phase flips with small changes in query time.

A round asks every ad-hoc template once, in a seeded order, each
followed by its eight covered queries; ``end_to_end_s`` is a round's
wall time, less the calibration bursts run between its steps.
``load_records_per_s`` comes from the set-up loads plus timed loads of
the same records in this process between query windows (no query runs
while they load, and no load runs while queries do).
After the timed phase, remote answers must be byte-identical to those
of an in-process session over the same records and plan.

Heavy: sideline parse, Parquet decode, aggregation, result encoding, the
wire and admission.  Light: server ingest (only the reloads) and the
snapshot cache (bypassed: the table is finalized).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set

from repro.api import CiaoSession, DeploymentConfig, LineSource
from repro.service import RemoteError, RemoteSession, canonical_result_bytes

from .common import BenchmarkError, Checks, Samples, dir_bytes
from .inputs import (
    YELP_UNCOVERED_KINDS,
    QuerySpec,
    answer_bytes,
    plan_for,
    prospective_workload,
    raw_lines,
    rng_for,
    sizes,
    yelp_uncovered,
)
from .server_proc import ServerProcess
from .yelp_load import BUDGET_US, CHUNK_SIZE, N_RECORDS

N_CLIENTS = 2
#: Each ad-hoc query is followed by covered-template queries, sent in
#: turn through ``snapshot_query`` and ``query``.  A query right after
#: an ad-hoc one runs slower than one after a covered one; a fixed
#: pattern keeps each class's mix of the two fixed, so its median and
#: tail do not move with the seed, and four of each per ad-hoc query
#: give those cheap classes four times the samples at ~2% more time.
STEP_PATTERN = ("uncovered",) + ("snapshot", "covered") * 4
ROUND_QUERIES = YELP_UNCOVERED_KINDS * len(STEP_PATTERN)
#: Rounds in a client's sequence before it starts over.
MIX_ROUNDS = 40
#: The timed phase runs the clients in this many windows, each after
#: RELOADS_PER_WINDOW timed loads of the table (no query runs
#: meanwhile), so load samples are many and spread over the run like the
#: query samples.
WINDOWS = 2
RELOADS_PER_WINDOW = 3
#: Steps between two calibration bursts: one per ad-hoc template and
#: its two covered queries.
CALIBRATE_STEPS = len(STEP_PATTERN)
#: How long a client waits for the other at a step before giving up.
STEP_TIMEOUT = 120.0
#: Executed queries per class re-run in process to compare answers.
VERIFY_PER_CLASS = 3


@dataclass(frozen=True)
class Step:
    spec: QuerySpec
    snapshot: bool


@dataclass
class Deployment:
    seed: int
    workdir: Path
    lines: List[str]
    plan: object
    server: ServerProcess
    mixes: List[List[Step]]
    expected: Dict[str, bytes] = field(default_factory=dict)
    executed: Set[QuerySpec] = field(default_factory=set)
    #: Where the clients are in their sequences, across windows.
    position: int = 0

    @property
    def setup_load(self):
        records, seconds = self.server.hello["setup_load"]
        return int(records), float(seconds)

    def all_sql(self) -> List[str]:
        return sorted({step.spec.sql for mix in self.mixes for step in mix})

    def flush_policy(self) -> Dict[str, object]:
        return {"durable": False, "checkpoint": "none",
                "channel": "tcp", "server": "separate process",
                "chunk_size": CHUNK_SIZE}

    def data_sizes(self) -> Dict[str, int]:
        records, raw = sizes(self.lines)
        return {"records": records, "raw_bytes": raw,
                "records_sidelined": int(self.server.hello["sidelined"])}

    def close(self) -> None:
        self.server.stop()


def query_mixes(workload, seed: int) -> List[List[Step]]:
    """Each client's sequence; step *k* has the same class in all of them.

    The template order of each round is drawn once and shared, so both
    clients ask the same ad-hoc template at the same step, each with its
    own parameters; covered queries walk each client's own seeded order
    of workload A.
    """
    order = rng_for(seed, "adhoc:order")
    rounds = []
    for _ in range(MIX_ROUNDS):
        kinds = list(range(YELP_UNCOVERED_KINDS))
        order.shuffle(kinds)
        rounds.append(kinds)
    covered = [q.sql("t") for q in workload.queries]
    mixes = []
    for client in range(N_CLIENTS):
        params = rng_for(seed, f"adhoc:params{client}")
        pool = list(covered)
        rng_for(seed, f"adhoc:covered{client}").shuffle(pool)
        mix: List[Step] = []
        for kinds in rounds:
            for kind in kinds:
                for cls in STEP_PATTERN:
                    if cls == "uncovered":
                        spec = QuerySpec(yelp_uncovered(params, kind), cls)
                    else:
                        spec = QuerySpec(pool[len(mix) % len(pool)],
                                         "covered")
                    mix.append(Step(spec, cls == "snapshot"))
        mixes.append(mix)
    return mixes


def setup(seed: int, workdir: Path, scale: float = 1.0,
          inst=None) -> Deployment:
    """Generate, plan, and start a server that loads and serves the table."""
    n = max(40, int(N_RECORDS * scale))
    lines = raw_lines("yelp", seed, n)
    plan = plan_for("yelp", BUDGET_US, workdir / "plan", scale)
    server = ServerProcess("served", "yelp", workdir, plan, seed,
                           CHUNK_SIZE, inst is not None, lines=lines)
    mixes = query_mixes(prospective_workload("yelp"), seed)
    return Deployment(seed, workdir, lines, plan, server, mixes)


class _Window:
    """What the two clients of one query window share.

    Between steps, once both clients hold their answers and neither
    server nor clients work, a calibration burst runs every
    :data:`CALIBRATE_STEPS` steps, here and in the server process; its
    time is left out of the round and query-phase times.
    """

    def __init__(self, dep: Deployment, deadline: float, samples: Samples):
        self.dep = dep
        self.deadline = deadline
        self.samples = samples
        self.stop = False
        self.steps = 0
        self.errors: List[Exception] = []
        self._resumed = self._round_start = 0.0
        self._round_s = 0.0
        self.barrier = threading.Barrier(N_CLIENTS, action=self._step)

    def _step(self) -> None:
        """Runs once per step, when both clients hold their answers."""
        now = time.perf_counter()
        if self.steps > 0:
            self._round_s += now - self._resumed
            self.samples.query_time(now - self._resumed)
        else:
            self._round_start = now
        if self.steps > 0 and self.steps % ROUND_QUERIES == 0:
            self.samples.end_to_end(
                self._round_s, at=(self._round_start + now) / 2)
            self._round_s = 0.0
            self._round_start = now
            self.stop = now >= self.deadline
        if self.steps % CALIBRATE_STEPS == 0 and not self.stop:
            self.samples.calibrate(self.dep.server)
        self.steps += 1
        self._resumed = time.perf_counter()


def _client(window: _Window, index: int, samples: Samples, checks: Checks,
            tamper, inst) -> None:
    """One closed-loop client: next query only after both last answers."""
    dep = window.dep
    mix = dep.mixes[index]
    position = dep.position
    try:
        with RemoteSession(
            dep.server.address, client_id=f"adhoc-{index}",
            tracer=inst.tracer if inst is not None else None,
            metrics=inst.metrics if inst is not None else None,
        ) as remote:
            while True:
                window.barrier.wait(STEP_TIMEOUT)
                if window.stop:
                    return
                step = mix[position % len(mix)]
                position += 1
                sql = step.spec.sql
                began = time.perf_counter()
                try:
                    if step.snapshot:
                        result = remote.snapshot_query(sql)
                    else:
                        result = remote.query(sql)
                except RemoteError as exc:
                    checks.record(False, f"{sql!r} failed: {exc}")
                    continue
                samples.latency("snapshot" if step.snapshot
                                else step.spec.cls,
                                time.perf_counter() - began)
                got = answer_bytes(sql, result)
                if tamper is not None:
                    got = tamper(sql, got)
                checks.record(got == dep.expected[sql],
                              f"wrong answer to {sql!r}")
                dep.executed.add(step.spec)
    except threading.BrokenBarrierError:
        pass  # the other client failed; its error is the one reported
    except Exception as exc:  # surfaced by measure() as a benchmark error
        window.errors.append(exc)
        window.barrier.abort()


def _local_session(dep: Deployment, data_dir: Path,
                   inst=None) -> CiaoSession:
    obs = {} if inst is None else {"tracer": inst.tracer,
                                   "metrics": inst.metrics}
    return CiaoSession(
        prospective_workload("yelp"),
        source=LineSource(dep.lines, name="yelp"),
        config=DeploymentConfig(chunk_size=CHUNK_SIZE),
        data_dir=data_dir, seed=dep.seed, plan=dep.plan, **obs,
    )


def _reload(dep: Deployment, samples: Samples, window: int, inst) -> None:
    """Load the table into throwaway in-process sessions, timed."""
    for k in range(window * RELOADS_PER_WINDOW,
                   (window + 1) * RELOADS_PER_WINDOW):
        data_dir = dep.workdir / f"reload-{k}"
        session = _local_session(dep, data_dir, inst)
        try:
            samples.calibrate(dep.server)
            start = time.perf_counter()
            report = session.load().result()
            samples.load(report.received, time.perf_counter() - start)
        finally:
            session.close()
        if inst is not None:
            inst.note_load(report.received, report.loaded,
                           dir_bytes(data_dir))
    samples.calibrate(dep.server)


def _query_window(dep: Deployment, deadline: float, samples: Samples,
                  checks: Checks, tamper, inst) -> None:
    """Run both clients, whole rounds only, until *deadline*."""
    window = _Window(dep, deadline, samples)
    threads = [
        threading.Thread(target=_client, args=(
            window, i, samples, checks, tamper, inst))
        for i in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=175.0)
    if any(thread.is_alive() for thread in threads):
        window.barrier.abort()
        raise BenchmarkError("a query client did not finish")
    if window.errors:
        raise BenchmarkError(f"query client failed: {window.errors[0]!r}")
    asked = window.steps - 1  # the last step only released the clients
    dep.position += asked
    samples.count_queries(N_CLIENTS * asked)


def measure(dep: Deployment, seconds: float, samples: Samples,
            checks: Checks, tamper=None, inst=None) -> int:
    """Query windows, each after timed reloads."""
    _, raw = sizes(dep.lines)
    samples.storage(dir_bytes(Path(dep.server.hello["table_dir"])), raw)
    start = time.perf_counter()
    for window in range(WINDOWS):
        _reload(dep, samples, window, inst)
        _query_window(dep, start + seconds * (window + 1) / WINDOWS,
                      samples, checks, tamper, inst)
    return WINDOWS * RELOADS_PER_WINDOW


def peak_rss_kb(dep: Deployment) -> int:
    """The server process's peak: it loads, holds and serves the table."""
    return dep.server.peak_rss_kb


def verify(dep: Deployment, checks: Checks) -> None:
    """Remote answers must be byte-identical to in-process answers.

    Run after the timed phase on the first :data:`VERIFY_PER_CLASS`
    executed queries of each class (in sorted order), against an
    in-process session over the same records and plan.
    """
    chosen = []
    for cls in ("covered", "uncovered"):
        chosen += sorted(s.sql for s in dep.executed
                         if s.cls == cls)[:VERIFY_PER_CLASS]
    local = _local_session(dep, dep.workdir / "in-process")
    try:
        local.load().result()
        with RemoteSession(dep.server.address,
                           client_id="verify") as remote:
            for sql in chosen:
                checks.record(
                    canonical_result_bytes(remote.query(sql))
                    == canonical_result_bytes(local.query(sql)),
                    f"remote answer differs from in-process for {sql!r}")
    finally:
        local.close()
