"""``yelp_load_A``: the paper's Fig 4 path, in process.

Set-up generates the Yelp records and optimizes a plan at a 20 µs/record
budget for Table III workload A.  Each measured iteration then runs a
serial client-assisted load over an in-memory channel into a fresh
server, one full pass of workload A's 200 queries (all covered by the
plan, so they take the row-group skipping path), then side probes:
ad-hoc queries the plan does not cover and ``snapshot_query`` calls
(which on a finished serial load answer like plain queries).

Heavy: client predicate evaluation, server parse, column writes, the
skipping scan.  Light: the sideline (probes only), the socket layer and
fsync (absent).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.api import CiaoSession, DeploymentConfig, LineSource

from . import footprint
from .common import Checks, Samples, dir_bytes
from .inputs import (
    answer_bytes,
    plan_for,
    prospective_workload,
    raw_lines,
    sizes,
)

N_RECORDS = 2000
CHUNK_SIZE = 250
BUDGET_US = 20.0
#: Side probes per iteration, after the timed load + workload-A pass.
UNCOVERED_PROBES = 2
SNAPSHOT_PROBES = 20
#: The uncovered probes: the bare ``COUNT(*)`` that must parse every
#: sidelined record, one fixed query so every seed probes the same work
#: (the full ad-hoc template mix is ``yelp_adhoc_remote``'s).
UNCOVERED_PROBE_SQL = ("SELECT COUNT(*) FROM t",)
#: Queries of the workload-A pass between two calibration bursts.
CALIBRATE_EVERY = 40


@dataclass
class Deployment:
    seed: int
    workdir: Path
    lines: List[str]
    workload: object
    plan: object
    obs: Dict[str, object] = field(default_factory=dict)
    expected: Dict[str, bytes] = field(default_factory=dict)
    probes: List[str] = field(default_factory=list)
    sidelined: int = 0

    def queries(self) -> List[str]:
        return [q.sql("t") for q in self.workload.queries]

    def all_sql(self) -> List[str]:
        return self.queries() + self.probes

    def flush_policy(self) -> Dict[str, object]:
        return {"durable": False, "checkpoint": "none",
                "channel": "memory", "chunk_size": CHUNK_SIZE}

    def data_sizes(self) -> Dict[str, int]:
        records, raw = sizes(self.lines)
        return {"records": records, "raw_bytes": raw,
                "records_sidelined": self.sidelined}

    def close(self) -> None:
        pass


def setup(seed: int, workdir: Path, scale: float = 1.0,
          inst=None) -> Deployment:
    """Data generation and the budget-20 plan (what ``setup_s`` times)."""
    n = max(40, int(N_RECORDS * scale))
    lines = raw_lines("yelp", seed, n)
    workload = prospective_workload("yelp")
    plan = plan_for("yelp", BUDGET_US, workdir / "plan", scale)
    obs = {} if inst is None else {
        "tracer": inst.tracer, "metrics": inst.metrics}
    return Deployment(seed, workdir, lines, workload, plan, obs,
                      probes=list(UNCOVERED_PROBE_SQL))


def peak_rss_kb(dep: Deployment) -> int:
    """Peak RSS of one load + workload-A pass in a fresh process."""
    return footprint.peak_rss_kb(dep.lines, dep.plan,
                                 dep.workdir / "footprint", dep.seed,
                                 CHUNK_SIZE)


def measure(dep: Deployment, seconds: float, samples: Samples,
            checks: Checks, tamper=None, inst=None) -> int:
    """Load + workload-A pass per iteration until *seconds* elapse.

    A calibration burst runs before each load, after it, and after
    every :data:`CALIBRATE_EVERY` queries, outside every timed interval.
    """
    queries = dep.queries()
    _, raw = sizes(dep.lines)
    deadline = time.perf_counter() + seconds
    iteration = 0
    while iteration == 0 or time.perf_counter() < deadline:
        session = CiaoSession(
            dep.workload, source=LineSource(dep.lines, name="yelp"),
            config=DeploymentConfig(chunk_size=CHUNK_SIZE),
            data_dir=dep.workdir / f"run{iteration}", seed=dep.seed,
            plan=dep.plan, **dep.obs,
        )
        try:
            samples.calibrate()
            start = time.perf_counter()
            report = session.load().result()
            loaded = time.perf_counter()
            samples.calibrate()
            resumed = time.perf_counter()
            answers = []
            pass_s = 0.0
            for k, sql in enumerate(queries, 1):
                began = time.perf_counter()
                result = session.query(sql)
                samples.latency("covered", time.perf_counter() - began)
                answers.append((sql, result))
                if k % CALIBRATE_EVERY == 0 or k == len(queries):
                    now = time.perf_counter()
                    pass_s += now - resumed
                    samples.query_time(now - resumed)
                    samples.calibrate()
                    resumed = time.perf_counter()
            for k in range(UNCOVERED_PROBES):
                probe = dep.probes[(iteration * UNCOVERED_PROBES + k)
                                   % len(dep.probes)]
                began = time.perf_counter()
                answers.append((probe, session.query(probe)))
                samples.latency("uncovered", time.perf_counter() - began)
            for k in range(SNAPSHOT_PROBES):
                snap_sql = queries[(iteration * SNAPSHOT_PROBES + k)
                                   % len(queries)]
                began = time.perf_counter()
                answers.append((snap_sql, session.snapshot_query(snap_sql)))
                samples.latency("snapshot", time.perf_counter() - began)

            samples.load(report.received, loaded - start)
            samples.end_to_end(loaded - start + pass_s,
                               at=start + (loaded - start + pass_s) / 2)
            samples.count_queries(len(queries))
            stored = dir_bytes(session.server.data_dir)
            samples.storage(stored, raw)
            if inst is not None:
                inst.note_load(report.received, report.loaded, stored)
            dep.sidelined = report.sidelined
            checks.record(
                report.received == len(dep.lines)
                and report.received == report.loaded + report.sidelined
                + report.malformed,
                f"load accounting off: {report.received} received of "
                f"{len(dep.lines)} offered")
            for sql, result in answers:
                got = answer_bytes(sql, result)
                if tamper is not None:
                    got = tamper(sql, got)
                checks.record(got == dep.expected[sql],
                              f"wrong answer to {sql!r}")
        finally:
            session.close()
        iteration += 1
    return iteration
