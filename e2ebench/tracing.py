"""The traced run: spans and counts recorded around each module's entry points.

Nothing under ``src/`` is edited.  :class:`Instrumentation` wraps the
public calls *into* each module — client predicate evaluation and chunk
encoding, server chunk decode / ingest / parse / seal / finalize /
snapshot, storage row-group writes, sideline appends and page decodes,
engine execution and sideline parsing, service result encoding, and
checkpoints, manifest writes and fsyncs — and restores the originals on
:meth:`Instrumentation.uninstall`.

Two kinds of record are kept, both in memory until the run ends:

* **spans** (name, start, end, parent, trace id) through the program's
  own :class:`repro.obs.Tracer`, around calls made once per chunk,
  chunk batch, query or checkpoint.  Because the session and remote
  clients are handed the same tracer, a remote query's server-side
  spans come back over the wire under the client's trace id; a chunk
  batch's synchronous server path shares one trace id too;
* **timers** (call count and total seconds) around calls made once per
  record or page — raw-JSON parses, sideline parses, page decodes,
  fsyncs — where a span per call would cost more than the call.  Each
  timer's time is also charged to the span it ran under, so a span's
  self time excludes it.

Counts the program already keeps — queries, rows examined and emitted,
row groups scanned and skipped, snapshot-cache hits and misses, parts
sealed, checkpoints, busy replies, socket bytes — are read from its own
:class:`repro.obs.Metrics` registry, which every traced session and
remote client is handed and :meth:`Instrumentation.export` ships as
``metric:<name>``.  The wrappers count only what has no instrument
there.

:func:`layer_report` folds all of it into per-module self time, counts,
and the named per-layer metrics (see :data:`PER_LAYER`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.api.session import CiaoSession
from repro.client import protocol
from repro.client.evaluator import ClientEvaluator
from repro.core.optimizer import CiaoOptimizer
from repro.engine.executor import Executor
from repro.engine.operators import SidelineScan
from repro.obs import Metrics, Tracer
from repro.recovery.manifest import Manifest
from repro.server import loader as server_loader
from repro.server.ciao import CiaoServer, IngestSession
from repro.server.loader import ClientAssistedLoader
from repro.server.pipeline import ShardedIngestPipeline
from repro.service import service as service_mod
from repro.storage import jsonstore
from repro.storage.columnar import ParquetLiteWriter
from repro.storage.jsonstore import JsonSideStore
from repro.storage.rowgroup import RowGroupReader

#: Modules the per-module table reports, in order.
MODULES = ("core", "client", "server", "storage", "engine", "service",
           "recovery")

#: Span/timer name prefix -> reporting module.
_PREFIX_MODULE = {
    "core": "core", "client": "client", "server": "server",
    "storage": "storage", "engine": "engine", "service": "service",
    "remote": "service", "recovery": "recovery",
}

#: The per-layer metrics: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "core.plan_s": ("s", "lower"),
    "core.pushed_predicates": ("count", "higher"),
    "client.eval_us_per_record": ("us", "lower"),
    "client.encode_us_per_chunk": ("us", "lower"),
    "client.wire_bytes_per_record": ("bytes", "lower"),
    "server.ingest_us_per_record": ("us", "lower"),
    "server.decode_us_per_chunk": ("us", "lower"),
    "server.parse_us_per_record": ("us", "lower"),
    "server.records_parsed": ("count", "lower"),
    "server.loading_ratio": ("ratio", "lower"),
    "server.finalize_ms": ("ms", "lower"),
    "server.seals": ("count", "lower"),
    "server.snapshot_ms": ("ms", "lower"),
    "storage.write_us_per_row": ("us", "lower"),
    "storage.sideline_append_us_per_record": ("us", "lower"),
    "storage.bytes_written": ("bytes", "lower"),
    "storage.parquet_decode_ms_per_query": ("ms", "lower"),
    "engine.execute_ms_per_query": ("ms", "lower"),
    "engine.row_groups_skipped_frac": ("ratio", "higher"),
    "engine.rows_examined_per_row_returned": ("ratio", "lower"),
    "engine.sideline_records_parsed_per_query": ("count", "lower"),
    "engine.sideline_parse_ms_per_query": ("ms", "lower"),
    "engine.sideline_useful_frac": ("ratio", "higher"),
    "engine.snapcache_hit_ratio": ("ratio", "higher"),
    "service.wait_ms_per_query": ("ms", "lower"),
    "service.result_bytes_per_query": ("bytes", "lower"),
    "service.busy_replies": ("count", "lower"),
    "service.peak_queued": ("count", "lower"),
    "transport.bytes_sent": ("bytes", "lower"),
    "recovery.checkpoint_ms": ("ms", "lower"),
    "recovery.checkpoints": ("count", "lower"),
    "recovery.fsyncs": ("count", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "trace.overhead_end_to_end_frac": ("ratio", "lower"),
    "trace.overhead_load_frac": ("ratio", "lower"),
}


def module_of(name: str) -> str:
    return _PREFIX_MODULE.get(name.split(".", 1)[0], "other")


class Instrumentation:
    """Installs the boundary wrappers and accumulates what they see.

    One instance per process; the benchmark process and the separate
    server process of a remote workload each install their own and the
    server ships its records back with :meth:`export`.
    """

    def __init__(self, name: str):
        self.tracer = Tracer(name)
        self.metrics = Metrics()
        self._lock = threading.Lock()
        self.timers: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.inner: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Accumulators
    # ------------------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def note_load(self, received: int, loaded: int,
                  stored: int = 0) -> None:
        """One finished load, as its load report and data directory show.

        Records received and loaded come from the report rather than the
        loader's counters: the shard loaders of a sharded deployment are
        built without the registry.
        """
        self.add("server.received", received)
        self.add("server.loaded", loaded)
        self.add("storage.bytes_written", stored)

    def _charge(self, name: str, seconds: float, calls: int = 1) -> None:
        current = self.tracer.current()
        with self._lock:
            entry = self.timers[name]
            entry[0] += calls
            entry[1] += seconds
            if current is not None:
                self.inner[current.span_id] += seconds

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _span(self, name: str, fn: Callable,
              after: Optional[Callable] = None,
              when: Optional[Callable] = None) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            with tracer.trace(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _timer(self, name: str, fn: Callable) -> Callable:
        charge = self._charge
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                charge(name, clock() - start)
        return wrapper

    def _gen_timer(self, name: str, fn: Callable) -> Callable:
        """Time each step of a generator; one call per item yielded."""
        charge = self._charge
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        charge(name, clock() - start, calls=0)
                        return
                    charge(name, clock() - start)
                    yield item
            finally:
                inner.close()
        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Replace *original* in every ``repro`` module that imported it."""
        name = original.__name__
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "") or ""
            if not mod_name.startswith("repro"):
                continue
            if module.__dict__.get(name) is original:
                self._set(module, name, wrapper)

    def install(self) -> None:
        """Wrap every module boundary (idempotent per instance)."""
        if self._undo:
            return
        add = self.add

        # core ---------------------------------------------------------
        self._set(CiaoSession, "plan", self._span(
            "core.plan", CiaoSession.plan,
            after=lambda a, plan: add("core.pushed_predicates", len(plan))))
        self._set(CiaoOptimizer, "plan",
                  self._span("core.optimize", CiaoOptimizer.plan))

        # client -------------------------------------------------------
        self._set(ClientEvaluator, "annotate", self._span(
            "client.eval", ClientEvaluator.annotate,
            after=lambda a, r: add("client.records_evaluated", r.records)))

        def encoded(args, payload):
            add("client.chunks_encoded")
            add("client.records_encoded", len(args[0].records))
            add("client.bytes_encoded", len(payload))
        self._everywhere(protocol.encode_chunk, self._span(
            "client.encode", protocol.encode_chunk, after=encoded))

        # server -------------------------------------------------------
        self._everywhere(protocol.decode_chunk, self._span(
            "server.decode", protocol.decode_chunk,
            after=lambda a, c: add("server.chunks_decoded")))
        self._everywhere(protocol.decode_chunk_stream, self._gen_timer(
            "server.decode", protocol.decode_chunk_stream))

        self._set(ClientAssistedLoader, "ingest", self._span(
            "server.ingest", ClientAssistedLoader.ingest))
        self._set(server_loader, "try_parse",
                  self._timer("server.parse", server_loader.try_parse))
        self._set(ClientAssistedLoader, "seal_part", self._span(
            "server.seal", ClientAssistedLoader.seal_part))
        self._set(CiaoServer, "finalize_loading", self._span(
            "server.finalize", CiaoServer.finalize_loading,
            when=lambda server: server.state == "loading"))
        self._set(ShardedIngestPipeline, "snapshot", self._span(
            "server.snapshot", ShardedIngestPipeline.snapshot))
        self._set(CiaoServer, "ingest_channel", self._span(
            "server.ingest_batch", CiaoServer.ingest_channel))
        self._set(IngestSession, "ingest_sequenced", self._span(
            "service.chunks", IngestSession.ingest_sequenced))

        # storage ------------------------------------------------------
        self._set(ParquetLiteWriter, "write_row_group", self._span(
            "storage.write", ParquetLiteWriter.write_row_group,
            after=lambda a, r: add("storage.rows_written", len(a[1]))))
        self._set(JsonSideStore, "append_pairs", self._span(
            "storage.sideline_append", JsonSideStore.append_pairs,
            after=lambda a, n: add("storage.sideline_appended", n)))
        self._set(RowGroupReader, "read_batch", self._timer(
            "storage.parquet_decode", RowGroupReader.read_batch))

        # engine -------------------------------------------------------
        self._set(jsonstore, "try_parse",
                  self._timer("engine.sideline_parse", jsonstore.try_parse))
        self._set(Executor, "execute", self._execute_wrapper())
        local = self._local
        original_scan = SidelineScan.batches

        @functools.wraps(original_scan)
        def sideline_batches(scan, stats):
            seen = getattr(local, "sideline", None)
            for batch in original_scan(scan, stats):
                if seen is not None:
                    seen.append(batch)
                yield batch
        self._set(SidelineScan, "batches", sideline_batches)

        # service ------------------------------------------------------
        def encoded_result(args, payload):
            add("service.results")
            add("service.result_bytes", len(payload))
        self._set(service_mod, "result_to_payload", self._span(
            "service.encode_result", service_mod.result_to_payload,
            after=encoded_result))

        # recovery -----------------------------------------------------
        self._set(CiaoServer, "checkpoint", self._span(
            "recovery.checkpoint", CiaoServer.checkpoint))
        self._set(Manifest, "write",
                  self._span("recovery.manifest_write", Manifest.write))
        self._set(os, "fsync", self._timer("recovery.fsync", os.fsync))

    def _execute_wrapper(self) -> Callable:
        """Engine execution: span, sideline records parsed and useful.

        The executor's own counters cover the other per-query stats;
        these two have no instrument.  Sideline batches are row-backed
        and the residual filter narrows their selection vector in place,
        so the records of a query's sideline batches still selected when
        the query returns are the ones that passed its filter.
        """
        original = Executor.execute
        tracer = self.tracer
        local = self._local
        add = self.add

        @functools.wraps(original)
        def execute(executor, sql):
            saved = getattr(local, "sideline", None)
            local.sideline = batches = []
            try:
                with tracer.trace("engine.execute"):
                    result = original(executor, sql)
            finally:
                local.sideline = saved
            add("engine.sideline_parsed",
                result.stats.sideline_records_parsed)
            add("engine.sideline_useful",
                sum(batch.sel.count() for batch in batches))
            return result
        return execute

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Export / merge (a server process ships its records to the benchmark)
    # ------------------------------------------------------------------
    def export(self, extra_counts: Optional[Dict[str, float]] = None,
               only_prefix: str = "") -> Dict[str, Any]:
        """Everything recorded, JSON-ready (optionally one prefix only)."""
        counts = {k: v for k, v in self.counts.items()
                  if k.startswith(only_prefix)}
        if not only_prefix:
            snap = self.metrics.snapshot()
            for name, value in (snap.get("counters") or {}).items():
                counts[f"metric:{name}"] = value
        for name, value in (extra_counts or {}).items():
            counts[name] = counts.get(name, 0) + value
        spans = [s.to_dict() for s in self.tracer.spans()
                 if s.name.startswith(only_prefix)]
        kept = {s["span_id"] for s in spans}
        return {
            "spans": spans,
            "timers": {k: list(v) for k, v in self.timers.items()
                       if k.startswith(only_prefix)},
            "counts": counts,
            "inner": {k: v for k, v in self.inner.items() if k in kept},
        }


def merge(parts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine exported records from several processes."""
    merged: Dict[str, Any] = {"spans": [], "timers": {}, "counts": {},
                              "inner": {}}
    for part in parts:
        merged["spans"].extend(part["spans"])
        for name, (calls, seconds) in part["timers"].items():
            entry = merged["timers"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        for name, value in part["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + value
        for span_id, seconds in part["inner"].items():
            merged["inner"][span_id] = (
                merged["inner"].get(span_id, 0.0) + seconds)
    return merged


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_report(records: Dict[str, Any], loads: int
                 ) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """Per-layer metrics and the per-module table from merged records.

    *loads* is the number of loads the traced phase ran (finalize time
    is reported per load).
    """
    spans = records["spans"]
    timers = records["timers"]
    counts = records["counts"]
    inner = records["inner"]
    by_id = {s["span_id"]: s for s in spans}
    child_time: Dict[str, float] = defaultdict(float)
    for s in spans:
        parent = s.get("parent_id")
        if parent in by_id:
            child_time[parent] += max(0.0, s["end"] - s["start"])
    span_total: Dict[str, float] = defaultdict(float)
    span_calls: Dict[str, int] = defaultdict(int)
    module_self: Dict[str, float] = defaultdict(float)
    module_calls: Dict[str, int] = defaultdict(int)
    for s in spans:
        duration = max(0.0, s["end"] - s["start"])
        span_total[s["name"]] += duration
        span_calls[s["name"]] += 1
        own = duration - child_time[s["span_id"]] - inner.get(
            s["span_id"], 0.0)
        module = module_of(s["name"])
        module_self[module] += max(0.0, own)
        module_calls[module] += 1
    for name, (calls, seconds) in timers.items():
        module = module_of(name)
        module_self[module] += seconds
        module_calls[module] += int(calls)

    def timer(name: str) -> Tuple[float, float]:
        calls, seconds = timers.get(name, (0, 0.0))
        return float(calls), float(seconds)

    def count(name: str) -> float:
        return float(counts.get(name, 0.0))

    def metric(name: str) -> float:
        """A counter of the program's own ``repro.obs`` registry."""
        return count(f"metric:{name}")

    def mean_ms(name: str) -> float:
        return _ratio(span_total[name], span_calls[name], 1e3)

    # Remote wait: each remote query's latency minus the engine time
    # spent on it inside the server (same trace id).
    engine_by_trace: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s["name"] == "engine.execute":
            engine_by_trace[s["trace_id"]] += s["end"] - s["start"]
    remote = [s for s in spans if s["name"] == "remote.query"]
    wait = sum((s["end"] - s["start"]) - engine_by_trace[s["trace_id"]]
               for s in remote)

    queries = metric("engine.queries")
    parse_calls, parse_s = timer("server.parse")
    decode_calls, decode_s = timer("server.decode")
    chunks_decoded = count("server.chunks_decoded") + decode_calls
    _, page_s = timer("storage.parquet_decode")
    _, side_parse_s = timer("engine.sideline_parse")
    fsync_calls, _ = timer("recovery.fsync")
    hits, misses = metric("snapcache.hits"), metric("snapcache.misses")
    skipped = metric("scan.row_groups_skipped")
    metrics = {
        "core.plan_s": _ratio(span_total["core.plan"],
                              span_calls["core.plan"]),
        "core.pushed_predicates": _ratio(count("core.pushed_predicates"),
                                         span_calls["core.plan"]),
        "client.eval_us_per_record": _ratio(
            span_total["client.eval"], count("client.records_evaluated"),
            1e6),
        "client.encode_us_per_chunk": _ratio(
            span_total["client.encode"], count("client.chunks_encoded"),
            1e6),
        "client.wire_bytes_per_record": _ratio(
            count("client.bytes_encoded"), count("client.records_encoded")),
        "server.ingest_us_per_record": _ratio(
            span_total["server.ingest"], count("server.received"), 1e6),
        "server.decode_us_per_chunk": _ratio(
            span_total["server.decode"] + decode_s, chunks_decoded, 1e6),
        "server.parse_us_per_record": _ratio(parse_s, parse_calls, 1e6),
        "server.records_parsed": parse_calls,
        "server.loading_ratio": _ratio(count("server.loaded"),
                                       count("server.received")),
        "server.finalize_ms": _ratio(span_total["server.finalize"], loads,
                                     1e3),
        "server.seals": metric("loader.parts_sealed")
        + metric("pipeline.parts_sealed"),
        "server.snapshot_ms": mean_ms("server.snapshot"),
        "storage.write_us_per_row": _ratio(
            span_total["storage.write"], count("storage.rows_written"), 1e6),
        "storage.sideline_append_us_per_record": _ratio(
            span_total["storage.sideline_append"],
            count("storage.sideline_appended"), 1e6),
        "storage.bytes_written": count("storage.bytes_written"),
        "storage.parquet_decode_ms_per_query": _ratio(page_s, queries, 1e3),
        "engine.execute_ms_per_query": mean_ms("engine.execute"),
        "engine.row_groups_skipped_frac": _ratio(
            skipped, skipped + metric("scan.row_groups_scanned")),
        "engine.rows_examined_per_row_returned": _ratio(
            metric("engine.rows_examined"), metric("engine.rows_emitted")),
        "engine.sideline_records_parsed_per_query": _ratio(
            count("engine.sideline_parsed"), queries),
        "engine.sideline_parse_ms_per_query": _ratio(side_parse_s, queries,
                                                     1e3),
        "engine.sideline_useful_frac": _ratio(
            count("engine.sideline_useful"), count("engine.sideline_parsed")),
        "engine.snapcache_hit_ratio": _ratio(hits, hits + misses),
        "service.wait_ms_per_query": _ratio(wait, len(remote), 1e3),
        "service.result_bytes_per_query": _ratio(
            count("service.result_bytes"), count("service.results")),
        "service.busy_replies": metric("service.busy_replies"),
        "service.peak_queued": count("service.peak_queued"),
        "transport.bytes_sent": metric("socket.bytes_out"),
        "recovery.checkpoint_ms": mean_ms("recovery.checkpoint"),
        "recovery.checkpoints": metric("recovery.checkpoints"),
        "recovery.fsyncs": fsync_calls,
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module]
    table = [
        {"module": module, "self_s": module_self[module],
         "calls": module_calls[module]}
        for module in MODULES
    ]
    return metrics, table


def format_table(table: List[Dict[str, Any]],
                 metrics: Dict[str, float]) -> str:
    """The per-module table, with each module's named metrics under it."""
    total = sum(row["self_s"] for row in table) or 1.0
    lines = [f"{'module':<10} {'self_s':>10} {'share':>7} {'calls':>9}"]
    for row in table:
        lines.append(
            f"{row['module']:<10} {row['self_s']:>10.4f} "
            f"{row['self_s'] / total:>7.1%} {row['calls']:>9d}")
        prefixes = ("service.", "transport.") if row["module"] == "service" \
            else (row["module"] + ".",)
        for name, value in metrics.items():
            if name.startswith(prefixes) and not name.endswith(".self_s"):
                unit = PER_LAYER[name][0]
                lines.append(f"    {name:<44} {value:>14.4f} {unit}")
    for name, value in metrics.items():
        if name.startswith("trace."):
            lines.append(f"{name:<48} {value:>14.4f} ratio")
    return "\n".join(lines)


def write_spans(path: Path, spans: List[Dict[str, Any]]) -> None:
    """One JSON span record per line (name, start, end, parent, trace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for span in sorted(spans, key=lambda s: s["start"]):
            out.write(json.dumps(span, sort_keys=True) + "\n")
