"""The CIAO server facade: plan registration, ingestion, and querying.

Wires the whole server side together (Fig. 1, right):

* holds the pushdown plan (Fig. 2's predicate hashmap) and decides the
  partial-loading policy;
* ingests encoded chunks from a channel — or :class:`JsonChunk` objects
  directly — through its one ingest pipeline
  (:class:`~repro.server.pipeline.ShardedIngestPipeline`; a single shard
  runs inline on the submitting thread);
* registers the loaded table in a catalog and answers SQL through the mini
  engine, with bit-vector skipping planned automatically — even *while*
  loading, against a consistent loaded-so-far snapshot of the ingest
  stream.

Partial-loading policy (``partial_loading='auto'``): enabled iff the plan
covers every query of the prospective workload, i.e. each query has at
least one pushed-down clause.  Then no prospective query ever needs the
sideline (§VI-B), so sidelining records cannot hurt those queries.  With an
uncovered workload the server loads everything — the paper's workload-C
behaviour, where loading shows no win but skipping still helps covered
queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..analysis.annotations import guarded_by
from ..analysis.sanitizer import make_lock
from ..client.protocol import split_frames
from ..core.optimizer import PushdownPlan
from ..core.plan_io import dumps_plan, loads_plan
from ..core.predicates import Query, Workload
from ..engine.catalog import Catalog, TableEntry
from ..engine.executor import Executor, QueryResult
from ..obs.metrics import Metrics, resolve_metrics
from ..obs.querylog import QueryLog
from ..obs.tracing import Tracer
from ..rawjson.chunks import JsonChunk
from ..recovery.ledger import IngestLedger
from ..recovery.manifest import Manifest
from ..transport import Channel
from ..storage.columnar import ParquetLiteError, ParquetLiteReader
from ..storage.jsonstore import (
    CompositeSidelineView,
    JsonSideStore,
    SidelineView,
)
from ..storage.schema import Schema
from .loader import LoadSummary
from .pipeline import (
    DEFAULT_SEAL_INTERVAL,
    LoadSnapshot,
    ShardedIngestPipeline,
)

_SHARD_MODES = ("process", "thread")
_DISPATCH_MODES = ("work-stealing", "round-robin")
_PARTIAL_LOADING_MODES = ("auto", "on", "off")


def validate_server_options(
        shard_mode: str = "process",
        dispatch: str = "work-stealing",
        partial_loading: str = "auto",
        n_shards: int = 1,
        seal_interval: Optional[int] = DEFAULT_SEAL_INTERVAL,
        durable: bool = False) -> None:
    """The single validation path for server deployment knobs.

    Shared by :class:`ServerConfig` (at construction), the
    :class:`CiaoServer` constructor, and the deployment-level
    :class:`repro.api.DeploymentConfig`, so an invalid option produces
    the same error message no matter which layer it entered through —
    the two paths cannot drift apart.
    """
    if shard_mode not in _SHARD_MODES:
        raise ValueError(
            f"shard_mode must be one of {_SHARD_MODES}, "
            f"got {shard_mode!r}"
        )
    if dispatch not in _DISPATCH_MODES:
        raise ValueError(
            f"dispatch must be one of {_DISPATCH_MODES}, "
            f"got {dispatch!r}"
        )
    if partial_loading not in _PARTIAL_LOADING_MODES:
        raise ValueError(
            f"partial_loading must be 'auto', 'on' or 'off', "
            f"got {partial_loading!r}"
        )
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if durable and not seal_interval:
        raise ValueError(
            "durable=True needs a seal_interval: a mid-load checkpoint "
            "records sealed parts, and seal_interval=None never seals "
            "before finalize"
        )


@dataclass
class ServerConfig:
    """Construction options for :class:`CiaoServer`.

    Consume with :meth:`CiaoServer.from_config`, which forwards every
    field; the plan and prospective workload stay separate arguments
    because they are produced per session by the optimizer, not part of
    deployment configuration.  Options are validated at construction
    through the same :func:`validate_server_options` path the server
    itself uses.
    """

    data_dir: Path
    table_name: str = "t"
    partial_loading: str = "auto"  # 'auto' | 'on' | 'off'
    schema: Optional[Schema] = None
    n_shards: int = 1
    shard_mode: str = "process"  # 'process' | 'thread'
    dispatch: str = "work-stealing"  # 'work-stealing' | 'round-robin'
    seal_interval: Optional[int] = DEFAULT_SEAL_INTERVAL
    #: Maintain a crash-atomic manifest so the server can be rebuilt via
    #: :meth:`CiaoServer.recover` after a kill -9.
    durable: bool = False

    def __post_init__(self) -> None:
        validate_server_options(
            shard_mode=self.shard_mode,
            dispatch=self.dispatch,
            partial_loading=self.partial_loading,
            n_shards=self.n_shards,
            seal_interval=self.seal_interval,
            durable=self.durable,
        )


class IngestSession:
    """One data source's ingest stream into a loading server.

    Multi-source loads (fleets of clients) open one session per source via
    :meth:`CiaoServer.open_ingest_session`.  A session is a thin tagged
    facade over the server's ingest path: every chunk it forwards is
    accounted to its ``source_id`` (and tagged through to the ingest
    pipeline's per-source counters), so reports can
    attribute server-side load to individual clients.  Sessions close
    individually (:meth:`close`, or as a context manager); the server
    closes any still-open sessions at ``finalize_loading``.
    """

    def __init__(self, server: "CiaoServer", source_id: str):
        self._server = server
        self.source_id = source_id
        self.chunks = 0
        self.bytes = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once the session no longer accepts chunks."""
        return self._closed

    def ingest(self, chunk: Union[JsonChunk, bytes]) -> int:
        """Ingest one chunk or encoded message; returns frames ingested.

        Encoded payloads may carry several batched frames; each counts
        separately, exactly like :meth:`CiaoServer.ingest`.
        """
        if self._closed:
            raise RuntimeError(
                f"ingest session {self.source_id!r} is closed"
            )
        self._server._check_loading("ingest")
        frames = self._server._ingest_any(chunk, source=self.source_id)
        self.chunks += frames
        if isinstance(chunk, (bytes, bytearray, memoryview)):
            self.bytes += len(chunk)
        return frames

    def ingest_sequenced(self, chunk: bytes, *, seq: int,
                         client_id: str) -> Tuple[int, bool]:
        """Ingest one sequenced batch; returns ``(frames, duplicate)``.

        The exactly-once path for retrying clients: *seq* is the
        client's monotonic batch number for this ``(client_id,
        source_id)`` stream, deduped by the server's ingest ledger.  A
        duplicate batch (already applied — the client's ack was lost)
        returns ``(0, True)`` without touching storage.  Only encoded
        payloads travel this path; it is what CHUNKS messages carry.
        """
        if self._closed:
            raise RuntimeError(
                f"ingest session {self.source_id!r} is closed"
            )
        if not isinstance(chunk, (bytes, bytearray, memoryview)):
            raise TypeError("sequenced ingest carries encoded payloads")
        self._server._check_loading("ingest")
        frames, duplicate = self._server._ingest_sequenced(
            chunk, source=self.source_id, client_id=client_id, seq=seq
        )
        if not duplicate:
            self.chunks += frames
            self.bytes += len(chunk)
        return frames, duplicate

    def reopen(self) -> None:
        """Accept chunks again (a reconnecting client resumed the stream)."""
        self._closed = False

    def drain_channel(self, channel: Channel) -> int:
        """Drain a channel through this session; returns messages drained."""
        count = 0
        for payload in channel.drain():
            self.ingest(payload)
            count += 1
        return count

    def close(self) -> None:
        """Stop accepting chunks on this session (idempotent)."""
        self._closed = True

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CiaoServer:
    """One CIAO server instance managing one table.

    Ingestion always runs through one
    :class:`~repro.server.pipeline.ShardedIngestPipeline`.  With
    ``n_shards=1`` (serial) its single shard loads each chunk inline on
    the submitting thread; with ``n_shards > 1`` encoded chunks are fanned
    across shard workers (decode + parse + write each, pulled from a
    shared work-stealing deque by default) and the shard outputs are
    merged into the catalog at :meth:`finalize_loading`.  Query results
    are identical either way.

    Lifecycle: a server starts in state ``"loading"`` and moves to
    ``"finalized"`` only at :meth:`finalize_loading`; ingesting into a
    finalized server raises ``RuntimeError`` (its storage is sealed — a
    new server/session is needed to load more data).  Every server with a
    ``seal_interval`` is queryable *while* loading: :meth:`query` scans a
    consistent loaded-so-far snapshot (sealed parts + sideline
    watermarks), matching serial ingest of exactly the covered chunks,
    and ingestion continues afterwards.  ``seal_interval=None`` keeps the
    layout fixed until finalize, so such a server answers no mid-load
    query and cannot be durable.
    """

    def __init__(self, data_dir: str | Path,
                 plan: Optional[PushdownPlan] = None,
                 workload: Optional[Workload] = None,
                 table_name: str = "t",
                 partial_loading: str = "auto",
                 schema: Optional[Schema] = None,
                 n_shards: int = 1,
                 shard_mode: str = "process",
                 dispatch: str = "work-stealing",
                 seal_interval: Optional[int] = DEFAULT_SEAL_INTERVAL,
                 metrics: Optional[Metrics] = None,
                 tracer: Optional[Tracer] = None,
                 query_log: Optional[QueryLog] = None,
                 durable: bool = False,
                 generation: int = 0):
        validate_server_options(
            shard_mode=shard_mode,
            dispatch=dispatch,
            partial_loading=partial_loading,
            n_shards=n_shards,
            seal_interval=seal_interval,
            durable=durable,
        )
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.plan = plan
        self.workload = workload
        self.table_name = table_name
        self.durable = durable
        #: Recovery generation: bumped on every :meth:`recover`, and
        #: suffixed into this generation's storage paths so a recovered
        #: server never collides with the files it inherited.
        self.generation = generation
        self.partial_loading_enabled = self._decide_partial_loading(
            partial_loading
        )
        gen_stem = (
            f"{table_name}.g{generation}" if generation else table_name
        )
        self._side_store = JsonSideStore(
            self.data_dir / f"{gen_stem}.sideline.jsonl"
        )
        self._parquet_path = self.data_dir / f"{gen_stem}.pql"
        self._pipeline = ShardedIngestPipeline(
            self._parquet_path,
            self._side_store,
            n_shards=n_shards,
            partial_loading=self.partial_loading_enabled,
            schema=schema,
            required_predicate_ids=(
                plan.predicate_ids if plan is not None else None
            ),
            mode=shard_mode,
            dispatch=dispatch,
            seal_interval=seal_interval,
            metrics=metrics,
        )
        self._sessions: Dict[str, IngestSession] = {}  # guarded-by: _ingest_lock
        self.catalog = Catalog()
        self._table = TableEntry(
            name=table_name,
            parquet_paths=[],
            side_store=self._side_store,
            pushdown=(
                {e.clause: e.predicate_id for e in plan.entries}
                if plan is not None else {}
            ),
        )
        self.catalog.register(self._table)
        self._executor = Executor(self.catalog, metrics=metrics,
                                  tracer=tracer, query_log=query_log)
        self._loading_finalized = False  # guarded-by: _lifecycle_lock
        #: Compaction view: original sealed-part path → the compacted
        #: part that replaced it.  Kept flat (targets that are
        #: themselves replaced are rewritten in place), so resolving a
        #: path is one lookup, never a chain walk.
        # guarded-by: _lifecycle_lock
        self._compaction_remap: Dict[str, Path] = {}
        #: Bumped on every committed compaction; composed into the
        #: snapshot version token so a swap is never mistaken for an
        #: unchanged snapshot.
        self._compaction_epoch = 0  # guarded-by: _lifecycle_lock
        # Serializes query() against finalize_loading(): a loading
        # server may be queried from one thread while another thread
        # finalizes (session load jobs, fleet coordinators), and the
        # finalize mutates the catalog entry a query scans.
        self._lifecycle_lock = make_lock("CiaoServer._lifecycle_lock")
        # Serializes chunk submission: the pipeline's submit() assumes
        # one submitting thread, but remote serving (CiaoService)
        # ingests from one router thread per connection.  Also guards
        # _sessions registration and the ingest ledger.  Ordering:
        # finalize_loading() and checkpoint() take _lifecycle_lock then
        # _ingest_lock; ingest paths take _ingest_lock alone; the
        # pipeline's own locks nest inside both — the graph stays
        # acyclic.  The query path never takes _ingest_lock: a worker
        # submit() may block on backpressure while holding it.
        self._ingest_lock = make_lock("CiaoServer._ingest_lock")
        self._schema = schema
        self._metrics = resolve_metrics(metrics)
        self._m_checkpoints = self._metrics.counter("recovery.checkpoints")
        self._m_manifest_writes = self._metrics.counter(
            "recovery.manifest_writes"
        )
        self._m_duplicates = self._metrics.counter(
            "recovery.duplicates_dropped"
        )
        #: Deployment knobs as resolved at construction — persisted in
        #: the manifest so recovery rebuilds an equivalent server.
        self._options: Dict[str, Any] = {
            "n_shards": n_shards,
            "shard_mode": shard_mode,
            "dispatch": dispatch,
            "seal_interval": seal_interval,
            "partial_loading": (
                "on" if self.partial_loading_enabled else "off"
            ),
        }
        self._ledger = IngestLedger()  # guarded-by: _ingest_lock
        #: Ledger watermarks as of the last manifest write: the durable
        #: cut clients may safely prune their replay buffers to.
        # guarded-by: _ingest_lock
        self._durable_seqs: Dict[Tuple[str, str], int] = {}
        #: Parts and sideline records inherited from a previous
        #: generation via recover(); fixed for this server's lifetime.
        self._recovered_parts: List[Path] = []
        self._recovered_sideline = 0
        self._summary_baseline: Optional[LoadSummary] = None
        self._manifest_events: List[str] = []  # guarded-by: _lifecycle_lock
        self._manifest: Optional[Manifest] = None
        if durable:
            self._manifest = Manifest(
                Manifest.path_for(self.data_dir, table_name)
            )
            # A pre-existing manifest belongs to the generation being
            # recovered: leave it durable until recover() (or the first
            # checkpoint) writes this generation's state over it.
            if not self._manifest.exists:
                with self._lifecycle_lock, self._ingest_lock:
                    self._manifest_events.append("created")
                    self._write_manifest_locked(
                        "loading", [], [], LoadSummary()
                    )

    @classmethod
    def from_config(cls, config: ServerConfig,
                    plan: Optional[PushdownPlan] = None,
                    workload: Optional[Workload] = None,
                    metrics: Optional[Metrics] = None,
                    tracer: Optional[Tracer] = None,
                    query_log: Optional[QueryLog] = None) -> "CiaoServer":
        """Build a server from a :class:`ServerConfig`.

        The optional *plan*/*workload* are the per-session optimizer
        outputs and *metrics*/*tracer*/*query_log* the observability
        sinks; everything else comes from the config.
        """
        return cls(
            config.data_dir,
            plan=plan,
            workload=workload,
            table_name=config.table_name,
            partial_loading=config.partial_loading,
            schema=config.schema,
            n_shards=config.n_shards,
            shard_mode=config.shard_mode,
            dispatch=config.dispatch,
            seal_interval=config.seal_interval,
            metrics=metrics,
            tracer=tracer,
            query_log=query_log,
            durable=config.durable,
        )

    @property
    def state(self) -> str:
        """Explicit lifecycle state: ``"loading"`` or ``"finalized"``."""
        return "finalized" if self._loading_finalized else "loading"

    @property
    def manifest_revision(self) -> Optional[int]:
        """The durable manifest's current revision; ``None`` if not durable."""
        if self._manifest is None:
            return None
        return self._manifest.revision

    @property
    def deployment_options(self) -> Dict[str, Any]:
        """The deployment knobs as resolved at construction."""
        return dict(self._options)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def ingest(self, chunk: Union[JsonChunk, bytes]) -> None:
        """Ingest one chunk (decoded or wire-encoded).

        Encoded payloads go to the pipeline undecoded: an inline shard
        decodes them on this thread, a shard worker off it.  They may
        carry several batched frames
        (:func:`repro.client.protocol.encode_frame_batch`); each frame is
        ingested as its own chunk.

        Raises ``RuntimeError`` once the server is finalized: storage is
        sealed at that point, so feeding it more data would be silently
        lost — start a new server/session instead.
        """
        self._check_loading("ingest")
        self._ingest_any(chunk, source=None)

    def _ingest_any(self, chunk: Union[JsonChunk, bytes],
                    source: Optional[str] = None) -> int:
        """Shared ingest core; returns the number of frames ingested.

        Safe to call from many threads: remote serving ingests from one
        router thread per connection, while the pipeline's ``submit``
        assumes a single submitter.
        """
        with self._ingest_lock:
            return self._submit_locked(chunk, source)

    @guarded_by("_ingest_lock")
    def _submit_locked(self, chunk: Union[JsonChunk, bytes],
                       source: Optional[str]) -> int:
        """Submit a chunk, or each frame of an encoded batch; count them."""
        if not isinstance(chunk, (bytes, bytearray, memoryview)):
            self._pipeline.submit(chunk, source=source)
            return 1
        count = 0
        for frame in split_frames(chunk):
            self._pipeline.submit(frame, source=source)
            count += 1
        return count

    def _ingest_sequenced(self, chunk: bytes, source: str,
                          client_id: str, seq: int) -> Tuple[int, bool]:
        """Ledger-deduped ingest of one encoded batch.

        Admission, ingest, and the watermark advance happen in one
        ingest-lock critical section, so "the ledger says applied" and
        "the rows are in storage" can never disagree — the invariant
        that makes client replays exactly-once.
        """
        with self._ingest_lock:
            if not self._ledger.admit(client_id, source, seq):
                self._m_duplicates.inc()
                return 0, True
            count = self._submit_locked(chunk, source)
            self._ledger.advance(client_id, source, seq)
            return count, False

    def ledger_last(self, client_id: str, source_id: str) -> int:
        """The ingest ledger's watermark for one client stream."""
        with self._ingest_lock:
            return self._ledger.last(client_id, source_id)

    def durable_seq(self, client_id: str, source_id: str) -> int:
        """The stream's last *durable* batch — safe to prune replays to.

        For a durable server this is the watermark as of the last
        manifest write (an acked-but-uncheckpointed batch still dies
        with the process, so the client must keep it).  A non-durable
        server has nothing to recover into — a crash loses the whole
        table regardless — so its live watermark is the honest answer.
        """
        with self._ingest_lock:
            if self._manifest is None:
                return self._ledger.last(client_id, source_id)
            return self._durable_seqs.get((client_id, source_id), 0)

    def ledger_records(self) -> List[List[Any]]:
        """JSON-safe ledger snapshot (for STATS and diagnostics)."""
        with self._ingest_lock:
            return self._ledger.to_records()

    def ingest_channel(self, channel: Channel) -> int:
        """Drain a channel; returns the number of chunk frames ingested.

        Batched messages (``Channel.send_batch``) are split back into
        individual chunk frames, so the count is chunks, not messages.
        Frames coming off ``drain_chunks`` are already split, so they go
        straight to the pipeline without :meth:`ingest`'s re-split (each
        split walks the frame header).
        """
        self._check_loading("ingest_channel")
        count = 0
        for frame in channel.drain_chunks():
            with self._ingest_lock:
                self._pipeline.submit(frame)
            count += 1
        return count

    def open_ingest_session(self, source_id: str) -> IngestSession:
        """Open a tagged ingest stream for one data source.

        Fleet loads open one session per client so server-side accounting
        (:attr:`ingest_sources`, and the pipeline's
        ``submitted_by_source``) can attribute chunks to their origin.
        Source ids are single-use per server: reusing one — even after
        its session closed — raises ``ValueError``, because per-source
        accounting would conflate the two streams.
        """
        self._check_loading("open_ingest_session")
        with self._ingest_lock:
            existing = self._sessions.get(source_id)
            if existing is not None and not existing.closed:
                raise ValueError(
                    f"ingest session {source_id!r} is already open"
                )
            if existing is not None:
                raise ValueError(
                    f"source {source_id!r} already ingested on this "
                    f"server; per-source accounting would conflate the "
                    f"two streams"
                )
            session = IngestSession(self, source_id)
            self._sessions[source_id] = session
            return session

    def resume_ingest_session(self, source_id: str) -> IngestSession:
        """Reopen (or create) the ingest stream for a returning source.

        The reconnect path: unlike :meth:`open_ingest_session`, reusing
        a source id here is the *point* — the returning client is the
        same source continuing the same stream, so its accounting keeps
        accumulating and the ingest ledger keeps deduping its replays.
        """
        self._check_loading("resume_ingest_session")
        with self._ingest_lock:
            existing = self._sessions.get(source_id)
            if existing is not None:
                existing.reopen()
                return existing
            session = IngestSession(self, source_id)
            self._sessions[source_id] = session
            return session

    @property
    def ingest_sources(self) -> Dict[str, int]:
        """Chunk frames ingested per source id (open + closed sessions)."""
        with self._ingest_lock:
            return {
                source_id: session.chunks
                for source_id, session in self._sessions.items()
            }

    def _check_loading(self, operation: str) -> None:
        if self._loading_finalized:
            raise RuntimeError(
                f"{operation}() on a finalized server: loading sealed at "
                f"finalize_loading(); create a new server/session to load "
                f"more data into table {self.table_name!r}"
            )

    def finalize_loading(self) -> LoadSummary:
        """Seal storage and make the table queryable; idempotent.

        This is the pipeline's merge point: shard loaders are sealed,
        their Parquet parts registered (shard-major order) and worker
        sidelines folded into the table's store.
        """
        with self._lifecycle_lock, self._ingest_lock:
            for session in self._sessions.values():
                session.close()  # ciaolint: allow[LCK002] -- IngestSession.close only flips a flag; `.close()` name union binds wider
            summary = self._merge_baseline(self._pipeline.finalize())
            parquet_paths = self._pipeline.parquet_paths
            if not self._loading_finalized:
                self._table.clear_snapshot()
                self._table.parquet_paths = self._remap_parts(
                    list(self._recovered_parts) + list(parquet_paths)
                )
                self._table.invalidate()
                self._loading_finalized = True
            if self._manifest is not None:
                self._manifest_events.append("finalized")
                self._write_manifest_locked(
                    "finalized",
                    self._table.parquet_paths,
                    [(self._side_store.path,
                      self._side_store.record_count)],
                    summary,
                )
            return summary

    @property
    def load_summary(self) -> LoadSummary:
        """Loading statistics so far.

        Mid-load this reports the chunks covered by the current snapshot
        (the same view queries see, so it raises the pipeline's
        ``RuntimeError`` when ``seal_interval=None``); once finalized, the
        complete merged summary.
        """
        if self._loading_finalized:
            return self._merge_baseline(self._pipeline.summary)
        return self._merge_baseline(self._pipeline.snapshot().summary)

    def _merge_baseline(self, summary: LoadSummary) -> LoadSummary:
        """Fold the recovered generations' counts into *summary*.

        A recovered server's own pipeline only saw this
        generation's chunks; the baseline carries everything the
        manifest proved durable before the crash, so totals reflect the
        whole table.  Per-chunk reports exist only for this
        generation's chunks — the baseline is counts, by design.
        """
        baseline = self._summary_baseline
        if baseline is None:
            return summary
        return LoadSummary(
            chunks=baseline.chunks + summary.chunks,
            received=baseline.received + summary.received,
            loaded=baseline.loaded + summary.loaded,
            sidelined=baseline.sidelined + summary.sidelined,
            malformed=baseline.malformed + summary.malformed,
            wall_seconds=baseline.wall_seconds + summary.wall_seconds,
            reports=list(summary.reports),
        )

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, sql: str) -> QueryResult:
        """Execute one SQL statement against the loaded table.

        Servers answer queries **while loading**: the statement runs
        against a consistent loaded-so-far snapshot (sealed parts plus
        sideline watermarks), so results equal serial ingest of exactly
        the chunks covered so far, and ingestion keeps running.  A serial
        server's inline shard first seals what it has ingested, so the
        snapshot covers every chunk submitted before the query.  A server
        with ``seal_interval=None`` has no mid-load view and raises
        ``RuntimeError`` until :meth:`finalize_loading`.  Repeated mid-load
        *aggregate*
        queries are incremental: sealed parts are immutable, so the
        engine caches per-part partial aggregates by (part, query
        fingerprint) and each successive snapshot query scans only the
        parts sealed since it last ran plus the sideline delta
        (:mod:`repro.engine.snapcache`; answers are identical to a cold
        scan of the same snapshot).

        Queries serialize against a concurrent :meth:`finalize_loading`
        (and against each other): a statement sees either a consistent
        mid-load snapshot or the final table, never the transition.
        """
        with self._lifecycle_lock:
            if not self._loading_finalized:
                self._refresh_snapshot()
            return self._executor.execute(sql)

    @guarded_by("_lifecycle_lock")
    def _refresh_snapshot(self) -> None:
        """Point the table at the pipeline's latest loaded-so-far view.

        The pipeline reports its own sealed parts; parts a compactor
        already replaced are remapped to their compacted merge, and the
        compaction epoch rides the version token so the swap registers
        as a change even when the pipeline's counter did not move.
        """
        snap = self._pipeline.snapshot()
        parts, views = self._snapshot_layout(snap)
        self._table.apply_snapshot(
            (snap.version, self._compaction_epoch),
            parts,
            CompositeSidelineView(self._side_store.path, views),
        )

    @guarded_by("_lifecycle_lock")
    def _snapshot_layout(self, snap: LoadSnapshot
                         ) -> Tuple[List[Path], List[SidelineView]]:
        """The whole table as of *snap*: recovered state, then this
        generation's, with parts resolved through the compaction remap."""
        parts = self._remap_parts(
            list(self._recovered_parts) + list(snap.parquet_paths)
        )
        views = list(snap.sideline_views)
        if self._recovered_sideline and all(
                view.path != self._side_store.path for view in views):
            # Records recover() materialized at the head of the main
            # sideline; an inline shard appends to that same store, so
            # once it publishes, its own prefix view covers them.
            views.insert(0, SidelineView(self._side_store.path,
                                         self._recovered_sideline))
        return parts, views

    # ------------------------------------------------------------------
    # Compaction (repro.compact drives these)
    # ------------------------------------------------------------------
    @guarded_by("_lifecycle_lock")
    def _remap_parts(self, parquet_paths: Iterable[Path]) -> List[Path]:
        """Resolve raw sealed-part paths through the compaction remap.

        Several inputs of one merge resolve to the same output; the
        first occurrence keeps its position and later ones drop, so the
        resolved list preserves ingest order with no duplicates.
        """
        resolved: List[Path] = []
        seen: set = set()
        for path in parquet_paths:
            target = self._compaction_remap.get(str(Path(path)))
            if target is None:
                target = Path(path)
            key = str(target)
            if key not in seen:
                seen.add(key)
                resolved.append(target)
        return resolved

    def sealed_parts(self) -> List[Path]:
        """The immutable parts a compactor may rewrite right now.

        Finalized servers expose the table's full part list; loading
        servers expose the parts sealed so far (through the compaction
        remap, so already-replaced parts never reappear).  Asking seals
        nothing: an inline shard's open part stays open, so compaction
        polls never fragment a serial load.
        """
        with self._lifecycle_lock:
            if self._loading_finalized:
                return list(self._table.parquet_paths)
            snap = self._pipeline.snapshot(seal=False)
            return self._remap_parts(
                list(self._recovered_parts) + list(snap.parquet_paths)
            )

    def commit_compaction(self, inputs: Iterable[Path],
                          output: Path | str) -> None:
        """Atomically swap compacted *inputs* for their merged *output*.

        Holding the lifecycle lock makes the swap atomic with respect
        to queries (a statement holds the same lock for its whole
        execution): every query sees either the old parts or the new
        part, never a mix.  The remap is updated first — flattening any
        earlier entries that pointed at a part now being replaced — so
        pipeline snapshots and ``finalize_loading`` keep resolving to
        live parts no matter when they run.
        """
        output = Path(output)
        with self._lifecycle_lock:
            replaced = {str(Path(p)) for p in inputs}
            for key, target in list(self._compaction_remap.items()):
                if str(target) in replaced:
                    self._compaction_remap[key] = output
            for key in replaced:
                self._compaction_remap[key] = output
            self._compaction_epoch += 1
            if self._loading_finalized:
                self._table.swap_parts(
                    [Path(p) for p in inputs], output
                )
                if self._manifest is not None:
                    with self._ingest_lock:
                        self._manifest_events.append(
                            f"compaction epoch={self._compaction_epoch}"
                        )
                        self._write_manifest_locked(
                            "finalized",
                            self._table.parquet_paths,
                            [(self._side_store.path,
                              self._side_store.record_count)],
                            self.load_summary,
                        )
            elif self._table.in_snapshot_mode:
                # Re-derive the snapshot view through the updated remap;
                # the bumped epoch forces the apply even when the
                # pipeline's own version counter did not move.
                self._refresh_snapshot()
                if self._manifest is not None:
                    # A compactor running remove_inputs=True may unlink
                    # manifest-listed parts; refresh the manifest past
                    # the swap so recovery never chases deleted files.
                    # Best effort: a quiesce timeout leaves the previous
                    # (stale but readable) revision in place.
                    try:
                        self._checkpoint_streaming_locked(
                            timeout=30.0,
                            event=(f"compaction epoch="
                                   f"{self._compaction_epoch}"),
                        )
                    except TimeoutError:
                        pass

    # ------------------------------------------------------------------
    # Durability: the manifest, checkpoints, and crash recovery
    # ------------------------------------------------------------------
    def checkpoint(self, timeout: float = 30.0) -> bool:
        """Write a durable manifest revision; returns True if one landed.

        The durable cut: quiesce the pipeline so every submitted chunk
        is sealed or sidelined, then atomically record the sealed
        parts, sideline watermarks, ledger, and summary *as of that
        moment*.  A kill -9 after this call loses nothing at or before
        it.  Returns ``False`` only for a non-durable server.
        """
        if self._manifest is None:
            return False
        with self._lifecycle_lock:
            if self._loading_finalized:
                with self._ingest_lock:
                    self._manifest_events.append("checkpoint")
                    self._write_manifest_locked(
                        "finalized",
                        self._table.parquet_paths,
                        [(self._side_store.path,
                          self._side_store.record_count)],
                        self.load_summary,
                    )
            else:
                self._checkpoint_streaming_locked(timeout, "checkpoint")
            self._m_checkpoints.inc()
            return True

    @guarded_by("_lifecycle_lock")
    def _checkpoint_streaming_locked(self, timeout: float,
                                     event: str) -> None:
        """Quiesce the streaming pipeline and persist its state."""
        with self._ingest_lock:
            snap = self._pipeline.quiesce(timeout)
            parts, views = self._snapshot_layout(snap)
            self._manifest_events.append(event)
            self._write_manifest_locked(
                "loading", parts,
                [(view.path, view.record_count) for view in views],
                self._merge_baseline(snap.summary),
            )

    def _relpath(self, path: Path) -> str:
        path = Path(path)
        try:
            return str(path.relative_to(self.data_dir))
        except ValueError:
            return str(path)

    @guarded_by("_lifecycle_lock", "_ingest_lock")
    def _write_manifest_locked(self, state: str,
                               parts: Iterable[Path],
                               sidelines: Iterable[Tuple[Path, int]],
                               summary: LoadSummary) -> None:
        """Compose and atomically persist one manifest revision.

        Requires both the lifecycle and ingest locks: the part list,
        the ledger, and the summary must all describe the same instant.
        """
        part_records = []
        for path in parts:
            path = Path(path)
            record: Dict[str, Any] = {"path": self._relpath(path)}
            try:
                record["bytes"] = path.stat().st_size
            except OSError:
                record["bytes"] = None
            part_records.append(record)
        sideline_records = [
            {"path": self._relpath(path), "records": int(records)}
            for path, records in sidelines
            if records
        ]
        doc = {
            "table": self.table_name,
            "generation": self.generation,
            "state": state,
            "plan": dumps_plan(self.plan) if self.plan is not None else None,
            "schema": (
                self._schema.to_dict() if self._schema is not None
                else None
            ),
            "options": dict(self._options),
            "parts": part_records,
            "sideline": sideline_records,
            "summary": {
                "chunks": summary.chunks,
                "received": summary.received,
                "loaded": summary.loaded,
                "sidelined": summary.sidelined,
                "malformed": summary.malformed,
                "wall_seconds": summary.wall_seconds,
            },
            "ledger": self._ledger.to_records(),
            "compaction_epoch": self._compaction_epoch,
            "events": list(self._manifest_events),
        }
        self._manifest.write(doc)
        self._durable_seqs = self._ledger.snapshot()
        self._m_manifest_writes.inc()

    @staticmethod
    def _validate_part(path: Path) -> bool:
        """Whether *path* is a readable, footer-intact Parquet-lite part."""
        try:
            reader = ParquetLiteReader(path)
        except (ParquetLiteError, OSError, ValueError):
            return False
        reader.close()
        return True

    @classmethod
    def recover(cls, data_dir: str | Path,
                table_name: str = "t",
                workload: Optional[Workload] = None,
                metrics: Optional[Metrics] = None,
                tracer: Optional[Tracer] = None,
                query_log: Optional[QueryLog] = None) -> "CiaoServer":
        """Rebuild a durable server from its manifest after a crash.

        Reads the manifest's last complete revision, validates every
        listed part (a torn or missing file is quarantined — renamed
        aside and counted, never trusted and never fatal), re-plays the
        durable sideline prefix into a fresh generation's store, and
        restores the plan, schema, summary counts, and ingest ledger.
        The result is a live server one generation up: a finalized
        manifest yields a finalized, queryable server; a mid-load
        manifest yields a loading server that reconnecting clients
        resume into (their replays deduped from the recovered ledger).
        Answers over the recovered sealed set are byte-identical to a
        never-crashed server over the same parts.
        """
        data_dir = Path(data_dir)
        manifest, doc = Manifest.load(
            Manifest.path_for(data_dir, table_name)
        )
        mx = resolve_metrics(metrics)
        m_recovered = mx.counter("recovery.parts_recovered")
        m_quarantined = mx.counter("recovery.parts_quarantined")
        m_sideline_lost = mx.counter("recovery.sideline_records_lost")
        parts: List[Path] = []
        quarantined: List[str] = []
        for record in doc.get("parts", []):
            path = data_dir / str(record.get("path", ""))
            if cls._validate_part(path):
                parts.append(path)
                m_recovered.inc()
                continue
            m_quarantined.inc()
            quarantined.append(str(record.get("path", "")))
            if path.exists():
                try:
                    path.rename(
                        path.parent / (path.name + ".quarantined")
                    )
                except OSError:
                    pass  # unreadable either way; recovery proceeds
        plan_text = doc.get("plan")
        plan = loads_plan(plan_text) if plan_text else None
        schema_doc = doc.get("schema")
        schema = (
            Schema.from_dict(schema_doc) if schema_doc else None
        )
        options = doc.get("options", {})
        generation = int(doc.get("generation", 0)) + 1
        server = cls(
            data_dir,
            plan=plan,
            workload=workload,
            table_name=table_name,
            partial_loading=str(
                options.get("partial_loading", "off")
            ),
            schema=schema,
            n_shards=int(options.get("n_shards", 1)),
            shard_mode=str(options.get("shard_mode", "thread")),
            dispatch=str(options.get("dispatch", "work-stealing")),
            seal_interval=options.get("seal_interval"),
            metrics=metrics,
            tracer=tracer,
            query_log=query_log,
            durable=True,
            generation=generation,
        )
        server._manifest.revision = manifest.revision
        server._recovered_parts = parts
        # Materialize the durable sideline prefix into this generation's
        # main store: CompositeSidelineView scans views, not the raw
        # file, so the recovered records must be a view over data this
        # generation owns (shard folding appends after them).
        pairs: List[Tuple[int, str]] = []
        expected = 0
        for record in doc.get("sideline", []):
            records = int(record.get("records", 0))
            expected += records
            view_path = data_dir / str(record.get("path", ""))
            if view_path.exists():
                pairs.extend(SidelineView(view_path, records).iter_raw())
        if len(pairs) < expected:
            m_sideline_lost.inc(expected - len(pairs))
        if pairs:
            server._side_store.append_pairs(pairs)
        server._recovered_sideline = server._side_store.record_count
        summary_doc = doc.get("summary") or {}
        server._summary_baseline = LoadSummary(
            chunks=int(summary_doc.get("chunks", 0)),
            received=int(summary_doc.get("received", 0)),
            loaded=int(summary_doc.get("loaded", 0)),
            sidelined=int(summary_doc.get("sidelined", 0)),
            malformed=int(summary_doc.get("malformed", 0)),
            wall_seconds=float(summary_doc.get("wall_seconds", 0.0)),
        )
        with server._lifecycle_lock, server._ingest_lock:
            server._ledger = IngestLedger.from_records(
                doc.get("ledger", [])
            )
            server._manifest_events = list(doc.get("events", []))
            event = f"recovered generation={generation}"
            if quarantined:
                event += f" quarantined={','.join(quarantined)}"
            server._manifest_events.append(event)
            if doc.get("state") == "finalized":
                server._table.parquet_paths = list(parts)
                server._table.invalidate()
                server._loading_finalized = True
                server._write_manifest_locked(
                    "finalized", parts,
                    [(server._side_store.path,
                      server._side_store.record_count)],
                    server._summary_baseline,
                )
            else:
                sidelines: List[Tuple[Path, int]] = []
                if server._recovered_sideline:
                    sidelines.append((server._side_store.path,
                                      server._recovered_sideline))
                server._write_manifest_locked(
                    "loading", parts, sidelines,
                    server._summary_baseline,
                )
        return server

    def quiesce(self, timeout: float = 30.0) -> None:
        """Wait until every ingested chunk is visible to queries.

        Useful to make "query the prefix ingested so far" deterministic
        in tests and benchmarks.  A serial server's inline shard catches
        up at once; a server with streaming disabled
        (``seal_interval=None``) cannot expose mid-load state, so
        quiescing it raises ``RuntimeError`` (finalize instead).
        """
        if not self._loading_finalized:
            self._pipeline.quiesce(timeout)

    def run_workload(self, queries: Iterable[Query]
                     ) -> List[QueryResult]:
        """Execute core-model queries via their SQL renderings."""
        return [self.query(q.sql(self.table_name)) for q in queries]

    @property
    def table(self) -> TableEntry:
        """The managed table's catalog entry."""
        return self._table

    def update_plan(self, plan: PushdownPlan) -> None:
        """Swap in a replanned pushdown registry (adaptive replanning).

        Affects the query path immediately: queries matching the new
        plan's clauses resolve to its predicate ids.  Row groups loaded
        before the new predicates existed have no vectors for them and
        are scanned fully (the engine's missing-vector rule), so answers
        stay exact; data ingested by future sessions carries the new
        annotations.  Retained clauses keep their ids (see
        :mod:`repro.core.adaptive`), so their historical vectors keep
        skipping.
        """
        self.plan = plan
        self._table.pushdown = {
            e.clause: e.predicate_id for e in plan.entries
        }

    # ------------------------------------------------------------------
    def _decide_partial_loading(self, mode: str) -> bool:
        # The mode itself was validated up front by
        # validate_server_options; only policy resolution happens here.
        if mode == "on":
            return True
        if mode == "off":
            return False
        if self.plan is None or len(self.plan) == 0:
            return False
        if self.workload is None:
            # No prospective workload to check coverage against: be
            # conservative, exactly like a baseline server.
            return False
        return all(self.plan.covers_query(q) for q in self.workload)
