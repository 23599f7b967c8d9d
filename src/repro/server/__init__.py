"""Server-side substrate: partial loading, the ingest pipeline, data
skipping, and the CIAO server facade."""

from .ciao import (
    CiaoServer,
    IngestSession,
    ServerConfig,
    validate_server_options,
)
from .loader import ChunkReport, ClientAssistedLoader, LoadSummary
from .pipeline import (
    IngestPipelineError,
    LoadSnapshot,
    ShardedIngestPipeline,
)
from .skipping import (
    SkippingEstimate,
    estimate_skipping,
    query_predicate_ids,
    resolve_group_mask,
    skipping_benefit_fractions,
)

__all__ = [
    "ChunkReport",
    "CiaoServer",
    "ClientAssistedLoader",
    "IngestPipelineError",
    "IngestSession",
    "LoadSnapshot",
    "LoadSummary",
    "ServerConfig",
    "ShardedIngestPipeline",
    "SkippingEstimate",
    "estimate_skipping",
    "query_predicate_ids",
    "resolve_group_mask",
    "skipping_benefit_fractions",
    "validate_server_options",
]
