"""chronolint: audit Git commit histories for suspicious timestamps.

The package splits along the audit pipeline: :mod:`~chronolint.ingest`
parses commit exports, :mod:`~chronolint.graph` assembles the parent DAG,
:mod:`~chronolint.detectors` flag anomalies, :mod:`~chronolint.filters`
clean datasets under explicit ledgers, :mod:`~chronolint.analytics`
summarize what was found, :mod:`~chronolint.forge` re-checks findings
against hosting-platform metadata, and :mod:`~chronolint.cli` wires it
all into a command-line tool.
"""

from chronolint.detectors import (
    DEFAULT_OLD_CUTOFF,
    DetectorConfig,
    MissingSnapshotDate,
    detect_future,
    detect_old,
    detect_out_of_order_linear,
    detect_out_of_order_parents,
    detect_tool_signatures,
    detect_verified_mismatch,
    is_merge_message,
    signature_name,
)
from chronolint.forge import (
    ForgeClient,
    MetadataSource,
    VerificationOutcome,
    VerificationStatus,
    load_sources,
    verify_anomalies,
)
from chronolint.filters import (
    FilterPolicy,
    RemovalLedger,
    apply_policies,
    apply_policy,
    load_policies,
)
from chronolint.graph import (
    CommitGraph,
    CycleDetected,
    build_graph,
    topological_order,
)
from chronolint.ingest import (
    DedupReport,
    ParseResult,
    deduplicate,
    parse_commit_stream,
)
from chronolint.analytics import (
    DeltaHistogram,
    DeltaStats,
    TokenTable,
    delta_histogram,
    delta_statistics,
    summarize,
    token_frequency,
    top_committers,
    top_projects,
)
from chronolint.model import (
    Anomaly,
    AnomalyKind,
    CommitRecord,
    canonical_repo_id,
    format_utc,
    normalize_timestamp,
    parse_utc,
)

__version__ = "0.1.0"

__all__ = [
    "Anomaly",
    "AnomalyKind",
    "CommitGraph",
    "CommitRecord",
    "CycleDetected",
    "DEFAULT_OLD_CUTOFF",
    "DedupReport",
    "DeltaHistogram",
    "DeltaStats",
    "DetectorConfig",
    "FilterPolicy",
    "ForgeClient",
    "MetadataSource",
    "MissingSnapshotDate",
    "ParseResult",
    "RemovalLedger",
    "TokenTable",
    "VerificationOutcome",
    "VerificationStatus",
    "apply_policies",
    "apply_policy",
    "build_graph",
    "canonical_repo_id",
    "deduplicate",
    "delta_histogram",
    "delta_statistics",
    "detect_future",
    "detect_old",
    "detect_out_of_order_linear",
    "detect_out_of_order_parents",
    "detect_tool_signatures",
    "detect_verified_mismatch",
    "format_utc",
    "is_merge_message",
    "load_policies",
    "load_sources",
    "normalize_timestamp",
    "parse_commit_stream",
    "parse_utc",
    "signature_name",
    "summarize",
    "token_frequency",
    "top_committers",
    "top_projects",
    "topological_order",
    "verify_anomalies",
    "__version__",
]
