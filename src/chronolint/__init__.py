"""chronolint: audit Git commit histories for suspicious timestamps.

The package splits along the audit pipeline: :mod:`~chronolint.ingest`
parses commit exports, :mod:`~chronolint.graph` assembles the parent DAG,
:mod:`~chronolint.detectors` flag anomalies, :mod:`~chronolint.filters`
clean datasets under explicit ledgers, :mod:`~chronolint.analytics`
summarize what was found, :mod:`~chronolint.forge` re-checks findings
against hosting-platform metadata, and :mod:`~chronolint.cli` wires it
all into a command-line tool.

Importing the package loads none of them: each public name imports its
module the first time it is looked up (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_NAMES = {
    name: module
    for module, names in {
        "analytics": ("DeltaHistogram", "DeltaStats", "TokenTable", "delta_histogram",
                      "delta_statistics", "summarize", "token_frequency", "top_committers",
                      "top_projects"),
        "detectors": ("DetectorConfig", "MissingSnapshotDate", "detect_future", "detect_old",
                      "detect_out_of_order_linear", "detect_out_of_order_parents",
                      "detect_tool_signatures", "detect_verified_mismatch", "is_merge_message",
                      "signature_name"),
        "filters": ("FilterPolicy", "RemovalLedger", "apply_policies", "apply_policy",
                    "load_policies"),
        "forge": ("ForgeClient", "MetadataSource", "VerificationOutcome", "VerificationStatus",
                  "load_sources", "verify_anomalies"),
        "graph": ("CommitGraph", "CycleDetected", "build_graph", "topological_order"),
        "ingest": ("DedupReport", "ParseResult", "deduplicate", "parse_commit_stream"),
        "model": ("DEFAULT_OLD_CUTOFF", "Anomaly", "AnomalyKind", "CommitRecord",
                  "canonical_repo_id", "format_utc", "normalize_timestamp", "parse_utc"),
    }.items()
    for name in names
}

__all__ = [*sorted(_NAMES), "__version__"]


def __getattr__(name: str):
    try:
        module = _NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return list(__all__)
