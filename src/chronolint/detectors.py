"""Timestamp-anomaly detectors over commit records and commit graphs.

Six independent checks: impossibly old dates, dates past the dataset
snapshot, commits dated earlier than their predecessor (linear walk),
commits dated earlier than a parent (exact graph edges), tool signatures
in messages, and the verified-child/unverified-parent clock mismatch.
All comparisons are strict -- equal timestamps are legal and common at
one-second resolution, so they are never flagged.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import DEFAULT_OLD_CUTOFF, Anomaly, AnomalyKind, CommitRecord, checked, format_utc


class MissingSnapshotDate(ValueError):
    """Future detection needs to know when the dataset was frozen."""


@checked
class DetectorConfig(NamedTuple):
    """Shared knobs for the detectors.

    ``future_cutoff`` is the dataset snapshot date and has no safe
    default -- it must come from the dataset's manifest.
    """

    old_cutoff: int = DEFAULT_OLD_CUTOFF
    future_cutoff: int | None = None
    exclude_merges: bool = True
    date_field: str = "committer"

    def _check(self):
        if self.date_field not in ("committer", "author"):
            raise ValueError(f"date_field must be committer or author, got {self.date_field!r}")
        if self.future_cutoff is not None and not self.old_cutoff < self.future_cutoff:
            raise ValueError("old_cutoff must lie before future_cutoff")


# ---- Cutoff detectors ----


def detect_old(records: list[CommitRecord], cfg: DetectorConfig) -> list[Anomaly]:
    """Flag commits whose selected date is strictly before the old cutoff."""
    field, cutoff = cfg.date_field, cfg.old_cutoff
    rule = f"predates {format_utc(cutoff)}"
    return [_cutoff_anomaly(AnomalyKind.OLD, rec, field, rule)
            for rec in records if rec.date(field) < cutoff]


def detect_future(records: list[CommitRecord], cfg: DetectorConfig) -> list[Anomaly]:
    """Flag commits whose selected date is strictly after the snapshot date."""
    if cfg.future_cutoff is None:
        raise MissingSnapshotDate(
            "no snapshot date configured; set future_cutoff from the dataset manifest"
        )
    field, cutoff = cfg.date_field, cfg.future_cutoff
    rule = f"is after the snapshot {format_utc(cutoff)}"
    return [_cutoff_anomaly(AnomalyKind.FUTURE, rec, field, rule)
            for rec in records if rec.date(field) > cutoff]


def _cutoff_anomaly(kind: AnomalyKind, rec: CommitRecord, field: str, rule: str) -> Anomaly:
    return Anomaly(kind=kind, commit_hash=rec.hash, repo_id=rec.repo_id,
                   evidence=f"{field} date {format_utc(rec.date(field))} {rule}")


# ---- Ordering detectors ----


def is_merge_message(message: str) -> bool:
    """Substring test, by design: cheap, and wrong in both directions.

    "submerged pump driver" matches too -- that trade-off is accepted to
    keep the exclusion rule trivially auditable.
    """
    return "merge" in message.lower()


def detect_out_of_order_linear(
    ordered: list[CommitRecord], cfg: DetectorConfig
) -> list[Anomaly]:
    """Walk a linearized history and flag backward steps.

    A commit is flagged when its date is strictly earlier than the
    immediately preceding commit's date. The comparison baseline always
    advances, flagged or not. With ``exclude_merges``, a merge message on
    either side of the step suppresses the flag.
    """
    field = cfg.date_field
    out = []
    for prev, rec in zip(ordered, ordered[1:]):
        delta = prev.date(field) - rec.date(field)
        if delta <= 0 or (
            cfg.exclude_merges
            and (is_merge_message(prev.message) or is_merge_message(rec.message))
        ):
            continue
        out.append(
            Anomaly(
                kind=AnomalyKind.OUT_OF_ORDER_LINEAR,
                commit_hash=rec.hash,
                repo_id=rec.repo_id,
                evidence=(
                    f"{field} date {format_utc(rec.date(field))} "
                    f"precedes previous commit {prev.hash} "
                    f"({format_utc(prev.date(field))})"
                ),
                delta_seconds=delta,
            )
        )
    return out


def detect_out_of_order_parents(graph, cfg: DetectorConfig) -> list[Anomaly]:
    """Flag commits with at least one strictly newer parent.

    One anomaly per child no matter how many parents offend;
    ``delta_seconds`` is the worst (largest) gap, and the evidence names
    the parent achieving it (lexicographically smallest hash on ties).
    Merge exclusion drops an edge when either endpoint has a merge
    message. Anomalies come in child-hash order.
    """
    records = graph.records
    epochs = [rec.date(cfg.date_field) for rec in records]

    def excluded(row: int) -> bool:
        return cfg.exclude_merges and is_merge_message(records[row].message)

    flagged = []
    for child, epoch in enumerate(epochs):
        worst, delta = -1, 0
        for parent in graph.parents(child):
            gap = epochs[parent] - epoch
            if gap < delta:
                continue
            worse = gap > delta or (worst >= 0 and records[parent].hash < records[worst].hash)
            if worse and not excluded(parent):
                worst, delta = parent, gap
        if worst >= 0 and not excluded(child):
            flagged.append((records[child].hash, child, worst, delta))
    flagged.sort()
    return [
        Anomaly(
            kind=AnomalyKind.OUT_OF_ORDER_PARENT,
            commit_hash=commit_hash,
            repo_id=records[child].repo_id,
            evidence=(
                f"parent {records[worst].hash} is {delta} s newer "
                f"({format_utc(epochs[worst])} vs {format_utc(epochs[child])})"
            ),
            delta_seconds=delta,
        )
        for commit_hash, child, worst, delta in flagged
    ]


# ---- Message and metadata evidence ----

# Footer tokens are matched case-sensitively, colon included: these are
# machine-written lines and tooling never varies their spelling.
_FOOTER_SIGNATURES = ("git-svn-id", "Change-Id", "Reviewed-by", "rebase_source")
# Short names would drown in substring hits ("highgate", "smoke"), so they
# must stand alone as words; tools write them in varying case.
_WORD_SIGNATURES = (
    ("hg", re.compile(r"\bhg\b", re.IGNORECASE)),
    ("MOE", re.compile(r"\bmoe\b", re.IGNORECASE)),
)


def detect_tool_signatures(records: list[CommitRecord]) -> list[Anomaly]:
    """Flag messages carrying known import/review-tool markers.

    Emits one anomaly per (commit, signature) pair so a message written
    by a conversion tool and a review tool counts once for each.
    """
    out = []
    for rec in records:
        if not _may_hold_signature(rec.message):
            continue
        for name in _FOOTER_SIGNATURES:
            if f"{name}:" in rec.message:
                out.append(_signature_anomaly(rec, name))
        for name, pattern in _WORD_SIGNATURES:
            if pattern.search(rec.message):
                out.append(_signature_anomaly(rec, name))
    return out


def _may_hold_signature(message: str) -> bool:
    """False only for a message no signature can match: each footer holds
    a colon, and every character the word patterns match ignoring case
    lower-cases to the pattern's own letter."""
    if ":" in message:
        return True
    lowered = message.lower()
    return "hg" in lowered or "moe" in lowered


def _signature_anomaly(rec: CommitRecord, name: str) -> Anomaly:
    return Anomaly(
        kind=AnomalyKind.TOOL_SIGNATURE,
        commit_hash=rec.hash,
        repo_id=rec.repo_id,
        evidence=f"tool signature: {name}",
    )


def signature_name(anomaly: Anomaly) -> str:
    """Recover which signature a ToolSignature anomaly matched."""
    if anomaly.kind is not AnomalyKind.TOOL_SIGNATURE:
        raise ValueError("not a tool-signature anomaly")
    return anomaly.evidence.split(": ", 1)[1]


def detect_verified_mismatch(graph) -> list[Anomaly]:
    """Flag edges where a forge-verified child predates an unverified parent.

    A verified commit's date comes from the forge's clock; an unverified
    parent dated *after* it means the parent's user-controlled clock was
    ahead. Commits with unknown verification status never match.
    Anomalies come in child-hash order, a child's in its parents' order.
    """
    records = graph.records
    flagged = []
    for child, child_rec in enumerate(records):
        if child_rec.verified is not True:
            continue
        for parent in graph.parents(child):
            parent_rec = records[parent]
            if parent_rec.verified is False and parent_rec.committer_date > child_rec.committer_date:
                flagged.append((child_rec, parent_rec))
    flagged.sort(key=lambda pair: pair[0].hash)  # stable: parents keep their order
    return [
        Anomaly(
            kind=AnomalyKind.VERIFIED_MISMATCH,
            commit_hash=child_rec.hash,
            repo_id=child_rec.repo_id,
            evidence=(
                f"verified commit ({format_utc(child_rec.committer_date)}) "
                f"predates unverified parent {parent_rec.hash} "
                f"({format_utc(parent_rec.committer_date)})"
            ),
        )
        for child_rec, parent_rec in flagged
    ]
