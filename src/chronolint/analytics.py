"""Aggregate tables over anomalies: summaries, delta statistics, delta
histograms, message-token frequencies, and top-K attributions.

Everything here is a pure aggregation with a deterministic final sort,
so results are independent of input order and safe to compute in
parallel per repository and merge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .model import NO_NAME, Anomaly, AnomalyKind


class EmptyInput(Exception):
    """Statistics over nothing are not zeros; refuse loudly."""


# Fixed histogram geometry: eleven buckets from half a minute to beyond a
# year. A value lands in the first bucket whose bound it does not exceed.
# A month is 30 days and a year 365 days, by convention.
HISTOGRAM_BOUNDS = (30, 60, 300, 1800, 3600, 21600, 86400, 604800, 2_592_000, 31_536_000)
HISTOGRAM_LABELS = (
    "<=30s", "<=1m", "<=5m", "<=30m", "<=1h", "<=6h",
    "<=1d", "<=1w", "<=30d", "<=1y", ">1y",
)


@dataclass(frozen=True)
class DeltaStats:
    """Moments and quartiles of parent-minus-child gaps, in seconds."""

    n: int
    mean: float
    std: float  # population, not sample
    min: int
    p25: float
    p50: float
    p75: float
    max: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("stats need at least one observation")
        if not self.min <= self.p25 <= self.p50 <= self.p75 <= self.max:
            raise ValueError("quantiles out of order")

    def to_dict(self) -> dict:
        return {
            "n": self.n, "mean": self.mean, "std": self.std, "min": self.min,
            "p25": self.p25, "p50": self.p50, "p75": self.p75, "max": self.max,
        }


@dataclass(frozen=True)
class DeltaHistogram:
    """Eleven (upper_bound, count) buckets; the last bound is None (open)."""

    buckets: tuple[tuple[int | None, int], ...]

    def __post_init__(self):
        if len(self.buckets) != len(HISTOGRAM_LABELS):
            raise ValueError(f"expected {len(HISTOGRAM_LABELS)} buckets")
        bounds = [b for b, _ in self.buckets[:-1]]
        if bounds != sorted(set(bounds)) or self.buckets[-1][0] is not None:
            raise ValueError("bounds must increase strictly and end open")

    @property
    def total(self) -> int:
        return sum(count for _, count in self.buckets)

    def to_dict(self) -> dict:
        return {
            "buckets": [
                {"label": label, "upper_bound_seconds": bound, "count": count}
                for label, (bound, count) in zip(HISTOGRAM_LABELS, self.buckets)
            ]
        }


@dataclass(frozen=True)
class TokenTable:
    """(token, count) rows, most frequent first, ties alphabetical."""

    rows: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {"rows": [{"token": t, "count": c} for t, c in self.rows]}


# ---- Summaries ----


def summarize(anomalies: list[Anomaly]) -> dict:
    """Distinct commit and project counts per anomaly kind, plus totals.

    Every kind appears in the result even at zero, so consumers get a
    stable shape. Totals deduplicate across kinds: a commit flagged by
    two detectors is one commit.
    """
    per_kind: dict[AnomalyKind, tuple[set, set]] = {
        kind: (set(), set()) for kind in AnomalyKind
    }
    all_commits: set[str] = set()
    all_repos: set[str] = set()
    for anomaly in anomalies:
        commits, repos = per_kind[anomaly.kind]
        commits.add(anomaly.commit_hash)
        repos.add(anomaly.repo_id)
        all_commits.add(anomaly.commit_hash)
        all_repos.add(anomaly.repo_id)

    out = {
        kind.value: {"commits": len(commits), "projects": len(repos)}
        for kind, (commits, repos) in per_kind.items()
    }
    out["total"] = {"commits": len(all_commits), "projects": len(all_repos)}
    return out


# ---- Delta distributions ----


def _as_delta_array(deltas) -> np.ndarray:
    arr = np.asarray(list(deltas), dtype=np.int64)
    if arr.size == 0:
        raise EmptyInput("no deltas to aggregate")
    if arr.min() < 1:
        raise ValueError("deltas must be positive (parent strictly newer)")
    return arr


def delta_statistics(deltas) -> DeltaStats:
    """Mean, population std, and linearly interpolated quartiles."""
    arr = _as_delta_array(deltas)
    p25, p50, p75 = np.percentile(arr, [25, 50, 75])
    return DeltaStats(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        min=int(arr.min()),
        p25=float(p25),
        p50=float(p50),
        p75=float(p75),
        max=int(arr.max()),
    )


def delta_histogram(deltas) -> DeltaHistogram:
    """Count deltas into the fixed eleven-bucket geometry."""
    arr = _as_delta_array(deltas)
    bounds = np.array(HISTOGRAM_BOUNDS, dtype=np.int64)
    idx = np.searchsorted(bounds, arr, side="left")
    counts = np.bincount(idx, minlength=bounds.shape[0] + 1)
    buckets = tuple(
        (int(bound), int(count)) for bound, count in zip(HISTOGRAM_BOUNDS, counts[:-1])
    ) + ((None, int(counts[-1])),)
    return DeltaHistogram(buckets=buckets)


# ---- Message tokens ----

# Embedded English stopword list (lowercase). Includes the clitic
# fragments ("t", "ll", "ve", ...) that alphanumeric splitting strips off
# contractions like "don't".
STOPWORDS = frozenset("""
a about above after again against all am an and any are aren as at be
because been before being below between both but by can cannot could
couldn d did didn do does doesn doing don down during each few for from
further had hadn has hasn have haven having he her here hers herself him
himself his how i if in into is isn it its itself just ll m ma me
mightn more most mustn my myself needn no nor not now o of off on once
only or other our ours ourselves out over own re s same shan she should
shouldn so some such t than that the their theirs them themselves then
there these they this those through to too under until up ve very was
wasn we were weren what when where which while who whom why will with
won would wouldn y you your yours yourself yourselves
""".split())

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# Suffix-stripping rules, tried in order; only the first match applies.
# A suffix is stripped only when at least two characters remain, and a
# trailing "ss" blocks the bare "-s" rule so "process" survives intact.
_SUFFIXES = ("ing", "ed", "es", "s")


def stem_token(token: str) -> str:
    """Tiny suffix stemmer: strip one of -ing/-ed/-es/-s, then fold a
    trailing y to i so "apply"/"applies" meet at "appli"."""
    for suffix in _SUFFIXES:
        if not token.endswith(suffix):
            continue
        if suffix == "s" and token.endswith("ss"):
            break
        stem = token[: -len(suffix)]
        if len(stem) >= 2:
            token = stem
        break
    if len(token) > 2 and token.endswith("y"):
        token = token[:-1] + "i"
    return token


def tokenize(message: str) -> list[str]:
    """Lowercase, split on non-alphanumerics, drop stopwords, stem."""
    return [
        stem_token(token)
        for token in _TOKEN_RE.findall(message.lower())
        if token not in STOPWORDS
    ]


def token_frequency(messages, exclude_terms=frozenset()) -> TokenTable:
    """Token counts over messages, most frequent first.

    A message containing any of ``exclude_terms`` (raw, case-sensitive
    substring test, applied before any normalization) is dropped whole --
    the use case is silencing machine-written messages whose boilerplate
    would drown the table.
    """
    counts: dict[str, int] = {}
    for message in messages:
        if any(term in message for term in exclude_terms):
            continue
        for token in tokenize(message):
            counts[token] = counts.get(token, 0) + 1
    rows = tuple(sorted(counts.items(), key=lambda item: (-item[1], item[0])))
    return TokenTable(rows=rows)


# ---- Attribution ----


def _committer_group(committer_id: str) -> str:
    return NO_NAME if not committer_id.strip() else committer_id


def top_committers(anomalies, records, k: int = 20) -> list[tuple[str, int]]:
    """Committers ranked by how many distinct flagged commits they made.

    Nameless committers (empty or whitespace ids) are grouped under one
    "(no name)" row. Anomalies whose hash is absent from ``records`` are
    ignored.
    """
    by_hash = {r.hash: r for r in records}
    flagged: dict[str, set[str]] = {}
    for anomaly in anomalies:
        rec = by_hash.get(anomaly.commit_hash)
        if rec is None:
            continue
        flagged.setdefault(_committer_group(rec.committer_id), set()).add(rec.hash)
    ranked = sorted(
        ((who, len(hashes)) for who, hashes in flagged.items()),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k]


def top_projects(anomalies, k: int = 20) -> list[tuple[str, int]]:
    """Projects ranked by distinct flagged commits."""
    flagged: dict[str, set[str]] = {}
    for anomaly in anomalies:
        flagged.setdefault(anomaly.repo_id, set()).add(anomaly.commit_hash)
    ranked = sorted(
        ((repo, len(hashes)) for repo, hashes in flagged.items()),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k]
