"""Aggregate tables over anomalies: summaries, delta statistics, delta
histograms, message-token frequencies, and top-K attributions.

Everything here is a pure aggregation with a deterministic final sort,
so results are independent of input order and safe to compute in
parallel per repository and merge. A ranked table is a plain list of
(key, count) pairs, which the report writes as rows. Input that has no
statistics, such as no deltas at all, raises ``ValueError``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import Counter
from functools import reduce
from operator import add
from typing import NamedTuple

from .model import NO_NAME, Anomaly, AnomalyKind, checked, ranked


# Fixed histogram geometry: eleven buckets from half a minute to beyond a
# year. A value lands in the first bucket whose bound it does not exceed.
# A month is 30 days and a year 365 days, by convention.
HISTOGRAM_BOUNDS = (30, 60, 300, 1800, 3600, 21600, 86400, 604800, 2_592_000, 31_536_000)
HISTOGRAM_LABELS = (
    "<=30s", "<=1m", "<=5m", "<=30m", "<=1h", "<=6h",
    "<=1d", "<=1w", "<=30d", "<=1y", ">1y",
)


@checked
class DeltaStats(NamedTuple):
    """Moments and quartiles of parent-minus-child gaps, in seconds."""

    n: int
    mean: float
    std: float  # population, not sample
    min: int
    p25: float
    p50: float
    p75: float
    max: int

    def _check(self):
        if self.n < 1:
            raise ValueError("stats need at least one observation")
        # The quartiles are floats, which round ints above 2**53.
        if not float(self.min) <= self.p25 <= self.p50 <= self.p75 <= float(self.max):
            raise ValueError("quantiles out of order")

    def to_dict(self) -> dict:
        return self._asdict()


@checked
class DeltaHistogram(NamedTuple):
    """Eleven (upper_bound, count) buckets; the last bound is None (open)."""

    buckets: tuple[tuple[int | None, int], ...]

    def _check(self):
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
#
# The figures equal numpy's float64 results bit for bit, so floats are added
# in numpy's order, never by sum() (compensated from Python 3.12 on) or fsum.


def _pairwise_sum(values: list[float], lo: int, hi: int) -> float:
    """numpy's pairwise sum of ``values[lo:hi]``: blocks of at most 128
    elements, each summed by eight interleaved accumulators."""
    n = hi - lo
    if n < 8:
        return reduce(add, values[lo:hi], 0.0)
    if n <= 128:
        body = hi - n % 8
        r = [reduce(add, values[lo + j:body:8]) for j in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[body:hi], res)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(values, lo + half, hi)


def _quantile(ordered: list[int], q: float) -> float:
    """numpy's default ("linear") percentile of sorted ints."""
    rank = (len(ordered) - 1) * q
    lo = math.floor(rank)
    g = rank - lo
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def _checked_deltas(deltas) -> list[int]:
    deltas = list(deltas)
    if not deltas:  # statistics over nothing are not zeros
        raise ValueError("no deltas to aggregate")
    if min(deltas) < 1:
        raise ValueError("deltas must be positive (parent strictly newer)")
    return deltas


def delta_statistics(deltas) -> DeltaStats:
    """Mean, population std, and linearly interpolated quartiles."""
    deltas = _checked_deltas(deltas)
    n = len(deltas)
    # numpy casts the ints to float through 8192-element buffers, each summed
    # pairwise in input order; the squared deviations are summed in one pass.
    values = [float(d) for d in deltas]
    buffer_sums = [_pairwise_sum(values, lo, min(lo + 8192, n)) for lo in range(0, n, 8192)]
    mean = reduce(add, buffer_sums, 0.0) / n
    squares = [(x - mean) * (x - mean) for x in values]
    ordered = sorted(deltas)
    return DeltaStats(
        n=n,
        mean=mean,
        std=math.sqrt(_pairwise_sum(squares, 0, n) / n),
        min=ordered[0],
        p25=_quantile(ordered, 0.25),
        p50=_quantile(ordered, 0.5),
        p75=_quantile(ordered, 0.75),
        max=ordered[-1],
    )


def delta_histogram(deltas) -> DeltaHistogram:
    """Count deltas into the fixed eleven-bucket geometry."""
    counts = [0] * len(HISTOGRAM_LABELS)
    for d in _checked_deltas(deltas):
        counts[bisect_left(HISTOGRAM_BOUNDS, d)] += 1
    return DeltaHistogram(buckets=tuple(zip((*HISTOGRAM_BOUNDS, None), counts)))


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


def token_frequency(messages, exclude_terms=frozenset()) -> list[tuple[str, int]]:
    """(token, count) rows over messages, most frequent first, ties
    alphabetical. A message is lowercased and split on non-alphanumerics;
    stopwords are dropped and the other tokens stemmed.

    A message containing any of ``exclude_terms`` (raw, case-sensitive
    substring test, applied before any normalization) is dropped whole --
    the use case is silencing machine-written messages whose boilerplate
    would drown the table.

    The raw tokens are counted first; each distinct one is then checked
    against the stopwords and stemmed once, and the counts of the raw
    tokens that share a stem are summed.
    """
    raw = Counter()
    for message in messages:
        if not any(term in message for term in exclude_terms):
            raw.update(_TOKEN_RE.findall(message.lower()))
    counts: dict[str, int] = {}
    for token, count in raw.items():
        if token not in STOPWORDS:
            stem = stem_token(token)
            counts[stem] = counts.get(stem, 0) + count
    return ranked(counts.items())


# ---- Attribution ----


def top_committers(anomalies, committers, k: int = 20) -> list[tuple[str, int]]:
    """Committers ranked by how many distinct flagged commits they made.

    ``committers`` maps a commit hash to its committer id. Nameless
    committers (empty or whitespace ids) are grouped under one "(no name)"
    row. Anomalies whose hash is absent from ``committers`` are ignored.
    """
    flagged: dict[str, set[str]] = {}
    for anomaly in anomalies:
        who = committers.get(anomaly.commit_hash)
        if who is None:
            continue
        flagged.setdefault(who if who.strip() else NO_NAME, set()).add(anomaly.commit_hash)
    return ranked((who, len(hashes)) for who, hashes in flagged.items())[:k]


def top_projects(anomalies, k: int = 20) -> list[tuple[str, int]]:
    """Projects ranked by distinct flagged commits."""
    flagged: dict[str, set[str]] = {}
    for anomaly in anomalies:
        flagged.setdefault(anomaly.repo_id, set()).add(anomaly.commit_hash)
    return ranked((repo, len(hashes)) for repo, hashes in flagged.items())[:k]
