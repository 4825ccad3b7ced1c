"""Composable cleaning policies with removal accounting.

Each filter partitions its input into retained and removed commits and
returns the retained list plus a :class:`RemovalLedger`, so every audit
can state exactly what a cleaning step cost. Policies are declarative
(kind + parameters), serializable to JSON, and replayable from a policy
file; see the README for the file format.

Nothing here rewrites timestamps: commits are kept or dropped, never
repaired.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .detectors import DetectorConfig, detect_out_of_order_parents
from .graph import build_graph, group_by_repo
from .model import Timestamp, canonical_repo_id, parse_utc

POLICY_KINDS = (
    "MinTimestamp",
    "BeforeDate",
    "ProjectBlocklist",
    "DropOutOfOrder",
    "MinStars",
    "TopKStars",
)


@dataclass(frozen=True)
class FilterPolicy:
    """One declarative cleaning step: a kind plus its parameters."""

    kind: str
    min_ts: int | None = None
    cutoff: Timestamp | None = None
    blocklist: frozenset[str] | None = None
    scope: str | None = None
    min_stars: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "MinTimestamp":
            if self.min_ts is None:
                object.__setattr__(self, "min_ts", 1)
        elif self.kind == "BeforeDate":
            if self.cutoff is None:
                raise ValueError("BeforeDate needs a cutoff")
        elif self.kind == "ProjectBlocklist":
            if self.blocklist is None:
                raise ValueError("ProjectBlocklist needs a blocklist")
            object.__setattr__(
                self, "blocklist", frozenset(canonical_repo_id(r) for r in self.blocklist)
            )
        elif self.kind == "DropOutOfOrder":
            if self.scope is None:
                object.__setattr__(self, "scope", "commit")
            if self.scope not in ("commit", "project"):
                raise ValueError(f"scope must be commit or project, got {self.scope!r}")
        elif self.kind == "MinStars":
            if self.min_stars is None or self.min_stars < 0:
                raise ValueError("MinStars needs min_stars >= 0")
        elif self.kind == "TopKStars":
            if self.k is None or self.k < 1:
                raise ValueError("TopKStars needs k >= 1")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.min_ts is not None:
            out["min_ts"] = self.min_ts
        if self.cutoff is not None:
            out["cutoff"] = self.cutoff.epoch_seconds
        if self.blocklist is not None:
            out["blocklist"] = sorted(self.blocklist)
        if self.scope is not None:
            out["scope"] = self.scope
        if self.min_stars is not None:
            out["min_stars"] = self.min_stars
        if self.k is not None:
            out["k"] = self.k
        return out


@dataclass(frozen=True)
class RemovalLedger:
    """What one policy application cost: commits and whole projects removed."""

    policy: FilterPolicy
    removed_commits: int
    removed_projects: int
    retained_commits: int

    def to_dict(self) -> dict:
        return {
            "policy": self.policy.to_dict(),
            "removed_commits": self.removed_commits,
            "removed_projects": self.removed_projects,
            "retained_commits": self.retained_commits,
        }


# ---- Helpers ----


def _partition(policy, records, keep):
    kept = [r for r in records if keep(r)]
    ledger = RemovalLedger(
        policy=policy,
        removed_commits=len(records) - len(kept),
        removed_projects=len({r.repo_id for r in records}) - len({r.repo_id for r in kept}),
        retained_commits=len(kept),
    )
    return kept, ledger


def repo_star_table(records) -> list[tuple[str, int]]:
    """Repo-level star counts: the max seen per repo, 0 when never set."""
    stars: dict[str, int] = {}
    for rec in records:  # ingest refuses negative counts
        stars[rec.repo_id] = max(stars.get(rec.repo_id, 0), rec.stars or 0)
    return sorted(stars.items())


# ---- Filters ----


def _keep_from(policy, records, epoch: int, date_field: str):
    return _partition(policy, records, lambda r: r.date(date_field).epoch_seconds >= epoch)


def filter_min_timestamp(records, min_ts: int = 1, date_field: str = "committer"):
    """Drop commits whose epoch is below ``min_ts`` (default 1, so zero and
    negative timestamps go)."""
    return _keep_from(FilterPolicy(kind="MinTimestamp", min_ts=min_ts), records,
                      min_ts, date_field)


def filter_before_date(records, cutoff: Timestamp, date_field: str = "committer"):
    """Drop commits strictly before ``cutoff``; a commit at the cutoff instant
    survives."""
    return _keep_from(FilterPolicy(kind="BeforeDate", cutoff=cutoff), records,
                      cutoff.epoch_seconds, date_field)


def filter_blocklist(records, blocklist):
    """Drop every commit of the named repositories (ids are canonicalized,
    so ``Example/Repo.git`` blocks ``example/repo``)."""
    policy = FilterPolicy(kind="ProjectBlocklist", blocklist=frozenset(blocklist))
    return _partition(
        policy, records, lambda r: canonical_repo_id(r.repo_id) not in policy.blocklist
    )


def filter_out_of_order(records, scope: str = "commit", cfg: DetectorConfig | None = None):
    """Drop out-of-order commits, or whole projects containing any.

    Anomalies are recomputed here rather than taken on trust, so the
    operation is self-contained. One graph is built per repository, so
    records may span repositories.
    """
    cfg = cfg or DetectorConfig()
    policy = FilterPolicy(kind="DropOutOfOrder", scope=scope)

    anomalies = []
    for group in group_by_repo(records).values():
        anomalies.extend(detect_out_of_order_parents(build_graph(group), cfg))

    if scope == "commit":
        flagged = {a.commit_hash for a in anomalies}
        return _partition(policy, records, lambda r: r.hash not in flagged)
    dirty_repos = {a.repo_id for a in anomalies}
    return _partition(policy, records, lambda r: r.repo_id not in dirty_repos)


def filter_by_stars(records, min_stars: int):
    """Keep commits of repos with at least ``min_stars`` stars.

    Star counts live at repo granularity; a repo whose records never
    carry a count is treated as having zero stars, so any positive
    threshold removes it.
    """
    policy = FilterPolicy(kind="MinStars", min_stars=min_stars)
    stars = dict(repo_star_table(records))
    return _partition(policy, records, lambda r: stars.get(r.repo_id, 0) >= min_stars)


def filter_top_k_stars(records, k: int):
    """Keep only the k most-starred repositories' commits."""
    policy = FilterPolicy(kind="TopKStars", k=k)
    top = select_top_k_by_stars(repo_star_table(records), k)
    return _partition(policy, records, lambda r: r.repo_id in top)


def select_top_k_by_stars(repos, k: int) -> set[str]:
    """The k highest-starred repo ids; boundary ties go to the
    lexicographically smaller id. Fewer than k repos means all of them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    best: dict[str, int] = {}
    for repo_id, stars in repos:
        best[repo_id] = max(best.get(repo_id, stars), stars)
    ranked = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    return {repo_id for repo_id, _ in ranked[:k]}


# ---- Policy files ----


def policy_from_dict(data: dict) -> FilterPolicy:
    """Build a policy from its JSON form, converting dates as needed.

    ``cutoff`` accepts either an integer epoch or a UTC date string such
    as ``2014-01-01`` / ``2014-01-01T00:00:00Z``.
    """
    if not isinstance(data, dict):
        raise ValueError("policy entry must be an object")
    if "kind" not in data:
        raise ValueError("policy entry needs a 'kind'")
    known = {"kind", "min_ts", "cutoff", "blocklist", "scope", "min_stars", "k"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown policy fields: {sorted(unknown)}")
    for field in ("min_ts", "min_stars", "k"):
        _optional_int(data, field, "an integer")

    cutoff = data.get("cutoff")
    if isinstance(cutoff, str):
        cutoff = parse_utc(cutoff)
    elif cutoff is not None:
        cutoff = Timestamp(_optional_int(data, "cutoff", "an epoch integer or a date string"))

    blocklist = data.get("blocklist")
    if blocklist is not None:
        if not isinstance(blocklist, list) or not all(isinstance(r, str) for r in blocklist):
            raise ValueError("blocklist must be an array of repository ids")
        blocklist = frozenset(blocklist)

    return FilterPolicy(
        kind=data["kind"],
        min_ts=data.get("min_ts"),
        cutoff=cutoff,
        blocklist=blocklist,
        scope=data.get("scope"),
        min_stars=data.get("min_stars"),
        k=data.get("k"),
    )


def _optional_int(data: dict, field: str, expected: str):
    value = data.get(field)
    # type(), not isinstance(): a JSON true is a bool, and bool subclasses int.
    if value is not None and type(value) is not int:
        raise ValueError(f"{field} must be {expected}")
    return value


def load_policies(source) -> list[FilterPolicy]:
    """Read policies from a JSON file: either ``{"policies": [...]}`` or a
    bare array. ``source`` may be a path or an open file."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    if isinstance(data, dict):
        items = data.get("policies")
        if not isinstance(items, list):
            raise ValueError("policy file object needs a 'policies' array")
    elif isinstance(data, list):
        items = data
    else:
        raise ValueError("policy file must hold an object or an array")
    return [policy_from_dict(item) for item in items]


def apply_policy(records, policy: FilterPolicy, cfg: DetectorConfig | None = None):
    """Apply one policy; date-based policies respect cfg.date_field."""
    date_field = (cfg or DetectorConfig()).date_field
    if policy.kind == "MinTimestamp":
        return filter_min_timestamp(records, policy.min_ts, date_field=date_field)
    if policy.kind == "BeforeDate":
        return filter_before_date(records, policy.cutoff, date_field=date_field)
    if policy.kind == "ProjectBlocklist":
        return filter_blocklist(records, policy.blocklist)
    if policy.kind == "DropOutOfOrder":
        return filter_out_of_order(records, scope=policy.scope, cfg=cfg)
    if policy.kind == "MinStars":
        return filter_by_stars(records, policy.min_stars)
    if policy.kind == "TopKStars":
        return filter_top_k_stars(records, policy.k)
    raise ValueError(f"unknown policy kind {policy.kind!r}")


def apply_policies(records, policies, cfg: DetectorConfig | None = None):
    """Apply policies in order; each sees the previous step's survivors."""
    ledgers = []
    for policy in policies:
        records, ledger = apply_policy(records, policy, cfg)
        ledgers.append(ledger)
    return records, ledgers
