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
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .detectors import DetectorConfig, detect_out_of_order_parents
from .graph import build_graph, group_by_repo
from .model import Timestamp, canonical_repo_id, parse_utc, typed


@dataclass(frozen=True)
class FilterPolicy:
    """One declarative cleaning step: a kind plus the one field it takes
    (see ``_KINDS``); every other field stays None."""

    kind: str
    min_ts: int | None = None
    cutoff: Timestamp | None = None
    blocklist: frozenset[str] | None = None
    scope: str | None = None
    min_stars: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        spec = _KINDS[self.kind]
        others = [f.name for f in fields(self)[1:]
                  if f.name != spec.field and getattr(self, f.name) is not None]
        if others:
            raise ValueError(f"{self.kind} takes only {spec.field!r}, got {others}")
        value = getattr(self, spec.field)
        if value is None:
            if spec.default is None:
                raise ValueError(f"{self.kind} needs {spec.field}")
            value = spec.default
        if spec.check and not spec.check[0](value):
            raise ValueError(f"{self.kind} needs {spec.field} {spec.check[1]}, got {value!r}")
        if spec.field == "blocklist":
            value = frozenset(canonical_repo_id(r) for r in value)
        object.__setattr__(self, spec.field, value)

    def to_dict(self) -> dict:
        spec = _KINDS[self.kind]
        value = getattr(self, spec.field)
        return {"kind": self.kind, spec.field: spec.dump(value) if spec.dump else value}


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


# ---- Policy kinds ----


class _Kind(NamedTuple):
    """The one field that a policy kind takes, and the filter it runs."""

    field: str
    json_type: type | tuple           # the field's type in a policy file
    default: object                   # None: the field is required
    run: Callable                     # (records, value, cfg) -> (kept, ledger)
    check: tuple | None = None        # (test of a value, what the test asks)
    load: Callable | None = None      # a policy file's value -> the policy's
    dump: Callable | None = None      # the policy's value -> a policy file's


_KINDS = {
    "MinTimestamp": _Kind(
        "min_ts", int, 1, lambda rs, v, cfg: filter_min_timestamp(rs, v, cfg.date_field)),
    "BeforeDate": _Kind(
        "cutoff", (int, str), None, lambda rs, v, cfg: filter_before_date(rs, v, cfg.date_field),
        load=lambda v: parse_utc(v) if isinstance(v, str) else Timestamp(v),
        dump=lambda cutoff: cutoff.epoch_seconds),
    "ProjectBlocklist": _Kind(
        "blocklist", list, None, lambda rs, v, cfg: filter_blocklist(rs, v),
        load=lambda v: frozenset(typed(r, str, "a blocklist entry") for r in v), dump=sorted),
    "DropOutOfOrder": _Kind(
        "scope", str, "commit", lambda rs, v, cfg: filter_out_of_order(rs, v, cfg),
        check=(lambda v: v in ("commit", "project"), "'commit' or 'project'")),
    "MinStars": _Kind(
        "min_stars", int, None, lambda rs, v, cfg: filter_by_stars(rs, v),
        check=(lambda v: v >= 0, ">= 0")),
    "TopKStars": _Kind(
        "k", int, None, lambda rs, v, cfg: filter_top_k_stars(rs, v),
        check=(lambda v: v >= 1, ">= 1")),
}


# ---- Policy files ----


def policy_from_dict(data: dict) -> FilterPolicy:
    """Build a policy from its JSON form, converting dates as needed.

    ``cutoff`` accepts either an integer epoch or a UTC date string such
    as ``2014-01-01`` / ``2014-01-01T00:00:00Z``.
    """
    if "kind" not in typed(data, dict, "a policy entry"):
        raise ValueError("policy entry needs a 'kind'")
    kind = typed(data["kind"], str, "kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown policy kind {kind!r}")
    spec = _KINDS[kind]
    extra = sorted(set(data) - {"kind", spec.field})
    if extra:
        raise ValueError(f"{kind} takes only {spec.field!r}, got {extra}")
    value = data.get(spec.field)
    if value is not None:
        value = typed(value, spec.json_type, spec.field)
        value = spec.load(value) if spec.load else value
    return FilterPolicy(kind, **{spec.field: value})


def load_policies(path) -> list[FilterPolicy]:
    """Read policies from a JSON file: either ``{"policies": [...]}`` or a
    bare array."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(typed(data, (dict, list), "a policy file"), dict):
        data = typed(data.get("policies"), list, "a policy file's 'policies'")
    return [policy_from_dict(item) for item in data]


def apply_policy(records, policy: FilterPolicy, cfg: DetectorConfig | None = None):
    """Apply one policy; date-based policies respect cfg.date_field."""
    spec = _KINDS[policy.kind]
    return spec.run(records, getattr(policy, spec.field), cfg or DetectorConfig())


def apply_policies(records, policies, cfg: DetectorConfig | None = None):
    """Apply policies in order; each sees the previous step's survivors."""
    ledgers = []
    for policy in policies:
        records, ledger = apply_policy(records, policy, cfg)
        ledgers.append(ledger)
    return records, ledgers
