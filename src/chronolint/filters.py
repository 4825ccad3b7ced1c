"""Composable cleaning policies with removal accounting.

:func:`apply_policy` partitions its input into retained and removed
commits and returns the retained list plus a :class:`RemovalLedger`, so
every audit can state exactly what a cleaning step cost. Policies are
declarative (a kind and one value), serializable to JSON, and replayable
from a policy file; see the README for the file format.

Nothing here rewrites timestamps: commits are kept or dropped, never
repaired.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .detectors import DetectorConfig, detect_out_of_order_parents
from .graph import build_graph, group_by_repo
from .model import canonical_repo_id, checked, decode_json, parse_utc, ranked, read_text, typed


@checked
class FilterPolicy(NamedTuple):
    """One declarative cleaning step: a kind and the one value it takes,
    which a policy file names by the kind's field (see ``_KINDS``)."""

    kind: str
    value: int | frozenset[str] | str | None = None

    def _check(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        spec = _KINDS[self.kind]
        value = self.value
        if value is None:
            if spec.default is None:
                raise ValueError(f"{self.kind} needs {spec.field}")
            value = spec.default
        elif spec.load:
            value = spec.load(value)
        if spec.check and not spec.check[0](value):
            raise ValueError(f"{self.kind} needs {spec.field} {spec.check[1]}, got {value!r}")
        return self._replace(value=value)

    def to_dict(self) -> dict:
        spec = _KINDS[self.kind]
        return {"kind": self.kind, spec.field: spec.dump(self.value) if spec.dump else self.value}


class RemovalLedger(NamedTuple):
    """What one policy application cost: commits and whole projects removed."""

    policy: FilterPolicy
    removed_commits: int
    removed_projects: int
    retained_commits: int

    def to_dict(self) -> dict:
        return {**self._asdict(), "policy": self.policy.to_dict()}


def repo_star_table(records) -> dict[str, int]:
    """Repo-level star counts: the max seen per repo, 0 when never set."""
    stars: dict[str, int] = {}
    for rec in records:  # ingest refuses negative counts
        stars[rec.repo_id] = max(stars.get(rec.repo_id, 0), rec.stars or 0)
    return stars


# ---- What each kind keeps ----


def _keep_from(epoch: int, date_field: str):
    """Commits dated at or after ``epoch``: one at the instant survives."""
    return lambda r: r.date(date_field) >= epoch


def _keep_in_order(records, scope: str, cfg: DetectorConfig):
    """Commits no out-of-order anomaly names, or with scope ``project`` the
    commits of repos with none. Anomalies are recomputed, one graph per
    repository, rather than taken on trust."""
    anomalies = [a for group in group_by_repo(records).values()
                 for a in detect_out_of_order_parents(build_graph(group), cfg)]
    if scope == "commit":
        flagged = {a.commit_hash for a in anomalies}
        return lambda r: r.hash not in flagged
    dirty_repos = {a.repo_id for a in anomalies}
    return lambda r: r.repo_id not in dirty_repos


def _keep_starred(records, min_stars: int, cfg):
    """Repos with at least ``min_stars``; a repo whose records never carry
    a count has zero stars, so any positive threshold removes it."""
    stars = repo_star_table(records)
    return lambda r: stars[r.repo_id] >= min_stars


def _keep_top_k(records, k: int, cfg):
    """The k most-starred repos; boundary ties go to the smaller id, and
    fewer than k repos means all of them."""
    top = {repo_id for repo_id, _ in ranked(repo_star_table(records).items())[:k]}
    return lambda r: r.repo_id in top


class _Kind(NamedTuple):
    """The one field that a policy kind takes, and what the kind keeps."""

    field: str
    json_type: type | tuple           # the field's type in a policy file
    default: object                   # None: the field is required
    keep: Callable                    # (records, value, cfg) -> test a kept record passes
    check: tuple | None = None        # (test of a value, what the test asks)
    load: Callable | None = None      # a given value -> the policy's
    dump: Callable | None = None      # the policy's value -> a policy file's


_KINDS = {
    "MinTimestamp": _Kind(
        "min_ts", int, 1, lambda rs, v, cfg: _keep_from(v, cfg.date_field)),
    "BeforeDate": _Kind(
        "cutoff", (int, str), None, lambda rs, v, cfg: _keep_from(v, cfg.date_field),
        load=lambda v: parse_utc(v) if isinstance(v, str) else v),
    "ProjectBlocklist": _Kind(
        "blocklist", list, None,
        lambda rs, v, cfg: lambda r: canonical_repo_id(r.repo_id) not in v,
        load=lambda v: frozenset(canonical_repo_id(typed(r, str, "a blocklist entry")) for r in v),
        dump=sorted),
    "DropOutOfOrder": _Kind(
        "scope", str, "commit", _keep_in_order,
        check=(lambda v: v in ("commit", "project"), "'commit' or 'project'")),
    "MinStars": _Kind(
        "min_stars", int, None, _keep_starred, check=(lambda v: v >= 0, ">= 0")),
    "TopKStars": _Kind(
        "k", int, None, _keep_top_k, check=(lambda v: v >= 1, ">= 1")),
}


# ---- Policy files ----


def policy_from_object(data: dict) -> FilterPolicy:
    """Build a policy from its JSON form; the kind's ``load`` converts the value.

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
        typed(value, spec.json_type, spec.field)
    return FilterPolicy(kind, value)


def load_policies(path) -> list[FilterPolicy]:
    """Read policies from a JSON file: either ``{"policies": [...]}`` or a
    bare array."""
    data = decode_json(read_text(path))
    if isinstance(typed(data, (dict, list), "a policy file"), dict):
        data = typed(data.get("policies"), list, "a policy file's 'policies'")
    return [policy_from_object(item) for item in data]


def apply_policy(records, policy: FilterPolicy, cfg: DetectorConfig | None = None):
    """Apply one policy: (the records it keeps, in order, and its ledger).
    Date-based policies respect cfg.date_field."""
    keep = _KINDS[policy.kind].keep(records, policy.value, cfg or DetectorConfig())
    kept = [r for r in records if keep(r)]
    return kept, RemovalLedger(
        policy=policy,
        removed_commits=len(records) - len(kept),
        removed_projects=len({r.repo_id for r in records}) - len({r.repo_id for r in kept}),
        retained_commits=len(kept),
    )


def apply_policies(records, policies, cfg: DetectorConfig | None = None):
    """Apply policies in order; each sees the previous step's survivors."""
    ledgers = []
    for policy in policies:
        records, ledger = apply_policy(records, policy, cfg)
        ledgers.append(ledger)
    return records, ledgers
