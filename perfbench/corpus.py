"""Seeded synthetic commit corpora, written with their own ground truth.

Everything is drawn from ``random.Random(seed)``, so the bytes for a seed
do not depend on the numpy version. The ground truth is computed here by
brute-force loops over the generator's own commits and edges, with the
same rules chronolint documents (strict ``>``, the case-insensitive
"merge" substring exemption, first-seen dedup); no chronolint code is
imported.

Every planted date stays inside [old cutoff, snapshot] except the planted
old and future commits, so ``old`` and ``future`` count exactly those.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

SNAPSHOT_DATE = "2019-10-31"
SNAPSHOT = 1572480000            # 2019-10-31T00:00:00Z
OLD_CUTOFF = 658972800           # 1990-11-19T00:00:00Z, chronolint's default
TIMELINE_START = 1230768000      # 2009-01-01T00:00:00Z
TIMELINE_SPAN = 7 * 365 * 86400  # every repository's history ends before 2016
MAX_SKEW = 2 * 365 * 86400
TOP_K = 100
# Shares of the commits that every workload uses; Params holds what
# differs. The manifest records both.
RATES = {
    "old_rate": 0.001,
    "future_rate": 0.001,
    "dangling_rate": 0.001,
    "signature_rate": 0.02,
    "withheld_rate": 0.05,  # share of out-of-order children without a stub
}

POLICIES = {"policies": [
    {"kind": "MinTimestamp", "min_ts": 1},
    {"kind": "DropOutOfOrder", "scope": "commit"},
    {"kind": "TopKStars", "k": TOP_K},
]}

_WORDS = (
    "fix add update remove refactor docs tests parser config build release "
    "cleanup handle error support improve performance typo readme api client "
    "server cache logging version bump dependency format lint crash leak "
    "race timeout retry window layout theme icon widget query index schema "
    "migration script install packaging license header option flag default "
    "path encoding unicode locale plugin hook event queue worker thread"
).split()
_SIGNATURES = (
    "git-svn-id: https://svn.example.org/repo/trunk@{n} 6a1f3c2e-0d4b",
    "Change-Id: I{hex}",
    "Reviewed-by: Jordan Example <jordan@example.org>",
    "rebase_source: {hex}",
    "imported from hg",
    "Synced by MOE",
)


@dataclass(frozen=True)
class Params:
    """What differs between workloads; rates are shares of the commits."""

    records: int
    repos: int
    fmt: str = "ndjson"
    merge_rate: float = 0.05
    skew_rate: float = 0.01
    dup_rate: float = 0.0
    verified_rate: float = 0.30
    stars: bool = True


class Commit:
    __slots__ = ("hash", "repo", "parents", "adate", "cdate", "author",
                 "committer", "message", "verified", "stars")

    def to_object(self) -> dict:
        obj = {
            "hash": self.hash, "repo": self.repo, "parents": self.parents,
            "author_date": self.adate, "committer_date": self.cdate,
            "author": self.author, "committer": self.committer,
            "message": self.message,
        }
        if self.verified is not None:
            obj["verified"] = self.verified
        if self.stars is not None:
            obj["stars"] = self.stars
        return obj

    def gitlog_entry(self) -> str:
        return "\x1f".join((
            self.hash, " ".join(self.parents), str(self.cdate), "+0000",
            str(self.adate), "+0000", self.committer, self.author, self.message,
        )) + "\n\x00\n"


def _hex(rng: random.Random) -> str:
    return f"{rng.getrandbits(160):040x}"


def _message(rng: random.Random, merge: bool, signature: bool) -> str:
    if merge:
        head = rng.choice(("Merge branch 'topic-{n}'", "merge pull request #{n}"))
        text = head.format(n=rng.randrange(1, 5000))
    else:
        text = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 9)))
    if signature:
        footer = rng.choice(_SIGNATURES).format(n=rng.randrange(1, 99999), hex=_hex(rng))
        text = f"{text}\n\n{footer}"
    return text


def _repo_sizes(rng: random.Random, total: int, repos: int) -> list[int]:
    weights = [rng.lognormvariate(0.0, 1.0) for _ in range(repos)]
    scale = (total - 2 * repos) / sum(weights)
    sizes = [2 + int(w * scale) for w in weights]
    for i in range(total - sum(sizes)):
        sizes[i % repos] += 1
    return sizes


def generate(params: Params, seed: int) -> tuple[list[Commit], dict[str, int]]:
    """Unique commits, repository by repository, parents before children,
    and how many old and future dates were planted.

    Old, future and skewed dates and tool signatures go to exactly their
    rate's share of the commits, drawn without replacement, so that every
    seed gives the commands the same amount of work.
    """
    rng = random.Random(seed)
    p = params
    sizes = _repo_sizes(rng, p.records, p.repos)
    planted = {"old": round(p.records * RATES["old_rate"]),
               "future": round(p.records * RATES["future_rate"]),
               "skew": round(p.records * p.skew_rate)}
    chosen = iter(rng.sample(range(p.records), sum(planted.values())))
    dates = {next(chosen): kind for kind, count in planted.items() for _ in range(count)}
    signed = set(rng.sample(range(p.records), round(p.records * RATES["signature_rate"])))
    commits: list[Commit] = []
    users = [f"dev{i:04d}" for i in range(max(20, p.records // 50))]
    for r, size in enumerate(sizes):
        repo = "acme/monorepo" if p.repos == 1 else f"org{r % 37}/project-{r:04d}"
        stars = int(10 ** rng.uniform(0, 5)) if p.stars else None
        team = rng.sample(users, min(len(users), rng.randint(2, 30)))
        start = TIMELINE_START + rng.randrange(365 * 86400)
        mean_gap = TIMELINE_SPAN // (2 * size)  # the gaps add up to at most the span
        t = start
        hashes = [_hex(rng) for _ in range(size)]
        for i in range(size):
            t += rng.randint(1, 2 * mean_gap)
            c = Commit()
            c.hash, c.repo, c.stars = hashes[i], repo, stars
            parents: list[str] = []
            merge = False
            if i:
                first = i - 1 if rng.random() < 0.85 else rng.randrange(max(0, i - 20), i)
                parents.append(hashes[first])
                if i >= 2 and rng.random() < p.merge_rate:
                    second = rng.randrange(max(0, i - 50), i)
                    if second != first:
                        parents.append(hashes[second])
                        merge = True
            if rng.random() < RATES["dangling_rate"]:
                parents.append(_hex(rng))
            kind = dates.get(len(commits))
            if kind == "old":
                c.cdate = rng.choice((0, -rng.randrange(1, 2_000_000_000),
                                      rng.randrange(1, OLD_CUTOFF)))
            elif kind == "future":
                c.cdate = SNAPSHOT + rng.randint(1, 5 * 365 * 86400)
            elif kind == "skew":
                # Older than the previous commit, by up to two years more.
                c.cdate = t - 2 * mean_gap - int(math.exp(rng.uniform(0.0, math.log(MAX_SKEW))))
            else:
                c.cdate = t
            c.adate = c.cdate - rng.randrange(3600)
            c.parents = parents
            c.author = rng.choice(team)
            c.committer = c.author if rng.random() < 0.8 else rng.choice(team)
            c.message = _message(rng, merge, len(commits) in signed)
            c.verified = (rng.random() < 0.7) if rng.random() < p.verified_rate else None
            commits.append(c)
    return commits, {"old": planted["old"], "future": planted["future"]}


# ---- Ground truth (brute force, no chronolint code) ----


def _is_merge(message: str) -> bool:
    return "merge" in message.lower()


def out_of_order(commits: list[Commit]) -> list[Commit]:
    """Children with a strictly newer parent in the same commit set and
    repository, skipping edges where either message mentions a merge."""
    by_hash = {c.hash: c for c in commits}
    flagged = []
    for c in commits:
        for h in c.parents:
            parent = by_hash.get(h)
            if (parent is not None and parent.repo == c.repo
                    and not _is_merge(c.message) and not _is_merge(parent.message)
                    and parent.cdate > c.cdate):
                flagged.append(c)
                break
    return flagged


def _verified_mismatch(commits: list[Commit]) -> list[Commit]:
    """One entry per verified child and unverified, strictly newer parent."""
    by_hash = {c.hash: c for c in commits}
    flagged = []
    for c in commits:
        if c.verified is not True:
            continue
        for h in c.parents:
            parent = by_hash.get(h)
            if (parent is not None and parent.repo == c.repo
                    and parent.verified is False and parent.cdate > c.cdate):
                flagged.append(c)
    return flagged


def _signature_count(message: str) -> int:
    """Footers match case-sensitively with their colon; "hg" and "MOE"
    match as whole words in any case."""
    footers = ("git-svn-id:", "Change-Id:", "Reviewed-by:", "rebase_source:")
    words = {w.lower() for w in "".join(ch if ch.isalnum() or ch == "_" else " "
                                        for ch in message).split()}
    return sum(f in message for f in footers) + ("hg" in words) + ("moe" in words)


def _kind_counts(flagged: list[Commit]) -> dict:
    return {"commits": len({c.hash for c in flagged}),
            "projects": len({c.repo for c in flagged})}


def _ledger(kind_policy: dict, before: list[Commit], after: list[Commit]) -> dict:
    return {
        "policy": kind_policy,
        "removed_commits": len(before) - len(after),
        "removed_projects": len({c.repo for c in before}) - len({c.repo for c in after}),
        "retained_commits": len(after),
    }


def _filter_truth(commits: list[Commit]) -> dict:
    step0 = commits
    step1 = [c for c in step0 if c.cdate >= 1]
    dropped = {c.hash for c in out_of_order(step1)}
    step2 = [c for c in step1 if c.hash not in dropped]
    stars: dict[str, int] = {}
    for c in step2:
        stars[c.repo] = max(stars.get(c.repo, 0), c.stars or 0)
    top = {repo for repo, _ in sorted(stars.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_K]}
    step3 = [c for c in step2 if c.repo in top]
    kinds = POLICIES["policies"]
    return {
        "input_records": len(step0),
        "output_records": len(step3),
        "ledgers": [_ledger(kinds[0], step0, step1), _ledger(kinds[1], step1, step2),
                    _ledger(kinds[2], step2, step3)],
    }


def _verify_truth(ooo: list[Commit], by_hash: dict, documented: set[str]) -> dict:
    """A candidate is confirmed when its document and one of its parents'
    documents exist and that parent is strictly newer; merges are not
    exempt here.

    ``lookups`` are the (repo, hash) pairs verify resolves, each once:
    every candidate, and for a documented one its parents in document
    order up to the first strictly newer documented parent.
    """
    resolved = [c for c in ooo if c.hash in documented]
    confirmed = 0
    lookups = {(c.repo, c.hash) for c in ooo}
    for c in resolved:
        for h in c.parents:
            lookups.add((c.repo, h))
            if h in documented and by_hash[h].cdate > c.cdate:
                confirmed += 1
                break
    return {
        "candidates": len(ooo),
        "accounting": {"confirmed_on_forge": len(resolved), "confirmed_on_archive": 0,
                       "unverifiable": len(ooo) - len(resolved)},
        "confirmed": confirmed,
        "lookups": sorted(lookups),
    }


def ground_truth(commits: list[Commit], duplicates: int, documented: set[str]) -> dict:
    ooo = out_of_order(commits)
    kinds = {
        "old": [c for c in commits if c.cdate < OLD_CUTOFF],
        "future": [c for c in commits if c.cdate > SNAPSHOT],
        "out_of_order_parent": ooo,
        "out_of_order_linear": [],
        "tool_signature": [c for c in commits for _ in range(_signature_count(c.message))],
        "verified_mismatch": _verified_mismatch(commits),
    }
    # One list entry per anomaly the report should hold.
    flagged = [c for group in kinds.values() for c in group]
    summary = {kind: _kind_counts(group) for kind, group in kinds.items()}
    summary["total"] = _kind_counts(flagged)
    return {
        "records": len(commits),
        "projects": len({c.repo for c in commits}),
        "dedup": {"total_in": len(commits) + duplicates, "unique_out": len(commits),
                  "duplicate_hashes": duplicates},
        "summary": summary,
        "anomalies": sum(len(group) for group in kinds.values()),
        "filter": _filter_truth(commits),
        "verify": _verify_truth(ooo, {c.hash: c for c in commits}, documented),
    }


# ---- Files ----


def write_corpus(params: Params, seed: int, directory: Path) -> dict:
    """Write the corpus, its stub documents and configs; return the manifest.

    Files: ``corpus.*`` (the input, duplicate lines included),
    ``unique.*`` (first occurrence of every line, the same order),
    ``stubs/<hash>.json`` for every out-of-order child and its parents
    except the withheld children, ``policies.json`` and
    ``ground_truth.json``.
    """
    rng = random.Random(seed ^ 0x5EED)
    commits, planted = generate(params, seed)
    directory.mkdir(parents=True, exist_ok=True)

    if params.fmt == "gitlog":
        entries = [c.gitlog_entry() for c in reversed(commits)]  # newest first, as git prints
        duplicates = 0
        lines = entries
    else:
        entries = [json.dumps(c.to_object(), separators=(",", ":")) + "\n" for c in commits]
        rng.shuffle(entries)
        duplicates = int(len(entries) * params.dup_rate)
        # A repeated line lands anywhere after its first occurrence.
        keyed = [(float(i), entry) for i, entry in enumerate(entries)]
        keyed += [(rng.uniform(i + 0.5, len(entries)), entries[i])
                  for i in rng.sample(range(len(entries)), duplicates)]
        keyed.sort(key=lambda pair: pair[0])
        lines = [entry for _, entry in keyed]
    suffix = "log" if params.fmt == "gitlog" else "ndjson"
    corpus = directory / f"corpus.{suffix}"
    corpus.write_text("".join(lines), encoding="utf-8")
    unique = directory / f"unique.{suffix}"
    unique.write_text("".join(entries), encoding="utf-8")

    ooo = out_of_order(commits)
    withheld = {c.hash for c in rng.sample(ooo, int(len(ooo) * RATES["withheld_rate"]))}
    by_hash = {c.hash: c for c in commits}
    documented = {c.hash for c in ooo if c.hash not in withheld}
    documented.update(h for c in ooo for h in c.parents if h in by_hash)
    documented -= withheld
    stubs = directory / "stubs"
    stubs.mkdir(exist_ok=True)
    for h in sorted(documented):
        (stubs / f"{h}.json").write_text(json.dumps(by_hash[h].to_object()), encoding="utf-8")

    (directory / "policies.json").write_text(json.dumps(POLICIES), encoding="utf-8")
    truth = ground_truth(commits, duplicates, documented)
    for kind, count in planted.items():
        if truth["summary"][kind]["commits"] != count:
            raise RuntimeError(f"{count} {kind} dates planted, {truth['summary'][kind]['commits']} "
                               "found: the timeline left the [old cutoff, snapshot] window")
    manifest = {
        "seed": seed,
        "params": {**asdict(params), **RATES},
        "corpus": str(corpus),
        "unique": str(unique),
        "stubs": str(stubs),
        "policies": str(directory / "policies.json"),
        "input_records": len(lines),
        "truth": truth,
    }
    (directory / "ground_truth.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest
