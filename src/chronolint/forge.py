"""Per-commit metadata retrieval with fallback sources, caching, and
rate-limit discipline.

The client walks a declared-order source list -- typically a local
cache, then a forge API, then an archive mirror -- and the first source
that answers wins. Fresh answers are appended to every configured cache
so a re-run of the same audit touches the network zero times. A
directory-of-JSON-files stub source stands in for the forge in offline
tests; its document schema mirrors the NDJSON ingest record.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .ingest import _record_from_object
from .model import Anomaly, AnomalyKind

log = logging.getLogger(__name__)

SOURCE_KINDS = ("PrimaryForge", "ArchiveFallback", "LocalCache", "FileStub")
DEFAULT_MAX_ATTEMPTS = 5
DEFAULT_WORKERS = 4


class RateLimited(Exception):
    """The source asked us to slow down."""

    def __init__(self, retry_after: float):
        self.retry_after = retry_after
        super().__init__(f"rate limited; retry after {retry_after}s")


class NotFound(Exception):
    """This source has no answer for the commit; try the next one."""


class AllSourcesExhausted(Exception):
    """Every configured source came up empty."""


class VerificationStatus(str, Enum):
    CONFIRMED_ON_FORGE = "confirmed_on_forge"
    CONFIRMED_ON_ARCHIVE = "confirmed_on_archive"
    UNVERIFIABLE = "unverifiable"


@dataclass(frozen=True)
class MetadataSource:
    """One place to ask about a commit, in priority order.

    ``endpoint`` is a URL template with ``{repo}``/``{hash}`` holes for
    the HTTP kinds, a directory for FileStub, and an NDJSON file path
    for LocalCache. ``auth`` names an environment variable holding a
    bearer token; the token itself never lives in config.
    """

    kind: str
    endpoint: str
    auth: str | None = None

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not self.endpoint:
            raise ValueError(f"source {self.kind!r} needs an endpoint")


@dataclass(frozen=True)
class VerificationOutcome:
    """What the sources know about one commit.

    ``committer_date`` is the fetched epoch, the ground truth the audit
    compares against. Archive-sourced outcomes carry
    ``verified_flag=None``: archives do not expose forge signature
    status.
    """

    commit_hash: str
    status: VerificationStatus
    verified_flag: bool | None = None
    parents: tuple[str, ...] | None = None
    committer_date: int | None = None

    def __post_init__(self):
        if self.status is not VerificationStatus.UNVERIFIABLE:
            if self.parents is None or self.committer_date is None:
                raise ValueError("resolved outcomes need parents and a committer date")
            object.__setattr__(self, "parents", tuple(self.parents))


# ---- Cache ----


class CacheStore:
    """Append-only NDJSON cache of outcomes, keyed by (repo, hash).

    No eviction: audit runs are bounded and a stale cache is reset by
    deleting the file. Failures (Unverifiable) are cached too, so a
    repeated batch run performs zero network operations.

    The first new entry opens one append handle, which stays open until
    ``close()``: appends are buffered for the batch and reach the file
    when it is closed, or sooner when the buffer fills. A store that
    only answers lookups never opens the file for writing. A killed run
    loses at most the unflushed tail; if it leaves a last line without
    its newline, that line is skipped with a warning and cut off before
    the next append. Any other unreadable line raises ``ValueError``,
    and a file that cannot be read or written raises ``OSError`` naming
    it.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], VerificationOutcome] = {}
        self._torn_at: int | None = None  # byte offset of a torn last line
        self._fh = None  # the append handle, open from the first new entry to close()
        try:
            self._load()
        except OSError as exc:
            raise self._error("read", exc) from exc

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8", newline="\n") as fh:
            for number, line in enumerate(fh, 1):
                if not line.endswith("\n"):
                    log.warning("%s: skipping torn last line %d", self.path, number)
                    self._torn_at = os.fstat(fh.fileno()).st_size - len(line.encode("utf-8"))
                    break
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    self._entries[(entry["repo"], entry["hash"])] = _outcome_from_entry(entry)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"corrupt cache {self.path} line {number}: {exc}") from exc

    def _error(self, action: str, exc: OSError) -> OSError:
        return OSError(f"cannot {action} cache {self.path}: {exc}")

    def get(self, repo_id: str, commit_hash: str) -> VerificationOutcome | None:
        with self._lock:
            return self._entries.get((repo_id, commit_hash))

    def put(self, repo_id: str, outcome: VerificationOutcome) -> None:
        key = (repo_id, outcome.commit_hash)
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = outcome
            try:
                if self._fh is None:
                    self._fh = self._open_for_append()
                self._fh.write(json.dumps(_entry_from_outcome(repo_id, outcome), sort_keys=True))
                self._fh.write("\n")
            except OSError as exc:
                raise self._error("append to", exc) from exc

    def _open_for_append(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a", encoding="utf-8")
        if self._torn_at is not None:
            fh.truncate(self._torn_at)
            self._torn_at = None
        return fh

    def close(self) -> None:
        """Flush and close the append handle; safe to call again."""
        with self._lock:
            fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError as exc:
                raise self._error("append to", exc) from exc


def _entry_from_outcome(repo_id: str, outcome: VerificationOutcome) -> dict:
    return {
        "repo": repo_id,
        "hash": outcome.commit_hash,
        "status": outcome.status.value,
        "verified": outcome.verified_flag,
        "parents": None if outcome.parents is None else list(outcome.parents),
        "committer_date": outcome.committer_date,
    }


def _outcome_from_entry(entry: dict) -> VerificationOutcome:
    return VerificationOutcome(
        commit_hash=entry["hash"],
        status=VerificationStatus(entry["status"]),
        verified_flag=entry["verified"],
        parents=None if entry["parents"] is None else tuple(entry["parents"]),
        committer_date=entry["committer_date"],
    )


# ---- Transport ----


def requests_transport(url: str, headers: dict, timeout: float = 30.0):
    """Default HTTP GET. Returns (status_code, body_text, response_headers).

    ``requests`` is imported on the first call, so that sources which never
    reach the network (``LocalCache``, ``FileStub``) do not pay for loading it.
    """
    import requests

    resp = requests.get(url, headers=headers, timeout=timeout)
    return resp.status_code, resp.text, dict(resp.headers)


# ---- Client ----


class ForgeClient:
    """Walks sources in declared order with caching and bounded backoff.

    ``transport`` and ``sleep`` are injectable so tests can exercise the
    retry discipline without a network or a clock.
    """

    def __init__(self, sources, transport=requests_transport, sleep=time.sleep,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS, workers: int = DEFAULT_WORKERS):
        sources = tuple(sources)
        if not sources:
            raise ValueError("configure at least one metadata source")
        if max_attempts < 1 or workers < 1:
            raise ValueError("max_attempts and workers must be >= 1")
        self.sources = sources
        self.transport = transport
        self.sleep = sleep
        self.max_attempts = max_attempts
        self.workers = workers
        self._caches = {
            s.endpoint: CacheStore(s.endpoint) for s in sources if s.kind == "LocalCache"
        }
        self._stub_dirs = {
            s.endpoint: os.path.join(s.endpoint, "") for s in sources if s.kind == "FileStub"
        }

    # -- single fetch --

    def fetch_commit_metadata(self, repo_id: str, commit_hash: str) -> VerificationOutcome:
        """Resolve one commit; exhaustion maps to an Unverifiable outcome.

        A fresh answer is on disk in every cache when this returns.
        """
        try:
            return self._fetch(repo_id, commit_hash)
        finally:
            self._close_caches()

    def _fetch(self, repo_id: str, commit_hash: str) -> VerificationOutcome:
        try:
            outcome = self._resolve(repo_id, commit_hash)
        except AllSourcesExhausted:
            outcome = VerificationOutcome(
                commit_hash=commit_hash, status=VerificationStatus.UNVERIFIABLE
            )
        self._remember(repo_id, outcome)
        return outcome

    def _close_caches(self) -> None:
        with ExitStack() as stack:  # closes every cache even if one fails
            for cache in self._caches.values():
                stack.callback(cache.close)

    def _resolve(self, repo_id: str, commit_hash: str) -> VerificationOutcome:
        for source in self.sources:
            if source.kind == "LocalCache":
                hit = self._caches[source.endpoint].get(repo_id, commit_hash)
                if hit is not None:
                    return hit  # original status preserved; zero network
                continue
            try:
                return self._fetch_from(source, repo_id, commit_hash)
            except NotFound:
                continue
        raise AllSourcesExhausted(f"{repo_id}@{commit_hash}")

    def _remember(self, repo_id: str, outcome: VerificationOutcome) -> None:
        for cache in self._caches.values():
            cache.put(repo_id, outcome)

    def _fetch_from(self, source: MetadataSource, repo_id: str,
                    commit_hash: str) -> VerificationOutcome:
        if source.kind == "FileStub":
            return self._fetch_stub(source, commit_hash)
        body = self._http_get_with_backoff(source, repo_id, commit_hash)
        return self._outcome_from_document(source, commit_hash, body)

    def _fetch_stub(self, source: MetadataSource, commit_hash: str) -> VerificationOutcome:
        path = f"{self._stub_dirs[source.endpoint]}{commit_hash}.json"
        try:
            with open(path, encoding="utf-8") as fh:
                body = fh.read()
        except FileNotFoundError:
            raise NotFound(commit_hash) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise OSError(f"cannot read stub document {path}: {exc}") from exc
        return self._outcome_from_document(source, commit_hash, body)

    def _http_get_with_backoff(self, source: MetadataSource, repo_id: str,
                               commit_hash: str) -> str:
        url = source.endpoint.format(repo=repo_id, hash=commit_hash)
        headers = {"Accept": "application/json"}
        if source.auth:
            token = os.environ.get(source.auth)
            if token:
                headers["Authorization"] = f"Bearer {token}"

        delay = None
        for attempt in range(self.max_attempts):
            try:
                return self._request_once(url, headers)
            except RateLimited as limited:
                # Exponential backoff from the server's first hint.
                delay = limited.retry_after if delay is None else delay * 2
                if attempt + 1 < self.max_attempts:
                    log.debug("rate limited on %s; sleeping %.1fs", url, delay)
                    self.sleep(delay)
            except OSError as exc:
                # requests' ConnectionError and Timeout are OSErrors. With
                # no server hint there is nothing to back off from.
                log.debug("transport error on %s: %s", url, exc)
        raise NotFound(f"attempt budget exhausted for {url}")

    def _request_once(self, url: str, headers: dict) -> str:
        status, body, resp_headers = self.transport(url, headers)
        if status == 200:
            return body
        if status == 429:
            try:
                hint = float(resp_headers.get("Retry-After", 1))
            except (TypeError, ValueError):
                hint = 1.0
            raise RateLimited(hint)
        raise NotFound(f"{url} -> HTTP {status}")

    def _outcome_from_document(self, source: MetadataSource, commit_hash: str,
                               body: str) -> VerificationOutcome:
        try:
            record = _record_from_object(json.loads(body))
        except (ValueError, json.JSONDecodeError) as exc:
            log.warning("unusable metadata document from %s: %s", source.kind, exc)
            raise NotFound(str(exc)) from exc
        if record.hash != commit_hash:
            log.warning("%s answered with %s when asked for %s",
                        source.kind, record.hash, commit_hash)
            raise NotFound(commit_hash)
        if source.kind == "ArchiveFallback":
            status = VerificationStatus.CONFIRMED_ON_ARCHIVE
            verified = None  # archives do not expose forge signature state
        else:
            status = VerificationStatus.CONFIRMED_ON_FORGE
            verified = record.verified
        return VerificationOutcome(
            commit_hash=record.hash,
            status=status,
            verified_flag=verified,
            parents=record.parents,
            committer_date=record.committer_date.epoch_seconds,
        )

    # -- batch verification --

    def verify_anomalies(self, anomalies: list[Anomaly]):
        """Re-check out-of-order candidates against fetched truth.

        A candidate is confirmed iff at least one fetched parent is
        strictly newer than the fetched commit itself; candidates that
        cannot be resolved anywhere are dropped, never fatal. Returns
        (confirmed, dropped, accounting-by-status); confirmed plus
        dropped is exactly the input.
        """
        verifiable = (AnomalyKind.OUT_OF_ORDER_LINEAR, AnomalyKind.OUT_OF_ORDER_PARENT)
        for anomaly in anomalies:
            if anomaly.kind not in verifiable:
                raise ValueError("verification expects out-of-order candidates")

        def check(anomaly: Anomaly):
            child = self._fetch(anomaly.repo_id, anomaly.commit_hash)
            if child.status is VerificationStatus.UNVERIFIABLE:
                return anomaly, child.status, False
            confirmed = False
            for parent_hash in child.parents:
                parent = self._fetch(anomaly.repo_id, parent_hash)
                if (
                    parent.status is not VerificationStatus.UNVERIFIABLE
                    and parent.committer_date > child.committer_date
                ):
                    confirmed = True
                    break
            return anomaly, child.status, confirmed

        try:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                results = list(pool.map(check, anomalies))
        finally:
            self._close_caches()

        results.sort(key=lambda row: (row[0].commit_hash, row[0].repo_id))
        confirmed: list[Anomaly] = []
        dropped: list[Anomaly] = []
        accounting = {status.value: 0 for status in VerificationStatus}
        for anomaly, status, ok in results:
            accounting[status.value] += 1
            (confirmed if ok else dropped).append(anomaly)
        return confirmed, dropped, accounting


# ---- Functional wrapper and config ----


def verify_anomalies(anomalies, sources, **kwargs):
    return ForgeClient(sources, **kwargs).verify_anomalies(anomalies)


def load_sources(source) -> tuple[list[MetadataSource], int]:
    """Read source order and worker count from a JSON config file.

    Shape: ``{"workers": 4, "sources": [{"kind": ..., "endpoint": ...,
    "auth": ...}, ...]}``; ``workers`` is optional.
    """
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("sources"), list):
        raise ValueError("source config needs a 'sources' array")
    sources = []
    for item in data["sources"]:
        if not isinstance(item, dict):
            raise ValueError("each source must be an object")
        unknown = sorted(set(item) - {"kind", "endpoint", "auth"})
        if unknown:
            raise ValueError(f"unknown source fields: {unknown}")
        sources.append(
            MetadataSource(
                kind=item.get("kind", ""),
                endpoint=item.get("endpoint", ""),
                auth=item.get("auth"),
            )
        )
    if not sources:
        raise ValueError("configure at least one metadata source")
    workers = data.get("workers", DEFAULT_WORKERS)
    if not isinstance(workers, int) or workers < 1:
        raise ValueError("workers must be a positive integer")
    return sources, workers
