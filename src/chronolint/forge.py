"""Per-commit metadata retrieval with fallback sources, caching, and
rate-limit discipline.

The client walks a declared-order source list -- typically a local
cache, then a forge API, then an archive mirror -- and the first source
that answers wins. Commits are fetched one at a time, in the calling
thread. Fresh answers are appended to every configured cache so a re-run
of the same audit touches the network zero times. A directory-of-JSON-files
stub source stands in for the forge in offline tests; its document schema
mirrors the NDJSON ingest record.
"""

from __future__ import annotations

import errno
import functools
import json
import logging
import os
import re
import string
import time
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import NoneType

from .model import OUT_OF_ORDER_KINDS, Anomaly, decode_json, typed

log = logging.getLogger(__name__)

HTTP_KINDS = ("PrimaryForge", "ArchiveFallback")
SOURCE_KINDS = (*HTTP_KINDS, "LocalCache", "FileStub")
MAX_ATTEMPTS = 5  # per HTTP fetch; a rate limit and a transport error each use one
HTTP_TIMEOUT_S = 30.0  # per attempt, to connect and then between received bytes


class VerificationStatus(str, Enum):
    CONFIRMED_ON_FORGE = "confirmed_on_forge"
    CONFIRMED_ON_ARCHIVE = "confirmed_on_archive"
    UNVERIFIABLE = "unverifiable"


@dataclass(frozen=True)
class MetadataSource:
    """One place to ask about a commit, in priority order.

    ``endpoint`` is a URL template with bare ``{repo}``/``{hash}`` holes
    (no format spec, no conversion) for the HTTP kinds, a directory for
    FileStub, and an NDJSON file path for LocalCache. ``auth`` names an
    environment variable holding a bearer token; the token itself never
    lives in config.
    """

    kind: str
    endpoint: str
    auth: str | None = None

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if not typed(self.endpoint, str, f"source {self.kind!r}: endpoint"):
            raise ValueError(f"source {self.kind!r} needs an endpoint")
        typed(self.auth, (str, NoneType), f"source {self.kind!r}: auth")
        if self.kind in HTTP_KINDS:
            if not self.endpoint.lower().startswith(("http://", "https://")):
                raise ValueError(f"source {self.kind!r}: endpoint must be an http:// "
                                 "or https:// URL template")
            try:
                fields = list(string.Formatter().parse(self.endpoint))
            except ValueError as exc:
                raise ValueError(f"source {self.kind!r}: bad endpoint template: {exc}") from None
            # Bare fields only: a format spec or a conversion would act on
            # the hash at fetch time, where "{hash:d}" fails and
            # "{hash:9999999999}" pads it to gigabytes.
            for _, name, spec, conversion in fields:
                if name is not None and (name not in ("repo", "hash") or spec or conversion):
                    raise ValueError(f"source {self.kind!r}: endpoint field {name!r} must be a "
                                     "bare {repo} or {hash}, with no format spec or conversion")


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

# One encoder for every cache line: json.dumps with these options builds a
# new JSONEncoder per call. The encoder holds no state between calls.
_CACHE_ENCODER = json.JSONEncoder(sort_keys=True)


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
        with open(self.path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.endswith(b"\n"):
                    log.warning("%s: skipping torn last line %d", self.path, number)
                    self._torn_at = os.fstat(fh.fileno()).st_size - len(line)
                    break
                try:
                    # One byte order mark at the head of the file is dropped.
                    text = line.decode("utf-8-sig" if number == 1 else "utf-8")
                    if not text.strip():
                        continue
                    repo_id, outcome = _outcome_from_entry(decode_json(text))
                    self._entries[(repo_id, outcome.commit_hash)] = outcome
                except KeyError as exc:
                    raise ValueError(f"corrupt cache {self.path} line {number}: missing {exc}") from exc
                except ValueError as exc:
                    raise ValueError(f"corrupt cache {self.path} line {number}: {exc}") from exc

    def _error(self, action: str, exc: OSError) -> OSError:
        return OSError(f"cannot {action} cache {self.path}: {exc}")

    def get(self, repo_id: str, commit_hash: str) -> VerificationOutcome | None:
        return self._entries.get((repo_id, commit_hash))

    def put(self, repo_id: str, outcome: VerificationOutcome) -> None:
        key = (repo_id, outcome.commit_hash)
        if key in self._entries:
            return
        self._entries[key] = outcome
        try:
            if self._fh is None:
                self._fh = self._open_for_append()
            self._fh.write(_CACHE_ENCODER.encode(_entry_from_outcome(repo_id, outcome)))
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


def _outcome_from_entry(entry) -> tuple[str, VerificationOutcome]:
    """Read a cache line's object back as (repo, outcome); every key must be there."""
    repo_id = typed(typed(entry, dict, "the line")["repo"], str, "repo")
    parents = typed(entry["parents"], (list, NoneType), "parents")
    return repo_id, VerificationOutcome(
        commit_hash=typed(entry["hash"], str, "hash"),
        status=VerificationStatus(typed(entry["status"], str, "status")),
        verified_flag=typed(entry["verified"], (bool, NoneType), "verified"),
        parents=None if parents is None else tuple(typed(p, str, "a parent") for p in parents),
        committer_date=typed(entry["committer_date"], (int, NoneType), "committer_date"),
    )


# ---- Transport ----


def http_transport(url: str, headers: dict):
    """Default HTTP GET: (status_code, body_text, response_headers) for any
    status; the headers' lookup ignores letter case. A failed connection or
    response raises ``OSError``, and so does a server that stays silent for
    ``HTTP_TIMEOUT_S``. Imported on first use, ``urllib.request``
    loads ``http.client``, ``ssl`` and ``email``."""
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.parse import quote
    from urllib.request import Request

    # Percent-encode what a repo id or hash brings in, as requests did; a
    # '%' that starts no escape is encoded too.
    safe = "!#$&'()*+,/:;=?@[]~" + ("" if re.search("%(?![0-9A-Fa-f]{2})", url) else "%")
    request = Request(quote(url, safe=safe), headers=headers)
    try:
        try:
            resp = _opener().open(request, timeout=HTTP_TIMEOUT_S)
        except HTTPError as exc:
            resp = exc  # an error status still carries a body
        with resp:
            return resp.status, resp.read().decode("utf-8", "replace"), resp.headers
    except HTTPException as exc:
        # IncompleteRead and BadStatusLine are not OSErrors; the client's
        # attempt budget counts OSErrors.
        raise OSError(f"broken response from {url}: {exc!r}") from exc


@functools.cache
def _opener():
    """A urllib opener whose redirects drop ``Authorization`` when the scheme
    or host:port changes, so a token neither reaches another host nor leaves TLS."""
    from urllib.parse import urlsplit
    from urllib.request import HTTPRedirectHandler, build_opener

    class SameOriginAuthRedirect(HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            new = super().redirect_request(req, fp, code, msg, headers, newurl)
            if new is not None and urlsplit(newurl)[:2] != urlsplit(req.full_url)[:2]:
                new.remove_header("Authorization")
            return new

    return build_opener(SameOriginAuthRedirect)


@functools.cache
def _record_reader():
    """ingest's commit reader: the first fetched document loads it, a cache hit never does."""
    from .ingest import _record_from_object
    return _record_from_object


# ---- Client ----


class ForgeClient:
    """Walks sources in declared order with caching and bounded backoff.

    ``transport`` and ``sleep`` are injectable so tests can exercise the
    retry discipline without a network or a clock; an HTTP fetch makes at
    most ``MAX_ATTEMPTS`` attempts. A batch fetches one commit at a time,
    in the calling thread: forges cap requests per hour, and GitHub asks
    clients to send them one at a time.
    """

    def __init__(self, sources, transport=http_transport, sleep=time.sleep):
        sources = tuple(sources)
        if not sources:
            raise ValueError("configure at least one metadata source")
        self.sources = sources
        self.transport = transport
        self.sleep = sleep
        self._caches = {
            s.endpoint: CacheStore(s.endpoint) for s in sources if s.kind == "LocalCache"
        }

    # -- single fetch --

    def _fetch(self, repo_id: str, commit_hash: str) -> VerificationOutcome:
        """The first answer in source order, remembered in every cache; a
        cache hit keeps its original status and costs no fetch, and
        exhaustion maps to an Unverifiable outcome."""
        for source in self.sources:
            if source.kind == "LocalCache":
                outcome = self._caches[source.endpoint].get(repo_id, commit_hash)
            else:
                outcome = self._fetch_from(source, repo_id, commit_hash)
            if outcome is not None:
                break
        else:
            outcome = VerificationOutcome(commit_hash, VerificationStatus.UNVERIFIABLE)
        for cache in self._caches.values():
            cache.put(repo_id, outcome)
        return outcome

    def _close_caches(self) -> None:
        with ExitStack() as stack:  # closes every cache even if one fails
            for cache in self._caches.values():
                stack.callback(cache.close)

    def _fetch_from(self, source: MetadataSource, repo_id: str,
                    commit_hash: str) -> VerificationOutcome | None:
        """One source's answer, or None when it has none for the commit."""
        if source.kind == "FileStub":
            body = self._read_stub(source, commit_hash)
        else:
            body = self._http_get_with_backoff(source, repo_id, commit_hash)
        return None if body is None else self._outcome_from_document(source, commit_hash, body)

    def _read_stub(self, source: MetadataSource, commit_hash: str) -> str | None:
        path = os.path.join(source.endpoint, f"{commit_hash}.json")
        try:
            with open(path, encoding="utf-8-sig") as fh:  # -sig: one head BOM is dropped
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            # A missing file is a miss, and so is a name too long for any file.
            if getattr(exc, "errno", None) in (errno.ENOENT, errno.ENAMETOOLONG):
                return None
            raise OSError(f"cannot read stub document {path}: {exc}") from exc
        except ValueError:  # open() refuses a name no file can have, such as one with a NUL
            return None

    def _http_get_with_backoff(self, source: MetadataSource, repo_id: str,
                               commit_hash: str) -> str | None:
        """The body of a 200 answer; None for another status or a spent budget."""
        url = source.endpoint.format(repo=repo_id, hash=commit_hash)
        headers = {"Accept": "application/json"}
        if source.auth:
            token = os.environ.get(source.auth)
            if token:
                headers["Authorization"] = f"Bearer {token}"

        delay = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                status, body, resp_headers = self.transport(url, headers)
            except OSError as exc:
                # A failed connection or response: no hint to back off from.
                log.debug("transport error on %s: %s", url, exc)
                continue
            if status == 200:
                return body
            if status != 429:
                return None
            # Rate limited: exponential backoff from the server's first hint,
            # read as RFC 9110 delay-seconds; any other form waits one second.
            try:
                if delay is None:
                    hint = resp_headers.get("Retry-After", "").strip(" \t")
                    delay = int(hint) if hint.isascii() and hint.isdigit() else 1
                else:
                    delay *= 2
                if attempt + 1 < MAX_ATTEMPTS:
                    log.debug("rate limited on %s; sleeping %ss", url, delay)
                    self.sleep(delay)
            except (OverflowError, ValueError):
                # int() refuses a hint of over 4,300 digits, and sleep a delay
                # no clock can wait: the source has no answer this run.
                return None
        return None

    def _outcome_from_document(self, source: MetadataSource, commit_hash: str,
                               body: str) -> VerificationOutcome | None:
        """What a fetched document states; None if it is unusable or another commit's."""
        try:
            record = _record_reader()(decode_json(body), {}, {}, {})
        except ValueError as exc:
            log.warning("unusable metadata document from %s: %s", source.kind, exc)
            return None
        if record.hash != commit_hash:
            log.warning("%s answered with %s when asked for %s",
                        source.kind, record.hash, commit_hash)
            return None
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
            committer_date=record.committer_date,
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
        for anomaly in anomalies:
            if anomaly.kind not in OUT_OF_ORDER_KINDS:
                raise ValueError("verification expects out-of-order candidates")

        def check(anomaly: Anomaly):
            child = self._fetch(anomaly.repo_id, anomaly.commit_hash)
            if child.status is VerificationStatus.UNVERIFIABLE:
                return anomaly, child.status, False
            for parent_hash in child.parents:
                parent = self._fetch(anomaly.repo_id, parent_hash)
                if (parent.status is not VerificationStatus.UNVERIFIABLE
                        and parent.committer_date > child.committer_date):
                    return anomaly, child.status, True
            return anomaly, child.status, False

        try:
            results = [check(anomaly) for anomaly in anomalies]
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


def load_sources(source) -> list[MetadataSource]:
    """Read the source order from a JSON config file.

    Shape: ``{"sources": [{"kind": ..., "endpoint": ..., "auth": ...},
    ...]}``; other top-level keys are ignored. Commits are fetched one at
    a time, so no key sizes a pool.
    """
    with open(source, encoding="utf-8-sig") as fh:  # -sig: one head BOM is dropped
        data = decode_json(fh.read())
    sources = []
    for item in typed(typed(data, dict, "a sources config").get("sources"), list, "sources"):
        unknown = sorted(set(typed(item, dict, "a source")) - {"kind", "endpoint", "auth"})
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
    return sources
