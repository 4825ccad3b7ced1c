"""Parsers and normalizers for portable commit-history exports.

Two wire formats are supported: newline-delimited JSON (one commit object
per line) and the NUL-delimited output of ``git log`` with a
unit-separator pretty format (see the README for the exact recipe).

Parsing is deliberately lenient: a record that fails to parse is reported
and skipped, so a single mangled line cannot sink a multi-million-commit
export. :func:`deduplicate` then runs over the already-parsed records.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass

from .model import CommitRecord, Timestamp, normalize_timestamp

log = logging.getLogger(__name__)

_HEX_HASH = re.compile(r"^[0-9a-f]{40}$")
_SVN_HASH = re.compile(r"^r[0-9]+@\S+$")  # Subversion revisions: "r<N>@<repo>"
_TZ_HHMM = re.compile(r"^([+-])([0-9]{2})([0-9]{2})$")

_REQUIRED_KEYS = (
    "hash",
    "repo",
    "parents",
    "author_date",
    "committer_date",
    "author",
    "committer",
    "message",
)
_DATE_UNITS = ("s", "ms", "us")

GITLOG_FIELD_SEP = "\x1f"
GITLOG_RECORD_SEP = "\x00"


# ---- Result containers ----


@dataclass(frozen=True)
class MalformedRecord:
    """A record that failed to parse, with enough context to find it again.

    ``line_number`` is the 1-based physical line for NDJSON input and the
    1-based record ordinal for gitlog input (records there span lines).
    """

    line_number: int
    reason: str


@dataclass(frozen=True)
class ParseResult:
    """Everything a parse produced: good records plus skip-and-report rejects."""

    records: list[CommitRecord]
    malformed: list[MalformedRecord]


@dataclass(frozen=True)
class DuplicateHashConflict:
    """Two records shared a hash but disagreed on the committer date.

    The first-seen record wins; this notes what was thrown away.
    """

    hash: str
    kept: Timestamp
    dropped: Timestamp


@dataclass(frozen=True)
class DedupReport:
    """Accounting for a deduplication pass.

    Every dropped record is accounted for:
    ``total_in == unique_out + sum(count - 1 for each duplicated hash)``.
    """

    total_in: int
    unique_out: int
    duplicate_hashes: tuple[tuple[str, int], ...]
    conflicts: tuple[DuplicateHashConflict, ...] = ()

    def __post_init__(self):
        dropped = sum(count - 1 for _, count in self.duplicate_hashes)
        if self.total_in != self.unique_out + dropped:
            raise ValueError(
                f"dedup accounting broken: {self.total_in} in != "
                f"{self.unique_out} unique + {dropped} dropped"
            )


# ---- Field validators ----


def _canon_hash(raw, what: str = "hash") -> str:
    """Validate a commit id; full-width hex ids are folded to lowercase."""
    if not isinstance(raw, str):
        raise ValueError(f"{what} must be a string")
    lowered = raw.lower()
    if _HEX_HASH.match(lowered):
        return lowered
    if _SVN_HASH.match(raw):
        return raw
    raise ValueError(f"{what} {raw!r} is neither 40-char hex nor r<N>@<repo>")


def _require_int(value, what: str) -> int:
    # bool is an int subclass; a JSON `true` in a date field is garbage.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _parse_tz_minutes(text: str) -> int:
    """Accept git's +HHMM / -HHMM notation, or a bare signed minute count."""
    m = _TZ_HHMM.match(text.strip())
    if m:
        sign = 1 if m.group(1) == "+" else -1
        return sign * (int(m.group(2)) * 60 + int(m.group(3)))
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"unparseable timezone offset {text!r}") from None


# ---- NDJSON format ----


def _record_from_object(obj) -> CommitRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")

    commit_hash = _canon_hash(obj["hash"])
    repo_id = _require_str(obj["repo"], "repo")

    raw_parents = obj["parents"]
    if not isinstance(raw_parents, list):
        raise ValueError("parents must be an array")
    parents = tuple(_canon_hash(p, "parent") for p in raw_parents)

    unit = obj.get("date_unit", "s")
    if unit not in _DATE_UNITS:
        raise ValueError(f"date_unit must be one of {_DATE_UNITS}, got {unit!r}")

    tz = obj.get("tz_offset_min", 0)
    if isinstance(tz, bool) or not isinstance(tz, int):
        raise ValueError("tz_offset_min must be an integer")

    author_date = normalize_timestamp(_require_int(obj["author_date"], "author_date"), unit, tz)
    committer_date = normalize_timestamp(
        _require_int(obj["committer_date"], "committer_date"), unit, tz
    )

    verified = obj.get("verified")
    if verified is not None and not isinstance(verified, bool):
        raise ValueError("verified must be a boolean when present")

    stars = obj.get("stars")
    if stars is not None:
        stars = _require_int(stars, "stars")
        if stars < 0:
            raise ValueError("stars must be non-negative")

    return CommitRecord(
        hash=commit_hash,
        repo_id=repo_id,
        parents=parents,
        author_date=author_date,
        committer_date=committer_date,
        author_id=_require_str(obj["author"], "author"),
        committer_id=_require_str(obj["committer"], "committer"),
        message=_require_str(obj["message"], "message"),
        verified=verified,
        stars=stars,
    )


def _parse_ndjson(text: str) -> ParseResult:
    records: list[CommitRecord] = []
    malformed: list[MalformedRecord] = []
    # NDJSON lines end at "\n" only. str.splitlines() would also split on
    # U+2028, U+0085, \x1c and others, and U+2028 is legal inside a JSON string.
    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            malformed.append(MalformedRecord(line_number, f"invalid JSON: {exc.msg}"))
            continue
        try:
            records.append(_record_from_object(obj))
        except ValueError as exc:
            malformed.append(MalformedRecord(line_number, str(exc)))
    return ParseResult(records, malformed)


# ---- gitlog format ----


def _record_from_gitlog_chunk(chunk: str, repo_id: str) -> CommitRecord:
    fields = chunk.split(GITLOG_FIELD_SEP, 8)
    if len(fields) != 9:
        raise ValueError(f"expected 9 unit-separated fields, got {len(fields)}")
    (raw_hash, raw_parents, c_epoch, c_tz, a_epoch, a_tz,
     committer_name, author_name, message) = fields

    commit_hash = _canon_hash(raw_hash)
    parents = tuple(_canon_hash(p, "parent") for p in raw_parents.split())

    try:
        committer_epoch = int(c_epoch)
        author_epoch = int(a_epoch)
    except ValueError:
        raise ValueError(f"non-integer epoch field: {c_epoch!r} / {a_epoch!r}") from None

    committer_date = Timestamp(committer_epoch, _parse_tz_minutes(c_tz))
    author_date = Timestamp(author_epoch, _parse_tz_minutes(a_tz))

    return CommitRecord(
        hash=commit_hash,
        repo_id=repo_id,
        parents=parents,
        author_date=author_date,
        committer_date=committer_date,
        author_id=author_name,
        committer_id=committer_name,
        message=message.rstrip("\n"),
    )


def _parse_gitlog(text: str, repo_id: str) -> ParseResult:
    records: list[CommitRecord] = []
    malformed: list[MalformedRecord] = []
    ordinal = 0
    for chunk in text.split(GITLOG_RECORD_SEP):
        # git prints a newline between entries; the NUL lands before it.
        chunk = chunk.lstrip("\n")
        if not chunk.strip():
            continue
        ordinal += 1
        try:
            records.append(_record_from_gitlog_chunk(chunk, repo_id))
        except ValueError as exc:
            malformed.append(MalformedRecord(ordinal, str(exc)))
    return ParseResult(records, malformed)


# ---- Public API ----


def parse_commit_stream(stream, format: str = "ndjson", repo_id: str = "") -> ParseResult:
    """Parse an export stream into commit records, skipping bad records.

    ``stream`` may be bytes, text, or a file-like object (binary or text).
    ``repo_id`` is required for the gitlog format, which carries no repo
    field of its own; it is ignored for NDJSON, where each record names
    its repository.
    """
    if hasattr(stream, "read"):
        stream = stream.read()
    if isinstance(stream, bytes):
        text = stream.decode("utf-8", errors="replace")
    elif isinstance(stream, str):
        text = stream
    else:
        raise TypeError(f"cannot parse a {type(stream).__name__}")

    if format == "ndjson":
        result = _parse_ndjson(text)
    elif format == "gitlog":
        result = _parse_gitlog(text, repo_id)
    else:
        raise ValueError(f"unknown format {format!r} (expected 'ndjson' or 'gitlog')")

    if result.malformed:
        log.warning("skipped %d malformed record(s) of %d",
                    len(result.malformed), len(result.records) + len(result.malformed))
    return result


def deduplicate(records: list[CommitRecord]) -> tuple[list[CommitRecord], DedupReport]:
    """Drop exact hash duplicates, keeping the first occurrence of each.

    Duplicates that disagree on the committer date are additionally
    surfaced as :class:`DuplicateHashConflict` entries -- those are not
    mere re-exports but genuinely contradictory data.
    """
    kept: dict[str, CommitRecord] = {}  # first occurrences, in input order
    counts: dict[str, int] = {}
    conflicts: list[DuplicateHashConflict] = []

    for rec in records:
        counts[rec.hash] = counts.get(rec.hash, 0) + 1
        first = kept.get(rec.hash)
        if first is None:
            kept[rec.hash] = rec
        elif rec.committer_date.epoch_seconds != first.committer_date.epoch_seconds:
            conflicts.append(
                DuplicateHashConflict(rec.hash, first.committer_date, rec.committer_date)
            )

    order = list(kept.values())
    duplicate_hashes = tuple(
        (rec.hash, counts[rec.hash]) for rec in order if counts[rec.hash] > 1
    )
    report = DedupReport(
        total_in=len(records),
        unique_out=len(order),
        duplicate_hashes=duplicate_hashes,
        conflicts=tuple(conflicts),
    )
    return order, report
