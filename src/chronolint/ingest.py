"""Parsers and normalizers for portable commit-history exports.

Two wire formats are supported: newline-delimited JSON (one commit object
per line) and the NUL-delimited output of ``git log`` with a
unit-separator pretty format (see the README for the exact recipe).

Parsing is deliberately lenient: a record that fails to parse is reported
and skipped, so a single mangled line cannot sink a multi-million-commit
export. :func:`deduplicate` then runs over the already-parsed records.

A parse streams its input one block of ``_READ_BLOCK`` (64 KiB) at a time.
Beyond the records it keeps, it holds one block's bytes, text and lines,
and the per-parse id memo. Within one parse, every reference to a commit
shares one hash string, every repeat of a repo or person id one id
string, and every repeat of a star count or an offset one int.
"""

from __future__ import annotations

import io
import json
import re
from typing import NamedTuple

from .model import (
    ASCII_INT,
    EPOCH_MAX,
    EPOCH_MIN,
    _HEX_HASH,
    _SVN_HASH,
    _UNIT_FACTORS,
    CommitRecord,
    checked,
    decode_json,
    log_warning,
    normalize_timestamp,
    typed,
)

_TZ_HHMM = re.compile(r"([+-])([0-9]{2})([0-9]{2})")

# The widest offsets in use are -12:00 and +14:00; this allows +-18:00.
TZ_OFFSET_MIN = -1080
TZ_OFFSET_MAX = 1080

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
_DATE_UNITS = tuple(_UNIT_FACTORS)

GITLOG_FIELD_SEP = "\x1f"
GITLOG_RECORD_SEP = "\x00"

# Read size for a handle: bytes, or characters from a text handle. A parse
# holds one block in three forms at once: bytes, text and lines. 16 KiB
# parsed no faster and saved under 0.1 MB of any command's peak RSS (a
# gitlog one's rose); 256 KiB and up raised every command's.
_READ_BLOCK = 1 << 16


# ---- Result containers ----


class MalformedRecord(NamedTuple):
    """A record that failed to parse, with enough context to find it again.

    ``line_number`` is the 1-based physical line for NDJSON input and the
    1-based record ordinal for gitlog input (records there span lines).
    """

    line_number: int
    reason: str


class ParseResult(NamedTuple):
    """Everything a parse produced: good records plus skip-and-report rejects."""

    records: list[CommitRecord]
    malformed: list[MalformedRecord]


class DuplicateHashConflict(NamedTuple):
    """Two records shared a hash but disagreed on the committer date:
    the date of the copy :func:`deduplicate` kept, and of one it dropped."""

    hash: str
    kept: int
    dropped: int


@checked
class DedupReport(NamedTuple):
    """Accounting for a deduplication pass.

    Every dropped record is accounted for:
    ``total_in == unique_out + sum(count - 1 for each duplicated hash)``.
    ``duplicate_hashes`` counts each repeated hash's copies, in first-seen
    order; ``conflicts`` are sorted by (hash, kept, dropped).
    """

    total_in: int
    unique_out: int
    duplicate_hashes: tuple[tuple[str, int], ...]
    conflicts: tuple[DuplicateHashConflict, ...] = ()

    def _check(self):
        dropped = sum(count - 1 for _, count in self.duplicate_hashes)
        if self.total_in != self.unique_out + dropped:
            raise ValueError(
                f"dedup accounting broken: {self.total_in} in != "
                f"{self.unique_out} unique + {dropped} dropped"
            )


# ---- Field validators ----
# The record functions check a field's usual type inline with type(), and
# call model.typed only for any other type, to raise with the field's name.


def _canon_hash(raw, what: str, hashes: dict) -> str:
    """Validate a commit id; upper-case hex ids are folded to lowercase.

    ``hashes`` maps each raw id already accepted in this parse to its
    canonical string, so that every reference to a commit shares one
    string object. A raw id that fails is not stored.
    """
    if type(raw) is str:
        known = hashes.get(raw)
        if known is not None:
            return known
    elif not isinstance(raw, str):
        raise ValueError(f"{what} must be a string")
    lowered = raw.lower()
    if _HEX_HASH.fullmatch(lowered):
        canonical = hashes.setdefault(lowered, lowered)
    elif _SVN_HASH.fullmatch(raw):
        canonical = raw
    else:
        raise ValueError(f"{what} {raw!r} is neither 40-char hex nor r<N>@<repo>")
    hashes[raw] = canonical
    return canonical


def _ascii_int(text: str) -> int:
    """``int(text)`` for ASCII digits with an optional leading "-" only."""
    if not ASCII_INT.fullmatch(text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)  # still raises past int()'s digit limit


def _check_epoch_range(author_date: int, committer_date: int) -> None:
    if not EPOCH_MIN <= author_date <= EPOCH_MAX:
        raise ValueError("author_date is outside the int64 range of epoch seconds")
    if not EPOCH_MIN <= committer_date <= EPOCH_MAX:
        raise ValueError("committer_date is outside the int64 range of epoch seconds")


def _check_tz_range(minutes: int) -> None:
    if not TZ_OFFSET_MIN <= minutes <= TZ_OFFSET_MAX:
        raise ValueError(
            f"tz offset {minutes} outside [{TZ_OFFSET_MIN}, {TZ_OFFSET_MAX}] minutes")


def _parse_tz_minutes(text: str, tzs: dict) -> int:
    """Accept git's +HHMM / -HHMM notation, or a bare signed minute count,
    within the allowed range.

    ``tzs`` remembers each text that parsed, with its minutes.
    """
    stripped = text.strip()
    m = _TZ_HHMM.fullmatch(stripped)
    if m is None:
        try:
            minutes = _ascii_int(stripped)
        except ValueError:
            raise ValueError(f"unparseable timezone offset {text!r}") from None
    elif m.group(3) < "60":
        sign = 1 if m.group(1) == "+" else -1
        minutes = sign * (int(m.group(2)) * 60 + int(m.group(3)))
    else:
        raise ValueError(f"unparseable timezone offset {text!r}")
    _check_tz_range(minutes)
    tzs[text] = minutes
    return minutes


# ---- NDJSON format ----


def _record_from_object(obj, hashes: dict, shared: dict) -> CommitRecord:
    """Validate one decoded NDJSON object; checks run, and fail, in a fixed
    order, so a record with several faults always names the same one.

    ``hashes`` is :func:`_canon_hash`'s memo. ``shared`` maps each repo,
    author and committer id, star count and offset to the first object
    seen with its value, so that records share one object per value:
    Python shares only the ints up to 256. One dict serves both, since a
    str never equals an int, and the type checks keep bools out.
    """
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    try:
        raw_hash = obj["hash"]
        repo_id = obj["repo"]
        raw_parents = obj["parents"]
        raw_author_date = obj["author_date"]
        raw_committer_date = obj["committer_date"]
        author_id = obj["author"]
        committer_id = obj["committer"]
        message = obj["message"]
    except KeyError:
        missing = [k for k in _REQUIRED_KEYS if k not in obj]
        raise ValueError(f"missing required keys: {', '.join(missing)}") from None

    commit_hash = _canon_hash(raw_hash, "hash", hashes)
    if type(repo_id) is str:
        repo_id = shared.setdefault(repo_id, repo_id)
    else:
        typed(repo_id, str, "repo")

    if not isinstance(raw_parents, list):
        raise ValueError("parents must be an array")
    parents = tuple([_canon_hash(p, "parent", hashes) for p in raw_parents])

    unit = obj.get("date_unit", "s")
    if unit not in _DATE_UNITS:
        raise ValueError(f"date_unit must be one of {_DATE_UNITS}, got {unit!r}")

    tz = obj.get("tz_offset_min", 0)
    if type(tz) is not int:
        raise ValueError("tz_offset_min must be an integer")

    if type(raw_author_date) is not int:
        typed(raw_author_date, int, "author_date")
    author_date = normalize_timestamp(raw_author_date, unit)
    _check_tz_range(tz)
    tz = shared.setdefault(tz, tz)
    if type(raw_committer_date) is not int:
        typed(raw_committer_date, int, "committer_date")
    committer_date = normalize_timestamp(raw_committer_date, unit)

    verified = obj.get("verified")
    if verified is not None and type(verified) is not bool:
        raise ValueError("verified must be a boolean when present")

    stars = obj.get("stars")
    if stars is not None:
        if type(stars) is not int:
            typed(stars, int, "stars")
        if stars < 0:
            raise ValueError("stars must be non-negative")
        stars = shared.setdefault(stars, stars)

    if type(author_id) is str:
        author_id = shared.setdefault(author_id, author_id)
    else:
        typed(author_id, str, "author")
    if type(committer_id) is str:
        committer_id = shared.setdefault(committer_id, committer_id)
    else:
        typed(committer_id, str, "committer")
    if type(message) is not str:
        typed(message, str, "message")
    _check_epoch_range(author_date, committer_date)

    return CommitRecord(commit_hash, repo_id, parents, author_date, committer_date,
                        author_id, committer_id, message, verified, stars, tz)


def _parse_ndjson(lines) -> ParseResult:
    records: list[CommitRecord] = []
    malformed: list[MalformedRecord] = []
    hashes: dict[str, str] = {}
    shared: dict = {}
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = decode_json(line)
        except json.JSONDecodeError as exc:
            malformed.append(MalformedRecord(line_number, f"invalid JSON: {exc.msg}"))
            continue
        except ValueError as exc:  # an integer longer than int() converts, or nesting too deep
            malformed.append(MalformedRecord(line_number, f"invalid JSON: {exc}"))
            continue
        try:
            records.append(_record_from_object(obj, hashes, shared))
        except ValueError as exc:
            malformed.append(MalformedRecord(line_number, str(exc)))
    return ParseResult(records, malformed)


# ---- gitlog format ----


def _record_from_gitlog_chunk(chunk: str, repo_id: str, hashes: dict, names: dict,
                              tzs: dict) -> CommitRecord:
    """Validate one NUL-delimited gitlog record. ``hashes`` is
    :func:`_canon_hash`'s memo, ``tzs`` is :func:`_parse_tz_minutes`'s, and
    ``names`` shares one string per person name. All three are keyed by
    text, so they stay apart: a committer named ``+0100`` is no offset."""
    fields = chunk.split(GITLOG_FIELD_SEP, 8)
    if len(fields) != 9:
        raise ValueError(f"expected 9 unit-separated fields, got {len(fields)}")
    (raw_hash, raw_parents, c_epoch, c_tz, a_epoch, a_tz,
     committer_name, author_name, message) = fields

    commit_hash = _canon_hash(raw_hash, "hash", hashes)
    parents = tuple([_canon_hash(p, "parent", hashes) for p in raw_parents.split()])

    try:
        committer_epoch = _ascii_int(c_epoch)
        author_epoch = _ascii_int(a_epoch)
    except ValueError:
        raise ValueError(f"non-integer epoch field: {c_epoch!r} / {a_epoch!r}") from None

    c_minutes = tzs.get(c_tz)
    if c_minutes is None:
        c_minutes = _parse_tz_minutes(c_tz, tzs)
    if a_tz not in tzs:  # checked, then dropped: a record keeps one offset
        _parse_tz_minutes(a_tz, tzs)
    _check_epoch_range(author_epoch, committer_epoch)

    return CommitRecord(commit_hash, repo_id, parents, author_epoch, committer_epoch,
                        names.setdefault(author_name, author_name),
                        names.setdefault(committer_name, committer_name),
                        message.rstrip("\n"), tz_offset_min=c_minutes)


def _parse_gitlog(chunks, repo_id: str) -> ParseResult:
    records: list[CommitRecord] = []
    malformed: list[MalformedRecord] = []
    hashes: dict[str, str] = {}
    names: dict[str, str] = {}
    tzs: dict[str, int] = {}
    ordinal = 0
    for chunk in chunks:
        # git prints a newline between entries; the NUL lands before it.
        chunk = chunk.lstrip("\n")
        if not chunk.strip():
            continue
        ordinal += 1
        try:
            records.append(_record_from_gitlog_chunk(chunk, repo_id, hashes, names, tzs))
        except ValueError as exc:
            malformed.append(MalformedRecord(ordinal, str(exc)))
    return ParseResult(records, malformed)


# ---- Reading ----


def _pieces(stream, sep: str):
    """Yield the text between ``sep``s in ``stream``, in order, less one
    byte order mark at the head of the input: RFC 8259 section 8.1 lets a
    parser ignore it, and the first piece stays the first.
    """
    pieces = _split(stream, sep)
    yield next(pieces).removeprefix("\ufeff")
    yield from pieces


def _split(stream, sep: str):
    """Yield the text between ``sep``s in ``stream``, in order; there is
    always at least one piece.

    A handle is read ``_READ_BLOCK`` units at a time; the unfinished last
    piece of a block is carried into the next. So one block's bytes, its
    text and its pieces are held at once, not the whole input; only a
    piece longer than a block is carried across blocks whole. Bytes are
    decoded a block at a time, up to its last ``sep``: ``sep`` is ASCII,
    so no UTF-8 sequence spans it, and the text is the same as from
    decoding the whole input first.
    """
    if isinstance(stream, str):
        yield from stream.split(sep)
        return
    if isinstance(stream, bytes):
        stream = io.BytesIO(stream)
    elif not hasattr(stream, "read"):
        raise TypeError(f"cannot parse a {type(stream).__name__}")
    empty = stream.read(0)  # b"" from a binary handle, "" from a text one
    raw_sep = sep if isinstance(empty, str) else sep.encode()
    carry: list = []  # the unfinished piece, which may span blocks
    while block := stream.read(_READ_BLOCK):
        cut = block.rfind(raw_sep)
        if cut < 0:
            carry.append(block)
            continue
        carry.append(block[:cut])
        yield from _decode(empty.join(carry)).split(sep)
        carry = [block[cut + 1:]]
    yield _decode(empty.join(carry))


def _decode(data) -> str:
    return data if isinstance(data, str) else data.decode("utf-8", errors="replace")


# ---- Public API ----


def parse_commit_stream(stream, format: str = "ndjson", repo_id: str = "") -> ParseResult:
    """Parse an export stream into commit records, skipping bad records.

    ``stream`` may be bytes, text, or a file-like object (binary or text).
    A file-like object is read in blocks, never whole. ``repo_id`` is
    required for the gitlog format, which carries no repo field of its
    own; it is ignored for NDJSON, where each record names its repository.
    """
    if format == "ndjson":
        # NDJSON lines end at "\n" only. str.splitlines() would also split on
        # U+2028, U+0085, \x1c and others, and U+2028 is legal inside a JSON string.
        result = _parse_ndjson(_pieces(stream, "\n"))
    elif format == "gitlog":
        result = _parse_gitlog(_pieces(stream, GITLOG_RECORD_SEP), repo_id)
    else:
        raise ValueError(f"unknown format {format!r} (expected 'ndjson' or 'gitlog')")

    if result.malformed:
        log_warning(__name__, "skipped %d malformed record(s) of %d",
                    len(result.malformed), len(result.records) + len(result.malformed))
    return result


def deduplicate(records: list[CommitRecord]) -> tuple[list[CommitRecord], DedupReport]:
    """Keep one record of each hash, in the order the hashes are first seen.

    The copy kept does not depend on the input order: when the copies of a
    hash differ, it is the one whose ``repr`` sorts first, a total order on
    distinct records. Each other copy that disagrees with it on the
    committer date is surfaced as a :class:`DuplicateHashConflict` -- those
    are not mere re-exports but genuinely contradictory data.

    One dict holds an entry per unique hash; only the hashes seen more
    than once collect their copies, in a second one. A record listed twice
    is a repeat of itself.
    """
    kept: dict[str, CommitRecord] = {}  # one copy per hash, in first-seen order
    copies: dict[str, list[CommitRecord]] = {}  # every copy of a hash seen more than once
    for rec in records:
        h = rec.hash
        if h not in kept:
            kept[h] = rec
        else:
            copies.setdefault(h, [kept[h]]).append(rec)

    conflicts: list[DuplicateHashConflict] = []
    for h, group in copies.items():
        if any(rec != group[0] for rec in group):
            keep = kept[h] = min(group, key=repr)
            conflicts += [DuplicateHashConflict(h, keep.committer_date, rec.committer_date)
                          for rec in group if rec.committer_date != keep.committer_date]
    conflicts.sort()

    duplicate_hashes = tuple((h, len(copies[h])) for h in kept if h in copies) if copies else ()
    report = DedupReport(
        total_in=len(records),
        unique_out=len(kept),
        duplicate_hashes=duplicate_hashes,
        conflicts=tuple(conflicts),
    )
    return list(kept.values()), report
