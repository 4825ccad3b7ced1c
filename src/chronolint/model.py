"""Core value types: commit records and anomalies, the commit id rule, the
old-date cutoff, UTC date text and the order of a ranked table; the
package's one reader and one decoder of JSON documents, and its two log calls.

Everything here is an immutable value object, safe to share across threads.
Every value type of the package is a ``typing.NamedTuple``: immutable and,
when its fields are, hashable; as a tuple, it iterates over its fields and
compares equal to a plain tuple of them. A type that checks its fields
states the check in ``_check`` and is decorated with :func:`checked`;
only ``Anomaly`` spells its check out in a ``__new__`` of its own.
``_make`` and ``_replace`` skip the check.

A date is an int: whole seconds since the Unix epoch, UTC, as on the wire.
Every comparison in the toolkit is on these ints. A record carries one
timezone offset, the committer's, for output only; it is never applied.
"""

import json
import os
import re
import sys
from enum import Enum
from typing import NamedTuple

# Epochs are int64 seconds. Ingest rejects a record with a date outside
# this range, so two dates never differ by 2**64 seconds or more.
EPOCH_MIN = -(2**63)
EPOCH_MAX = 2**63 - 1

# Floor-division factors for normalizing raw integer timestamps to seconds.
_UNIT_FACTORS = {"s": 1, "ms": 10**3, "us": 10**6}

NO_NAME = "(no name)"

# 1990-11-19T00:00:00Z, the CVS 1.0 release. Mainstream version control
# starts here; a commit dated before it cannot carry an honest clock.
DEFAULT_OLD_CUTOFF = 658972800

# The commit ids ingest accepts, matched with fullmatch: "$" would also
# match before a trailing newline.
_HEX_HASH = re.compile(r"[0-9a-f]{40}")
_SVN_HASH = re.compile(r"r[0-9]+@\S+")  # Subversion revisions: "r<N>@<repo>"

# What an error message calls each JSON type.
_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
                    float: "a number", bool: "a boolean", type(None): "null"}

_READ_SIZE = 1 << 16
_BOM = b"\xef\xbb\xbf"


def typed(value, json_type, field: str):
    """Return ``value`` if its type is exactly ``json_type``, a type or a
    tuple of types; else raise ``ValueError("<field> must be <...>, got
    <type>")``. Exactly, so that a JSON ``true`` is not an integer."""
    if type(value) is json_type:
        return value
    types = json_type if isinstance(json_type, tuple) else (json_type,)
    if type(value) not in types:
        expected = " or ".join(_JSON_TYPE_NAMES[t] for t in types)
        raise ValueError(f"{field} must be {expected}, got {type(value).__name__}")
    return value


def log_warning(name: str, msg: str, *args) -> None:
    """Warn on ``logging.getLogger(name)``, with the caller's line in the
    record. ``logging`` is imported here, so a run that warns of nothing
    never loads it."""
    import logging

    logging.getLogger(name).warning(msg, *args, stacklevel=2)


def log_debug(name: str, msg: str, *args) -> None:
    """Log at DEBUG on ``logging.getLogger(name)``, with the caller's line
    in the record, once something has imported ``logging``. Until then
    nothing has configured it, and its last-resort handler takes WARNING
    and up, so the message is dropped without the import."""
    if "logging" in sys.modules:
        sys.modules["logging"].getLogger(name).debug(msg, *args, stacklevel=2)


def read_text(path) -> str:
    """The file at ``path`` as text mode reads it with ``utf-8-sig``: one
    head BOM dropped, and ``\\r\\n`` and a lone ``\\r`` read as ``\\n``.
    Raises ``OSError`` naming the file, or ``ValueError`` for bytes that
    are not UTF-8 or a path no file can have, such as one with a NUL."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except IsADirectoryError as exc:
        exc.filename = os.fspath(path)  # as open() names it, from its check of the file
        raise
    finally:
        os.close(fd)
    data = b"".join(chunks)
    del chunks  # before the decode, which holds the bytes and the text at once
    # One head BOM is dropped, as "utf-8-sig" drops it, and text mode reads
    # one or two bytes that begin a BOM as nothing.
    if _BOM.startswith(data[:3]):
        data = data[3:]
    text = data.decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# The scanner json.loads calls, without its wrappers.
_scanner = json.JSONDecoder().scan_once


def decode_json(text: str | bytes):
    """``json.loads``, except that a document nested deeper than the
    recursion limit raises ``ValueError``, as any other undecodable
    document does, instead of ``RecursionError``. A ``str`` that holds one
    JSON value and then only JSON whitespace takes the bare scanner; any
    other input goes to ``json.loads``, which names the fault."""
    if isinstance(text, str):
        try:
            value, end = _scanner(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = 0
        if end and (end == len(text) or not text[end:].strip(" \t\n\r")):
            return value
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None


def ranked(counts) -> list:
    """(key, count) pairs, the largest count first and ties by key."""
    return sorted(counts, key=lambda item: (-item[1], item[0]))


def checked(cls):
    """Give the ``typing.NamedTuple`` ``cls``, which refuses a ``__new__``
    in its class body, one that builds the tuple and then calls its
    ``_check()``: that raises ``ValueError`` on bad fields, and returns a
    normalized copy to keep in the value's place, or ``None``."""
    build = cls.__new__

    def __new__(cls, *args, **kwargs):
        value = build(cls, *args, **kwargs)
        return value._check() or value

    cls.__new__ = __new__
    return cls


class CommitRecord(NamedTuple):
    """One commit's identity and metadata, normalized to internal units.

    Dates are epoch seconds; negative ones are legal, and are exactly the
    suspicious values this toolkit exists to surface. A record is a
    tuple of its eleven fields in the order below: it iterates over them,
    and it compares equal to, and hashes as, a plain tuple of them.
    """

    hash: str
    repo_id: str
    parents: tuple[str, ...]
    author_date: int
    committer_date: int
    author_id: str
    committer_id: str
    message: str
    verified: bool | None = None  # tri-state: True / False / unknown
    stars: int | None = None      # repo-level star count, if known
    tz_offset_min: int = 0        # the committer's recorded offset, never applied

    def date(self, field_name: str = "committer") -> int:
        """Select the comparison date per the configured field."""
        if field_name == "committer":
            return self.committer_date
        if field_name == "author":
            return self.author_date
        raise ValueError(f"unknown date field {field_name!r}")


class AnomalyKind(str, Enum):
    OLD = "old"
    FUTURE = "future"
    OUT_OF_ORDER_LINEAR = "out_of_order_linear"
    OUT_OF_ORDER_PARENT = "out_of_order_parent"
    TOOL_SIGNATURE = "tool_signature"
    VERIFIED_MISMATCH = "verified_mismatch"


# The kinds that carry a delta and that `verify` re-checks.
OUT_OF_ORDER_KINDS = frozenset({AnomalyKind.OUT_OF_ORDER_LINEAR, AnomalyKind.OUT_OF_ORDER_PARENT})


class Anomaly(NamedTuple):
    """A flagged commit with the reason and, for ordering problems, the
    measured parent-minus-child gap in seconds."""

    kind: AnomalyKind
    commit_hash: str
    repo_id: str
    evidence: str
    delta_seconds: int | None = None


# The fields are spelled out, not taken as *args: stats builds one Anomaly
# per report entry, and this form builds in half the time.
def _new_anomaly(cls, kind, commit_hash, repo_id, evidence, delta_seconds=None):
    if (delta_seconds is not None) != (kind in OUT_OF_ORDER_KINDS):
        raise ValueError("delta_seconds must be set exactly for out-of-order anomalies")
    return tuple.__new__(cls, (kind, commit_hash, repo_id, evidence, delta_seconds))


Anomaly.__new__ = _new_anomaly


def normalize_timestamp(raw: int, unit: str) -> int:
    """Floor-divide a raw integer timestamp down to whole seconds.

    ``unit`` is one of s/ms/us. Flooring, not truncation, so negative
    sub-second values round toward minus infinity.
    """
    try:
        factor = _UNIT_FACTORS[unit]
    except KeyError:
        raise ValueError(f"unknown timestamp unit {unit!r}") from None
    return raw // factor


# Civil-date conversion on the proleptic Gregorian calendar. datetime would
# overflow outside years 1..9999, and suspicious epochs can land anywhere in
# the int64 range, so the day arithmetic is done directly.

_DAYS_EPOCH_SHIFT = 719468  # days from 0000-03-01 to 1970-01-01
_ERA_DAYS = 146097          # days per 400-year era

# An integer field in text: ASCII digits, with an optional leading "-".
# int() alone would also take "+", "_", spaces and non-ASCII digits.
ASCII_INT = re.compile(r"-?[0-9]+")


def _civil_from_days(days: int) -> tuple[int, int, int]:
    z = days + _DAYS_EPOCH_SHIFT
    era = z // _ERA_DAYS
    doe = z - era * _ERA_DAYS
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    if month <= 2:
        year += 1
    return year, month, day


def _days_from_civil(year: int, month: int, day: int) -> int:
    year -= month <= 2
    era = year // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * _ERA_DAYS + doe - _DAYS_EPOCH_SHIFT


def format_utc(epoch: int) -> str:
    """Render epoch seconds as ``YYYY-MM-DD HH:MM:SS UTC``, for any value."""
    days, rem = divmod(epoch, 86400)
    year, month, day = _civil_from_days(days)
    hh, rem = divmod(rem, 3600)
    mm, ss = divmod(rem, 60)
    return f"{year:04d}-{month:02d}-{day:02d} {hh:02d}:{mm:02d}:{ss:02d} UTC"


def parse_utc(text: str) -> int:
    """Parse the output of :func:`format_utc`, or an ISO-8601 UTC instant,
    to epoch seconds.

    Accepts ``YYYY-MM-DD HH:MM:SS UTC``, ``YYYY-MM-DDTHH:MM:SS[Z]`` and a
    bare ``YYYY-MM-DD`` (midnight). Offsets other than Z/UTC are rejected:
    cutoff instants are defined in UTC. So are fields out of range, such
    as month 13, February 30 or second 60, which would otherwise roll
    over into a different instant. Fields are ASCII digits; only the
    year may carry a sign, a leading ``-``.
    """
    s = text.strip()
    if s.endswith(" UTC"):
        s = s[:-4]
    elif s.endswith("Z"):
        s = s[:-1]
    s = s.replace("T", " ")
    date_part, _, time_part = s.partition(" ")
    ymd = date_part.split("-")
    # A leading '-' (negative year) splits into an empty first element.
    if len(ymd) > 1 and ymd[0] == "":
        ymd = ["-" + ymd[1]] + ymd[2:]
    if len(ymd) != 3 or not all(ASCII_INT.fullmatch(p) for p in ymd):
        raise ValueError(f"unparseable UTC date {text!r}")
    year, month, day = (int(p) for p in ymd)
    hh = mm = ss = 0
    if time_part:
        hms = time_part.split(":")
        if len(hms) != 3 or not all(ASCII_INT.fullmatch(p) for p in hms):
            raise ValueError(f"unparseable UTC time {text!r}")
        hh, mm, ss = (int(p) for p in hms)
    days = _days_from_civil(year, month, day)
    # Month and day cannot carry a '-': the date split would have
    # produced more than three fields.
    if (
        _civil_from_days(days) != (year, month, day)
        or "-" in time_part
        or not (0 <= hh <= 23 and 0 <= mm <= 59 and 0 <= ss <= 59)
    ):
        raise ValueError(f"UTC date {text!r} has a field out of range")
    return days * 86400 + hh * 3600 + mm * 60 + ss


def canonical_repo_id(repo_id: str) -> str:
    """Strip, lowercase and drop a trailing .git until nothing changes, so
    forge spellings compare equal and a canonical id is its own canonical
    form: ``Org/X.git.git`` and ``Org/X .git`` are both ``org/x``."""
    rid = repo_id
    while (step := rid.strip().lower().removesuffix(".git")) != rid:
        rid = step
    return rid
