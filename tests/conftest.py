"""Shared fixture builders for the test suite."""

import json
from types import NoneType

import pytest
from hypothesis import strategies as st

from chronolint.cli import _KIND_BY_VALUE, CommandError
from chronolint.model import _HEX_HASH, _SVN_HASH, Anomaly, AnomalyKind, CommitRecord, typed

# Filled by the acceptance suite; echoed after the run, outside capture.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def hex_hash(i: int) -> str:
    return f"{i:040x}"


def make_record(
    i: int,
    *,
    parents=(),
    committer_epoch: int = 1_000_000_000,
    author_epoch: int | None = None,
    repo: str = "example/repo",
    message: str = "update",
    author: str = "alice",
    committer: str = "alice",
    verified=None,
    stars=None,
) -> CommitRecord:
    """Build a commit record by small integer id; parents are ids too."""
    return CommitRecord(
        hash=hex_hash(i),
        repo_id=repo,
        parents=tuple(hex_hash(p) for p in parents),
        author_date=committer_epoch if author_epoch is None else author_epoch,
        committer_date=committer_epoch,
        author_id=author,
        committer_id=committer,
        message=message,
        verified=verified,
        stars=stars,
    )


def record_to_object(rec: CommitRecord) -> dict:
    """The NDJSON object for a record, as ``write_ndjson`` writes it: the
    reference for its bytes, and the way tests build input lines."""
    obj = {
        "hash": rec.hash,
        "repo": rec.repo_id,
        "parents": list(rec.parents),
        "author_date": rec.author_date,
        "committer_date": rec.committer_date,
        "author": rec.author_id,
        "committer": rec.committer_id,
        "message": rec.message,
    }
    if rec.tz_offset_min:
        obj["tz_offset_min"] = rec.tz_offset_min
    if rec.verified is not None:
        obj["verified"] = rec.verified
    if rec.stars is not None:
        obj["stars"] = rec.stars
    return obj


def reference_decode_json(text):
    """``model.decode_json`` as it was before it took the scanner's fast
    path: the oracle for that path."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None


def reference_anomaly_from_object(obj, index: int) -> Anomaly:
    """A report's anomaly entry checked field by field, as the report
    reader checked it before its one pass: the oracle for that pass."""
    try:
        delta = typed(typed(obj, dict, "the entry").get("delta_seconds"), (int, NoneType),
                      "delta_seconds")
        # Two int64 epochs differ by less than 2**64.
        if delta is not None and not 1 <= delta < 2**64:
            raise ValueError("delta_seconds must be a positive integer below 2**64")
        commit = typed(obj["commit"], str, "commit")
        # A report writes ids as ingest accepts them; only such an id may reach a source.
        if not (_HEX_HASH.fullmatch(commit) or _SVN_HASH.fullmatch(commit)):
            raise ValueError(f"commit {commit!r} is neither 40-char hex nor r<N>@<repo>")
        kind = typed(obj["kind"], str, "kind")
        return Anomaly(
            kind=_KIND_BY_VALUE.get(kind) or AnomalyKind(kind),
            commit_hash=commit,
            repo_id=typed(obj["repo"], str, "repo"),
            evidence=typed(obj.get("evidence", ""), str, "evidence"),
            delta_seconds=delta,
        )
    except KeyError as exc:
        raise CommandError(f"unreadable anomaly entry {index}: missing {exc}") from exc
    except ValueError as exc:
        raise CommandError(f"unreadable anomaly entry {index}: {exc}") from exc


def reference_commits_check(doc) -> None:
    """A report's ``commits`` section checked entry by entry, as the report
    reader checked it before its one pass: the oracle for that pass."""
    where = "unreadable commits section"
    try:
        for commit_hash, entry in typed(doc.get("commits", {}), dict, "commits").items():
            where = f"unreadable commits entry {commit_hash!r}"
            typed(typed(entry, dict, "the entry").get("committer", ""), str, "committer")
            typed(entry.get("message", ""), str, "message")
    except ValueError as exc:
        raise CommandError(f"{where}: {exc}") from exc


def text_mode_read(path) -> str:
    """The file read in text mode with ``utf-8-sig``, as every reader read
    it before ``model.read_text``: the oracle for that reader."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def result_of(call, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return "returned", call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def record_builder():
    return make_record


# Repository ids built from what canonicalizing strips, lowers or drops,
# in any order and number, beside arbitrary text.
repo_id_spellings = st.lists(
    st.sampled_from([" ", "\t", "\n", "\u3000", ".git", ".GIT", ".gIt", "/", "x", "X",
                     "\u0130", "\u03a3", "\u1e9e", "\u00c5"]),
    max_size=12,
).map("".join) | st.text(max_size=20)
