"""Tests for export parsing and deduplication."""

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chronolint.ingest import DedupReport, deduplicate, parse_commit_stream
from chronolint.model import CommitRecord, Timestamp


# ---- Fixture helpers ----


def ndjson_line(**overrides) -> str:
    obj = {
        "hash": "a" * 40,
        "repo": "example/repo",
        "parents": [],
        "author_date": 100,
        "committer_date": 100,
        "author": "Alice",
        "committer": "Alice",
        "message": "initial",
    }
    obj.update(overrides)
    return json.dumps(obj)


def simple_record(hash_: str, committer_epoch: int = 100) -> CommitRecord:
    return CommitRecord(
        hash=hash_,
        repo_id="r",
        parents=(),
        author_date=Timestamp(committer_epoch),
        committer_date=Timestamp(committer_epoch),
        author_id="a",
        committer_id="c",
        message="m",
    )


# ---- NDJSON parsing ----


def test_single_ndjson_record():
    result = parse_commit_stream(ndjson_line().encode(), "ndjson")
    assert len(result.records) == 1
    assert not result.malformed
    rec = result.records[0]
    assert rec.hash == "a" * 40
    assert rec.committer_date.epoch_seconds == 100
    assert rec.verified is None
    assert rec.stars is None


# JSON strings may hold U+2028/U+2029/U+0085 raw, but not the control
# characters \x1c-\x1e: those make their own line malformed, and only it.
@pytest.mark.parametrize("char, valid", [
    ("\u2028", True), ("\u2029", True), ("\x85", True),
    ("\x1c", False), ("\x1d", False), ("\x1e", False),
])
def test_ndjson_splits_lines_on_newline_only(char, valid):
    # json.dumps would escape the character; the line must carry it raw.
    odd = ndjson_line(hash="b" * 40, message="first@second").replace("@", char)
    text = "\n".join([
        ndjson_line(hash="a" * 40) + "\r",  # a CRLF-terminated line
        odd,
        ndjson_line(hash="c" * 40),
        "{broken",
    ]) + "\n"
    result = parse_commit_stream(text.encode("utf-8"), "ndjson")
    hashes = [r.hash for r in result.records]
    if valid:
        assert hashes == ["a" * 40, "b" * 40, "c" * 40]
        assert result.records[1].message == f"first{char}second"
        assert [m.line_number for m in result.malformed] == [4]
    else:
        assert hashes == ["a" * 40, "c" * 40]
        assert [m.line_number for m in result.malformed] == [2, 4]


def test_short_hash_is_malformed():
    result = parse_commit_stream(ndjson_line(hash="a" * 39), "ndjson")
    assert not result.records
    assert len(result.malformed) == 1
    assert "hash" in result.malformed[0].reason


def test_duplicate_hashes_survive_parsing():
    # Dedup is a separate pass; the parser must not collapse repeats.
    lines = [ndjson_line(), ndjson_line(hash="b" * 40), ndjson_line()]
    result = parse_commit_stream("\n".join(lines), "ndjson")
    assert len(result.records) == 3


def test_optional_fields_round_trip():
    line = ndjson_line(verified=True, stars=7, tz_offset_min=-270, date_unit="ms",
                       author_date=1500, committer_date=2500)
    rec = parse_commit_stream(line, "ndjson").records[0]
    assert rec.verified is True
    assert rec.stars == 7
    assert rec.author_date == Timestamp(1, -270)
    assert rec.committer_date == Timestamp(2, -270)


def test_microsecond_unit_floor_divides():
    line = ndjson_line(date_unit="us", committer_date=10**12, author_date=-1)
    rec = parse_commit_stream(line, "ndjson").records[0]
    assert rec.committer_date.epoch_seconds == 10**6
    assert rec.author_date.epoch_seconds == -1  # floor, not truncation


def test_uppercase_hash_is_canonicalized():
    rec = parse_commit_stream(ndjson_line(hash="AB" * 20), "ndjson").records[0]
    assert rec.hash == "ab" * 20


def test_svn_style_hash_accepted():
    line = ndjson_line(hash="r123@gcc", parents=["r122@gcc"])
    rec = parse_commit_stream(line, "ndjson").records[0]
    assert rec.hash == "r123@gcc"
    assert rec.parents == ("r122@gcc",)


@pytest.mark.parametrize(
    "overrides",
    [
        {"parents": "not-a-list"},
        {"committer_date": "100"},
        {"committer_date": True},
        {"verified": "yes"},
        {"stars": -1},
        {"date_unit": "days"},
        {"tz_offset_min": 100000},
        {"message": 5},
    ],
)
def test_bad_field_types_are_malformed(overrides):
    result = parse_commit_stream(ndjson_line(**overrides), "ndjson")
    assert not result.records
    assert len(result.malformed) == 1


def test_missing_required_key_is_malformed():
    obj = json.loads(ndjson_line())
    del obj["committer_date"]
    result = parse_commit_stream(json.dumps(obj), "ndjson")
    assert len(result.malformed) == 1
    assert "committer_date" in result.malformed[0].reason


def test_line_numbers_skip_blanks():
    text = ndjson_line() + "\n\n" + "{broken"
    result = parse_commit_stream(text, "ndjson")
    assert len(result.records) == 1
    assert result.malformed[0].line_number == 3


def test_malformed_line_does_not_stop_the_stream():
    text = "\n".join(["not json", ndjson_line(), "[1, 2]", ndjson_line(hash="b" * 40)])
    result = parse_commit_stream(text, "ndjson")
    assert len(result.records) == 2
    assert [m.line_number for m in result.malformed] == [1, 3]


def test_accepts_file_like_input():
    result = parse_commit_stream(io.BytesIO(ndjson_line().encode()), "ndjson")
    assert len(result.records) == 1


def test_empty_stream():
    result = parse_commit_stream(b"", "ndjson")
    assert result.records == []
    assert result.malformed == []


def test_unknown_format_raises():
    with pytest.raises(ValueError):
        parse_commit_stream(b"", "xml")


# ---- gitlog parsing ----


def gitlog_record(hash_, parents, c_epoch, c_tz, a_epoch, a_tz, cname, aname, message):
    return "\x1f".join(
        [hash_, parents, str(c_epoch), c_tz, str(a_epoch), a_tz, cname, aname, message]
    ) + "\x00"


def test_gitlog_round_trip():
    message = "subject line\n\nbody with an embedded \x1f byte\n"
    raw = gitlog_record("c" * 40, "a" * 40 + " " + "b" * 40, 1571800000, "+0200",
                        1571790000, "-0430", "Carol C", "Carol A", message)
    raw += "\n" + gitlog_record("d" * 40, "", 50, "+0000", 50, "+0000", "Dee", "Dee", "root")

    result = parse_commit_stream(raw.encode(), "gitlog", repo_id="example/repo")
    assert not result.malformed
    first, second = result.records

    assert first.hash == "c" * 40
    assert first.parents == ("a" * 40, "b" * 40)
    assert first.committer_date == Timestamp(1571800000, 120)
    assert first.author_date == Timestamp(1571790000, -270)
    assert first.committer_id == "Carol C"
    assert first.author_id == "Carol A"
    assert first.message == "subject line\n\nbody with an embedded \x1f byte"
    assert first.repo_id == "example/repo"

    assert second.parents == ()
    assert second.committer_date.epoch_seconds == 50


def test_gitlog_malformed_chunk_reports_ordinal():
    good = gitlog_record("a" * 40, "", 1, "+0000", 1, "+0000", "x", "x", "m")
    bad = "only\x1fthree\x1ffields\x00"
    result = parse_commit_stream(good + bad, "gitlog", repo_id="r")
    assert len(result.records) == 1
    assert result.malformed[0].line_number == 2


def test_gitlog_bare_minute_offset():
    raw = gitlog_record("a" * 40, "", 10, "330", 10, "-90", "x", "x", "m")
    rec = parse_commit_stream(raw, "gitlog", repo_id="r").records[0]
    assert rec.committer_date.tz_offset_minutes == 330
    assert rec.author_date.tz_offset_minutes == -90


# ---- Deduplication ----


def test_dedup_keeps_first_occurrence():
    a1 = simple_record("a" * 40, 100)
    b = simple_record("b" * 40, 200)
    a2 = simple_record("a" * 40, 100)
    kept, report = deduplicate([a1, b, a2])
    assert kept == [a1, b]
    assert report.total_in == 3
    assert report.unique_out == 2
    assert report.duplicate_hashes == (("a" * 40, 2),)
    assert report.conflicts == ()


def test_dedup_identity_on_unique_input():
    records = [simple_record(c * 40) for c in "abc"]
    kept, report = deduplicate(records)
    assert kept == records
    assert report.duplicate_hashes == ()


def test_dedup_four_copies():
    records = [simple_record(f"{i:040x}") for i in range(6)]
    records += [simple_record("f" * 40)] * 4
    kept, report = deduplicate(records)
    assert report.total_in == 10
    assert report.unique_out == 7
    assert len(kept) == 7


def test_dedup_conflict_reported_first_kept():
    early = simple_record("a" * 40, 100)
    late = simple_record("a" * 40, 999)
    kept, report = deduplicate([early, late])
    assert kept == [early]
    assert len(report.conflicts) == 1
    conflict = report.conflicts[0]
    assert conflict.kept.epoch_seconds == 100
    assert conflict.dropped.epoch_seconds == 999


def test_dedup_report_accounting_guard():
    with pytest.raises(ValueError):
        DedupReport(total_in=3, unique_out=3, duplicate_hashes=(("a" * 40, 2),))


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=40))
def test_dedup_is_idempotent(hash_picks):
    records = [simple_record(f"{n:040x}", committer_epoch=n) for n in hash_picks]
    once, report1 = deduplicate(records)
    twice, report2 = deduplicate(once)
    assert once == twice
    assert report2.duplicate_hashes == ()
    assert report1.total_in == report1.unique_out + sum(
        count - 1 for _, count in report1.duplicate_hashes
    )
