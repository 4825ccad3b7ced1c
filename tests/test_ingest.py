"""Tests for export parsing and deduplication."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolint import ingest
from chronolint.ingest import DedupReport, deduplicate, parse_commit_stream
from chronolint.model import CommitRecord
from conftest import reference_decode_json

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
        author_date=committer_epoch,
        committer_date=committer_epoch,
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
    assert rec.committer_date == 100
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
    assert rec.author_date == 1
    assert rec.committer_date == 2
    assert rec.tz_offset_min == -270


def test_tz_offset_bounds():
    for tz in (1080, -1080):
        (rec,) = parse_commit_stream(ndjson_line(tz_offset_min=tz), "ndjson").records
        assert rec.tz_offset_min == tz
    for tz in (1081, -1081):
        result = parse_commit_stream(ndjson_line(tz_offset_min=tz), "ndjson")
        assert [m.reason for m in result.malformed] == [
            f"tz offset {tz} outside [-1080, 1080] minutes"]


def test_microsecond_unit_floor_divides():
    line = ndjson_line(date_unit="us", committer_date=10**12, author_date=-1)
    rec = parse_commit_stream(line, "ndjson").records[0]
    assert rec.committer_date == 10**6
    assert rec.author_date == -1  # floor, not truncation


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
    assert first.committer_date == 1571800000
    assert first.tz_offset_min == 120  # the committer's; "-0430" is checked, then dropped
    assert first.author_date == 1571790000
    assert first.committer_id == "Carol C"
    assert first.author_id == "Carol A"
    assert first.message == "subject line\n\nbody with an embedded \x1f byte"
    assert first.repo_id == "example/repo"

    assert second.parents == ()
    assert second.committer_date == 50


def test_gitlog_malformed_chunk_reports_ordinal():
    good = gitlog_record("a" * 40, "", 1, "+0000", 1, "+0000", "x", "x", "m")
    bad = "only\x1fthree\x1ffields\x00"
    result = parse_commit_stream(good + bad, "gitlog", repo_id="r")
    assert len(result.records) == 1
    assert result.malformed[0].line_number == 2


def test_gitlog_bare_minute_offset():
    raw = gitlog_record("a" * 40, "", 10, "330", 10, "-90", "x", "x", "m")
    rec = parse_commit_stream(raw, "gitlog", repo_id="r").records[0]
    assert rec.tz_offset_min == 330


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
    assert conflict.kept == 100
    assert conflict.dropped == 999


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


def test_dedup_counts_one_record_listed_twice():
    a = simple_record("a" * 40)
    b = simple_record("b" * 40)
    kept, report = deduplicate([a, b, a, a])
    assert kept == [a, b] and kept[0] is a
    assert report.total_in == 4 and report.unique_out == 2
    assert report.duplicate_hashes == (("a" * 40, 3),)
    assert report.conflicts == ()


def order_free_deduplicate(records):
    """The reference: the copies of each hash, in first-seen order, keep
    the one whose repr sorts first, and every copy dated apart from it is
    a conflict."""
    groups = {}
    for rec in records:
        groups.setdefault(rec.hash, []).append(rec)
    kept = [min(group, key=repr) for group in groups.values()]
    conflicts = sorted(
        ingest.DuplicateHashConflict(keep.hash, keep.committer_date, rec.committer_date)
        for keep, group in zip(kept, groups.values())
        for rec in group if rec.committer_date != keep.committer_date)
    return kept, DedupReport(
        total_in=len(records), unique_out=len(kept),
        duplicate_hashes=tuple((h, len(group)) for h, group in groups.items() if len(group) > 1),
        conflicts=tuple(conflicts))


# A pool where hashes repeat as equal copies, and as copies that differ in
# the committer date or in the message; a draw may list one record object
# several times.
DEDUP_POOL = [rec for h in range(4) for epoch in (100, 100, 200)
              for rec in (simple_record(f"{h:040x}", epoch),
                          simple_record(f"{h:040x}", epoch)._replace(message="other"))]


@given(st.lists(st.sampled_from(range(len(DEDUP_POOL))), max_size=40), st.randoms())
def test_dedup_matches_an_order_free_reference(picks, random):
    records = [DEDUP_POOL[i] for i in picks]
    kept, report = deduplicate(records)
    assert (kept, report) == order_free_deduplicate(records)
    # A copy equal to the first is not replaced: the first object stays.
    assert all(rec is next(r for r in records if r.hash == rec.hash)
               for rec in kept if all(r == rec for r in records if r.hash == rec.hash))
    random.shuffle(records)
    again, shuffled = deduplicate(records)
    assert sorted(again) == sorted(kept) and shuffled.conflicts == report.conflicts
    assert sorted(shuffled.duplicate_hashes) == sorted(report.duplicate_hashes)


# ---- Malformed-record reasons ----
# Each reason reaches `scan`'s stderr, so the text is part of the command
# line's contract. Where a record has several faults, the row fixes which
# one is named.


def ndjson_without(*keys) -> str:
    obj = json.loads(ndjson_line())
    for key in keys:
        del obj[key]
    return json.dumps(obj)


NEITHER = "is neither 40-char hex nor r<N>@<repo>"

NDJSON_REASONS = [
    ("not json", "invalid JSON: Expecting value"),
    ("{broken", "invalid JSON: Expecting property name enclosed in double quotes"),
    ('{"a": 1} x', "invalid JSON: Extra data"),
    ('"unterminated', "invalid JSON: Unterminated string starting at"),
    ("[1, 2]", "record must be a JSON object"),
    ("{}", "missing required keys: hash, repo, parents, author_date, committer_date, "
           "author, committer, message"),
    (ndjson_without("hash", "committer_date"), "missing required keys: hash, committer_date"),
    (ndjson_line(hash=5), "hash must be a string"),
    (ndjson_line(hash=["a" * 40]), "hash must be a string"),
    (ndjson_line(parents=["abc"]), f"parent 'abc' {NEITHER}"),
    (ndjson_line(hash="abc"), f"hash 'abc' {NEITHER}"),
    (ndjson_line(hash="AB" * 19), f"hash '{'AB' * 19}' {NEITHER}"),
    (ndjson_line(hash="a" * 40 + " "), f"hash '{'a' * 40} ' {NEITHER}"),
    (ndjson_line(hash="r12@"), f"hash 'r12@' {NEITHER}"),
    (ndjson_line(repo=7), "repo must be a string, got int"),
    (ndjson_line(parents="x"), "parents must be an array"),
    (ndjson_line(parents=[5]), "parent must be a string"),
    (ndjson_line(parents=[["a" * 40]]), "parent must be a string"),
    (ndjson_line(parents=["b" * 40, "zz"]), f"parent 'zz' {NEITHER}"),
    (ndjson_line(date_unit="days"), "date_unit must be one of ('s', 'ms', 'us'), got 'days'"),
    (ndjson_line(date_unit=["s"]), "date_unit must be one of ('s', 'ms', 'us'), got ['s']"),
    (ndjson_line(tz_offset_min=True), "tz_offset_min must be an integer"),
    (ndjson_line(tz_offset_min="5"), "tz_offset_min must be an integer"),
    (ndjson_line(author_date="100"), "author_date must be an integer, got str"),
    (ndjson_line(tz_offset_min=100000), "tz offset 100000 outside [-1080, 1080] minutes"),
    (ndjson_line(committer_date=True), "committer_date must be an integer, got bool"),
    (ndjson_line(committer_date=1.5), "committer_date must be an integer, got float"),
    (ndjson_line(verified="yes"), "verified must be a boolean when present"),
    (ndjson_line(stars=1.5), "stars must be an integer, got float"),
    (ndjson_line(stars=False), "stars must be an integer, got bool"),
    (ndjson_line(stars=-1), "stars must be non-negative"),
    (ndjson_line(author=None), "author must be a string, got NoneType"),
    (ndjson_line(committer=[]), "committer must be a string, got list"),
    (ndjson_line(message=5), "message must be a string, got int"),
    # Several faults: the first in check order is named.
    (ndjson_line(hash=5, repo=7), "hash must be a string"),
    (ndjson_line(hash="abc", parents="x"), f"hash 'abc' {NEITHER}"),
    (ndjson_line(repo=7, parents=[5]), "repo must be a string, got int"),
    (ndjson_line(date_unit="days", tz_offset_min="5"),
     "date_unit must be one of ('s', 'ms', 'us'), got 'days'"),
    (ndjson_line(author_date="x", tz_offset_min=100000), "author_date must be an integer, got str"),
    (ndjson_line(tz_offset_min=100000, committer_date="x"),
     "tz offset 100000 outside [-1080, 1080] minutes"),
    (ndjson_line(verified="yes", stars="x"), "verified must be a boolean when present"),
    (ndjson_line(stars=-1, message=5), "stars must be non-negative"),
    (ndjson_line(author=1, committer=2, message=3), "author must be a string, got int"),
    # The epoch range is checked last: the reason for every other fault is
    # the one it had before that check existed.
    (ndjson_line(author_date=10**400, message=5), "message must be a string, got int"),
]


def gitlog_fields(**overrides) -> str:
    fields = {"hash": "a" * 40, "parents": "", "c_epoch": "1", "c_tz": "+0000",
              "a_epoch": "1", "a_tz": "+0000", "cname": "x", "aname": "x", "message": "m"}
    fields.update(overrides)
    return "\x1f".join(fields.values())


GITLOG_REASONS = [
    ("only\x1fthree\x1ffields", "expected 9 unit-separated fields, got 3"),
    ("no separators at all", "expected 9 unit-separated fields, got 1"),
    (gitlog_fields(hash="xyz"), f"hash 'xyz' {NEITHER}"),
    (gitlog_fields(parents="b" * 40 + " abc"), f"parent 'abc' {NEITHER}"),
    (gitlog_fields(c_epoch="x"), "non-integer epoch field: 'x' / '1'"),
    (gitlog_fields(a_epoch="1.5"), "non-integer epoch field: '1' / '1.5'"),
    (gitlog_fields(c_epoch=""), "non-integer epoch field: '' / '1'"),
    (gitlog_fields(c_tz="2x"), "unparseable timezone offset '2x'"),
    (gitlog_fields(a_tz="EST"), "unparseable timezone offset 'EST'"),
    (gitlog_fields(c_tz="+2000"), "tz offset 1200 outside [-1080, 1080] minutes"),
    (gitlog_fields(a_tz="1081"), "tz offset 1081 outside [-1080, 1080] minutes"),
    # Several faults: the first in check order is named.
    (gitlog_fields(hash="xyz", c_epoch="x"), f"hash 'xyz' {NEITHER}"),
    (gitlog_fields(c_epoch="x", c_tz="EST"), "non-integer epoch field: 'x' / '1'"),
    (gitlog_fields(c_tz="+2000", a_tz="EST"), "tz offset 1200 outside [-1080, 1080] minutes"),
    (gitlog_fields(c_tz="EST", a_tz="+2000"), "unparseable timezone offset 'EST'"),
    (gitlog_fields(c_epoch=str(2**63), a_tz="EST"), "unparseable timezone offset 'EST'"),
    # HHMM minutes run 00-59; these were read as 99, -141, -681 and 60 minutes before.
    (gitlog_fields(c_tz="+0099"), "unparseable timezone offset '+0099'"),
    (gitlog_fields(a_tz="-0181"), "unparseable timezone offset '-0181'"),
    (gitlog_fields(c_tz="-1081"), "unparseable timezone offset '-1081'"),
    (gitlog_fields(c_tz="+0060", a_tz="EST"), "unparseable timezone offset '+0060'"),
]


@pytest.mark.parametrize("line, reason", NDJSON_REASONS,
                         ids=[str(i) for i in range(len(NDJSON_REASONS))])
def test_ndjson_malformed_reason(line, reason):
    text = ndjson_line(hash="f" * 40) + "\n\n" + line + "\n"
    result = parse_commit_stream(text.encode(), "ndjson")
    assert [r.hash for r in result.records] == ["f" * 40]
    assert [(m.line_number, m.reason) for m in result.malformed] == [(3, reason)]


@pytest.mark.parametrize("chunk, reason", GITLOG_REASONS,
                         ids=[str(i) for i in range(len(GITLOG_REASONS))])
def test_gitlog_malformed_reason(chunk, reason):
    raw = gitlog_fields(hash="f" * 40) + "\x00\n\x00\n" + chunk + "\x00\n"
    result = parse_commit_stream(raw.encode(), "gitlog", repo_id="r")
    assert [r.hash for r in result.records] == ["f" * 40]
    assert [(m.line_number, m.reason) for m in result.malformed] == [(2, reason)]


def reference_parse_ndjson(lines) -> ingest.ParseResult:
    """The NDJSON parse with the reference decoder on every line: the
    oracle for decode_json's scanner fast path."""
    records, malformed = [], []
    hashes, shared = {}, {}
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = reference_decode_json(line)
        except json.JSONDecodeError as exc:
            malformed.append(ingest.MalformedRecord(line_number, f"invalid JSON: {exc.msg}"))
            continue
        except ValueError as exc:
            malformed.append(ingest.MalformedRecord(line_number, f"invalid JSON: {exc}"))
            continue
        try:
            records.append(ingest._record_from_object(obj, hashes, shared))
        except ValueError as exc:
            malformed.append(ingest.MalformedRecord(line_number, str(exc)))
    return ingest.ParseResult(records, malformed)


# Lines the scanner alone cannot take whole, and record lines. The tails
# hold JSON whitespace, and characters that str.strip() strips but JSON
# does not.
ODD_CORES = [
    "", " ", "{}", "[1]", '"text"', "null", "not json", "{broken", '"unterminated',
    "[" * 5000 + "]" * 5000,
    '{"a":' * 3000 + "1" + "}" * 3000,
    ndjson_line(stars=1).replace('"stars": 1', '"stars": 1' + "0" * 5000),
    "-" + "9" * 4301,
    ndjson_line(message="one two", stars=1000, tz_offset_min=330),
]
HEADS = ["", " ", "\t ", "\ufeff", "\r"]
TAILS = ["", " ", "\r", " \r", "\t\r", "\r\r", "x", " 1", "}", "]", ",", "\ufeff", "\x0b",
         " \u3000", "\x85"]
NDJSON_LINES = st.builds(
    lambda head, core, tail: head + core + tail,
    st.sampled_from(HEADS),
    st.builds(lambda h, p, stars, tz: ndjson_line(hash=f"{h:040x}", parents=[f"{p:040x}"],
                                                  stars=stars, tz_offset_min=tz),
              st.integers(0, 5), st.integers(0, 5), st.integers(0, 3000),
              st.integers(-1100, 1100))
    | st.sampled_from(ODD_CORES),
    st.sampled_from(TAILS),
)


def assert_fast_path_matches(lines):
    text = "\n".join(lines)
    expected = reference_parse_ndjson(ingest._pieces(text, "\n"))
    assert ingest._parse_ndjson(ingest._pieces(text, "\n")) == expected
    assert parse_commit_stream(text.encode(), "ndjson") == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(NDJSON_LINES, max_size=8))
def test_ndjson_fast_path_matches_decoding_every_line(lines):
    assert_fast_path_matches(lines)


def test_ndjson_fast_path_matches_on_every_head_core_and_tail():
    assert_fast_path_matches([head + core + tail for head in HEADS for core in ODD_CORES
                              for tail in TAILS])


def test_failed_hash_memo_keeps_naming_the_field():
    # The same raw string fails as a parent, then as a hash, then as a
    # parent again: it is never remembered as a valid hash.
    lines = [ndjson_line(hash="b" * 40, parents=["abc"]), ndjson_line(hash="abc"),
             ndjson_line(hash="c" * 40, parents=["abc"])]
    result = parse_commit_stream("\n".join(lines), "ndjson")
    assert [m.reason for m in result.malformed] == [
        f"parent 'abc' {NEITHER}", f"hash 'abc' {NEITHER}", f"parent 'abc' {NEITHER}"]


def test_scan_stderr_names_every_malformed_record(tmp_path):
    # The whole stderr of a real process, logging included, byte for byte.
    good = ndjson_line(hash="f" * 40)
    (tmp_path / "bad.ndjson").write_text(
        "\n".join([good] + [line for line, _ in NDJSON_REASONS]) + "\n", encoding="utf-8")
    (tmp_path / "bad.log").write_text(
        "".join(chunk + "\x00\n" for chunk in [gitlog_fields(hash="f" * 40)]
                + [chunk for chunk, _ in GITLOG_REASONS]), encoding="utf-8")
    for name, table, extra in (("bad.ndjson", NDJSON_REASONS, []),
                               ("bad.log", GITLOG_REASONS, ["--format", "gitlog", "--repo", "r"])):
        proc = subprocess.run(
            [sys.executable, "-m", "chronolint.cli", "scan", name,
             "--snapshot-date", "2020-01-01", *extra],
            cwd=tmp_path, capture_output=True, text=True, encoding="utf-8",
            env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
        )
        n = len(table)
        expected = (
            f"skipped {n} malformed record(s) of {n + 1}\n"
            + "".join(f"chronolint: malformed record at {name}:{i}: {reason}\n"
                      for i, (_, reason) in enumerate(table, start=2))
            + f"chronolint: error: {n} malformed record(s); fix or pre-filter the input\n"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected)


# ---- Input forms and streaming ----


# U+2028 inside a message, a CRLF line, blank and whitespace lines, and
# invalid UTF-8 at the end of a record.
MIXED_NDJSON = b"\n".join([
    ndjson_line(hash="a" * 40, message="one@line").replace("@", "\u2028").encode(),
    ndjson_line(hash="b" * 40, parents=["a" * 40]).encode() + b"\r",
    b"",
    ndjson_line(hash="c" * 40, parents=["b" * 40], message="@").encode().replace(b"@", b"\xe2\x80"),
    b'{"hash": "\xff',
    b"   ",
    b"\xc3",
    ndjson_line(hash="d" * 40, parents=["c" * 40, "a" * 40]).encode(),
    b"[1]",
]) + b"\n"

# Messages with a body, U+2028 and a UTF-8 sequence cut short by the NUL.
MIXED_GITLOG = b"".join(
    gitlog_record(h, p, 10 + i, tz, 5 + i, tz, "c\u00e9", "a", m).encode()
    for i, (h, p, tz, m) in enumerate([
        ("a" * 40, "", "+0200", "root\n\nbody\u2028more\n"),
        ("b" * 40, "a" * 40, "-0430", "x" * 50),
        ("c" * 40, "b" * 40 + " " + "a" * 40, "+0200", "cut \ud7ff"),
        ("zz", "", "+0000", "bad hash"),
        ("d" * 40, "c" * 40, "330", "last"),
    ])
).replace(b"cut \xed\x9f\xbf", b"cut \xed\x9f") + b"\n"


@pytest.mark.parametrize("data, fmt", [(MIXED_NDJSON, "ndjson"), (MIXED_GITLOG, "gitlog")],
                         ids=["ndjson", "gitlog"])
def test_bytes_str_and_handle_parse_alike(data, fmt, monkeypatch):
    expected = parse_commit_stream(data, fmt, repo_id="r")
    assert expected.records and expected.malformed
    assert parse_commit_stream(data.decode("utf-8", errors="replace"), fmt,
                               repo_id="r") == expected
    for block in (1, 2, 3, 7, 64, 1 << 20):
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        assert parse_commit_stream(io.BytesIO(data), fmt, repo_id="r") == expected, block


@pytest.mark.parametrize("data, fmt", [(MIXED_NDJSON, "ndjson"), (MIXED_GITLOG, "gitlog")],
                         ids=["ndjson", "gitlog"])
def test_one_bom_at_the_head_of_a_stream_is_dropped(data, fmt, monkeypatch):
    # RFC 8259 section 8.1 lets a parser ignore a byte order mark.
    bom = "\ufeff".encode()
    expected = parse_commit_stream(data, fmt, repo_id="r")
    assert parse_commit_stream(bom + data, fmt, repo_id="r") == expected
    assert parse_commit_stream("\ufeff" + data.decode("utf-8", errors="replace"), fmt,
                               repo_id="r") == expected
    for block in (1, 2, 1 << 20):
        monkeypatch.setattr(ingest, "_READ_BLOCK", block)
        assert parse_commit_stream(io.BytesIO(bom + data), fmt, repo_id="r") == expected, block
    # Only one, and only at the head: a second one makes the first record malformed.
    twice = parse_commit_stream(bom + bom + data, fmt, repo_id="r")
    assert twice.records == expected.records[1:]
    assert [m.line_number for m in twice.malformed] == \
        [1] + [m.line_number for m in expected.malformed]
    if fmt == "ndjson":
        assert twice.malformed[0].reason == \
            "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        later = parse_commit_stream(data.replace(b"\n", b"\n" + bom, 1), fmt)
        assert later.malformed[0] == ingest.MalformedRecord(2, twice.malformed[0].reason)


def test_ndjson_input_forms_keep_odd_lines_whole():
    result = parse_commit_stream(io.BytesIO(MIXED_NDJSON), "ndjson")
    assert [r.hash for r in result.records] == [c * 40 for c in "abcd"]
    assert result.records[0].message == "one\u2028line"
    assert result.records[2].message == "\ufffd"
    assert [m.line_number for m in result.malformed] == [5, 7, 9]


def test_gitlog_record_straddling_blocks(monkeypatch):
    result = parse_commit_stream(MIXED_GITLOG, "gitlog", repo_id="r")
    assert [r.hash for r in result.records] == [c * 40 for c in "abcd"]
    assert result.records[0].message == "root\n\nbody\u2028more"
    assert result.records[2].message == "cut \ufffd"
    assert result.records[1].committer_id == "c\u00e9"
    assert [(m.line_number, m.reason) for m in result.malformed] == [
        (4, f"hash 'zz' {NEITHER}")]
    # The second record spans many 7-byte blocks.
    monkeypatch.setattr(ingest, "_READ_BLOCK", 7)
    assert parse_commit_stream(io.BytesIO(MIXED_GITLOG), "gitlog", repo_id="r") == result


class SizedReadsOnly(io.BytesIO):
    """A binary handle that fails any read() that would take the whole input."""

    def read(self, size=-1):
        assert size is not None and size >= 0, "read() without a size"
        return super().read(size)


@pytest.mark.parametrize("data, fmt", [(MIXED_NDJSON, "ndjson"), (MIXED_GITLOG, "gitlog")],
                         ids=["ndjson", "gitlog"])
def test_binary_handle_is_read_in_blocks(data, fmt):
    result = parse_commit_stream(SizedReadsOnly(data), fmt, repo_id="r")
    assert result == parse_commit_stream(data, fmt, repo_id="r")


@pytest.mark.parametrize("fmt", ["ndjson", "gitlog"])
def test_parent_reference_shares_the_hash_object(fmt):
    if fmt == "ndjson":
        # The child comes first, as in git log order, and spells the hash in capitals.
        data = "\n".join([ndjson_line(hash="b" * 40, parents=["A" * 40]),
                          ndjson_line(hash="a" * 40),
                          ndjson_line(hash="c" * 40, parents=["a" * 40, "b" * 40])])
    else:
        data = (gitlog_record("b" * 40, "A" * 40, 2, "+0000", 2, "+0000", "x", "x", "m")
                + gitlog_record("a" * 40, "", 1, "+0000", 1, "+0000", "x", "x", "m")
                + gitlog_record("c" * 40, "a" * 40 + " " + "b" * 40, 3, "+0000", 3,
                                "+0000", "x", "x", "m"))
    child, parent, merge = parse_commit_stream(data, fmt, repo_id="r").records
    assert child.parents[0] is parent.hash
    assert merge.parents[0] is parent.hash
    assert merge.parents[1] is child.hash
    # Repo and person ids are shared the same way.
    assert merge.repo_id is child.repo_id
    assert merge.author_id is child.author_id is child.committer_id


def test_repeated_star_counts_and_offsets_share_one_int():
    # Python shares only the ints up to 256 by itself.
    data = "\n".join(ndjson_line(hash=f"{i:040x}", stars=int("1000"), tz_offset_min=int("330"))
                     for i in range(3))
    first, *rest = parse_commit_stream(data, "ndjson").records
    for rec in rest:
        assert rec.stars is first.stars and rec.tz_offset_min is first.tz_offset_min


def test_ids_spelled_as_numbers_and_the_numbers_share_one_memo_apart():
    # Ids and ints share one memo: "480" and 480 must each read back as given.
    data = "\n".join([
        ndjson_line(hash="a" * 40, repo="480", committer="-300", stars=480, tz_offset_min=-300),
        ndjson_line(hash="b" * 40, repo="-300", committer="480", stars=480, tz_offset_min=-300),
    ])
    first, second = parse_commit_stream(data, "ndjson").records
    assert (first.repo_id, first.committer_id, first.stars, first.tz_offset_min) == (
        "480", "-300", 480, -300)
    assert (second.repo_id, second.committer_id, second.stars, second.tz_offset_min) == (
        "-300", "480", 480, -300)
    assert type(second.repo_id) is type(second.committer_id) is str
    assert type(second.stars) is type(second.tz_offset_min) is int


def test_a_gitlog_name_spelled_as_an_offset_stays_a_name():
    # gitlog's memos are all keyed by text, so they stay apart.
    data = (gitlog_record("a" * 40, "", 1, "+0100", 1, "+0100", "+0100", "+0100", "m")
            + gitlog_record("b" * 40, "", 2, "+0100", 2, "+0100", "+0100", "+0100", "m"))
    for rec in parse_commit_stream(data, "gitlog", repo_id="r").records:
        assert (rec.committer_id, rec.author_id, rec.tz_offset_min) == ("+0100", "+0100", 60)


def synthetic_ndjson(n: int) -> bytes:
    return "".join(
        ndjson_line(hash=f"{i:040x}", repo=f"org/repo{i % 50}", parents=[f"{i - 1:040x}"][:i],
                    author_date=10**9 + i, committer_date=10**9 + i, author=f"dev{i % 97}",
                    committer=f"dev{i % 89}", message=f"change {i}: fix the thing",
                    stars=1000 + i % 50, verified=i % 3 == 0) + "\n"
        for i in range(n)).encode()


def synthetic_gitlog(n: int) -> bytes:
    return "".join(
        gitlog_record(f"{i:040x}", f"{i - 1:040x}" if i else "", 10**9 + i, "+0200", 10**9 + i, "-0430",
                      f"dev{i % 89}", f"dev{i % 97}", f"change {i}: fix the thing\n") + "\n"
        for i in range(n)).encode()


@pytest.mark.parametrize("data, fmt", [(synthetic_ndjson(5000), "ndjson"),
                                       (synthetic_gitlog(5000), "gitlog")],
                         ids=["ndjson", "gitlog"])
def test_a_parse_holds_its_records_and_one_small_block(data, fmt):
    # What a parse holds beyond the records it returns: one block's bytes,
    # text and lines, and the per-parse memos. The bound is fixed, not
    # derived from the block size: megabyte blocks would hold these inputs,
    # of 0.8 and 1.5 MB, about three times over.

    handle = io.BytesIO(data)
    tracemalloc.start()
    try:
        result = parse_commit_stream(handle, fmt, repo_id="r")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 5000 and not result.malformed
    assert peak - kept < 48 * 5000 + 256 * 1024, (peak - kept) / 5000


def test_str_input_splits_on_newline_only():
    text = (ndjson_line(message="a@b").replace("@", "\u2028") + "\r\n"
            + ndjson_line(hash="b" * 40, message="@").replace("@", "\x85"))
    result = parse_commit_stream(text, "ndjson")
    assert [r.message for r in result.records] == ["a\u2028b", "\x85"]
    assert not result.malformed


def test_bad_stream_type_raises():
    with pytest.raises(TypeError):
        parse_commit_stream(12345, "ndjson")


# ---- Hash anchoring, ASCII numbers, epoch range ----


@pytest.mark.parametrize("overrides, reason", [
    ({"hash": "a" * 40 + "\n"}, f"hash {'a' * 40 + chr(10)!r} {NEITHER}"),
    ({"hash": "r12@gcc\n"}, f"hash 'r12@gcc\\n' {NEITHER}"),
    ({"parents": ["b" * 40 + "\n"]}, f"parent {'b' * 40 + chr(10)!r} {NEITHER}"),
], ids=["hex", "svn", "parent"])
def test_hash_with_a_trailing_newline_is_malformed(overrides, reason):
    lines = [ndjson_line(hash="b" * 40), ndjson_line(**overrides)]
    result = parse_commit_stream("\n".join(lines), "ndjson")
    assert [m.reason for m in result.malformed] == [reason]
    assert len(deduplicate(result.records)[0]) == 1


def test_gitlog_hash_with_a_trailing_newline_is_malformed():
    raw = gitlog_fields(hash="b" * 40) + "\x00" + gitlog_fields(hash="b" * 40 + "\n") + "\x00"
    result = parse_commit_stream(raw, "gitlog", repo_id="r")
    assert [r.hash for r in result.records] == ["b" * 40]
    assert [m.line_number for m in result.malformed] == [2]


@pytest.mark.parametrize("epoch", [
    "\uff11\uff13\uff15",  # full-width digits, which int() reads as 135
    "\u0661\u0663", "1_000", "+5", " 5", "5 ", "5\n",
])
@pytest.mark.parametrize("field", ["c_epoch", "a_epoch"])
def test_gitlog_epoch_takes_ascii_digits_only(field, epoch):
    result = parse_commit_stream(gitlog_fields(**{field: epoch}), "gitlog", repo_id="r")
    assert not result.records
    c_epoch, a_epoch = (epoch, "1") if field == "c_epoch" else ("1", epoch)
    assert [m.reason for m in result.malformed] == [
        f"non-integer epoch field: {c_epoch!r} / {a_epoch!r}"]


@pytest.mark.parametrize("tz", ["\uff13\uff13\uff10", "3_0", "+330"])
@pytest.mark.parametrize("field", ["c_tz", "a_tz"])
def test_gitlog_tz_takes_ascii_digits_only(field, tz):
    result = parse_commit_stream(gitlog_fields(**{field: tz}), "gitlog", repo_id="r")
    assert not result.records
    assert [m.reason for m in result.malformed] == [f"unparseable timezone offset {tz!r}"]


def test_gitlog_numbers_that_stay_valid():
    raw = gitlog_fields(c_epoch="-5", a_epoch="007", c_tz=" -90 ", a_tz="+0530")
    (rec,) = parse_commit_stream(raw, "gitlog", repo_id="r").records
    assert (rec.committer_date, rec.tz_offset_min) == (-5, -90)
    assert rec.author_date == 7


def test_gitlog_hhmm_minutes_up_to_59_parse():
    # Guard for the 00-59 minute rule: the largest minute and the widest offset.
    raw = gitlog_fields(c_tz="+0059", a_tz="-1800")
    (rec,) = parse_commit_stream(raw, "gitlog", repo_id="r").records
    assert (rec.committer_date, rec.tz_offset_min) == (1, 59)
    assert rec.author_date == 1


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@pytest.mark.parametrize("field", ["author_date", "committer_date"])
@pytest.mark.parametrize("raw, unit", [
    (INT64_MAX + 1, "s"), (INT64_MIN - 1, "s"), (10**400, "s"),
    ((INT64_MAX + 1) * 1000, "ms"), (INT64_MIN * 10**6 - 1, "us"),
], ids=["max+1", "min-1", "1e400", "ms", "us"])
def test_ndjson_epoch_outside_int64_is_malformed(field, raw, unit):
    result = parse_commit_stream(ndjson_line(**{field: raw, "date_unit": unit}), "ndjson")
    assert [m.reason for m in result.malformed] == [
        f"{field} is outside the int64 range of epoch seconds"]


@pytest.mark.parametrize("field, name", [("c_epoch", "committer_date"),
                                         ("a_epoch", "author_date")])
@pytest.mark.parametrize("epoch", [INT64_MAX + 1, INT64_MIN - 1], ids=["max+1", "min-1"])
def test_gitlog_epoch_outside_int64_is_malformed(field, name, epoch):
    result = parse_commit_stream(gitlog_fields(**{field: str(epoch)}), "gitlog", repo_id="r")
    assert [m.reason for m in result.malformed] == [
        f"{name} is outside the int64 range of epoch seconds"]


def test_int64_epoch_bounds_stay_valid():
    lines = [ndjson_line(author_date=INT64_MIN, committer_date=INT64_MAX),
             ndjson_line(author_date=(INT64_MAX + 1) * 1000 - 1,
                         committer_date=INT64_MIN * 1000, date_unit="ms")]
    gitlog = gitlog_fields(c_epoch=str(INT64_MAX), a_epoch=str(INT64_MIN))
    for result in (parse_commit_stream("\n".join(lines), "ndjson"),
                   parse_commit_stream(gitlog, "gitlog", repo_id="r")):
        assert not result.malformed
        for rec in result.records:
            assert {rec.author_date, rec.committer_date} == {INT64_MIN, INT64_MAX}


def test_ndjson_integer_beyond_the_digit_limit_is_malformed():
    # json.loads raises a plain ValueError, not a JSONDecodeError, here.
    line = ndjson_line(stars=1).replace('"stars": 1', '"stars": 1' + "0" * 5000)
    result = parse_commit_stream(line, "ndjson")
    assert not result.records
    (bad,) = result.malformed
    assert bad.line_number == 1 and bad.reason.startswith("invalid JSON: Exceeds the limit")
