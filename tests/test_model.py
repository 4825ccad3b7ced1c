"""Tests for timestamp normalization and UTC formatting."""

from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolint.model import (
    Anomaly,
    AnomalyKind,
    canonical_repo_id,
    decode_json,
    format_utc,
    normalize_timestamp,
    parse_utc,
)
from conftest import reference_decode_json, repo_id_spellings, result_of


def _datetime_oracle(epoch: int) -> str:
    """Independent formatter for epochs inside datetime's supported range."""
    dt = datetime.fromtimestamp(epoch, tz=timezone.utc)
    # strftime %Y does not zero-pad years < 1000 on glibc; the YYYY field does.
    return f"{dt.year:04d}-" + dt.strftime("%m-%d %H:%M:%S UTC")


def test_normalize_identity_seconds():
    assert normalize_timestamp(0, "s") == 0


def test_normalize_microseconds_1905_row():
    # -2044178335000000 us is one of the known suspicious raw values; it must
    # floor to exactly -2044178335 s, i.e. 1905-03-23 12:41:05 UTC.
    ts = normalize_timestamp(-2044178335000000, "us")
    assert ts == -2044178335
    assert format_utc(ts) == "1905-03-23 12:41:05 UTC"


def test_normalize_microseconds_1970_row():
    ts = normalize_timestamp(1000000000000, "us")
    assert ts == 1000000
    assert format_utc(ts).startswith("1970-01-12")


def test_normalize_floor_division_negative():
    assert normalize_timestamp(-1, "ms") == -1
    assert normalize_timestamp(-999, "ms") == -1
    assert normalize_timestamp(-1000, "ms") == -1
    assert normalize_timestamp(-1001, "ms") == -2


def test_normalize_rejects_unknown_unit():
    for unit in ("fortnights", "seconds"):
        with pytest.raises(ValueError):
            normalize_timestamp(1, unit)


@given(st.integers(min_value=-(2**40), max_value=2**40))
def test_normalize_unit_consistency(x):
    s = normalize_timestamp(x, "s")
    assert normalize_timestamp(x * 10**3, "ms") == s
    assert normalize_timestamp(x * 10**6, "us") == s


def test_format_utc_epoch_zero():
    assert format_utc(0) == "1970-01-01 00:00:00 UTC"


def test_format_utc_cvs_release_instant():
    # Derived with the datetime oracle: 1990-11-19T00:00:00Z.
    oracle = int(datetime(1990, 11, 19, tzinfo=timezone.utc).timestamp())
    assert oracle == 658972800
    assert format_utc(658972800) == "1990-11-19 00:00:00 UTC"


def test_format_utc_negative_epoch():
    assert format_utc(-2044178335) == "1905-03-23 12:41:05 UTC"


@given(st.integers(min_value=-62135596800 + 86400, max_value=253402300799))
def test_format_utc_matches_datetime(epoch):
    # datetime covers years 1..9999; inside that window the two formatters
    # must agree exactly.
    assert format_utc(epoch) == _datetime_oracle(epoch)


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
@example(-(2**63))
@example(2**63 - 1)
def test_format_parse_roundtrip(epoch):
    assert parse_utc(format_utc(epoch)) == epoch


def test_parse_utc_iso_forms():
    assert parse_utc("2019-10-31T00:00:00Z") == 1572480000
    assert parse_utc("2019-10-31") == 1572480000
    assert parse_utc("1990-11-19 00:00:00 UTC") == 658972800


def test_parse_utc_rejects_garbage():
    with pytest.raises(ValueError):
        parse_utc("next tuesday")


@pytest.mark.parametrize("text", [
    "2019-13-45",
    "2019-02-30T25:61:61Z",
    "2019-02-29",
    "2019-00-10",
    "2019-04-31",
    "2019-01-00",
    "2019-01-01T24:00:00Z",
    "2019-01-01T00:60:00Z",
    "2019-01-01T00:00:60Z",
    "2019-01-01T-1:00:00Z",
])
def test_parse_utc_rejects_out_of_range_fields(text):
    with pytest.raises(ValueError, match="out of range"):
        parse_utc(text)


@pytest.mark.parametrize("text", [
    "\uff12\uff10\uff11\uff19-01-01",
    "+2019-01-01",
    "2019_0-01-01",
    "2019-+1-01",
    "2019-01-01T 1:00:00Z",
    "2019-01-01T01:0_0:00Z",
    "2019-01-01T-0:00:00Z",
    "",
    "Z",
])
def test_parse_utc_accepts_ascii_digits_only(text):
    with pytest.raises(ValueError):
        parse_utc(text)


def test_anomaly_delta_only_for_out_of_order():
    Anomaly(AnomalyKind.OUT_OF_ORDER_PARENT, "a" * 40, "o/r", "x", delta_seconds=5)
    with pytest.raises(ValueError):
        Anomaly(AnomalyKind.OLD, "a" * 40, "o/r", "x", delta_seconds=5)
    with pytest.raises(ValueError):
        Anomaly(AnomalyKind.OUT_OF_ORDER_LINEAR, "a" * 40, "o/r", "x")


def test_canonical_repo_id():
    assert canonical_repo_id("Owner/Repo.git") == "owner/repo"
    assert canonical_repo_id("owner/repo") == "owner/repo"


def test_canonical_repo_id_drops_every_trailing_git_and_the_space_before_it():
    # Each needed more than one canonicalizing to reach "org/x" before.
    assert canonical_repo_id("Org/X.git.git") == "org/x"
    assert canonical_repo_id("Org/X .git") == "org/x"
    assert canonical_repo_id(" Org/X.GIT\t.git ") == "org/x"


@example("Org/X.git.git")
@example("Org/X .git")
@given(repo_id_spellings)
def test_canonical_repo_id_is_its_own_canonical_form(repo_id):
    once = canonical_repo_id(repo_id)
    assert canonical_repo_id(once) == once


# Texts the scanner alone cannot take whole, and texts it can. The heads and
# tails hold JSON whitespace, characters that str.strip() strips but JSON
# does not, a BOM and garbage; the cores hold nesting deeper than the
# recursion limit and integers longer than int() converts.
JSON_HEADS = ["", " ", "\t\r\n", "\r", "\n", "\ufeff", "\x0b", "\x85", "\u3000"]
JSON_CORES = [
    "", " ", "{}", "[]", "null", "true", "0", "-1.5e3", '"text"', '"\\ud800 \\u00e9"',
    '{"a": [1, 2.5, true, null, "b"], "c": {"d": "e"}}', "not json", "{broken", '"unterminated',
    "[1,]", "01", "NaN", "-Infinity", "[" * 5000 + "]" * 5000, '{"a":' * 3000 + "1" + "}" * 3000,
    "-" + "9" * 4301, "[" + "1" + "0" * 5000 + "]",
]
JSON_TAILS = ["", " ", "\n", "\r\n", " \t\n", "\r", "x", " 1", "}", "]", ",", "\x0b", "\x85",
              "\u3000", "\ufeff"]


def decoded(decode, value):
    """What ``decode(value)`` returns, by repr so that NaN compares equal
    and 1.0 differs from 1, or the type and text of its error."""
    kind, got = result_of(decode, value)
    return (kind, repr(got)) if kind == "returned" else (kind, got)


def test_decode_json_matches_the_reference_on_every_head_core_and_tail():
    for head in JSON_HEADS:
        for core in JSON_CORES:
            for tail in JSON_TAILS:
                text = head + core + tail
                for value in (text, text.encode("utf-8", "surrogatepass")):
                    assert decoded(decode_json, value) == decoded(reference_decode_json, value), (
                        ascii(value)[:200])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(JSON_HEADS + JSON_CORES + JSON_TAILS) | st.text(max_size=4),
                max_size=6).map("".join)
       | st.binary(max_size=20) | st.none() | st.integers() | st.lists(st.text(max_size=3)))
@example(b"\xef\xbb\xbf[]")
@example("[]".encode("utf-16"))
@example(bytearray(b" {} "))
@example(memoryview(b"{}"))
@example(1.5)
def test_decode_json_matches_the_reference_on_any_input(value):
    assert decoded(decode_json, value) == decoded(reference_decode_json, value)
