"""Tests for metadata fetching, caching, backoff, and batch verification."""

import contextlib
import errno
import json
import os
import threading
import time
import tracemalloc
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolint import cli, filters, forge, model
from chronolint.cli import main, write_ndjson
from chronolint.detectors import (
    DetectorConfig,
    detect_out_of_order_linear,
    detect_out_of_order_parents,
)
from chronolint.forge import (
    CacheStore,
    ForgeClient,
    MetadataSource,
    VerificationOutcome,
    VerificationStatus,
    load_sources,
    verify_anomalies,
)
from chronolint.graph import build_graph, topological_order
from chronolint.model import EPOCH_MAX, EPOCH_MIN, parse_utc
from conftest import (
    hex_hash,
    make_record,
    reference_decode_json,
    result_of,
    text_mode_read,
)

CFG = DetectorConfig(future_cutoff=parse_utc("2030-01-01"))

FORGE_URL = "https://forge.test/{repo}/{hash}"
ARCHIVE_URL = "https://archive.test/rev/{hash}"


def doc_for(rec, committer_epoch=None, parents=None, verified="from-record"):
    doc = {
        "hash": rec.hash,
        "repo": rec.repo_id,
        "parents": list(rec.parents) if parents is None else [hex_hash(p) for p in parents],
        "author_date": rec.author_date,
        "committer_date": rec.committer_date
        if committer_epoch is None
        else committer_epoch,
        "author": rec.author_id,
        "committer": rec.committer_id,
        "message": rec.message,
    }
    if verified == "from-record":
        verified = rec.verified
    if verified is not None:
        doc["verified"] = verified
    return doc


def write_stub(directory, rec, **overrides):
    directory.mkdir(exist_ok=True)
    path = directory / f"{rec.hash}.json"
    path.write_text(json.dumps(doc_for(rec, **overrides)))


class FakeTransport:
    """Scripted HTTP: url -> list of (status, body, headers); last repeats."""

    def __init__(self, script=None):
        self.script = script or {}
        self.calls = []

    def __call__(self, url, headers):
        self.calls.append((url, dict(headers)))
        responses = self.script.get(url)
        if responses is None:
            return 404, "", {}
        response = responses.pop(0) if len(responses) > 1 else responses[0]
        return response

    def calls_to(self, url):
        return sum(1 for u, _ in self.calls if u == url)


def stub_source(tmp_path):
    return MetadataSource(kind="FileStub", endpoint=str(tmp_path / "stub"))


def forge_url_for(rec):
    return FORGE_URL.format(repo=rec.repo_id, hash=rec.hash)


# ---- Single fetch ----


def fetch(client, repo_id, commit_hash):
    """Resolve one commit as a batch does; a fresh answer is on disk in
    every cache when this returns."""
    try:
        return client._fetch(repo_id, commit_hash)
    finally:
        client._close_caches()


def test_stub_fetch_resolves(tmp_path):
    rec = make_record(1, parents=[0], verified=True)
    write_stub(tmp_path / "stub", rec)
    outcome = fetch(ForgeClient([stub_source(tmp_path)]), rec.repo_id, rec.hash)
    assert outcome.status is VerificationStatus.CONFIRMED_ON_FORGE
    assert outcome.parents == (hex_hash(0),)
    assert outcome.committer_date == rec.committer_date
    assert outcome.verified_flag is True


def test_stub_miss_is_unverifiable(tmp_path):
    (tmp_path / "stub").mkdir()
    outcome = fetch(ForgeClient([stub_source(tmp_path)]), "r", hex_hash(9))
    assert outcome.status is VerificationStatus.UNVERIFIABLE
    assert outcome.parents is None


def test_cache_hit_preserves_status_and_skips_everything(tmp_path):
    rec = make_record(1)
    write_stub(tmp_path / "stub", rec)
    cache_file = tmp_path / "cache.ndjson"
    sources = [
        MetadataSource(kind="LocalCache", endpoint=str(cache_file)),
        stub_source(tmp_path),
    ]
    first = fetch(ForgeClient(sources), rec.repo_id, rec.hash)

    # A fresh client with only the cache must reproduce the original outcome.
    cache_only = [MetadataSource(kind="LocalCache", endpoint=str(cache_file))]
    second = fetch(ForgeClient(cache_only), rec.repo_id, rec.hash)
    assert second == first
    assert second.status is VerificationStatus.CONFIRMED_ON_FORGE


def cached_client(tmp_path, cache_file):
    return ForgeClient([
        MetadataSource(kind="LocalCache", endpoint=str(cache_file)),
        stub_source(tmp_path),
    ])


def test_cache_skips_a_torn_last_line(tmp_path, caplog):
    rec = make_record(1)
    write_stub(tmp_path / "stub", rec)
    cache_file = tmp_path / "cache.ndjson"
    first = fetch(cached_client(tmp_path, cache_file), rec.repo_id, rec.hash)
    with open(cache_file, "a", encoding="utf-8") as fh:
        fh.write('{"repo": "r", "hash": "ab')  # a crash mid-append

    cache_only = [MetadataSource(kind="LocalCache", endpoint=str(cache_file))]
    second = fetch(ForgeClient(cache_only), rec.repo_id, rec.hash)
    assert second == first
    assert "torn" in caplog.text


def test_blank_and_whitespace_lines_between_cache_entries_are_skipped(tmp_path):
    old, new = make_record(1), make_record(2)
    for rec in (old, new):
        write_stub(tmp_path / "stub", rec)
    cache_file = tmp_path / "cache.ndjson"
    client = cached_client(tmp_path, cache_file)
    outcomes = [fetch(client, rec.repo_id, rec.hash) for rec in (old, new)]
    first, second = cache_file.read_bytes().splitlines(keepends=True)
    cache_file.write_bytes(b"\n" + first + b"\n \t\r\n" + second + b"  \n")
    cache = CacheStore(cache_file)
    assert [cache.get(rec.repo_id, rec.hash) for rec in (old, new)] == outcomes


def test_a_line_that_is_not_utf8_names_the_cache_and_the_line(tmp_path):
    rec = make_record(1)
    write_stub(tmp_path / "stub", rec)
    cache_file = tmp_path / "cache.ndjson"
    fetch(cached_client(tmp_path, cache_file), rec.repo_id, rec.hash)
    with open(cache_file, "ab") as fh:
        fh.write(b'{"repo": "\xff"}\n')
    with pytest.raises(ValueError) as caught:
        forge.CacheStore(cache_file)
    assert str(caught.value).startswith(f"corrupt cache {cache_file} line 2: 'utf-8' codec")


def test_a_torn_line_that_is_not_utf8_is_cut_off_before_the_next_append(tmp_path):
    old, new = make_record(1), make_record(2)
    for rec in (old, new):
        write_stub(tmp_path / "stub", rec)
    cache_file = tmp_path / "cache.ndjson"
    fetch(cached_client(tmp_path, cache_file), old.repo_id, old.hash)
    clean = cache_file.read_bytes()
    with open(cache_file, "ab") as fh:
        fh.write(b'{"repo": "\xc3\xa9\xff')

    fetch(cached_client(tmp_path, cache_file), new.repo_id, new.hash)
    lines = cache_file.read_bytes().splitlines(keepends=True)
    assert lines[0] == clean
    assert [json.loads(line)["hash"] for line in lines] == [old.hash, new.hash]


def test_append_after_a_torn_line_reloads_cleanly(tmp_path):
    old, new = make_record(1), make_record(2)
    for rec in (old, new):
        write_stub(tmp_path / "stub", rec)
    cache_file = tmp_path / "cache.ndjson"
    fetch(cached_client(tmp_path, cache_file), old.repo_id, old.hash)
    clean = cache_file.read_bytes()
    with open(cache_file, "ab") as fh:
        fh.write(clean[:-9])

    fetch(cached_client(tmp_path, cache_file), new.repo_id, new.hash)
    lines = cache_file.read_bytes().splitlines(keepends=True)
    assert lines[0] == clean
    assert [json.loads(line)["hash"] for line in lines] == [old.hash, new.hash]

    # A clean cache is only read: answering from it appends nothing.
    repaired = cache_file.read_bytes()
    client = cached_client(tmp_path, cache_file)
    for rec in (old, new):
        fetch(client, rec.repo_id, rec.hash)
    assert cache_file.read_bytes() == repaired


def test_standalone_fetch_is_on_disk_when_it_returns(tmp_path):
    old, new = make_record(1), make_record(2)
    for rec in (old, new):
        write_stub(tmp_path / "stub", rec)
    cache_file = tmp_path / "cache.ndjson"
    client = cached_client(tmp_path, cache_file)
    for count, rec in enumerate((old, new), 1):
        fetch(client, rec.repo_id, rec.hash)
        lines = cache_file.read_text().splitlines(keepends=True)
        assert len(lines) == count
        assert json.loads(lines[-1])["hash"] == rec.hash and lines[-1].endswith("\n")
    assert client.sources  # the client is still alive: nothing waited for collection


def test_cache_close_twice_is_safe_and_a_later_put_reopens(tmp_path):
    cache_file = tmp_path / "deep" / "cache.ndjson"
    store = CacheStore(cache_file)
    store.close()  # never opened
    for n in (1, 2):
        store.put("r", VerificationOutcome(hex_hash(n), VerificationStatus.UNVERIFIABLE))
        store.close()
        store.close()
    assert [json.loads(line)["hash"] for line in cache_file.read_text().splitlines()] == [
        hex_hash(1), hex_hash(2),
    ]


def test_primary_then_archive_fallback():
    rec = make_record(1, verified=True)
    archive_url = ARCHIVE_URL.format(hash=rec.hash)
    transport = FakeTransport({archive_url: [(200, json.dumps(doc_for(rec)), {})]})
    sources = [
        MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL),
        MetadataSource(kind="ArchiveFallback", endpoint=ARCHIVE_URL),
    ]
    client = ForgeClient(sources, transport=transport)
    outcome = fetch(client, rec.repo_id, rec.hash)
    assert outcome.status is VerificationStatus.CONFIRMED_ON_ARCHIVE
    assert outcome.verified_flag is None  # archives don't know about signatures
    assert transport.calls_to(forge_url_for(rec)) == 1


def test_primary_success_keeps_verified_flag():
    rec = make_record(1, verified=False)
    transport = FakeTransport({forge_url_for(rec): [(200, json.dumps(doc_for(rec)), {})]})
    outcome = fetch(ForgeClient(
        [MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL)],
        transport=transport,
    ), rec.repo_id, rec.hash)
    assert outcome.status is VerificationStatus.CONFIRMED_ON_FORGE
    assert outcome.verified_flag is False


def test_every_source_missing_is_unverifiable():
    transport = FakeTransport()
    sources = [
        MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL),
        MetadataSource(kind="ArchiveFallback", endpoint=ARCHIVE_URL),
    ]
    outcome = fetch(ForgeClient(sources, transport=transport), "r", hex_hash(5))
    assert outcome.status is VerificationStatus.UNVERIFIABLE
    assert len(transport.calls) == 2


def test_rate_limit_backs_off_exponentially_then_succeeds():
    rec = make_record(1)
    url = forge_url_for(rec)
    transport = FakeTransport({
        url: [
            (429, "", {"Retry-After": "2"}),
            (429, "", {"Retry-After": "2"}),
            (200, json.dumps(doc_for(rec)), {}),
        ]
    })
    sleeps = []
    outcome = fetch(ForgeClient(
        [MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL)],
        transport=transport, sleep=sleeps.append,
    ), rec.repo_id, rec.hash)
    assert outcome.status is VerificationStatus.CONFIRMED_ON_FORGE
    assert sleeps == [2.0, 4.0]
    assert transport.calls_to(url) == 3


def test_persistent_rate_limit_gives_up_after_capped_attempts(tmp_path):
    rec = make_record(1)
    write_stub(tmp_path / "stub", rec)
    url = forge_url_for(rec)
    transport = FakeTransport({url: [(429, "", {"Retry-After": "1"})]})
    sleeps = []
    outcome = fetch(ForgeClient(
        [MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL), stub_source(tmp_path)],
        transport=transport, sleep=sleeps.append,
    ), rec.repo_id, rec.hash)
    assert transport.calls_to(url) == 5
    assert sleeps == [1.0, 2.0, 4.0, 8.0]
    # Budget exhausted on the forge; the stub still answers.
    assert outcome.status is VerificationStatus.CONFIRMED_ON_FORGE


def test_auth_token_resolved_from_environment(monkeypatch):
    monkeypatch.setenv("TEST_FORGE_TOKEN", "sekrit")
    rec = make_record(1)
    transport = FakeTransport({forge_url_for(rec): [(200, json.dumps(doc_for(rec)), {})]})
    fetch(ForgeClient(
        [MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL, auth="TEST_FORGE_TOKEN")],
        transport=transport,
    ), rec.repo_id, rec.hash)
    (_, headers), = transport.calls
    assert headers["Authorization"] == "Bearer sekrit"


def test_unusable_documents_fall_through():
    rec = make_record(1)
    other = make_record(2)
    transport = FakeTransport({
        forge_url_for(rec): [(200, "{not json", {})],
        ARCHIVE_URL.format(hash=rec.hash): [(200, json.dumps(doc_for(other)), {})],
    })
    sources = [
        MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL),
        MetadataSource(kind="ArchiveFallback", endpoint=ARCHIVE_URL),
    ]
    # Broken JSON from the forge, wrong hash from the archive: nothing usable.
    client = ForgeClient(sources, transport=transport)
    outcome = fetch(client, rec.repo_id, rec.hash)
    assert outcome.status is VerificationStatus.UNVERIFIABLE


@pytest.mark.parametrize("hint, first", [
    ("2", 2),
    ("0", 0),
    ("007", 7),
    (" 3\t", 3),  # whitespace around a field value is not part of it
    (None, 1),
    ("", 1),
    ("1.5", 1),  # delay-seconds is a whole number
    ("-1", 1),
    ("+3", 1),
    ("nan", 1),
    ("inf", 1),
    ("1e400", 1),
    ("Wed, 21 Oct 2015 07:28:00 GMT", 1),  # an HTTP-date
    ("٣", 1),  # ARABIC-INDIC DIGIT THREE
    ("²", 1),  # SUPERSCRIPT TWO
])
def test_retry_after_is_delay_seconds_or_one_second(hint, first):
    url = forge_url_for(make_record(1))
    transport = FakeTransport({url: [(429, "", {} if hint is None else {"Retry-After": hint})]})
    slept = []
    outcome = fetch(ForgeClient([MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL)],
                                transport=transport, sleep=slept.append),
                    "example/repo", hex_hash(1))
    assert slept == [first, 2 * first, 4 * first, 8 * first]
    assert transport.calls_to(url) == forge.MAX_ATTEMPTS
    assert outcome.status is VerificationStatus.UNVERIFIABLE


@pytest.mark.parametrize("digits", [400, 5000])
def test_a_delay_no_clock_can_wait_ends_the_attempt_as_a_miss(tmp_path, digits):
    # time.sleep refuses 10**400 seconds at once, and int() refuses 5,000 digits.
    rec = make_record(1)
    write_stub(tmp_path / "stub", rec)
    url = forge_url_for(rec)
    transport = FakeTransport({url: [(429, "", {"Retry-After": "9" * digits})]})
    outcome = fetch(ForgeClient(
        [MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL), stub_source(tmp_path)],
        transport=transport,
    ), rec.repo_id, rec.hash)
    assert transport.calls_to(url) == 1
    assert outcome.status is VerificationStatus.CONFIRMED_ON_FORGE  # the stub answered


@pytest.mark.parametrize("error", [urllib.error.URLError, TimeoutError],
                         ids=["ConnectionError", "Timeout"])
def test_transport_error_is_a_failed_attempt(tmp_path, error):
    rec = make_record(1)
    write_stub(tmp_path / "stub", rec)
    calls = []

    def transport(url, headers):
        calls.append(url)
        raise error(f"cannot reach {url}")

    sleeps = []
    outcome = fetch(ForgeClient(
        [MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL), stub_source(tmp_path)],
        transport=transport, sleep=sleeps.append,
    ), rec.repo_id, rec.hash)
    assert calls == [forge_url_for(rec)] * 5  # the same budget as a rate limit
    assert sleeps == []  # no Retry-After hint to back off from
    assert outcome.status is VerificationStatus.CONFIRMED_ON_FORGE  # the stub answered


# ---- HTTP transport, against a server on the loopback interface ----


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers GET path -> list of (status, headers, body, declared length),
    with an optional fifth item, the seconds to stay silent before
    answering, or until the server closes; the last response repeats. A
    declared length above the body's is a response cut short."""

    def do_GET(self):
        self.server.requests.append((self.path, self.headers.get("Authorization")))
        responses = self.server.script.get(self.path, [(404, {}, b"no such commit", None)])
        status, headers, body, length, *stall = (
            responses.pop(0) if len(responses) > 1 else responses[0])
        if stall and self.server.closing.wait(stall[0]):
            return  # nobody waits for this answer any more
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body) if length is None else length))
        self.end_headers()
        self.wfile.write(body)
        self.close_connection = True

    def log_message(self, *args):  # keep the test output quiet
        pass


@contextlib.contextmanager
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.script, server.requests, server.closing = {}, [], threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.closing.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")  # a configured proxy must not carry these requests
    with scripted_server() as served:
        yield served


def test_http_transport_returns_every_status(loopback):
    server, base = loopback
    server.script = {
        "/ok": [(200, {"Content-Type": "application/json"}, b'{"a": "\xc3\xa9"}', None)],
        "/limited": [(429, {"Retry-After": "7"}, b"slow down", None)],
    }
    status, body, headers = forge.http_transport(f"{base}/ok", {"Authorization": "Bearer t"})
    assert (status, json.loads(body), headers["Content-Type"]) == (200, {"a": "\u00e9"},
                                                                    "application/json")
    assert forge.http_transport(f"{base}/missing", {})[:2] == (404, "no such commit")
    status, body, headers = forge.http_transport(f"{base}/limited", {})
    assert (status, body, headers["Retry-After"]) == (429, "slow down", "7")
    assert server.requests == [("/ok", "Bearer t"), ("/missing", None), ("/limited", None)]


@pytest.mark.parametrize("status", [200, 404, 429, 503])
def test_http_transport_maps_a_truncated_body_to_oserror(loopback, status):
    server, base = loopback
    server.script = {"/cut": [(status, {}, b'{"hash": "ab', 100)]}
    with pytest.raises(OSError, match="/cut"):
        forge.http_transport(f"{base}/cut", {})


def test_http_transport_keeps_the_token_on_same_origin_redirects_only(loopback):
    server, base = loopback
    with scripted_server() as (other, other_base):
        other.script = {"/ok": [(200, {}, b"there", None)]}
        server.script = {
            "/away": [(302, {"Location": f"{other_base}/ok"}, b"", None)],
            "/here": [(307, {"Location": "/ok"}, b"", None)],
            "/ok": [(200, {}, b"here", None)],
        }
        auth = {"Authorization": "Bearer t"}
        assert forge.http_transport(f"{base}/away", auth)[:2] == (200, "there")
        assert forge.http_transport(f"{base}/here", auth)[:2] == (200, "here")
        assert other.requests == [("/ok", None)]
    assert server.requests == [("/away", "Bearer t"), ("/here", "Bearer t"), ("/ok", "Bearer t")]


@pytest.mark.parametrize("path, sent", [
    ("/org/caf\u00e9", "/org/caf%C3%A9"),
    ("/org/my repo", "/org/my%20repo"),
    ("/org/r%41/r1@x?q=%zz", "/org/r%2541/r1@x?q=%25zz"),
    ("/org/repo/r7@trunk", "/org/repo/r7@trunk"),
], ids=["non-ascii", "space", "stray-percent", "legal"])
def test_http_transport_percent_encodes_the_url(loopback, path, sent):
    server, base = loopback
    server.script = {sent: [(200, {}, b"found", None)]}
    assert forge.http_transport(base + path, {})[:2] == (200, "found")
    assert server.requests == [(sent, None)]


def test_a_server_silent_for_the_timeout_costs_the_client_one_attempt(loopback, monkeypatch):
    server, base = loopback
    monkeypatch.setattr(forge, "HTTP_TIMEOUT_S", 0.2)
    rec = make_record(1)
    answer = (200, {}, json.dumps(doc_for(rec)).encode(), None)
    server.script = {"/silent": [(*answer, 60.0)],
                     f"/example/repo/{rec.hash}": [(*answer, 60.0), answer]}
    started = time.monotonic()
    with pytest.raises(OSError):
        forge.http_transport(f"{base}/silent", {})
    assert time.monotonic() - started < 10
    sleeps = []
    client = ForgeClient([MetadataSource(kind="PrimaryForge", endpoint=base + "/{repo}/{hash}")],
                         sleep=sleeps.append)
    assert fetch(client, rec.repo_id, rec.hash).status is VerificationStatus.CONFIRMED_ON_FORGE
    assert [path for path, _ in server.requests].count(f"/example/repo/{rec.hash}") == 2
    assert sleeps == []  # a transport error gives no hint to back off from


def test_client_over_http_backs_off_then_falls_back(tmp_path, loopback):
    server, base = loopback
    limited, cut = make_record(1), make_record(2)
    write_stub(tmp_path / "stub", cut)
    server.script = {
        f"/example/repo/{limited.hash}": [(429, {"Retry-After": "3"}, b"", None),
                                          (200, {}, json.dumps(doc_for(limited)).encode(), None)],
        f"/example/repo/{cut.hash}": [(200, {}, b'{"hash": "ab', 100)],
    }
    sleeps = []
    client = ForgeClient(
        [MetadataSource(kind="PrimaryForge", endpoint=base + "/{repo}/{hash}"),
         stub_source(tmp_path)],
        sleep=sleeps.append,
    )
    assert fetch(client, limited.repo_id, limited.hash).status \
        is VerificationStatus.CONFIRMED_ON_FORGE
    assert sleeps == [3.0]
    # Every attempt at the truncated document fails; the stub answers.
    outcome = fetch(client, cut.repo_id, cut.hash)
    assert outcome.committer_date == cut.committer_date
    assert [path for path, _ in server.requests].count(f"/example/repo/{cut.hash}") \
        == forge.MAX_ATTEMPTS


def test_client_over_http_reads_retry_after_in_any_letter_case(loopback):
    server, base = loopback
    lower, upper = make_record(1), make_record(2)
    server.script = {
        f"/example/repo/{rec.hash}": [(429, {name: value}, b"", None),
                                      (200, {}, json.dumps(doc_for(rec)).encode(), None)]
        for rec, name, value in ((lower, "retry-after", "0"), (upper, "RETRY-AFTER", "3"))
    }
    sleeps = []
    client = ForgeClient([MetadataSource(kind="PrimaryForge", endpoint=base + "/{repo}/{hash}")],
                         sleep=sleeps.append)
    for rec in (lower, upper):
        assert fetch(client, rec.repo_id, rec.hash).status is VerificationStatus.CONFIRMED_ON_FORGE
    assert sleeps == [0, 3]


def test_verify_over_http_with_a_delay_no_clock_can_wait_shows_no_traceback(
        tmp_path, capsys, loopback):
    server, base = loopback
    records = partition_records()
    commits = tmp_path / "in.ndjson"
    with open(commits, "w", encoding="utf-8") as fh:
        write_ndjson(records, fh)
    report = str(tmp_path / "report.json")
    assert main(["scan", str(commits), "--snapshot-date", "2019-10-31", "--report", report]) == 1
    for rec in records:
        write_stub(tmp_path / "stub", rec, committer_epoch=10 if rec.hash == hex_hash(2) else None)
        server.script[f"/example/repo/{rec.hash}"] = [(429, {"Retry-After": "9" * 400}, b"", None)]
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps({"sources": [
        {"kind": "PrimaryForge", "endpoint": base + "/{repo}/{hash}"},
        {"kind": "FileStub", "endpoint": str(tmp_path / "stub")},
    ]}), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", report, "--sources", str(sources)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    document = json.loads(out)
    assert [a["commit"] for a in document["confirmed"]] == [hex_hash(1)]
    assert [a["commit"] for a in document["dropped"]] == [hex_hash(3)]
    # Each commit's forge attempt ended at its first rate limit; the stub answered.
    assert sorted(path for path, _ in server.requests) == sorted(
        f"/example/repo/{hex_hash(i)}" for i in (0, 1, 2, 3))


def test_source_validation():
    with pytest.raises(ValueError):
        MetadataSource(kind="Carrier-Pigeon", endpoint="x")
    with pytest.raises(ValueError):
        ForgeClient([])


# ---- Batch verification ----


def linear_candidates(records):
    order = topological_order(build_graph(records))
    by_hash = {r.hash: r for r in records}
    return detect_out_of_order_linear([by_hash[h] for h in order], CFG)


def test_false_positive_dropped_when_fetched_parents_older(tmp_path):
    # The dataset claims the parent is newer; the forge's truth disagrees.
    parent = make_record(0, committer_epoch=100)
    child = make_record(1, parents=[0], committer_epoch=50)
    candidates = linear_candidates([parent, child])
    assert len(candidates) == 1

    write_stub(tmp_path / "stub", parent, committer_epoch=40)  # truth: older
    write_stub(tmp_path / "stub", child)
    confirmed, dropped, accounting = verify_anomalies(
        candidates, [stub_source(tmp_path)]
    )
    assert confirmed == []
    assert dropped == candidates
    assert accounting["confirmed_on_forge"] == 1


def test_true_positive_confirmed(tmp_path):
    parent = make_record(0, committer_epoch=100)
    child = make_record(1, parents=[0], committer_epoch=50)
    for rec in (parent, child):
        write_stub(tmp_path / "stub", rec)
    candidates = linear_candidates([parent, child])
    confirmed, dropped, _ = verify_anomalies(
        candidates, [stub_source(tmp_path)]
    )
    assert [a.commit_hash for a in confirmed] == [child.hash]
    assert dropped == []


def test_unresolvable_candidate_dropped_and_counted(tmp_path):
    parent = make_record(0, committer_epoch=100)
    child = make_record(1, parents=[0], committer_epoch=50)
    (tmp_path / "stub").mkdir()  # empty: nobody has answers
    candidates = linear_candidates([parent, child])
    confirmed, dropped, accounting = verify_anomalies(
        candidates, [stub_source(tmp_path)]
    )
    assert confirmed == []
    assert dropped == candidates
    assert accounting == {
        "confirmed_on_forge": 0, "confirmed_on_archive": 0, "unverifiable": 1,
    }


def partition_records():
    return [
        make_record(0, committer_epoch=500),
        make_record(1, parents=[0], committer_epoch=100),   # genuinely bad
        make_record(2, parents=[1], committer_epoch=600),
        make_record(3, parents=[2], committer_epoch=90),    # dataset lies; truth is clean
        make_record(4, parents=[3], committer_epoch=950),
    ]


def test_confirmed_and_dropped_partition_input(tmp_path):
    records = partition_records()
    stub = tmp_path / "stub"
    for rec in records:
        write_stub(stub, rec, committer_epoch=10 if rec.hash == hex_hash(2) else None)

    candidates = linear_candidates(records)
    confirmed, dropped, accounting = verify_anomalies(candidates, [stub_source(tmp_path)])
    assert sorted(a.commit_hash for a in confirmed + dropped) == sorted(
        a.commit_hash for a in candidates
    )
    assert not set(a.commit_hash for a in confirmed) & set(a.commit_hash for a in dropped)
    assert sum(accounting.values()) == len(candidates)


def test_transport_errors_leave_the_accounting_whole(tmp_path):
    records = partition_records()
    candidates = linear_candidates(records)
    # The forge is down; the archive knows candidate 1 and its parent, not 3.
    archive = {
        ARCHIVE_URL.format(hash=rec.hash): (200, json.dumps(doc_for(rec)), {})
        for rec in records[:2]
    }

    def transport(url, headers):
        if url.startswith("https://forge.test/"):
            raise urllib.error.URLError(f"cannot reach {url}")
        return archive.get(url, (404, "", {}))

    sources = [
        MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL),
        MetadataSource(kind="ArchiveFallback", endpoint=ARCHIVE_URL),
    ]
    confirmed, dropped, accounting = verify_anomalies(candidates, sources, transport=transport)
    assert [a.commit_hash for a in confirmed] == [hex_hash(1)]
    assert [a.commit_hash for a in dropped] == [hex_hash(3)]
    assert accounting == {"confirmed_on_forge": 0, "confirmed_on_archive": 1, "unverifiable": 1}
    assert sum(accounting.values()) == len(candidates)


def test_verification_rejects_wrong_kind(tmp_path):
    from chronolint.detectors import detect_old
    anomalies = detect_old([make_record(1, committer_epoch=0)], CFG)
    with pytest.raises(ValueError):
        verify_anomalies(anomalies, [stub_source(tmp_path)])


def test_two_stage_pipeline_matches_parent_detector_on_chains(tmp_path):
    records = [
        make_record(0, committer_epoch=100),
        make_record(1, parents=[0], committer_epoch=50),
        make_record(2, parents=[1], committer_epoch=200, message="Merge branch 'x'"),
        make_record(3, parents=[2], committer_epoch=150),
        make_record(4, parents=[3], committer_epoch=150),
        make_record(5, parents=[4], committer_epoch=140),
    ]
    for rec in records:
        write_stub(tmp_path / "stub", rec)  # the stub mirrors the dataset exactly

    confirmed, _, _ = verify_anomalies(
        linear_candidates(records), [stub_source(tmp_path)]
    )
    direct = detect_out_of_order_parents(build_graph(records), CFG)
    assert {a.commit_hash for a in confirmed} == {a.commit_hash for a in direct}


def test_second_batch_run_is_network_free(tmp_path):
    records = [
        make_record(0, committer_epoch=500),
        make_record(1, parents=[0], committer_epoch=100),
        make_record(2, parents=[1, 9], committer_epoch=50),  # parent 9 exists nowhere
    ]
    script = {
        FORGE_URL.format(repo=rec.repo_id, hash=rec.hash): [(200, json.dumps(doc_for(rec)), {})]
        for rec in records
    }
    cache_file = tmp_path / "cache.ndjson"
    sources = [
        MetadataSource(kind="LocalCache", endpoint=str(cache_file)),
        MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL),
    ]
    candidates = linear_candidates(records)
    assert candidates

    transport = FakeTransport(dict(script))
    first = verify_anomalies(candidates, sources, transport=transport)
    assert len(transport.calls) > 0

    retransport = FakeTransport(dict(script))
    second = verify_anomalies(candidates, sources, transport=retransport)
    assert len(retransport.calls) == 0  # even the miss for parent 9 was remembered
    assert second == first


def count_appends(monkeypatch):
    """Record every file that ``forge`` opens for appending."""
    opened = []

    def spy(file, mode="r", *args, **kwargs):
        if "a" in mode:
            opened.append(str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(forge, "open", spy, raising=False)
    return opened


def cache_keys(cache_file):
    text = cache_file.read_text()
    assert text.endswith("\n")
    return [(entry["repo"], entry["hash"]) for entry in map(json.loads, text.splitlines())]


def test_cold_batch_opens_each_cache_once_and_a_warm_one_never(tmp_path, monkeypatch):
    records = partition_records()
    for rec in records:
        write_stub(tmp_path / "stub", rec)
    caches = [tmp_path / "cache.ndjson", tmp_path / "nested" / "cache.ndjson"]
    sources = [MetadataSource(kind="LocalCache", endpoint=str(c)) for c in caches]
    sources.append(stub_source(tmp_path))
    candidates = linear_candidates(records)
    opened = count_appends(monkeypatch)

    client = ForgeClient(sources)
    cold = client.verify_anomalies(candidates)
    assert sorted(opened) == sorted(map(str, caches))
    # Candidates 1 and 3 and their first parents 0 and 2: one line each.
    lookups = {(records[0].repo_id, hex_hash(i)) for i in range(4)}
    for cache in caches:
        keys = cache_keys(cache)
        assert len(keys) == len(set(keys))
        assert set(keys) == lookups

    before = [cache.read_bytes() for cache in caches]
    opened.clear()
    assert ForgeClient(sources).verify_anomalies(candidates) == cold
    assert opened == []
    assert [cache.read_bytes() for cache in caches] == before


def test_a_cache_hit_goes_to_every_other_cache_and_not_back_to_its_own(tmp_path, monkeypatch):
    records = partition_records()
    for rec in records:
        write_stub(tmp_path / "stub", rec)
    full, empty = tmp_path / "full.ndjson", tmp_path / "empty.ndjson"
    candidates = linear_candidates(records)
    cold = verify_anomalies(candidates, [MetadataSource(kind="LocalCache", endpoint=str(full)),
                                         stub_source(tmp_path)])
    puts = []
    monkeypatch.setattr(CacheStore, "put", lambda store, repo_id, outcome: puts.append(
        (store.path, repo_id, outcome.commit_hash)))
    sources = [MetadataSource(kind="LocalCache", endpoint=str(full)),
               MetadataSource(kind="LocalCache", endpoint=str(empty)), stub_source(tmp_path)]
    assert verify_anomalies(candidates, sources) == cold
    # Every lookup is a hit in the first cache, and is put into the second alone.
    assert sorted(puts) == sorted((empty, repo_id, commit_hash)
                                  for repo_id, commit_hash in cache_keys(full))


def test_a_batch_that_fails_partway_leaves_only_complete_lines(tmp_path):
    records = partition_records()
    answers = {forge_url_for(rec): (200, json.dumps(doc_for(rec)), {}) for rec in records}

    def transport(url, headers):
        if url == forge_url_for(records[3]):
            raise RuntimeError("the check fails on candidate 3")
        return answers[url]

    cache_file = tmp_path / "cache.ndjson"
    sources = [
        MetadataSource(kind="LocalCache", endpoint=str(cache_file)),
        MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL),
    ]
    client = ForgeClient(sources, transport=transport)
    with pytest.raises(RuntimeError):
        client.verify_anomalies(linear_candidates(records))
    # Candidate 1 and its parent 0 were resolved before candidate 3 failed.
    assert sorted(commit for _, commit in cache_keys(cache_file)) == [hex_hash(0), hex_hash(1)]


def test_a_local_batch_starts_no_thread(tmp_path, monkeypatch):
    # Catches a thread pool around the fetches: around LocalCache and FileStub
    # reads it made verify slower, and HTTP sources are fetched one at a time.
    records = partition_records()
    for rec in records:
        write_stub(tmp_path / "stub", rec)
    transport = FakeTransport({forge_url_for(rec): [(200, json.dumps(doc_for(rec)), {})]
                               for rec in records})
    local = [MetadataSource(kind="LocalCache", endpoint=str(tmp_path / "cache.ndjson")),
             stub_source(tmp_path)]
    http = [MetadataSource(kind="LocalCache", endpoint=str(tmp_path / "http.ndjson")),
            MetadataSource(kind="PrimaryForge", endpoint=FORGE_URL)]
    seen = []
    fetch = ForgeClient._fetch

    def spy(self, repo_id, commit_hash):
        seen.append((threading.current_thread(), threading.active_count()))
        return fetch(self, repo_id, commit_hash)

    monkeypatch.setattr(ForgeClient, "_fetch", spy)
    threads = threading.active_count()
    for sources in (local, http):
        for run in ("cold", "warm"):
            seen.clear()
            ForgeClient(sources, transport=transport).verify_anomalies(linear_candidates(records))
            assert seen, (sources[1].kind, run)
            assert set(seen) == {(threading.main_thread(), threads)}, (sources[1].kind, run)
    assert len(transport.calls) == 4  # the cold HTTP run fetched; the warm one read its cache
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [2, 4])
def test_stub_reads_and_pooled_http_fetches_agree(tmp_path, workers):
    # Catches the FileStub and HTTP paths drifting apart: the same documents
    # give the same verdicts and the same cache lines either way. Each config
    # still carries the "workers" key written for the thread pool verify once
    # had; it is read by nothing, so every size gives the one result.
    records = partition_records() + [
        make_record(5, parents=[9, 4], committer_epoch=40),  # parent 9 exists nowhere
        make_record(6, parents=[5], committer_epoch=30),     # has no document
    ]
    stub = tmp_path / "stub"
    for rec in records[:-1]:
        write_stub(stub, rec, committer_epoch=10 if rec.hash == hex_hash(2) else None)

    def transport(url, headers):
        path = stub / f"{url.rsplit('/', 1)[-1]}.json"
        return (200, path.read_text(), {}) if path.exists() else (404, "", {})

    candidates = linear_candidates(records)
    results = []
    for name, source in (("stub", {"kind": "FileStub", "endpoint": str(stub)}),
                         ("http", {"kind": "PrimaryForge", "endpoint": FORGE_URL})):
        cache = tmp_path / f"{name}.ndjson"
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({
            "workers": workers,
            "sources": [{"kind": "LocalCache", "endpoint": str(cache)}, source],
        }))
        client = ForgeClient(load_sources(config), transport=transport)
        results.append((client.verify_anomalies(candidates),
                        sorted(cache.read_text().splitlines())))
    assert results[0] == results[1]
    (confirmed, dropped, accounting), _ = results[0]
    assert confirmed and dropped
    assert accounting["unverifiable"] == 1


# ---- Fast paths, each against the slow path it replaced ----


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """One directory for a property's examples; each example rewrites its files."""
    return tmp_path_factory.mktemp("fast-paths")


def with_warnings(call, *args):
    """``result_of(call, *args)`` and forge's warning lines during the call."""
    lines = []
    with mock.patch.object(forge, "log_warning",
                           lambda name, msg, *margs: lines.append(msg % margs)):
        return result_of(call, *args), lines


def text_mode_stub(directory: str, commit_hash: str):
    """The stub document read in text mode: the oracle for ``_read_stub``."""
    path = os.path.join(directory, f"{commit_hash}.json")
    try:
        return text_mode_read(path)
    except (OSError, UnicodeDecodeError) as exc:
        if getattr(exc, "errno", None) in (errno.ENOENT, errno.ENAMETOOLONG):
            return None
        raise OSError(f"cannot read stub document {path}: {exc}") from exc
    except ValueError:
        return None


def assert_stub_read_as_text_mode_reads_it(directory, commit_hash):
    source = MetadataSource(kind="FileStub", endpoint=str(directory))
    got = result_of(ForgeClient([source])._read_stub, source, commit_hash)
    assert got == result_of(text_mode_stub, str(directory), commit_hash)
    return got


BOM = b"\xef\xbb\xbf"
# Newlines, a BOM and its first bytes, bytes that are not UTF-8 or end
# mid-character, an encoded lone surrogate, a NUL, and text.
STUB_PIECES = [b"\r", b"\n", b"\r\n", BOM, b"\xef", b"\xef\xbb", b"\xff", b"\xc3", b"\xe2\x82",
               b"\xed\xa0\x80", "é€\U0001f600".encode(), b"{}", b'{"a": 1}', b" ", b"\x00"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(STUB_PIECES) | st.binary(max_size=6), max_size=10).map(b"".join))
@example(b"")
@example(b"\xef")
@example(b"\xef\xbb")
@example(BOM)
@example(BOM + b"\r\n{}\r\r\n")
@example(BOM + b"\xff")
def test_a_stub_is_read_as_text_mode_reads_it(scratch_dir, data):
    (scratch_dir / f"{hex_hash(1)}.json").write_bytes(data)
    assert_stub_read_as_text_mode_reads_it(scratch_dir, hex_hash(1))


READ = model._READ_SIZE


@pytest.mark.parametrize("size", [READ - 1, READ, READ + 1, 2 * READ, 3 * READ + 1])
def test_a_stub_longer_than_one_read_is_read_whole(tmp_path, size):
    # A three-byte character straddles the end of the first read, and a
    # "\r\n" the end of the second; two sizes cut the character short.
    data = (BOM + b"x" * (READ - 4) + "\u20ac".encode() + b"x" * (READ - 3) + b"\r\n"
            + b"x" * READ)[:size]
    (tmp_path / f"{hex_hash(1)}.json").write_bytes(data)
    assert assert_stub_read_as_text_mode_reads_it(tmp_path, hex_hash(1))[0] == (
        "OSError" if size in (READ, READ + 1) else "returned")


def test_a_stub_name_is_a_miss_or_an_error_as_in_text_mode(tmp_path):
    (tmp_path / f"{hex_hash(1)}.json").mkdir()  # a directory named <hash>.json
    (tmp_path / "file").write_text("{}")
    results = {name: assert_stub_read_as_text_mode_reads_it(directory, commit_hash)
               for name, directory, commit_hash in [
                   ("directory", tmp_path, hex_hash(1)),
                   ("missing", tmp_path, hex_hash(2)),
                   ("NUL", tmp_path, "r2@a\x00b"),
                   ("longer than NAME_MAX", tmp_path, "r2@" + "a" * 300),
                   ("lone surrogate", tmp_path, "r2@\ud800"),
                   ("no such endpoint", tmp_path / "nowhere", hex_hash(1)),
                   ("endpoint is a file", tmp_path / "file", hex_hash(1)),
               ]}
    assert results == {
        "directory": ("OSError", f"cannot read stub document {tmp_path / hex_hash(1)}.json: "
                                 f"[Errno 21] Is a directory: '{tmp_path / hex_hash(1)}.json'"),
        "missing": ("returned", None), "NUL": ("returned", None),
        "longer than NAME_MAX": ("returned", None), "lone surrogate": ("returned", None),
        "no such endpoint": ("returned", None),
        "endpoint is a file": ("OSError", f"cannot read stub document {tmp_path}/file/"
                                          f"{hex_hash(1)}.json: [Errno 20] Not a directory: "
                                          f"'{tmp_path}/file/{hex_hash(1)}.json'"),
    }


# Each reader of a whole document, with the module it takes read_text from,
# and a document it reads without error.
READERS = {
    "report": (cli._load_scan_report, cli, {"schema_version": cli.SCHEMA_VERSION,
                                            "anomalies": [], "summary": {}}),
    "sources": (load_sources, forge, {"sources": [{"kind": "ArchiveFallback",
                                                   "endpoint": ARCHIVE_URL}]}),
    "policies": (filters.load_policies, filters, [{"kind": "MinTimestamp", "min_ts": 1}]),
}
DOCUMENT_PIECES = [json.dumps(document).encode() for _, _, document in READERS.values()]


def assert_read_as_text_mode_reads_it(reader, path):
    call, module, _ = READERS[reader]
    got = result_of(call, path)
    with mock.patch.object(module, "read_text", text_mode_read):
        assert got == result_of(call, path)
    return got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(READERS)),
       st.lists(st.sampled_from(STUB_PIECES + DOCUMENT_PIECES) | st.binary(max_size=6),
                max_size=10).map(b"".join))
@example("policies", b"\xef")
@example("sources", b"\xef\xbb")
@example("report", BOM + DOCUMENT_PIECES[0] + b"\r\n")
@example("sources", BOM + b"\r\n" + DOCUMENT_PIECES[1] + b"\r")
@example("policies", b"\r" + DOCUMENT_PIECES[2] + b"\xff")
def test_a_document_file_is_read_as_text_mode_reads_it(scratch_dir, reader, data):
    (scratch_dir / "document.json").write_bytes(data)
    assert_read_as_text_mode_reads_it(reader, scratch_dir / "document.json")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_document_file_is_named_in_its_error_as_in_text_mode(tmp_path, reader):
    (tmp_path / "file").write_text("{}")
    paths = [tmp_path, str(tmp_path), tmp_path / "missing", str(tmp_path / "file" / "x"),
             str(tmp_path / "a\x00b"), str(tmp_path / "\ud800"), ""]
    for path in paths:
        assert assert_read_as_text_mode_reads_it(reader, path)[0] != "returned"
    (tmp_path / "file").write_text(json.dumps(READERS[reader][2]))
    assert assert_read_as_text_mode_reads_it(reader, tmp_path / "file")[0] == "returned"


# Documents the scanner alone cannot take whole, and record documents; the
# heads and tails hold JSON whitespace, characters that str.strip() strips
# but JSON does not, and garbage.
DOC = json.dumps(doc_for(make_record(1, parents=[0], verified=True)))
DOC_CORES = [
    "", "{}", "[]", "null", '"text"', "not json", "{broken", DOC, DOC.replace(hex_hash(1), "A" * 40),
    json.dumps(doc_for(make_record(2))), DOC.replace('"message"', '"note"'),
    DOC.replace('"verified": true', '"verified": 1'), DOC.replace("[", "[" * 3000, 1),
    "[" * 5000 + "]" * 5000, "-" + "9" * 4301,
]
DOC_HEADS = ["", " ", "\n", "\t\r\n", "\ufeff", "\x0b"]
DOC_TAILS = ["", " ", "\n", "\r\n", " \t\n", "x", " 1", "}", ",", "\x0b", "\x85", "\u3000", "\ufeff"]


def decode_json_outcome(client, source, commit_hash, body):
    """``_outcome_from_document`` with the reference decoder on every body:
    the oracle for decode_json's scanner fast path."""
    with mock.patch.object(forge, "decode_json", reference_decode_json):
        return client._outcome_from_document(source, commit_hash, body)


def assert_document_read_as_decode_json_reads_it(kind, body):
    source = MetadataSource(kind=kind, endpoint=ARCHIVE_URL if kind in forge.HTTP_KINDS else "x")
    client = ForgeClient([source])
    got = with_warnings(client._outcome_from_document, source, hex_hash(1), body)
    assert got == with_warnings(decode_json_outcome, client, source, hex_hash(1), body)
    return got


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["FileStub", "PrimaryForge", "ArchiveFallback"]),
       st.sampled_from(DOC_HEADS), st.sampled_from(DOC_CORES), st.sampled_from(DOC_TAILS))
def test_a_document_is_read_as_decode_json_reads_it(kind, head, core, tail):
    assert_document_read_as_decode_json_reads_it(kind, head + core + tail)


@pytest.mark.parametrize("body, where", [
    ("", "line 1 column 1 (char 0)"), (" ", "line 1 column 2 (char 1)"),
    ("\n", "line 2 column 1 (char 1)"), ("\r\n\t", "line 2 column 2 (char 3)"),
], ids=repr)
def test_an_empty_or_blank_document_is_unusable(body, where):
    # An empty body leaves the scanner with no value and no end to check.
    assert assert_document_read_as_decode_json_reads_it("FileStub", body) == (
        ("returned", None), [f"unusable metadata document from FileStub: Expecting value: {where}"])


ENTRY = {"repo": "r", "hash": hex_hash(1), "status": "confirmed_on_forge", "verified": True,
         "parents": [hex_hash(0)], "committer_date": 5}
CACHE_LINE = json.dumps(ENTRY, sort_keys=True)  # as _cache_line writes ENTRY
CACHE_CORES = [
    json.dumps(ENTRY), json.dumps({**ENTRY, "hash": hex_hash(2), "status": "unverifiable",
                                   "verified": None, "parents": None, "committer_date": None}),
    json.dumps({**ENTRY, "repo": "é\ud800", "hash": "r7@x"}),
    *(json.dumps({k: v for k, v in ENTRY.items() if k != key}) for key in ENTRY),
    json.dumps({**ENTRY, "committer_date": "9"}), json.dumps({**ENTRY, "parents": "ab"}),
    json.dumps({**ENTRY, "status": "lost"}), json.dumps({**ENTRY, "parents": None}),
    "", "{}", "[]", '"text"', "not json", "[" * 5000 + "]" * 5000,
    # Lines in the exact shape _cache_line writes, which are read without
    # the JSON decoder,
    *(forge._cache_line(repo_id, VerificationOutcome(*fields))[:-1] for repo_id, fields in [
        ("r", (hex_hash(1), VerificationStatus.CONFIRMED_ON_FORGE, True, (hex_hash(0),), 5)),
        ("org/x", (hex_hash(3), VerificationStatus.CONFIRMED_ON_FORGE, False,
                   (hex_hash(1), hex_hash(2)), -(10**18))),
        ("r", ("r7@x y", VerificationStatus.CONFIRMED_ON_ARCHIVE, None, (), 0)),
        ("r", (hex_hash(2), VerificationStatus.UNVERIFIABLE)),
        ("", ("", VerificationStatus.UNVERIFIABLE, False, ("", " !#[]~"), EPOCH_MAX)),
    ]),
    # and near misses, which are not.
    *(CACHE_LINE.replace('"committer_date": 5,', f'"committer_date": {date},')
      for date in ["01", "-0", "-05", 10**18, 10**19, -(10**18), -(10**19), "5.0", "5e0"]),
    CACHE_LINE.replace('"r"', r'"a\"b"'), CACHE_LINE.replace('"r"', r'"\u00e9"'),
    CACHE_LINE.replace("confirmed_on_forge", "lost"),
    CACHE_LINE.replace(f'["{hex_hash(0)}"]', "null"), CACHE_LINE.replace(": 5,", ": null,"),
    CACHE_LINE.replace(f'["{hex_hash(0)}"]', "[]"), CACHE_LINE.replace(": true}", ": NULL}"),
    CACHE_LINE.replace('"hash": ', '"hash":  '), CACHE_LINE.replace(": true}", ": true }"),
]
CACHE_HEADS = ["", " ", "\t", "\r", "\ufeff", "\x0b", "\u3000"]
CACHE_TAILS = ["", " ", "\r", " \t\r", "x", " 1", "}", ",", "\x0b", "\x85", "\u3000", "\ufeff"]
CACHE_LINES = st.builds(lambda head, core, tail: (head + core + tail).encode(
    "utf-8", "surrogatepass"), st.sampled_from(CACHE_HEADS), st.sampled_from(CACHE_CORES),
    st.sampled_from(CACHE_TAILS)) | st.sampled_from([b"\xff", BOM, b"\xed\xa0\x80"])


def cache_entries(path):
    store = CacheStore(path)
    return sorted(store._entries.items()), store._torn_at


def decode_json_cache_entries(path):
    """The cache read with the reference decoder on every line, none of
    them matched in the shape ``_cache_line`` writes: the oracle for
    decode_json's scanner fast path and for the cache's own."""
    with mock.patch.object(forge, "decode_json", reference_decode_json), \
            mock.patch.object(forge, "_match_cache_line", lambda line: None):
        return cache_entries(path)


def assert_cache_read_as_decode_json_reads_it(path, data):
    path.write_bytes(data)
    got = with_warnings(cache_entries, path)
    assert got == with_warnings(decode_json_cache_entries, path)
    return got


@settings(max_examples=300, deadline=None)
@given(st.lists(CACHE_LINES, max_size=5), st.booleans())
def test_a_cache_is_read_as_decode_json_reads_it(scratch_dir, lines, torn):
    data = b"\n".join(lines) + (b"" if torn and lines else b"\n")
    assert_cache_read_as_decode_json_reads_it(scratch_dir / "cache.ndjson", data)


@pytest.mark.parametrize("data", [b"\n", b"\n\n", b" \t\r\n", BOM + b"\n", "\x0b\u3000\n".encode()],
                         ids=repr)
def test_blank_cache_lines_are_skipped_without_a_value_to_scan(tmp_path, data):
    assert assert_cache_read_as_decode_json_reads_it(tmp_path / "cache.ndjson", data) == (
        ("returned", ([], None)), [])


@pytest.mark.parametrize("core", CACHE_CORES, ids=range(len(CACHE_CORES)))
def test_each_cache_core_alone_on_a_line_is_read_as_decode_json_reads_it(tmp_path, core):
    # The property above puts a head and a tail around most lines; here each
    # core is a whole line, so every exact shape and near miss is met bare.
    data = (core + "\n").encode("utf-8", "surrogatepass")
    assert_cache_read_as_decode_json_reads_it(tmp_path / "cache.ndjson", data * 2)


@pytest.mark.parametrize("verified", [True, False, None])
def test_what_put_wrote_is_read_back_without_the_json_decoder(tmp_path, verified):
    resolved = [VerificationStatus.CONFIRMED_ON_FORGE, VerificationStatus.CONFIRMED_ON_ARCHIVE]
    written = {
        (repo_id, outcome.commit_hash): outcome for repo_id, outcome in [
            ("org/a", VerificationOutcome(hex_hash(1), resolved[0], verified, (hex_hash(0),), 5)),
            ("org/a", VerificationOutcome(hex_hash(0), resolved[1], verified, (), -5)),
            ("org/b", VerificationOutcome(hex_hash(3), resolved[0], verified,
                                          (hex_hash(1), hex_hash(2)), EPOCH_MIN)),
            ("org/b", VerificationOutcome("r12@svn/trunk", resolved[1], verified, (), EPOCH_MAX)),
            ("org/b", VerificationOutcome(hex_hash(4), VerificationStatus.UNVERIFIABLE, verified)),
        ]}
    path = tmp_path / "cache.ndjson"
    store = CacheStore(path)
    for (repo_id, _), outcome in written.items():
        store.put(repo_id, outcome)
    store.close()
    with mock.patch.object(forge, "decode_json", side_effect=AssertionError("decoded as JSON")):
        assert CacheStore(path)._entries == written


def test_a_cache_load_holds_its_entries_and_one_small_block(tmp_path):
    # The file is read one line at a time: a load that held the file whole,
    # here about 1 MB, or all of its matches at once, would peak far higher.
    path = tmp_path / "cache.ndjson"
    store = CacheStore(path)
    for i in range(5000):
        store.put("org/repo", VerificationOutcome(
            hex_hash(i + 1), VerificationStatus.CONFIRMED_ON_FORGE, None, (hex_hash(i),), i))
    store.close()
    assert path.stat().st_size > 1_000_000
    tracemalloc.start()
    try:
        loaded = CacheStore(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded._entries) == 5000
    assert peak - kept < 256 * 1024, peak - kept


def dumps_cache_line(repo_id, outcome):
    """The cache line as json.dumps writes its entry: the oracle for the
    line ``CacheStore.put`` writes."""
    entry = {
        "repo": repo_id,
        "hash": outcome.commit_hash,
        "status": outcome.status.value,
        "verified": outcome.verified_flag,
        "parents": None if outcome.parents is None else list(outcome.parents),
        "committer_date": outcome.committer_date,
    }
    return json.dumps(entry, sort_keys=True) + "\n"


# Hex and SVN ids, and any text, lone surrogates and non-ASCII included.
IDS = (st.integers(0, 2**160 - 1).map(lambda n: f"{n:040x}")
       | st.builds(lambda n, repo: f"r{n}@{repo}", st.integers(0, 10**6), st.text(min_size=1))
       | st.text(st.characters(blacklist_categories=()), max_size=8))


@st.composite
def outcomes(draw):
    status = draw(st.sampled_from(VerificationStatus))
    resolved = status is not VerificationStatus.UNVERIFIABLE
    parents = st.lists(IDS, max_size=3).map(tuple)
    dates = st.integers(EPOCH_MIN, EPOCH_MAX)
    return VerificationOutcome(
        draw(IDS), status, draw(st.sampled_from([True, False, None])),
        draw(parents if resolved else st.none() | parents),
        draw(dates if resolved else st.none() | dates))


@settings(max_examples=300, deadline=None)
@given(IDS, outcomes())
def test_a_cache_line_is_written_as_dumps_writes_it(scratch_dir, repo_id, outcome):
    line = dumps_cache_line(repo_id, outcome)
    assert forge._cache_line(repo_id, outcome) == line
    path = scratch_dir / "written.ndjson"
    path.unlink(missing_ok=True)
    store = CacheStore(path)
    store.put(repo_id, outcome)
    store.close()
    assert path.read_bytes() == line.encode("ascii")
    assert CacheStore(path).get(repo_id, outcome.commit_hash) == outcome


def test_a_resolved_outcome_is_built_once_when_its_parents_are_a_tuple():
    def resolved(parents):
        return VerificationOutcome(hex_hash(1), VerificationStatus.CONFIRMED_ON_FORGE,
                                   parents=parents, committer_date=0)

    with mock.patch.object(VerificationOutcome, "_replace", side_effect=AssertionError("rebuilt")):
        assert resolved((hex_hash(2),)).parents == (hex_hash(2),)
    listed = resolved([hex_hash(2)])  # a list is copied once, into a tuple
    assert type(listed.parents) is tuple and listed.parents == (hex_hash(2),)


# ---- Config ----


def test_load_sources_round_trip(tmp_path):
    config = {
        "workers": 2,
        "sources": [
            {"kind": "LocalCache", "endpoint": "cache.ndjson"},
            {"kind": "PrimaryForge", "endpoint": FORGE_URL, "auth": "FORGE_TOKEN"},
            {"kind": "ArchiveFallback", "endpoint": ARCHIVE_URL},
        ],
    }
    path = tmp_path / "sources.json"
    path.write_text(json.dumps(config))
    sources = load_sources(path)  # "workers" is read by nothing
    assert [s.kind for s in sources] == ["LocalCache", "PrimaryForge", "ArchiveFallback"]
    assert sources[1].auth == "FORGE_TOKEN"


@pytest.mark.parametrize(
    "payload",
    [
        {},
        {"sources": []},
        {"sources": [{"kind": "PrimaryForge", "endpoint": "x"}], "workers": 0},
        {"sources": [{"kind": "Smoke-Signal", "endpoint": "x"}]},
        {"sources": [{"kind": "FileStub"}]},
        {"sources": [{"kind": "FileStub", "path": "stubs"}]},
        {"sources": ["FileStub"]},
        {"sources": [{"kind": "FileStub", "endpoint": 5}]},
        {"sources": [{"kind": "FileStub", "endpoint": "stubs", "auth": 7}]},
        {"sources": [{"kind": "PrimaryForge", "endpoint": "https://forge.test/{nope}"}]},
        {"sources": [{"kind": "PrimaryForge", "endpoint": "https://forge.test/{}"}]},
        {"sources": [{"kind": "PrimaryForge", "endpoint": "https://forge.test/{repo.x}"}]},
        {"sources": [{"kind": "ArchiveFallback", "endpoint": "https://a.test/{hash:{x}}"}]},
        {"sources": [{"kind": "ArchiveFallback", "endpoint": "https://a.test/{hash"}]},
        # HTTP kinds need an http:// or https:// URL.
        {"sources": [{"kind": "PrimaryForge", "endpoint": "forge.test/{repo}/{hash}"}]},
        {"sources": [{"kind": "PrimaryForge", "endpoint": "file:///srv/{repo}/{hash}"}]},
        {"sources": [{"kind": "ArchiveFallback", "endpoint": "ftp://a.test/{hash}"}]},
        {"sources": [{"kind": "ArchiveFallback", "endpoint": "https:/a.test/{hash}"}]},
        # The config, its source list and each source must have the right shape.
        [{"kind": "FileStub", "endpoint": "stubs"}],
        {"sources": {"kind": "FileStub", "endpoint": "stubs"}},
        {"sources": [{"kind": "FileStub", "endpoint": ""}]},
        # Template fields must be bare: no format spec, no conversion. Only
        # loaded here, never fetched through: a width spec allocates its width.
        {"sources": [{"kind": "ArchiveFallback", "endpoint": "https://a.test/{hash:9999999999}"}]},
        {"sources": [{"kind": "ArchiveFallback", "endpoint": "https://a.test/{hash!r}"}]},
    ],
)
def test_bad_source_configs_rejected(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_sources(path)
