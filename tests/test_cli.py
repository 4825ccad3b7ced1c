"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from chronolint import filters
from chronolint.cli import AuditRun, main, record_to_object, write_ndjson
from chronolint.detectors import DetectorConfig
from chronolint.ingest import parse_commit_stream
from chronolint.model import DatasetManifest, Timestamp, parse_utc
from conftest import hex_hash, make_record

SNAPSHOT = "2019-10-31T00:00:00Z"


def write_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        write_ndjson(records, fh)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def clean_records():
    return [
        make_record(0, committer_epoch=1_000_000_000, repo="org/alpha"),
        make_record(1, parents=[0], committer_epoch=1_000_000_100, repo="org/alpha"),
        make_record(2, committer_epoch=1_200_000_000, repo="org/beta"),
    ]


# ---- scan ----


def test_scan_clean_fixture_exits_zero(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    code, out, err = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["total"] == {"commits": 0, "projects": 0}
    assert report["anomalies"] == []
    assert report["dataset"] == {
        "records": 3,
        "projects": 2,
        "dedup": {"total_in": 3, "unique_out": 3, "duplicate_hashes": {}, "conflicts": []},
    }


def test_scan_flags_planted_epoch_zero(tmp_path, capsys):
    records = clean_records() + [make_record(9, committer_epoch=0, repo="org/alpha")]
    path = write_records(tmp_path / "in.ndjson", records)
    code, out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["old"] == {"commits": 1, "projects": 1}
    (anomaly,) = report["anomalies"]
    assert anomaly["kind"] == "old"
    assert anomaly["commit"] == hex_hash(9)
    assert report["commits"][hex_hash(9)]["repo"] == "org/alpha"


def test_scan_without_snapshot_date_exits_two(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    code, _, err = run(capsys, "scan", path)
    assert code == 2
    assert "--snapshot-date" in err


@pytest.mark.parametrize("flag, value", [
    ("--snapshot-date", "2019-13-45"),
    ("--old-cutoff", "2019-02-30T25:61:61Z"),
])
def test_scan_out_of_range_date_exits_two_with_one_line(tmp_path, capsys, flag, value):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    args = ["scan", path, flag, value]
    if flag != "--snapshot-date":
        args += ["--snapshot-date", SNAPSHOT]
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "out of range" in err


@pytest.mark.parametrize("flag, value", [
    ("--snapshot-date", "+2019-10-31"),
    ("--old-cutoff", ""),
])
def test_scan_unparseable_date_exits_two_with_one_line(tmp_path, capsys, flag, value):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    code, out, err = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT, flag, value)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


def test_scan_without_snapshot_ok_when_future_disabled(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    code, _, _ = run(capsys, "scan", path, "--detectors", "old,ooo,signatures,verified")
    assert code == 0


def test_scan_rejects_malformed_input(tmp_path, capsys):
    path = tmp_path / "in.ndjson"
    good = json.dumps(record_to_object(make_record(0)))
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    code, _, err = run(capsys, "scan", str(path), "--snapshot-date", SNAPSHOT)
    assert code == 2
    assert "malformed record" in err and ":2:" in err


def test_scan_rejects_cycles(tmp_path, capsys):
    records = [make_record(1, parents=[2]), make_record(2, parents=[1])]
    path = write_records(tmp_path / "in.ndjson", records)
    code, _, err = run(capsys, "scan", str(path), "--snapshot-date", SNAPSHOT)
    assert code == 2
    assert "cycle" in err


def test_scan_merge_exclusion_flips_with_flag(tmp_path, capsys):
    records = [
        make_record(0, committer_epoch=1_000_000_100, message="Merge branch 'dev'"),
        make_record(1, parents=[0], committer_epoch=1_000_000_000),
    ]
    path = write_records(tmp_path / "in.ndjson", records)
    code, out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)
    assert code == 0 and json.loads(out)["anomalies"] == []
    code, out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT, "--include-merges")
    assert code == 1
    (anomaly,) = json.loads(out)["anomalies"]
    assert anomaly["kind"] == "out_of_order_parent"
    assert anomaly["delta_seconds"] == 100


def test_scan_gitlog_format(tmp_path, capsys):
    sep, end = "\x1f", "\x00"
    chunk = sep.join([
        hex_hash(0), "", "1000000100", "+0000", "1000000100", "+0000",
        "alice", "alice", "refactor parser",
    ])
    path = tmp_path / "log.bin"
    path.write_text(chunk + end, encoding="utf-8")
    code, out, _ = run(capsys, "scan", str(path), "--format", "gitlog",
                       "--repo", "org/alpha", "--snapshot-date", SNAPSHOT)
    assert code == 0
    assert json.loads(out)["dataset"]["records"] == 1

    code, _, err = run(capsys, "scan", str(path), "--format", "gitlog",
                       "--snapshot-date", SNAPSHOT)
    assert code == 2 and "--repo" in err


def test_scan_report_and_csv_outputs(tmp_path, capsys):
    records = clean_records() + [make_record(9, committer_epoch=0)]
    path = write_records(tmp_path / "in.ndjson", records)
    report_path = tmp_path / "report.json"
    csv_dir = tmp_path / "csv"
    code, out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT,
                       "--report", str(report_path), "--csv-dir", str(csv_dir))
    assert code == 1
    assert out == ""  # report went to the file instead
    report = json.loads(report_path.read_text())
    assert report["summary"]["old"]["commits"] == 1
    anomaly_lines = (csv_dir / "anomalies.csv").read_text().splitlines()
    assert anomaly_lines[0] == "kind,repo,commit,delta_seconds,evidence"
    assert len(anomaly_lines) == 1 + len(report["anomalies"])
    assert (csv_dir / "summary.csv").exists()


def test_scan_rerun_is_byte_stable(tmp_path, capsys):
    records = clean_records() + [make_record(9, committer_epoch=0)]
    path = write_records(tmp_path / "in.ndjson", records)
    _, first, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)
    _, second, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)

    def body(text):
        return [line for line in text.splitlines() if "generated_at" not in line]

    assert body(first) == body(second)


# ---- filter ----


def policy_file(tmp_path, policies):
    path = tmp_path / "policies.json"
    path.write_text(json.dumps(policies))
    return str(path)


def test_filter_min_timestamp_drops_epoch_zero(tmp_path, capsys):
    records = clean_records() + [make_record(9, committer_epoch=0)]
    path = write_records(tmp_path / "in.ndjson", records)
    policies = policy_file(tmp_path, [{"kind": "MinTimestamp", "min_ts": 1}])
    out_path = tmp_path / "out.ndjson"
    code, _, err = run(capsys, "filter", path, "--policy-file", policies,
                       "--output", str(out_path), "--report", str(tmp_path / "ledger.json"))
    assert code == 0
    survivors = parse_commit_stream(out_path.read_text()).records
    assert len(survivors) == len(records) - 1
    assert hex_hash(9) not in {r.hash for r in survivors}
    ledger_doc = json.loads((tmp_path / "ledger.json").read_text())
    assert ledger_doc["input_records"] == len(records)
    assert ledger_doc["output_records"] == len(records) - 1
    (entry,) = ledger_doc["ledgers"]
    assert entry["removed_commits"] == 1
    assert entry["policy"]["kind"] == "MinTimestamp"


def test_filter_empty_policy_list_is_byte_identical_passthrough(tmp_path, capsys):
    records = clean_records() + [make_record(3, verified=True, stars=7)]
    path = write_records(tmp_path / "in.ndjson", records)
    code, out, _ = run(capsys, "filter", path, "--policy-file", policy_file(tmp_path, []))
    assert code == 0
    assert out == (tmp_path / "in.ndjson").read_text()


def test_filter_chained_policies_match_sequential_oracle(tmp_path, capsys):
    records = [
        make_record(0, committer_epoch=50),
        make_record(1, parents=[0], committer_epoch=40),
        make_record(2, parents=[1], committer_epoch=1_000_000_000),
        make_record(3, parents=[2], committer_epoch=999_999_000),
        make_record(4, parents=[3], committer_epoch=1_000_000_500),
    ]
    path = write_records(tmp_path / "in.ndjson", records)
    cutoff = "1970-01-01T00:00:45Z"  # epoch 45
    policies = policy_file(tmp_path, [
        {"kind": "BeforeDate", "cutoff": cutoff},
        {"kind": "DropOutOfOrder", "scope": "commit"},
    ])
    code, _, _ = run(capsys, "filter", path, "--policy-file", policies,
                     "--output", str(tmp_path / "out.ndjson"),
                     "--report", str(tmp_path / "ledger.json"))
    assert code == 0

    step1, ledger1 = filters.filter_before_date(records, parse_utc(cutoff))
    step2, ledger2 = filters.filter_out_of_order(step1, scope="commit")
    doc = json.loads((tmp_path / "ledger.json").read_text())
    assert [e["removed_commits"] for e in doc["ledgers"]] == [
        ledger1.removed_commits, ledger2.removed_commits,
    ]
    assert doc["output_records"] == len(step2)


def test_filter_output_rescans_cleanly(tmp_path, capsys):
    records = [
        make_record(0, committer_epoch=1_000_000_100),
        make_record(1, parents=[0], committer_epoch=1_000_000_000),  # out of order
        make_record(2, parents=[1], committer_epoch=1_000_000_200),
    ]
    path = write_records(tmp_path / "in.ndjson", records)
    policies = policy_file(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}])
    out_path = tmp_path / "out.ndjson"
    run(capsys, "filter", path, "--policy-file", policies, "--output", str(out_path))
    code, out, _ = run(capsys, "scan", str(out_path), "--snapshot-date", SNAPSHOT)
    assert code == 0
    assert json.loads(out)["summary"]["out_of_order_parent"]["commits"] == 0


def test_filter_deduplicates_by_the_scan_rule(tmp_path, capsys):
    records = clean_records()
    path = write_records(tmp_path / "in.ndjson", records + records[:1])
    policies = policy_file(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}])
    ledger_path = tmp_path / "ledger.json"
    code, out, _ = run(capsys, "filter", path, "--policy-file", policies,
                       "--report", str(ledger_path))
    assert code == 0
    write_records(tmp_path / "want.ndjson", records)
    assert out == (tmp_path / "want.ndjson").read_text()

    doc = json.loads(ledger_path.read_text())
    assert doc["input_records"] == 4
    assert doc["output_records"] == 3
    assert doc["ledgers"][0]["removed_commits"] + doc["ledgers"][0]["retained_commits"] == 3
    _, scan_out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)
    assert doc["dedup"] == json.loads(scan_out)["dataset"]["dedup"]
    assert doc["dedup"]["duplicate_hashes"] == {hex_hash(0): 2}


def test_filter_unknown_policy_kind_exits_two(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    policies = policy_file(tmp_path, [{"kind": "Mystery"}])
    code, _, err = run(capsys, "filter", path, "--policy-file", policies)
    assert code == 2
    assert "Mystery" in err


# ---- stats ----


def scan_report_path(tmp_path, capsys, records, *extra):
    in_path = write_records(tmp_path / "in.ndjson", records)
    report_path = tmp_path / "report.json"
    run(capsys, "scan", in_path, "--snapshot-date", SNAPSHOT,
        "--report", str(report_path), *extra)
    return str(report_path)


def ooo_fixture():
    return [
        make_record(0, committer_epoch=1_000_000_600, message="Fixed the build"),
        make_record(1, parents=[0], committer_epoch=1_000_000_000,
                    message="apply review feedback"),
        make_record(2, parents=[1], committer_epoch=1_000_000_900, message="Fixed tests"),
    ]


def test_stats_tables_from_scan_report(tmp_path, capsys):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    csv_dir = tmp_path / "csv"
    code, out, _ = run(capsys, "stats", report, "--csv-dir", str(csv_dir))
    assert code == 0
    doc = json.loads(out)
    stats = doc["stats"]
    assert stats["deltas"]["n"] == 1
    assert stats["deltas"]["min"] == 600
    assert sum(b["count"] for b in stats["histogram"]["buckets"]) == 1
    tokens = {row["token"]: row["count"] for row in stats["tokens"]["rows"]}
    assert tokens["appli"] == 1  # "apply" after stemming
    assert doc["anomalies"] == json.loads(Path(report).read_text(encoding="utf-8"))["anomalies"]
    assert (csv_dir / "histogram.csv").read_text().splitlines()[0] == "bucket,count"
    assert len((csv_dir / "tokens.csv").read_text().splitlines()) == 1 + len(tokens)


def test_stats_exclude_term_drops_whole_messages(tmp_path, capsys):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    _, out, _ = run(capsys, "stats", report, "--exclude-term", "apply review")
    tokens = {row["token"] for row in json.loads(out)["stats"]["tokens"]["rows"]}
    assert "appli" not in tokens and "feedback" not in tokens


def test_stats_ranks_committers_and_projects(tmp_path, capsys):
    records = [
        make_record(0, committer_epoch=1_000_000_600, committer="carol"),
        make_record(1, parents=[0], committer_epoch=1_000_000_000, committer="carol"),
        make_record(2, parents=[1], committer_epoch=1_000_000_900, committer="dave"),
        make_record(3, parents=[2], committer_epoch=1_000_000_100, committer="dave"),
        make_record(4, parents=[3], committer_epoch=0, committer="dave"),
    ]
    report = scan_report_path(tmp_path, capsys, records)
    _, out, _ = run(capsys, "stats", report)
    stats = json.loads(out)["stats"]
    assert stats["top_committers"][0] == {"committer": "dave", "commits": 2}
    assert stats["top_projects"][0]["project"] == "example/repo"


@pytest.mark.parametrize("payload", ["not json at all", '{"schema_version": 99}', '[1, 2]'])
def test_stats_rejects_non_reports(tmp_path, capsys, payload):
    path = tmp_path / "junk.json"
    path.write_text(payload)
    code, _, err = run(capsys, "stats", str(path))
    assert code == 2
    assert "report" in err


# ---- verify ----


def stub_sources(tmp_path, records, overrides=()):
    stub = tmp_path / "stub"
    stub.mkdir(exist_ok=True)
    changed = dict(overrides)
    for rec in records:
        obj = record_to_object(rec)
        if rec.hash in changed:
            obj["committer_date"] = changed[rec.hash]
        (stub / f"{rec.hash}.json").write_text(json.dumps(obj))
    config = tmp_path / "sources.json"
    config.write_text(json.dumps(
        {"sources": [{"kind": "FileStub", "endpoint": str(stub)}]}
    ))
    return str(config)


def test_verify_confirms_against_stub(tmp_path, capsys):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    sources = stub_sources(tmp_path, records)
    code, out, err = run(capsys, "verify", report, "--sources", sources)
    assert code == 1
    doc = json.loads(out)
    assert [a["commit"] for a in doc["confirmed"]] == [hex_hash(1)]
    assert doc["dropped"] == []
    assert doc["accounting"] == {
        "confirmed_on_forge": 1, "confirmed_on_archive": 0, "unverifiable": 0,
    }
    assert "confirmed 1, dropped 0 of 1" in err


def test_verify_drops_when_stub_disagrees(tmp_path, capsys):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    # The stub's truth: the parent is actually older than the flagged child.
    sources = stub_sources(tmp_path, records, {hex_hash(0): 999_999_000})
    code, out, _ = run(capsys, "verify", report, "--sources", sources)
    assert code == 0
    doc = json.loads(out)
    assert doc["confirmed"] == []
    assert [a["commit"] for a in doc["dropped"]] == [hex_hash(1)]


def test_verify_exits_two_when_nothing_resolves(tmp_path, capsys):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    sources = stub_sources(tmp_path, [])  # empty stub directory
    code, _, err = run(capsys, "verify", report, "--sources", sources)
    assert code == 2
    assert "no metadata source" in err


def test_verify_rejects_bad_sources_config(tmp_path, capsys):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    bad = tmp_path / "sources.json"
    bad.write_text(json.dumps({"sources": []}))
    code, _, err = run(capsys, "verify", report, "--sources", str(bad))
    assert code == 2
    assert "sources" in err


def test_verify_has_no_workers_flag(tmp_path, capsys):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    sources = stub_sources(tmp_path, ooo_fixture())
    with pytest.raises(SystemExit) as exited:
        main(["verify", report, "--sources", sources, "--workers", "-1"])
    assert exited.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def cached_sources(tmp_path, records, cache):
    with open(stub_sources(tmp_path, records), encoding="utf-8") as fh:
        config = json.load(fh)
    config["sources"].insert(0, {"kind": "LocalCache", "endpoint": str(cache)})
    sources = tmp_path / "cached.json"
    sources.write_text(json.dumps(config))
    return str(sources)


def test_verify_corrupt_cache_line_exits_two_with_one_line(tmp_path, capsys):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    cache = tmp_path / "cache.ndjson"
    sources = cached_sources(tmp_path, records, cache)
    assert run(capsys, "verify", report, "--sources", sources)[0] == 1
    lines = cache.read_text().splitlines(keepends=True)
    cache.write_text(lines[0][:20] + "\n" + "".join(lines[1:]))
    code, out, err = run(capsys, "verify", report, "--sources", sources)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"{cache} line 1" in err


@pytest.mark.parametrize("unusable", ["directory", "under-a-file"])
def test_verify_unusable_cache_exits_two_with_one_line(tmp_path, capsys, unusable):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    if unusable == "directory":  # cannot even be loaded
        cache = tmp_path / "cache.ndjson"
        cache.mkdir()
    else:  # loads as empty, but the first append cannot create it
        (tmp_path / "plain").write_text("")
        cache = tmp_path / "plain" / "cache.ndjson"
    code, out, err = run(capsys, "verify", report, "--sources",
                         cached_sources(tmp_path, records, cache))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(cache) in err


def test_verify_unreadable_stub_document_exits_two_with_one_line(tmp_path, capsys):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    sources = stub_sources(tmp_path, records[:1])
    unreadable = tmp_path / "stub" / f"{records[1].hash}.json"
    unreadable.mkdir()  # neither a document nor missing
    code, out, err = run(capsys, "verify", report, "--sources", sources)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(unreadable) in err


@pytest.mark.parametrize("command", ["stats", "verify"])
@pytest.mark.parametrize("field, value", [
    ("commit", [1, 2]),
    ("repo", 12345),
    ("delta_seconds", "x"),
    ("evidence", 7),
    ("delta_seconds", True),
    ("delta_seconds", 0),
])
def test_mistyped_anomaly_entry_exits_two_naming_it(tmp_path, capsys, command, field, value):
    # The epoch-0 commit sorts first, so the out-of-order entry is not entry 0.
    records = [make_record(9, committer_epoch=0, repo="a/first")] + ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    index = next(i for i, a in enumerate(doc["anomalies"]) if "delta_seconds" in a)
    assert index > 0
    doc["anomalies"][index][field] = value
    (tmp_path / "report.json").write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--sources", stub_sources(tmp_path, records)] if command == "verify" else []
    code, out, err = run(capsys, command, report, *extra)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert f"anomaly entry {index}" in err and field in err


# ---- run configuration ----


def test_audit_run_round_trips_through_json():
    run = AuditRun(
        detector_config=DetectorConfig(
            future_cutoff=parse_utc(SNAPSHOT), exclude_merges=False, date_field="author",
        ),
        detectors=("old", "ooo"),
        policies=(
            filters.policy_from_dict({"kind": "MinTimestamp", "min_ts": 1}),
            filters.policy_from_dict({"kind": "TopKStars", "k": 5}),
        ),
        manifest=DatasetManifest(
            name="autumn-freeze", snapshot_date=parse_utc(SNAPSHOT), repos=("org/alpha",),
        ),
    )
    assert AuditRun.from_dict(json.loads(json.dumps(run.to_dict()))) == run


def test_scan_report_config_is_replayable(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    _, out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT,
                    "--date-field", "author", "--include-merges")
    replay = AuditRun.from_dict(json.loads(out)["config"])
    assert replay.detector_config.date_field == "author"
    assert replay.detector_config.exclude_merges is False
    assert replay.detector_config.future_cutoff == parse_utc(SNAPSHOT)
    assert replay.detectors == ("old", "future", "ooo", "signatures", "verified")


# ---- serialization round trip ----


@pytest.mark.parametrize("extras", [
    {},
    {"verified": True, "stars": 12},
    {"committer_epoch": -2_044_178_335},
])
def test_record_serialization_round_trips(extras):
    rec = make_record(7, parents=[1, 2], **extras)
    line = json.dumps(record_to_object(rec))
    (back,) = parse_commit_stream(line).records
    assert back == rec


def test_record_serialization_keeps_committer_timezone():
    base = make_record(7)
    rec = type(base)(**{
        **{f: getattr(base, f) for f in (
            "hash", "repo_id", "parents", "author_id", "committer_id",
            "message", "verified", "stars",
        )},
        "author_date": Timestamp(1_000_000_000, 0),
        "committer_date": Timestamp(1_000_000_000, 330),
    })
    obj = record_to_object(rec)
    assert obj["tz_offset_min"] == 330
    (back,) = parse_commit_stream(json.dumps(obj)).records
    assert back.committer_date == rec.committer_date
