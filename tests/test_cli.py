"""End-to-end tests for the command-line interface."""

import contextlib
import copy
import csv
import errno
import io
import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chronolint
from chronolint import cli, filters, forge
from chronolint.cli import main, write_ndjson
from chronolint.detectors import DetectorConfig
from chronolint.ingest import parse_commit_stream
from chronolint.model import EPOCH_MAX, EPOCH_MIN, CommitRecord, parse_utc
from conftest import (hex_hash, make_record, record_to_object, reference_anomaly_from_object,
                      reference_commits_check, result_of)

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


@pytest.mark.parametrize("command", ["scan", "filter"])
def test_one_bom_at_the_head_of_each_input_is_dropped(tmp_path, capsys, command):
    # RFC 8259 section 8.1 lets a parser ignore a byte order mark.
    records = ooo_fixture()
    argv = {"scan": ["scan", "--snapshot-date", SNAPSHOT],
            "filter": ["filter", "--policy-file", policy_file(tmp_path, [])]}[command]
    runs = []
    for prefix in (b"", "\ufeff".encode()):
        paths = []
        for i, part in enumerate((records[:2], records[2:])):
            path = Path(write_records(tmp_path / f"{i}.ndjson", part))
            path.write_bytes(prefix + path.read_bytes())
            paths.append(str(path))
        code, out, err = run(capsys, *argv, *paths)
        runs.append([code, *([line for line in text.splitlines() if "generated_at" not in line]
                             for text in (out, err))])
    assert runs[0][0] == (1 if command == "scan" else 0)
    assert runs[1] == runs[0]


@pytest.mark.parametrize("document", ["policy", "report", "sources", "stub", "cache"])
def test_one_bom_at_the_head_of_each_document_is_dropped(tmp_path, capsys, document):
    # Each document a command reads follows the input rule: one U+FEFF at
    # its head is dropped, and a second one leaves the document undecodable.
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    policies = policy_file(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}])
    sources = stub_sources(tmp_path, records)
    cache = tmp_path / "cache.ndjson"
    argv = {
        "policy": ["filter", write_records(tmp_path / "in.ndjson", records),
                   "--policy-file", policies],
        "report": ["stats", report],
        "sources": ["verify", report, "--sources", sources],
        "stub": ["verify", report, "--sources", sources],
        "cache": ["verify", report, "--sources", cached_sources(tmp_path, records, cache)],
    }[document]
    targets = {
        "policy": [Path(policies)],
        "report": [Path(report)],
        "sources": [Path(sources)],
        "stub": sorted((tmp_path / "stub").iterdir()),
        "cache": [cache],
    }[document]

    def outcome():
        code, out, err = run(capsys, *argv)
        return [code, *([line for line in text.splitlines() if "generated_at" not in line]
                        for text in (out, err))]

    if document == "cache":
        assert run(capsys, *argv)[0] == 1  # writes the cache the warm runs read
    expected = outcome()
    assert expected[0] in (0, 1)
    bom = "\ufeff".encode()
    for path in targets:
        path.write_bytes(bom + path.read_bytes())
    assert outcome() == expected
    if document == "cache":
        assert cache.read_bytes().startswith(bom)  # a warm run appends nothing
    for path in targets:
        path.write_bytes(bom + path.read_bytes())
    code, _, err = run(capsys, *argv)
    if document == "stub":  # an unusable document is a miss, and no other source answers
        assert code == 2 and "no metadata source" in err
    else:
        assert (code, len(err.splitlines())) == (2, 1)
        assert "BOM" in err


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


def test_filter_names_a_cycle_as_scan_does(tmp_path, capsys):
    # filter printed the graph's own text, with 12-char prefixes, before.
    records = [make_record(1, parents=[2]), make_record(2, parents=[1])]
    path = write_records(tmp_path / "in.ndjson", records)
    policies = policy_file(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}])
    scanned = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)
    filtered = run(capsys, "filter", path, "--policy-file", policies)
    assert scanned == filtered == (2, "", f"chronolint: error: commit graph has a cycle: "
                                          f"{hex_hash(1)} -> {hex_hash(2)}\n")


@pytest.mark.parametrize("flag", ["--snapshot-date", "--old-cutoff"])
def test_filter_takes_no_cutoff_flag(tmp_path, capsys, flag):
    # No policy reads a cutoff; the flags could only make filter fail.
    path = write_records(tmp_path / "in.ndjson", clean_records())
    with pytest.raises(SystemExit) as exited:
        main(["filter", path, "--policy-file", policy_file(tmp_path, []), flag, "1980-01-01"])
    assert exited.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


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


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_a_lone_surrogate_in_an_id_is_written_to_csv_as_the_report_escapes_it(
        tmp_path, capsys):
    # JSON can spell a lone surrogate, which UTF-8 cannot encode; the CSV
    # cell holds the same escape that the JSON report does.
    records = [make_record(0, committer_epoch=0, repo="org/r\ud800x", committer="c\udfffy")]
    path = write_records(tmp_path / "in.ndjson", records)
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT,
                       "--report", str(report), "--csv-dir", str(tmp_path / "scan"))
    assert code == 1, err
    assert '"org/r\\ud800x"' in report.read_text(encoding="utf-8")
    assert read_csv_rows(tmp_path / "scan" / "anomalies.csv")[1][1] == "org/r\\ud800x"

    code, _, err = run(capsys, "stats", str(report), "--report", str(tmp_path / "stats.json"),
                       "--csv-dir", str(tmp_path / "stats"))
    assert (code, err) == (0, "")
    assert read_csv_rows(tmp_path / "stats" / "top_committers.csv")[1] == ["c\\udfffy", "1"]
    assert read_csv_rows(tmp_path / "stats" / "top_projects.csv")[1] == ["org/r\\ud800x", "1"]


def test_a_repo_argument_that_is_not_utf8_is_written_to_csv_escaped(tmp_path, capsys):
    # The interpreter decodes a non-UTF-8 byte of argv to a lone surrogate.
    path = tmp_path / "log.bin"
    path.write_text("\x1f".join([hex_hash(0), "", "0", "+0000", "0", "+0000", "a", "a", "m"]),
                    encoding="utf-8")
    code, out, err = run(capsys, "scan", str(path), "--format", "gitlog", "--repo", "org/\udc80",
                         "--snapshot-date", SNAPSHOT, "--csv-dir", str(tmp_path / "csv"))
    assert code == 1, err
    assert json.loads(out)["anomalies"][0]["repo"] == "org/\udc80"
    assert read_csv_rows(tmp_path / "csv" / "anomalies.csv")[1][1] == "org/\\udc80"


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

    step1, ledger1 = filters.apply_policy(
        records, filters.FilterPolicy("BeforeDate", parse_utc(cutoff)))
    step2, ledger2 = filters.apply_policy(step1, filters.FilterPolicy("DropOutOfOrder", "commit"))
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


# ---- one kept copy of a repeated hash, whatever the input order ----


def order_free_runs(root, files, fmt):
    """Run scan, stats, filter and verify over input files holding the
    texts ``files``: each command's exit code, stderr and document lines,
    less the ``generated_at`` line. ``root`` holds the policy file and the
    stub of each commit."""
    inputs = []
    for i, text in enumerate(files):
        (root / f"in{i}").write_text(text, encoding="utf-8")
        inputs.append(str(root / f"in{i}"))
    read = ["--format", fmt, "--repo", "org/main"]
    scan, stats, ledger, verified = (str(root / name) for name in
                                     ("scan.json", "stats.json", "ledger.json", "verify.json"))
    commands = [
        ["scan", *inputs, *read, "--snapshot-date", SNAPSHOT, "--report", scan],
        ["stats", scan, "--report", stats],
        ["filter", *inputs, *read, "--policy-file", str(root / "policies.json"),
         "--output", str(root / "out.ndjson"), "--report", ledger],
        ["verify", scan, "--sources", str(root / "sources.json"), "--report", verified],
    ]
    runs = []
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = Path(argv[-1]).read_text(encoding="utf-8").splitlines()
        runs.append((argv[0], code, err.getvalue(),
                     [line for line in lines if '"generated_at"' not in line]))
    return runs


def order_free_root(root, records):
    """Write into ``root`` a policy file and a FileStub of ``records``."""
    stub_sources(root, records)
    policy_file(root, [{"kind": "DropOutOfOrder", "scope": "commit"},
                       {"kind": "TopKStars", "k": 1}])
    return root


def input_lines(records, fmt):
    """One line of input per record, in ``fmt``; a gitlog line has zero offsets."""
    if fmt == "gitlog":
        return ["\x1f".join([rec.hash, " ".join(rec.parents), str(rec.committer_date), "+0000",
                             str(rec.author_date), "+0000", rec.committer_id, rec.author_id,
                             rec.message]) + "\x00\n" for rec in records]
    return [json.dumps(record_to_object(rec)) + "\n" for rec in records]


def test_a_commit_shared_by_two_repositories_is_kept_whatever_the_order(tmp_path):
    # A fork: both repositories hold a parent and a child dated 50,000,000 s before it.
    parent = make_record(0, committer_epoch=1_500_000_000, repo="r1")
    child = make_record(1, parents=[0], committer_epoch=1_450_000_000, repo="r1")
    lines = input_lines([parent, child, parent._replace(repo_id="r2"),
                         child._replace(repo_id="r2")], "ndjson")
    swapped = [lines[0], lines[3], lines[2], lines[1]]
    order_free_root(tmp_path, [parent, child])
    runs = [order_free_runs(tmp_path, ["".join(order)], "ndjson") for order in (lines, swapped)]
    assert runs[0] == runs[1]
    name, code, _, report = runs[0][0]
    assert (name, code) == ("scan", 1)
    assert json.loads("\n".join(report))["dataset"]["projects"] == 1


# What a copy of a repeated hash changes: nothing, or one of its committer
# date, its repository and its message.
ORDER_EPOCHS = st.sampled_from([0, 1_000_000_000, 1_050_000_000, 1_100_000_000, 1_700_000_000])
COPY_CHANGES = {
    "exact": st.just({}),
    "date": ORDER_EPOCHS.map(lambda epoch: {"committer_date": epoch}),
    "repo": st.sampled_from(["org/alpha", "org/fork"]).map(lambda repo: {"repo_id": repo}),
    "message": st.sampled_from(["rebased", "Merge branch 'x'",
                                "git-svn-id: https://svn.example.org/trunk@4 ab-cd"])
    .map(lambda message: {"message": message}),
}


@settings(max_examples=50, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["ndjson", "gitlog"]),
       epochs=st.lists(ORDER_EPOCHS, min_size=2, max_size=4))
def test_reports_do_not_depend_on_the_order_of_repeated_hashes(data, fmt, epochs):
    """A chain of commits in one repository, with copies of some of its
    hashes, gives the same documents in any order, over one or two files.
    A gitlog dump carries no repository, so there a copy keeps its own."""
    chain = [make_record(i, parents=[i - 1] if i else [], committer_epoch=epoch,
                         repo="org/main") for i, epoch in enumerate(epochs)]
    kinds = sorted(COPY_CHANGES) if fmt == "ndjson" else ["date", "exact", "message"]
    copies = data.draw(st.lists(
        st.tuples(st.sampled_from(chain), st.sampled_from(kinds).flatmap(COPY_CHANGES.get)),
        min_size=1, max_size=4), label="copies")
    lines = input_lines(chain + [rec._replace(**change) for rec, change in copies], fmt)
    shuffled = data.draw(st.permutations(lines), label="shuffled")
    cut = data.draw(st.sampled_from([None, *range(len(lines) + 1)]), label="cut")
    files = ["".join(shuffled)] if cut is None else ["".join(shuffled[:cut]),
                                                     "".join(shuffled[cut:])]
    with tempfile.TemporaryDirectory() as tmp:
        root = order_free_root(Path(tmp), chain)
        assert order_free_runs(root, files, fmt) == order_free_runs(root, ["".join(lines)], fmt)


@pytest.mark.parametrize("policies", [
    [{"kind": "MinTimestamp", "min_ts": "x"}],
    [{"kind": "MinStars", "min_stars": "5"}],
    [{"kind": "TopKStars", "k": 2.5}],
    [5],
    [{"kind": "TopKStars", "k": True}],
    [{"kind": "BeforeDate", "cutoff": True}],
    [{"kind": "ProjectBlocklist", "blocklist": "abc"}],
    [{"kind": "ProjectBlocklist", "blocklist": [5]}],
    # Another kind's field: ran as plain TopKStars before the one-field rule.
    [{"kind": "TopKStars", "k": 3, "min_ts": 5}],
], ids=["min_ts-str", "min_stars-str", "k-float", "entry-int", "k-bool", "cutoff-bool",
        "blocklist-str", "blocklist-int", "k-with-min_ts"])
def test_filter_mistyped_policy_exits_two_with_one_line(tmp_path, capsys, policies):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    code, out, err = run(capsys, "filter", path, "--policy-file", policy_file(tmp_path, policies))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "bad policy file" in err


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


def test_stats_empty_exclude_term_exits_two_with_one_line(tmp_path, capsys):
    # Every message contains "", so it would silently drop them all.
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    code, out, err = run(capsys, "stats", report, "--exclude-term", "x", "--exclude-term", "")
    assert (code, out, err) == (2, "", "chronolint: error: --exclude-term must not be empty\n")


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


@pytest.mark.parametrize("command", ["stats", "verify"])
@pytest.mark.parametrize("payload", [
    b'{"schema_version": 1, "x": "\xff"}',            # not UTF-8
    b'{"schema_version": 1, "x": 1' + b"0" * 5000 + b"}",  # past int()'s digit limit
], ids=["utf8", "digits"])
def test_undecodable_report_exits_two_with_one_line(tmp_path, capsys, command, payload):
    path = tmp_path / "junk.json"
    path.write_bytes(payload)
    extra = ["--sources", stub_sources(tmp_path, [])] if command == "verify" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert f"cannot read report {path}" in err


@pytest.mark.parametrize("command", ["stats", "verify"])
@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
def test_schema_version_must_be_the_integer_1(tmp_path, capsys, command, version):
    # Both equal 1 in Python, and both were read as v1 before the JSON type rule.
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    doc["schema_version"] = version
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--sources", stub_sources(tmp_path, ooo_fixture())] if command == "verify" else []
    code, out, err = run(capsys, command, report, *extra)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"chronolint: error: {report} is not a schema v1 scan report: "
        f"schema_version must be an integer, got {type(version).__name__}"]


@pytest.mark.parametrize("hash_id, field, value", [
    (None, None, []),  # the section itself
    (1, None, 5),  # one entry
    (1, "message", 7),
    (1, "committer", ["carol"]),
])
def test_mistyped_commits_section_exits_two_naming_it(tmp_path, capsys, hash_id, field, value):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    if hash_id is None:
        doc["commits"] = value
    elif field is None:
        doc["commits"][hex_hash(hash_id)] = value
    else:
        doc["commits"][hex_hash(hash_id)][field] = value
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "stats", report)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "commits" in err
    if hash_id is not None:
        assert hex_hash(hash_id) in err and (field or "object") in err


@pytest.mark.parametrize("command", ["stats", "verify"])
@pytest.mark.parametrize("key", ["a\nb", "\x1e"], ids=["newline", "record-separator"])
def test_a_commits_key_that_breaks_lines_stays_on_one_error_line(tmp_path, capsys, command, key):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    doc["commits"][key] = None
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--sources", stub_sources(tmp_path, ooo_fixture())] if command == "verify" else []
    code, out, err = run(capsys, command, report, *extra)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"chronolint: error: unreadable commits entry {key!r}: "
                                "the entry must be an object, got NoneType"]


@pytest.mark.parametrize("command", ["stats", "verify"])
def test_a_report_is_checked_schema_first_then_commits_then_anomalies(
        tmp_path, capsys, command):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    doc["commits"][hex_hash(1)] = 5
    doc["anomalies"][0]["kind"] = 7
    extra = ["--sources", stub_sources(tmp_path, ooo_fixture())] if command == "verify" else []
    want = [
        f"chronolint: error: {report} is not a schema v1 scan report: schema_version is 2",
        f"chronolint: error: unreadable commits entry {hex_hash(1)!r}: "
        "the entry must be an object, got int",
    ]
    for version, line in zip((2, 1), want):
        Path(report).write_text(json.dumps({**doc, "schema_version": version}),
                                encoding="utf-8")
        assert run(capsys, command, report, *extra) == (2, "", line + "\n")


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


@pytest.mark.parametrize("field, value", [
    ("endpoint", 5),
    ("endpoint", "https://forge.test/{repo}/{nope}"),
    ("endpoint", "forge.test/{repo}/{hash}"),
    ("endpoint", "https://forge.test/{repo}/{hash:d}"),
    ("auth", 7),
])
def test_verify_mistyped_sources_config_exits_two_with_one_line(tmp_path, capsys, field, value):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    config = json.loads(Path(stub_sources(tmp_path, records)).read_text(encoding="utf-8"))
    if field == "endpoint":
        config["sources"].insert(0, {"kind": "PrimaryForge", "endpoint": value})
    else:
        config["sources"][0][field] = value
    sources = tmp_path / "mistyped.json"
    sources.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "verify", report, "--sources", str(sources))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "bad sources config" in err and field in err


@pytest.mark.parametrize("workers", [2, 0, 65, True, "2"],
                         ids=["2", "0", "65", "true", "string"])
def test_verify_ignores_a_workers_key_in_the_sources_config(tmp_path, capsys, workers):
    # Commits are fetched one at a time; benchmark configs still write "workers": 2.
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    plain = stub_sources(tmp_path, records)
    config = json.loads(Path(plain).read_text(encoding="utf-8"))
    with_workers = tmp_path / "with-workers.json"
    with_workers.write_text(json.dumps({"workers": workers, **config}), encoding="utf-8")
    runs = []
    for sources in (plain, str(with_workers)):
        code, out, err = run(capsys, "verify", report, "--sources", sources)
        document = json.loads(out)
        del document["generated_at"]
        runs.append((code, document, err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1


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


@pytest.mark.parametrize("kind, endpoint, reason", [
    ("FileStub", "missing", "is not a directory"),
    ("FileStub", "file", "is not a directory"),
    ("FileStub", "stub\x00", "holds a NUL"),
    ("LocalCache", "cache.ndjson\x00", "holds a NUL"),
    ("FileStub", "stub\ud800", "cannot be encoded as a file name"),
    ("LocalCache", "c\ud800.ndjson", "cannot be encoded as a file name"),
], ids=["missing stub directory", "stub endpoint is a file", "NUL in stub", "NUL in cache",
        "lone surrogate in stub", "lone surrogate in cache"])
def test_verify_refuses_a_local_endpoint_before_any_lookup(tmp_path, capsys, kind, endpoint,
                                                           reason):
    # Every lookup through such an endpoint would miss, and each miss would
    # be cached as unverifiable: a re-run with the endpoint mended would
    # then answer every candidate from that cache.
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    (tmp_path / "file").write_text("{}")
    cache = tmp_path / "cache.ndjson"
    sources = cached_sources(tmp_path, records, cache)  # LocalCache, then FileStub
    config = json.loads(Path(sources).read_text(encoding="utf-8"))
    bad = str(tmp_path / endpoint)
    config["sources"][0 if kind == "LocalCache" else 1]["endpoint"] = bad
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(config), encoding="utf-8")
    assert run(capsys, "verify", report, "--sources", str(broken)) == (
        2, "", f"chronolint: error: bad sources config: source {kind!r}: endpoint {bad!r} "
               f"{reason}\n")
    assert not cache.exists()
    code, out, _ = run(capsys, "verify", report, "--sources", sources)
    assert code == 1
    assert [a["commit"] for a in json.loads(out)["confirmed"]] == [hex_hash(1)]


def test_verify_takes_a_cache_endpoint_that_escapes_an_undecodable_byte(tmp_path, capsys):
    # "\udcff" is how a file name with the byte 0xff reads as text, so it
    # names a real file, as a lone "\ud800" cannot.
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    cache = str(tmp_path / "cache\udcff.ndjson")
    sources = cached_sources(tmp_path, records, cache)
    for _ in range(2):  # a cold run writes the cache, and a warm one reads it back
        code, out, _ = run(capsys, "verify", report, "--sources", sources)
        assert code == 1
        assert [a["commit"] for a in json.loads(out)["confirmed"]] == [hex_hash(1)]
    assert b"cache\xff.ndjson" in os.listdir(os.fsencode(tmp_path))


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


# One cache line for the candidate's parent, as `verify` writes it.
CACHE_LINE = {"repo": "example/repo", "hash": hex_hash(0), "status": "confirmed_on_forge",
              "verified": None, "parents": [], "committer_date": 1_000_000_600}


@pytest.mark.parametrize("field, value", [
    ("committer_date", "9"),  # a TypeError traceback before the JSON type rule
    ("parents", "ab"),  # read as the two parents 'a' and 'b' before
    ("parents", [5]),
    ("verified", "yes"),
    ("hash", 5),
])
def test_verify_mistyped_cache_line_exits_two_with_one_line(tmp_path, capsys, field, value):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    cache = tmp_path / "cache.ndjson"
    cache.write_text(json.dumps({**CACHE_LINE, field: value}) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", report, "--sources",
                         cached_sources(tmp_path, records, cache))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"chronolint: error: corrupt cache {cache} line 1: ")


def test_verify_reads_an_unverifiable_cache_line_with_null_fields(tmp_path, capsys):
    # Guard: null parents and committer_date are how an unverifiable line is written.
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    cache = tmp_path / "cache.ndjson"
    line = {**CACHE_LINE, "status": "unverifiable", "parents": None, "committer_date": None}
    cache.write_text(json.dumps(line) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "verify", report, "--sources",
                       cached_sources(tmp_path, records, cache))
    assert code == 0  # the parent's date is unknown, so the candidate is dropped
    assert json.loads(out)["accounting"]["confirmed_on_forge"] == 1


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


def scan_with_an_early_svn_child(tmp_path, capsys, records, child):
    """Scan ``records`` and an SVN commit ``child`` dated before its parent;
    the report's path."""
    svn = [{"hash": "r1@a", "repo": "svn/a", "parents": [], "author_date": 1_000_000_600,
            "committer_date": 1_000_000_600, "author": "x", "committer": "x", "message": "m"}]
    svn.append({**svn[0], "hash": child, "parents": ["r1@a"],
                "committer_date": 1_000_000_000})
    path = tmp_path / "in.ndjson"
    write_records(path, records)
    with open(path, "a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(obj) + "\n" for obj in svn)
    report = tmp_path / "report.json"
    assert run(capsys, "scan", str(path), "--snapshot-date", SNAPSHOT,
               "--report", str(report))[0] == 1
    return str(report)


def test_verify_counts_a_stub_name_no_file_can_have_as_unverifiable(tmp_path, capsys):
    # An SVN id may hold a NUL; open() refused it and verify exited 2 before.
    records = ooo_fixture()
    report = scan_with_an_early_svn_child(tmp_path, capsys, records, "r2@a\u0000b")
    code, out, err = run(capsys, "verify", report, "--sources",
                         stub_sources(tmp_path, records))
    assert code == 1
    assert "embedded null byte" not in err
    doc = json.loads(out)
    assert doc["accounting"] == {
        "confirmed_on_forge": 1, "confirmed_on_archive": 0, "unverifiable": 1,
    }
    assert [a["commit"] for a in doc["dropped"]] == ["r2@a\u0000b"]


def test_verify_counts_a_stub_name_too_long_for_any_file_as_unverifiable(tmp_path, capsys):
    # verify exited 2 with "[Errno 36] File name too long" before.
    long_id = "r2@" + "a" * 300
    records = ooo_fixture()
    report = scan_with_an_early_svn_child(tmp_path, capsys, records, long_id)
    code, out, err = run(capsys, "verify", report, "--sources",
                         stub_sources(tmp_path, records))
    assert code == 1
    assert "File name too long" not in err
    doc = json.loads(out)
    assert doc["accounting"] == {
        "confirmed_on_forge": 1, "confirmed_on_archive": 0, "unverifiable": 1,
    }
    assert [a["commit"] for a in doc["dropped"]] == [long_id]


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
    pytest.param("delta_seconds", 2**64, id="delta_seconds-2**64"),
    pytest.param("delta_seconds", 10**400, id="delta_seconds-10**400"),
    # Ids follow ingest's rule as a report writes them; "../x" reached the stub path.
    pytest.param("commit", "../x", id="commit-path"),
    pytest.param("commit", "A" * 40, id="commit-upper-hex"),
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


@pytest.mark.parametrize("command", ["stats", "verify"])
def test_anomaly_entry_without_commit_names_the_missing_field(tmp_path, capsys, command):
    # The message was the bare KeyError text "'commit'" before.
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    del doc["anomalies"][0]["commit"]
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    extra = ["--sources", stub_sources(tmp_path, records)] if command == "verify" else []
    code, out, err = run(capsys, command, report, *extra)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["chronolint: error: unreadable anomaly entry 0: missing 'commit'"]


def test_an_unknown_kind_or_status_is_refused_with_the_enum_error(tmp_path, capsys):
    # Both readers look a known value up in a dict, and leave the rest to the Enum.
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    doc["anomalies"][0]["kind"] = "Old"
    Path(report).write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "stats", report) == (
        2, "", "chronolint: error: unreadable anomaly entry 0: 'Old' is not a valid AnomalyKind\n")

    report = scan_report_path(tmp_path, capsys, records)
    cache = tmp_path / "cache.ndjson"
    cache.write_text(json.dumps({**CACHE_LINE, "status": "confirmed"}) + "\n", encoding="utf-8")
    assert run(capsys, "verify", report, "--sources", cached_sources(tmp_path, records, cache)) == (
        2, "", f"chronolint: error: corrupt cache {cache} line 1: "
               "'confirmed' is not a valid VerificationStatus\n")


def test_epoch_beyond_int64_is_malformed_so_stats_never_overflows(tmp_path, capsys):
    # Two int64 epochs are at most 2**64 - 1 seconds apart; stats takes that.
    records = [make_record(0, committer_epoch=2**63 - 1),
               make_record(1, parents=[0], committer_epoch=-(2**63))]
    report = scan_report_path(tmp_path, capsys, records, "--detectors", "ooo")
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    assert [a["delta_seconds"] for a in doc["anomalies"]] == [2**64 - 1]
    assert run(capsys, "stats", report)[0] == 0

    bad = record_to_object(make_record(2))
    bad["author_date"] = 10**400
    path = tmp_path / "huge.ndjson"
    path.write_text(json.dumps(record_to_object(make_record(3))) + "\n" + json.dumps(bad) + "\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "scan", str(path), "--snapshot-date", SNAPSHOT)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        f"chronolint: malformed record at {path}:2: "
        "author_date is outside the int64 range of epoch seconds")


# ---- documents nested deeper than the recursion limit ----

DEEP = "[" * 100_000 + "]" * 100_000


def assert_one_error_line(code, out, err, start):
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"chronolint: error: {start}")


def test_scan_deep_ndjson_line_is_a_malformed_record(tmp_path, capsys):
    path = tmp_path / "in.ndjson"
    path.write_text(json.dumps(record_to_object(make_record(0))) + "\n" + DEEP + "\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "scan", str(path), "--snapshot-date", SNAPSHOT)
    assert (code, out) == (2, "")
    assert err.splitlines()[0].startswith(
        f"chronolint: malformed record at {path}:2: invalid JSON: ")
    assert err.splitlines()[1] == (
        "chronolint: error: 1 malformed record(s); fix or pre-filter the input")


def test_stats_deep_report_exits_two_with_one_line(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(DEEP, encoding="utf-8")
    assert_one_error_line(*run(capsys, "stats", str(report)), f"cannot read report {report}: ")


def test_filter_deep_policy_file_exits_two_with_one_line(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    policies = tmp_path / "policies.json"
    policies.write_text(DEEP, encoding="utf-8")
    assert_one_error_line(*run(capsys, "filter", path, "--policy-file", str(policies)),
                          "bad policy file: ")


def test_verify_deep_sources_config_exits_two_with_one_line(tmp_path, capsys):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    sources = tmp_path / "sources.json"
    sources.write_text(DEEP, encoding="utf-8")
    assert_one_error_line(*run(capsys, "verify", report, "--sources", str(sources)),
                          "bad sources config: ")


def test_verify_deep_cache_line_exits_two_with_one_line(tmp_path, capsys):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    cache = tmp_path / "cache.ndjson"
    cache.write_text(DEEP + "\n", encoding="utf-8")
    assert_one_error_line(
        *run(capsys, "verify", report, "--sources", cached_sources(tmp_path, records, cache)),
        f"corrupt cache {cache} line 1: ")


def test_verify_deep_stub_document_falls_through_to_the_next_source(tmp_path, capsys):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    config = json.loads(Path(stub_sources(tmp_path, records)).read_text(encoding="utf-8"))
    deep = tmp_path / "deep"
    deep.mkdir()
    (deep / f"{records[1].hash}.json").write_text(DEEP, encoding="utf-8")
    config["sources"].insert(0, {"kind": "FileStub", "endpoint": str(deep)})
    sources = tmp_path / "deep.json"
    sources.write_text(json.dumps(config), encoding="utf-8")
    code, out, _ = run(capsys, "verify", report, "--sources", str(sources))
    assert code == 1
    assert [a["commit"] for a in json.loads(out)["confirmed"]] == [records[1].hash]


# ---- outputs that cannot be written ----


def test_scan_unwritable_report_exits_two_with_one_line(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    target = tmp_path / "missing" / "x.json"
    assert_one_error_line(
        *run(capsys, "scan", path, "--snapshot-date", SNAPSHOT, "--report", str(target)),
        f"cannot write {target}: ")


@pytest.mark.parametrize("unwritable", ["csv-dir-is-a-file", "csv-table-is-a-directory"])
def test_scan_unwritable_csv_exits_two_with_one_line(tmp_path, capsys, unwritable):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    csv_dir = tmp_path / "csv"
    if unwritable == "csv-dir-is-a-file":
        csv_dir.write_text("", encoding="utf-8")
        target = csv_dir
    else:
        target = csv_dir / "summary.csv"
        target.mkdir(parents=True)
    code, _, err = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT,
                       "--report", str(tmp_path / "r.json"), "--csv-dir", str(csv_dir))
    assert_one_error_line(code, "", err, f"cannot write {target}: ")


def test_filter_unwritable_output_exits_two_with_one_line(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    target = tmp_path / "missing" / "o.ndjson"
    assert_one_error_line(
        *run(capsys, "filter", path, "--policy-file", policy_file(tmp_path, []),
             "--output", str(target)),
        f"cannot write {target}: ")


def test_stats_unwritable_report_exits_two_with_one_line(tmp_path, capsys):
    report = scan_report_path(tmp_path, capsys, ooo_fixture())
    target = tmp_path / "missing" / "s.json"
    assert_one_error_line(*run(capsys, "stats", report, "--report", str(target)),
                          f"cannot write {target}: ")


def chronolint_process(argv, stdout, stderr=subprocess.PIPE, close_stdin=False):
    """Start the CLI as its console script does, stdout block-buffered
    as in a shell pipeline, and stderr piped back unless given. With
    ``close_stdin``, it starts with descriptor 0 closed, as after `<&-`."""
    src = str(Path(chronolint.__file__).parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    shell = ["sh", "-c", 'exec "$@" <&-', "sh"] if close_stdin else []
    return subprocess.Popen(
        [*shell, sys.executable, "-c",
         "import sys; from chronolint.cli import main; sys.exit(main())",
         *argv], stdout=stdout, stderr=stderr, env=env)


@contextlib.contextmanager
def reader_gone():
    """The write end of a pipe whose reader has already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        yield write_end
    finally:
        os.close(write_end)


def assert_stdout_error(proc):
    _, err = proc.communicate(timeout=120)
    err = err.decode("utf-8")
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert proc.returncode == 2
    # scan states its finding count before it is flushed.
    assert [line for line in err.splitlines() if "error" in line] == err.splitlines()[-1:]
    assert err.splitlines()[-1].startswith("chronolint: error: cannot write stdout: ")


def test_filter_into_a_pipe_closed_early_exits_two_with_one_line(tmp_path):
    # `chronolint filter big.ndjson --policy-file p.json | head -1`
    records = [make_record(i, committer_epoch=1_000_000_000 + i) for i in range(20_000)]
    path = write_records(tmp_path / "in.ndjson", records)
    with chronolint_process(["filter", path, "--policy-file", policy_file(tmp_path, [])],
                            subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert_stdout_error(proc)


def test_a_report_left_in_the_stdout_buffer_of_a_closed_pipe_exits_two(tmp_path):
    # The report fits in the stream's buffer, so nothing reaches the pipe
    # until stdout is flushed.
    path = write_records(tmp_path / "in.ndjson", clean_records())
    with reader_gone() as stdout:
        proc = chronolint_process(["scan", path, "--snapshot-date", SNAPSHOT], stdout)
    with proc:
        assert_stdout_error(proc)


@pytest.mark.parametrize("command", ["scan", "filter"])
def test_a_closed_stdin_exits_two_with_one_line(tmp_path, command):
    argv = {"scan": ["scan", "--snapshot-date", "2020-01-01"],
            "filter": ["filter", "--policy-file", policy_file(tmp_path, [])]}[command]
    with chronolint_process(argv, subprocess.PIPE, close_stdin=True) as proc:
        out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err.decode().splitlines() == ["chronolint: error: cannot read stdin: it is closed"]


@pytest.mark.parametrize("command", [
    "filter-output", "scan-snapshot-1900", "scan-report", "verify-report"])
def test_a_closed_stderr_exits_two(tmp_path, capsys, command):
    records = ooo_fixture()
    commits = write_records(tmp_path / "in.ndjson", records)
    target = str(tmp_path / "out")
    argv = {
        "filter-output": ["filter", commits, "--policy-file", policy_file(tmp_path, []),
                          "--output", target],
        "scan-snapshot-1900": ["scan", commits, "--snapshot-date", "1900-01-01"],  # exits 2
        "scan-report": ["scan", commits, "--snapshot-date", SNAPSHOT, "--report", target],
        "verify-report": ["verify", scan_report_path(tmp_path, capsys, records),
                          "--sources", stub_sources(tmp_path, records), "--report", target],
    }[command]
    with reader_gone() as stderr:
        proc = chronolint_process(argv, subprocess.PIPE, stderr)
    with proc:
        out, _ = proc.communicate(timeout=120)
    # A traceback would go to the closed stderr unseen; it exits 1.
    assert b"Traceback" not in out
    assert proc.returncode == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no device whose writes fail")
@pytest.mark.parametrize("command", [
    "scan-stdout", "filter-stdout", "stats-stdout", "verify-stdout", "scan-report-stderr"])
def test_a_full_standard_stream_exits_two(tmp_path, capsys, command):
    # Writes to /dev/full fail with ENOSPC, not EPIPE.
    records = ooo_fixture()
    commits = write_records(tmp_path / "in.ndjson", records)
    report = scan_report_path(tmp_path, capsys, records)
    argv = {
        "scan-stdout": ["scan", commits, "--snapshot-date", SNAPSHOT],
        "filter-stdout": ["filter", commits, "--policy-file", policy_file(tmp_path, [])],
        "stats-stdout": ["stats", report],
        "verify-stdout": ["verify", report, "--sources", stub_sources(tmp_path, records)],
        "scan-report-stderr": ["scan", write_records(tmp_path / "clean.ndjson", clean_records()),
                               "--snapshot-date", SNAPSHOT, "--report", str(tmp_path / "r.json")],
    }[command]
    with open("/dev/full", "wb") as full:
        if command.endswith("-stdout"):
            with chronolint_process(argv, full) as proc:
                assert_stdout_error(proc)
            return
        proc = chronolint_process(argv, subprocess.PIPE, full)
    with proc:
        out, _ = proc.communicate(timeout=120)
    # The traceback would go to the full stderr unseen; it exits 1.
    assert b"Traceback" not in out and b"Exception ignored" not in out
    assert proc.returncode == 2


@pytest.mark.parametrize("command", ["scan", "filter", "stats", "verify"])
@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_a_closed_stream_without_a_descriptor_exits_two_in_process(
        tmp_path, capsys, monkeypatch, stream, command):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    records = ooo_fixture()
    path = write_records(tmp_path / "in.ndjson", records)
    report = scan_report_path(tmp_path, capsys, records)
    (tmp_path / "not-a-dir").write_text("", encoding="utf-8")
    argv = {
        "scan": ["scan", path, "--snapshot-date", SNAPSHOT],
        "filter": ["filter", path, "--policy-file", policy_file(tmp_path, [])],
        # stats writes nothing to stderr unless it fails, so its tables cannot be written.
        "stats": ["stats", report, "--csv-dir", str(tmp_path / "not-a-dir")],
        "verify": ["verify", report, "--sources", stub_sources(tmp_path, records)],
    }[command]
    monkeypatch.setattr(sys, stream, ClosedPipe())
    code = main(argv)
    captured = capsys.readouterr()
    working = captured.err if stream == "stdout" else captured.out
    errors = [line for line in working.splitlines() if line.startswith("chronolint: error: ")]
    assert code == 2
    if stream == "stdout":  # one error line, the last; verify states its accounting first
        assert errors == working.splitlines()[-1:]
        assert errors[0].startswith("chronolint: error: cannot write stdout: ")
    else:
        assert errors == []


# ---- documents written as they are encoded ----


def many_old_records(n=7_000):
    return [make_record(i, committer_epoch=0, repo=f"org/r{i % 50}") for i in range(n)]


@pytest.fixture
def document_writes(monkeypatch):
    """The sizes of the writes by which each document reaches its stream."""
    writes = []
    write_document = cli._write_document

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(len(text))
            return self.fh.write(text)

    monkeypatch.setattr(cli, "_write_document", lambda doc, fh: write_document(doc, Counting(fh)))
    return writes


def first_difference(text, want):
    """None if ``text`` is ``want``, else where it first differs and a
    little of each from there. An assertion on this, not on ``text ==
    want``, keeps pytest from diffing two long texts, which takes minutes
    at every step of a shrink."""
    if text == want:
        return None
    at = len(os.path.commonprefix([text, want]))
    return at, text[at:at + 40], want[at:at + 40]


def assert_written_as_dumps_writes_it(text, writes):
    doc = json.loads(text)
    assert first_difference(text, json.dumps(doc, sort_keys=True, indent=2) + "\n") is None
    # Several writes long, so that a batch dropped, repeated or reordered shows.
    assert len(writes) > 3 and sum(writes) == len(text), writes
    writes.clear()
    return doc


def test_a_report_several_batches_long_is_written_as_dumps_writes_it(
        tmp_path, capsys, document_writes):
    path = write_records(tmp_path / "in.ndjson", many_old_records())
    report = tmp_path / "report.json"
    assert run(capsys, "scan", path, "--snapshot-date", SNAPSHOT, "--report", str(report))[0] == 1
    to_file = assert_written_as_dumps_writes_it(report.read_bytes().decode("utf-8"),
                                                document_writes)
    code, out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT)
    assert code == 1
    to_stdout = assert_written_as_dumps_writes_it(out, document_writes)
    assert len(to_file["anomalies"]) == 7_000
    assert {**to_file, "generated_at": None} == {**to_stdout, "generated_at": None}


def test_a_ledger_several_batches_long_is_written_to_stderr_as_dumps_writes_it(
        tmp_path, capsys, document_writes):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    blocklist = [f"org/blocked{i}" for i in range(30_000)]
    policies = policy_file(tmp_path, [{"kind": "ProjectBlocklist", "blocklist": blocklist}])
    code, _, err = run(capsys, "filter", path, "--policy-file", policies,
                       "--output", str(tmp_path / "out.ndjson"))
    assert code == 0
    ledger = assert_written_as_dumps_writes_it(err, document_writes)
    assert ledger["config"]["policies"][0]["blocklist"] == sorted(blocklist)


def test_a_document_is_written_without_its_whole_text_in_memory(tmp_path):
    doc = {
        "anomalies": [
            {"kind": "old", "commit": hex_hash(i), "repo": f"org/r{i % 50}",
             "evidence": "committer date 1970-01-01 00:00:00 UTC before cutoff"}
            for i in range(7_000)
        ],
        "commits": {hex_hash(i): {"repo": f"org/r{i % 50}", "committer": "alice",
                                  "message": "update"} for i in range(7_000)},
    }
    size = len(json.dumps(doc, sort_keys=True, indent=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._emit_document(doc, str(tmp_path / "doc.json"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # Encoding the whole text before writing it peaks near six times its size.
    assert peak < size / 2, (peak, size)


# Strings that hold what the writer cuts a run on, escapes and non-ASCII text.
DOCUMENT_STRINGS = st.lists(
    st.text(max_size=4)
    | st.sampled_from(["},", "{", "}", '"', "\\", "\n", "\u2028", "caf\u00e9", "\ud800",
                       "\udfff", "},\n  {", '": {', ",\n    "]),
    max_size=4).map("".join)
DOCUMENT_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | DOCUMENT_STRINGS
    | st.sampled_from([2**64, -(2**100), -0.0, 1e300, float("nan"), float("inf"), float("-inf")]))
FLAT_DICTS = st.dictionaries(DOCUMENT_STRINGS, DOCUMENT_SCALARS, min_size=1, max_size=4)


@st.composite
def long_runs(draw):
    """Just over three runs of flat dicts, as list items or dict values,
    with an empty dict, a scalar or a nested container among them, or none."""
    flat = draw(st.lists(FLAT_DICTS, min_size=1, max_size=3))
    items = [flat[i % len(flat)] for i in range(3 * cli._RUN + 1)]
    odd = draw(st.sampled_from([None, {}, 0, "x", [{"a": 1}], {"a": {"b": 1}}]))
    if odd is not None:
        items.insert(draw(st.integers(0, len(items))), odd)
    if draw(st.booleans()):
        return {f"{i:04}": item for i, item in enumerate(items)}
    return items


DOCUMENTS = st.recursive(
    DOCUMENT_SCALARS | FLAT_DICTS | st.lists(FLAT_DICTS, max_size=4) | long_runs(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(DOCUMENT_STRINGS, inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_any_document_is_written_as_dumps_writes_it(doc):
    out = io.StringIO()
    cli._write_document(doc, out)
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert first_difference(out.getvalue(), want) is None


def test_a_reader_that_leaves_mid_document_gets_one_error_line(tmp_path):
    # The report is many pipe buffers long, so scan is still writing it.
    path = write_records(tmp_path / "in.ndjson", many_old_records())
    with chronolint_process(["scan", path, "--snapshot-date", SNAPSHOT],
                            subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    lines = err.decode("utf-8").splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("chronolint: error: cannot write stdout: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no device whose writes fail")
@pytest.mark.parametrize("command", ["scan", "filter", "stats", "verify"])
def test_a_document_whose_write_fails_partway_exits_two_naming_it(tmp_path, capsys, command):
    records = ooo_fixture()
    report = scan_report_path(tmp_path, capsys, records)
    argv = {
        "scan": ["scan", write_records(tmp_path / "big.ndjson", many_old_records()),
                 "--snapshot-date", SNAPSHOT],
        "filter": ["filter", write_records(tmp_path / "in.ndjson", records),
                   "--policy-file", policy_file(tmp_path, []),
                   "--output", str(tmp_path / "out.ndjson")],
        "stats": ["stats", report],
        "verify": ["verify", report, "--sources", stub_sources(tmp_path, records)],
    }[command]
    code, out, err = run(capsys, *argv, "--report", "/dev/full")
    assert (code, out) == (2, "")
    # verify states its accounting first; the error is the one last line.
    errors = [line for line in err.splitlines() if line.startswith("chronolint: error: ")]
    assert errors == err.splitlines()[-1:]
    assert errors[0].startswith("chronolint: error: cannot write /dev/full: ")


# ---- run configuration ----


def test_scan_report_config_is_replayable(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    _, out, _ = run(capsys, "scan", path, "--snapshot-date", SNAPSHOT,
                    "--date-field", "author", "--include-merges")
    config = json.loads(out)["config"]
    assert config["date_field"] == "author"
    assert config["exclude_merges"] is False
    assert parse_utc(config["snapshot_date"]) == parse_utc(SNAPSHOT)
    assert parse_utc(config["old_cutoff"]) == DetectorConfig().old_cutoff
    assert config["detectors"] == ["old", "future", "ooo", "signatures", "verified"]
    assert config["policies"] == []


def test_a_snapshot_at_epoch_zero_is_written(tmp_path, capsys):
    path = write_records(tmp_path / "in.ndjson", clean_records())
    _, out, _ = run(capsys, "scan", path, "--old-cutoff", "1960-01-01",
                    "--snapshot-date", "1970-01-01")
    assert json.loads(out)["config"]["snapshot_date"] == "1970-01-01 00:00:00 UTC"


# ---- README's gitlog recipe against real git ----


def readme_gitlog_recipe():
    """The `git log` command of README's gitlog section, as argv."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    command = re.search(r"```sh\n(git log .*?)\n```", readme, re.S).group(1)
    return shlex.split(command.replace("\\\n", " "))


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_readme_gitlog_recipe_reads_a_real_repository_exactly(tmp_path, capsys):
    repo, home = tmp_path / "repo", tmp_path / "home"
    home.mkdir()
    # No user or system configuration reaches git.
    env = {"PATH": os.environ.get("PATH", ""), "HOME": str(home), "GIT_CONFIG_NOSYSTEM": "1"}

    def git(*args, author=None, committer=None):
        people = {}
        for role, person in (("AUTHOR", author), ("COMMITTER", committer)):
            if person:
                name, epoch, tz = person
                people.update({f"GIT_{role}_NAME": name, f"GIT_{role}_EMAIL": "dev@example.com",
                               f"GIT_{role}_DATE": f"@{epoch} {tz}"})
        return subprocess.run(["git", "-c", "commit.gpgsign=false", *args], cwd=repo,
                              env={**env, **people}, check=True, capture_output=True).stdout

    # name, message, author, committer: a root commit, an empty message on a
    # commit older than its parent, and a merge.
    alice, zoe = "Alice Author", "Zo\u00eb Committer"
    commits = [
        ("root", "root commit", (alice, 1_000_000_000, "+0545"), (zoe, 1_000_000_100, "+0545")),
        ("main", "subject\n\nbody line", (alice, 1_000_001_000, "-1200"),
         (zoe, 1_000_001_500, "-1200")),
        ("side", "side work", (zoe, 1_000_002_000, "+1400"), (alice, 1_000_002_000, "+1400")),
        ("skewed", "", (alice, 999_000_000, "+0000"), (zoe, 999_000_000, "+0000")),
        ("merge", "Merge branch 'side'", (alice, 1_000_003_000, "-0930"),
         (zoe, 1_000_003_000, "-0930")),
    ]
    repo.mkdir()
    git("init", "-q", "-b", "main")
    hashes = {}
    for name, message, author, committer in commits:
        if name == "side":
            git("checkout", "-q", "-b", "side", hashes["root"])
        if name == "merge":
            git("checkout", "-q", "main")
            git("merge", "-q", "--no-ff", "-m", message, "side", author=author, committer=committer)
        else:
            git("commit", "-q", "--allow-empty", "--allow-empty-message", "-m", message,
                author=author, committer=committer)
        hashes[name] = git("rev-parse", "HEAD").decode().strip()

    parents = {"root": (), "main": ("root",), "side": ("root",), "skewed": ("side",),
               "merge": ("main", "skewed")}
    minutes = {"+0545": 345, "-1200": -720, "+1400": 840, "-0930": -570, "+0000": 0}
    expected = sorted(
        (CommitRecord(hash=hashes[name], repo_id="org/name",
                      parents=tuple(hashes[p] for p in parents[name]),
                      author_date=author[1], committer_date=committer[1],
                      author_id=author[0], committer_id=committer[0], message=message,
                      tz_offset_min=minutes[committer[2]])
         for name, message, author, committer in commits),
        key=lambda rec: rec.hash)

    dump = tmp_path / "log.gitlog"
    dump.write_bytes(subprocess.run(readme_gitlog_recipe(), cwd=repo, env=env, check=True,
                                    capture_output=True).stdout)
    with open(dump, "rb") as fh:
        parsed = parse_commit_stream(fh, "gitlog", repo_id="org/name")
    assert parsed.malformed == []
    assert sorted(parsed.records, key=lambda rec: rec.hash) == expected

    code, out, _ = run(capsys, "filter", str(dump), "--format", "gitlog", "--repo", "org/name",
                       "--policy-file", policy_file(tmp_path, []))
    assert code == 0
    assert sorted(parse_commit_stream(out).records, key=lambda rec: rec.hash) == expected

    code, out, _ = run(capsys, "scan", str(dump), "--format", "gitlog", "--repo", "org/name",
                       "--snapshot-date", SNAPSHOT)
    assert code == 1
    assert {(a["kind"], a["commit"]) for a in json.loads(out)["anomalies"]} == {
        ("out_of_order_parent", hashes["skewed"])}


# ---- serialization round trip ----


HASHES = st.integers(0, 2**160 - 1).map(hex_hash) | st.from_regex(r"r[0-9]+@\S+", fullmatch=True)
EPOCHS = st.sampled_from([EPOCH_MIN, EPOCH_MAX, -1, 0]) | st.integers(EPOCH_MIN, EPOCH_MAX)
TEXTS = st.sampled_from(["", "caf\u00e9", "one\u2028two\nthree"]) | st.text()
RECORDS = st.builds(
    CommitRecord, hash=HASHES, repo_id=TEXTS, parents=st.lists(HASHES, max_size=3).map(tuple),
    author_date=EPOCHS, committer_date=EPOCHS, author_id=TEXTS, committer_id=TEXTS,
    message=TEXTS, verified=st.none() | st.booleans(), stars=st.none() | st.integers(0, 2**63),
    tz_offset_min=st.integers(-1080, 1080))


@pytest.mark.parametrize("extras", [
    {},
    {"verified": True, "stars": 12},
    {"committer_epoch": -2_044_178_335},
])
def test_record_serialization_round_trips(extras):
    rec = make_record(7, parents=[1, 2], **extras)
    (back,) = parse_commit_stream(json.dumps(record_to_object(rec))).records
    assert back == rec


def test_record_serialization_keeps_committer_timezone():
    rec = make_record(7)._replace(tz_offset_min=330)
    obj = record_to_object(rec)
    assert obj["tz_offset_min"] == 330
    (back,) = parse_commit_stream(json.dumps(obj)).records
    assert (back.committer_date, back.tz_offset_min) == (rec.committer_date, 330)


@given(RECORDS)
def test_a_record_round_trips_through_ndjson(rec):
    obj = record_to_object(rec)
    assert obj.get("tz_offset_min", 0) == rec.tz_offset_min
    (back,) = parse_commit_stream(json.dumps(obj)).records
    assert back == rec


@given(RECORDS)
def test_write_ndjson_writes_the_bytes_of_json_dumps(rec):
    out = io.StringIO()
    write_ndjson([rec], out)
    assert out.getvalue() == json.dumps(record_to_object(rec), sort_keys=True,
                                        separators=(",", ":")) + "\n"


# ---- any one value of an input document ----

# JSON values. Strings leave out path separators: a replaced LocalCache
# endpoint is a file that verify creates, and it must stay in the test's
# working directory.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(blacklist_characters="/\\"), max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def json_paths(value, path=()):
    """The path of ``value`` itself and of every value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_paths(item, path + (key,))


def replaced(doc, path, new):
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@pytest.fixture(scope="module")
def valid_documents(tmp_path_factory):
    """Valid commit records, policy file, sources config (with the
    ``workers`` key that nothing reads), scan report (one out-of-order
    candidate) and cache line, with the stub they refer to."""
    root = tmp_path_factory.mktemp("documents")
    records = ooo_fixture()
    commits = write_records(root / "in.ndjson", records)
    stub = root / "stub"
    stub.mkdir()
    for rec in records:
        (stub / f"{rec.hash}.json").write_text(json.dumps(record_to_object(rec)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["scan", commits, "--snapshot-date", SNAPSHOT, "--report", str(root / "scan.json")])
    documents = {
        "commits": [record_to_object(rec) for rec in records],
        "policies": {"policies": [
            {"kind": "MinTimestamp", "min_ts": 1},
            {"kind": "BeforeDate", "cutoff": "2000-01-01"},
            {"kind": "ProjectBlocklist", "blocklist": ["other/repo"]},
            {"kind": "DropOutOfOrder", "scope": "commit"},
            {"kind": "MinStars", "min_stars": 0},
            {"kind": "TopKStars", "k": 2},
        ]},
        "sources": {"workers": 2, "sources": [
            {"kind": "LocalCache", "endpoint": str(root / "cache.ndjson")},
            {"kind": "FileStub", "endpoint": str(stub)},
            {"kind": "ArchiveFallback", "endpoint": "https://archive.test/{hash}"},
        ]},
        "report": json.loads((root / "scan.json").read_text(encoding="utf-8")),
        "cache": CACHE_LINE,
    }
    return root, commits, documents


def _no_network():
    raise OSError("the tests make no network connections")


# The documents each command reads.
READS = {"scan": ["commits"], "filter": ["policies"], "stats": ["report"],
         "verify": ["sources", "report", "cache"]}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(READS)))
def test_any_one_replaced_value_exits_0_1_or_2_with_one_error_line(
        valid_documents, data, command):
    root, commits, documents = valid_documents
    name = data.draw(st.sampled_from(READS[command]), label="document")
    doc = documents[name]
    path = data.draw(st.sampled_from(list(json_paths(doc))), label="path")
    docs = {**documents, name: replaced(doc, path, data.draw(JSON_VALUES, label="value"))}
    for key in ("policies", "sources", "report"):
        (root / f"{key}.json").write_text(json.dumps(docs[key]), encoding="utf-8")
    (root / "cache.ndjson").write_text(json.dumps(docs["cache"]) + "\n", encoding="utf-8")
    records = docs["commits"] if isinstance(docs["commits"], list) else [docs["commits"]]
    (root / "scan.ndjson").write_text("".join(json.dumps(r) + "\n" for r in records),
                                      encoding="utf-8")
    argv = {
        "scan": ["scan", str(root / "scan.ndjson"), "--snapshot-date", SNAPSHOT,
                 "--report", str(root / "scanned.json")],
        "filter": ["filter", commits, "--policy-file", str(root / "policies.json"),
                   "--output", str(root / "out.ndjson"), "--report", str(root / "ledger.json")],
        "stats": ["stats", str(root / "report.json"), "--report", str(root / "stats.json")],
        "verify": ["verify", str(root / "report.json"), "--sources", str(root / "sources.json"),
                   "--report", str(root / "verified.json")],
    }[command]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with mock.patch.object(forge, "_opener", _no_network), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code == 2:
        # Two exits 2 explain themselves first: scan names each malformed
        # record, and verify prints its accounting when no source resolved
        # any candidate. Every other exit 2 is the one line.
        if command != "scan" and "no metadata source" not in lines[-1]:
            assert len(lines) == 1, lines
        assert lines[-1].startswith("chronolint: error: ")


# ---- a report read in one checked pass, against the checks it replaced ----

ENTRY_KEYS = ("kind", "commit", "repo", "evidence", "delta_seconds")
# Values of every JSON type, at and past each range and id rule. A report's
# entry or commit field takes each in turn; DROPPED removes the key.
FIELD_VALUES = [None, True, False, 0, 1, -1, 2**64 - 1, 2**64, 5.0, "x", "Old",
                "out_of_order_linear", [], {}, hex_hash(0xABC), hex_hash(0xABC).upper(),
                "r1@x", "r1@ x", "\ud800"]
DROPPED = object()
ENTRY_FAULTS = [(key, value) for key in ENTRY_KEYS for value in (DROPPED, *FIELD_VALUES)]
BASE_ENTRIES = [
    {"kind": "out_of_order_parent", "commit": hex_hash(1), "repo": "org/a",
     "evidence": "parent is 100s newer", "delta_seconds": 100},
    {"kind": "old", "commit": hex_hash(2), "repo": "org/a", "evidence": "before 1980"},
]


def with_fields(obj, *fields):
    obj = dict(obj)
    for key, value in fields:
        if value is DROPPED:
            obj.pop(key, None)
        else:
            obj[key] = value
    return obj


def anomaly_entry_cases():
    """Each base entry; with each fault; with each pair of faults on two
    keys; and entries that are not objects."""
    for base in BASE_ENTRIES:
        yield base
        for fault in ENTRY_FAULTS:
            yield with_fields(base, fault)
        for one, other in itertools.combinations(ENTRY_FAULTS, 2):
            if one[0] != other[0]:
                yield with_fields(base, one, other)
    yield from (None, 1, "x", [])


def read_entry(reader, obj):
    """The entry ``reader`` rebuilds, as its repr, or its error."""
    outcome = result_of(reader, obj, 3)
    return ("returned", repr(outcome[1])) if outcome[0] == "returned" else outcome


def test_an_anomaly_entry_is_read_as_the_checked_reference_reads_it():
    cases = list(anomaly_entry_cases())
    assert len(cases) == 2 * (1 + 100 + 10 * 20 * 20) + 4
    outcomes = [read_entry(cli.anomaly_from_object, obj) for obj in cases]
    assert [(obj, got) for obj, got in zip(cases, outcomes)
            if got != read_entry(reference_anomaly_from_object, obj)] == []
    assert {kind for kind, _ in outcomes} == {"returned", "CommandError"}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(ENTRY_KEYS) | st.text(max_size=3),
                       st.sampled_from(FIELD_VALUES) | JSON_VALUES, max_size=6))
@example({"kind": "out_of_order_linear", "commit": "r7@svn/x", "repo": "", "delta_seconds": 1})
@example({"kind": "future", "commit": hex_hash(3), "repo": "", "delta_seconds": False})
def test_any_anomaly_entry_is_read_as_the_checked_reference_reads_it(obj):
    assert read_entry(cli.anomaly_from_object, obj) == read_entry(
        reference_anomaly_from_object, obj)


def commits_section_cases():
    """Sections that are not objects, and sections that hold an entry of
    each shape under a key of each kind, alone or after a good entry and
    before a bad one."""
    yield DROPPED
    yield from (value for value in FIELD_VALUES if not isinstance(value, dict))
    entries = [None, 1, "x", [], True, {}, {"committer": "a", "message": "m"},
               *({"committer": value} for value in FIELD_VALUES),
               *({"message": value} for value in FIELD_VALUES),
               *({"committer": one, "message": other}
                 for one, other in itertools.product(FIELD_VALUES, repeat=2))]
    for key in (hex_hash(1), "", "a\nb", "a\x1eb", "\ud800"):
        for entry in entries:
            yield {key: entry}
            yield {hex_hash(7): {"committer": "c"}, key: entry, hex_hash(8): {"message": 1}}


def test_a_commits_section_is_checked_as_the_checked_reference_checks_it(tmp_path):
    path = tmp_path / "report.json"
    differ, outcomes = [], set()
    for section in commits_section_cases():
        doc = {"schema_version": cli.SCHEMA_VERSION, "anomalies": [], "summary": {}}
        if section is not DROPPED:
            doc["commits"] = section
        path.write_text(json.dumps(doc), encoding="utf-8")
        got = result_of(cli._load_scan_report, str(path))
        want = result_of(reference_commits_check, json.loads(path.read_text(encoding="utf-8")))
        got, want = ((None if kind == "returned" else (kind, text)) for kind, text in (got, want))
        outcomes.add(got and got[0])
        if got != want:
            differ.append((section, got, want))
    assert differ == []
    assert outcomes == {None, "CommandError"}


# ---- any bytes of an input document ----

# Bytes that readers trip on: NUL, CR, gitlog's field separator, U+2028, a
# BOM, a byte that is never UTF-8, a lead byte with no continuation, and
# the JSON escape of a lone surrogate, which UTF-8 cannot encode.
PIECES = [b"\x00", b"\r", b"\x1f", "\u2028".encode(), "\ufeff".encode(), b"\xff", b"\xc3",
          b"\\ud800"]
STUB = f"stub/{hex_hash(1)}.json"
# The documents each command reads, by file name.
READ_FILES = {
    "scan": ["commits.ndjson", "commits.gitlog"],
    "filter": ["commits.ndjson", "commits.gitlog", "policies.json"],
    "stats": ["report.json"],
    "verify": ["report.json", "sources.json", "cache.ndjson", STUB],
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, valid_documents):
    """The bytes of a valid copy of each document, by file name: the commit
    export in both formats, with an old commit of a repository of its own,
    a scan report of it, and ``valid_documents``' policy file, sources
    config (with relative endpoints), cache line and stub of the candidate."""
    root = tmp_path_factory.mktemp("files")
    (root / "stub").mkdir()
    documents = valid_documents[2]
    records = ooo_fixture() + [make_record(9, committer_epoch=0, repo="other/repo")]
    write_records(root / "commits.ndjson", records)
    with contextlib.chdir(root), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        main(["scan", "commits.ndjson", "--snapshot-date", SNAPSHOT, "--report", "report.json"])
    sources = {"sources": [{"kind": "LocalCache", "endpoint": "cache.ndjson"},
                           {"kind": "FileStub", "endpoint": "stub"},
                           documents["sources"]["sources"][2]]}
    files = {
        "commits.ndjson": (root / "commits.ndjson").read_bytes(),
        "commits.gitlog": "".join(input_lines(records, "gitlog")).encode(),
        "policies.json": json.dumps(documents["policies"]).encode(),
        "report.json": (root / "report.json").read_bytes(),
        "sources.json": json.dumps(sources).encode(),
        "cache.ndjson": json.dumps(CACHE_LINE).encode() + b"\n",
        STUB: json.dumps(record_to_object(ooo_fixture()[1])).encode(),
    }
    return root, files


def mutated(data: bytes, how: str, at: int, piece: bytes) -> bytes:
    """``data`` cut at offset ``at`` (a negative one counts from the end),
    with ``piece`` inserted or replacing the byte there, or with the line
    that holds that offset repeated."""
    at %= len(data) + 1
    if how == "truncate":
        return data[:at]
    if how == "insert":
        return data[:at] + piece + data[at:]
    if how == "replace":
        return data[:at] + piece + data[at + 1:]
    start = data.rfind(b"\n", 0, at) + 1
    end = data.find(b"\n", at) + 1 or len(data)
    return data[:end] + data[start:end] + data[end:]


@settings(max_examples=200, deadline=None)
# A lone surrogate in the old commit's repository id, which anomalies.csv names.
@example(read=("scan", "commits.ndjson"), how="insert", at=-8, piece=b"\\ud800")
@given(read=st.sampled_from([(command, name) for command, names in READ_FILES.items()
                             for name in names]),
       how=st.sampled_from(["truncate", "insert", "replace", "repeat"]),
       at=st.integers(-5000, 5000), piece=st.sampled_from(PIECES))
def test_any_bytes_of_a_document_exit_0_1_or_2_with_one_error_line(
        valid_files, read, how, at, piece):
    root, files = valid_files
    command, name = read
    for file, data in files.items():
        (root / file).write_bytes(mutated(data, how, at, piece) if file == name else data)
    fmt = "gitlog" if name == "commits.gitlog" else "ndjson"
    commits = [f"commits.{fmt}", "--format", fmt, "--repo", "example/repo"]
    argv = {
        "scan": ["scan", *commits, "--snapshot-date", SNAPSHOT, "--report", "scanned.json",
                 "--csv-dir", "scan-csv"],
        "filter": ["filter", *commits, "--policy-file", "policies.json",
                   "--output", "out.ndjson", "--report", "ledger.json"],
        "stats": ["stats", "report.json", "--report", "stats.json", "--csv-dir", "stats-csv"],
        "verify": ["verify", "report.json", "--sources", "sources.json",
                   "--report", "verified.json"],
    }[command]
    err = io.StringIO()
    with contextlib.chdir(root), mock.patch.object(forge, "_opener", _no_network), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    # Lines end at "\n" alone: U+2028 in a message does not break its line.
    # Other lines may come first: scan's malformed records, the parse's
    # count of them, forge's warnings and verify's accounting.
    lines = err.getvalue().split("\n")[:-1]
    errors = [line for line in lines if line.startswith("chronolint: error: ")]
    assert errors == (lines[-1:] if code == 2 else []), lines


# ---- a standard stream that fills up or closes ----


class FullAfter(io.StringIO):
    """A standard stream with room for ``room`` characters: a write past
    them keeps what fits and fails with ``error``, as a full device
    (ENOSPC) or a reader that went away (EPIPE) does."""

    def __init__(self, room, error=errno.ENOSPC):
        super().__init__()
        self.room, self.error = room, error

    def write(self, text):
        left = self.room - self.tell()
        if len(text) > left:
            super().write(text[:left])
            raise OSError(self.error, os.strerror(self.error))
        return super().write(text)


@pytest.fixture(scope="module")
def full_stream_runs(tmp_path_factory):
    """Per command, its argv without --report or --output, its exit code
    and the length of what it writes to each stream. The scan report is
    more than 3 × 64 KiB long, so it reaches its stream in many pieces."""
    root = tmp_path_factory.mktemp("full-stream")
    (root / "stub").mkdir()
    records = ooo_fixture() + [make_record(1000 + i, committer_epoch=0, repo=f"org/r{i % 7}")
                               for i in range(600)]
    for rec in records:
        (root / "stub" / f"{rec.hash}.json").write_text(json.dumps(record_to_object(rec)))
    write_records(root / "in.ndjson", records)
    (root / "sources.json").write_text(
        json.dumps({"sources": [{"kind": "FileStub", "endpoint": "stub"}]}), encoding="utf-8")
    policy_file(root, [{"kind": "TopKStars", "k": 3}])
    argvs = {"scan": ["scan", "in.ndjson", "--snapshot-date", SNAPSHOT],
             "filter": ["filter", "in.ndjson", "--policy-file", "policies.json"],
             "stats": ["stats", "report.json"],
             "verify": ["verify", "report.json", "--sources", "sources.json"]}
    runs = {}
    with contextlib.chdir(root), contextlib.redirect_stderr(io.StringIO()):
        main([*argvs["scan"], "--report", "report.json"])
    for command, argv in argvs.items():
        with contextlib.chdir(root), contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        runs[command] = (argv, code, {"stdout": len(out.getvalue()),
                                      "stderr": len(err.getvalue())})
    assert runs["scan"][2]["stdout"] > 3 * 65536
    assert all(sizes["stderr"] for command, (_, _, sizes) in runs.items() if command != "stats")
    return root, runs


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(["scan", "filter", "stats", "verify"]),
       stream=st.sampled_from(["stdout", "stderr"]),
       error=st.sampled_from([errno.ENOSPC, errno.EPIPE]))
def test_a_stdout_that_fills_up_at_any_character_exits_two_with_one_error_line(
        full_stream_runs, data, command, stream, error):
    """Also a stderr, and either stream closed by its reader: a failed
    stderr can take no error line, so only the exit code tells."""
    root, runs = full_stream_runs
    argv, code, sizes = runs[command]
    size = sizes[stream]
    room = data.draw(st.integers(0, size + 10), label="room")
    full = FullAfter(room, error)
    out = full if stream == "stdout" else io.StringIO()
    err = full if stream == "stderr" else io.StringIO()
    with contextlib.chdir(root), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        got = main(argv)
    assert len(full.getvalue()) == min(room, size)
    assert got == (2 if room < size else code)
    if stream == "stderr":
        return
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("chronolint: error: ")]
    if room < size:
        # verify states its accounting first; the error is the one last line.
        assert errors == lines[-1:], lines
        assert errors[0].startswith("chronolint: error: cannot write stdout: ")
    else:
        assert errors == []
