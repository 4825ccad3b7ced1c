"""Acceptance gate: one test per shipped guarantee.

Each test records a PASS/FAIL verdict that the terminal-summary hook in
conftest echoes after the run, so a full run always ends with eleven
human-readable verdict lines. Randomized checks use fixed seeds; timing
budgets are asserted where the guarantee includes one.
"""

import functools
import itertools
import json
import random
import tempfile
import time
from pathlib import Path

from chronolint import filters
from chronolint.analytics import delta_histogram, delta_statistics
from chronolint.cli import main, run_scan, write_ndjson
from chronolint.detectors import (
    DEFAULT_OLD_CUTOFF,
    DetectorConfig,
    detect_old,
    detect_future,
    detect_out_of_order_linear,
    detect_out_of_order_parents,
    detect_tool_signatures,
    is_merge_message,
    signature_name,
)
from chronolint.forge import MetadataSource, verify_anomalies
from chronolint.graph import build_graph
from chronolint.ingest import deduplicate
from chronolint.model import format_utc, normalize_timestamp, parse_utc
from conftest import ACCEPTANCE_VERDICTS, hex_hash, make_record


def criterion(number, headline):
    """Record one verdict line per criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_VERDICTS.append(f"FAIL  criterion {number:2d}: {headline}")
                raise
            ACCEPTANCE_VERDICTS.append(f"PASS  criterion {number:2d}: {headline}")
            return result

        return run

    return wrap


@criterion(1, "reference timestamps format and classify exactly")
def test_criterion_01_timestamp_point_checks():
    started = time.monotonic()

    assert format_utc(-2044178335) == "1905-03-23 12:41:05 UTC"

    microseconds = normalize_timestamp(10**12, "us")
    assert microseconds == 1_000_000
    assert format_utc(microseconds).startswith("1970-01-12")

    (anomaly,) = detect_old([make_record(1, committer_epoch=0)], DetectorConfig())
    assert anomaly.kind.value == "old"

    assert time.monotonic() - started < 1.0


@criterion(2, "parent-order detector matches brute force on 1000 random DAGs in <30s")
def test_criterion_02_detector_oracle_equivalence():
    rng = random.Random(0x20260815)
    started = time.monotonic()
    for case in range(1000):
        n = rng.randint(2, 50)
        records = []
        for i in range(n):
            k = rng.randint(0, min(3, i))
            parents = rng.sample(range(i), k)
            message = "Merge branch 'dev'" if rng.random() < 0.15 else "update"
            records.append(make_record(
                i, parents=parents, message=message,
                committer_epoch=rng.randrange(-50, 400),
            ))
        cfg = DetectorConfig(exclude_merges=bool(rng.getrandbits(1)))

        by_hash = {r.hash: r for r in records}
        expected = {}
        for child in records:
            worst = 0
            for parent_hash in child.parents:
                parent = by_hash[parent_hash]
                if cfg.exclude_merges and (
                    is_merge_message(child.message) or is_merge_message(parent.message)
                ):
                    continue
                delta = parent.committer_date - child.committer_date
                worst = max(worst, delta)
            if worst >= 1:
                expected[child.hash] = worst

        got = {
            a.commit_hash: a.delta_seconds
            for a in detect_out_of_order_parents(build_graph(records), cfg)
        }
        assert got == expected, f"divergence on case {case}"
    assert time.monotonic() - started < 30.0


@criterion(3, "linear scan + metadata verification equals direct parent detection")
def test_criterion_03_two_stage_equivalence():
    rng = random.Random(0xC3)
    ids = itertools.count()
    chains, all_records = [], []
    for i in range(40):
        chain, prev = [], None
        for _ in range(rng.randint(2, 12)):
            idx = next(ids)
            message = "merge upstream" if rng.random() < 0.2 else "update"
            chain.append(make_record(
                idx, parents=[] if prev is None else [prev], message=message,
                committer_epoch=rng.randrange(0, 300), repo=f"org/chain{i}",
            ))
            prev = idx
        chains.append(chain)
        all_records.extend(chain)

    with tempfile.TemporaryDirectory() as tmp:
        stub = Path(tmp) / "stub"
        stub.mkdir()
        for rec in all_records:
            (stub / f"{rec.hash}.json").write_text(json.dumps({
                "hash": rec.hash, "repo": rec.repo_id, "parents": list(rec.parents),
                "author_date": rec.author_date,
                "committer_date": rec.committer_date,
                "author": rec.author_id, "committer": rec.committer_id,
                "message": rec.message,
            }))
        sources = [MetadataSource(kind="FileStub", endpoint=str(stub))]

        cfg = DetectorConfig()
        candidates = [a for chain in chains for a in detect_out_of_order_linear(chain, cfg)]
        confirmed, _, accounting = verify_anomalies(candidates, sources)

    direct = [a for chain in chains for a in detect_out_of_order_parents(build_graph(chain), cfg)]
    assert {a.commit_hash for a in confirmed} == {a.commit_hash for a in direct}
    assert sum(accounting.values()) == len(candidates)


@criterion(4, "merge-message exclusion suppresses the pair; the CLI flag restores it")
def test_criterion_04_merge_exclusion_flip():
    records = [
        make_record(0, committer_epoch=1_000_000_100, message="Merge pull request #7"),
        make_record(1, parents=[0], committer_epoch=1_000_000_000, message="update"),
    ]
    assert detect_out_of_order_linear(records, DetectorConfig()) == []
    relaxed = detect_out_of_order_linear(records, DetectorConfig(exclude_merges=False))
    assert len(relaxed) == 1

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "in.ndjson"
        with open(data, "w", encoding="utf-8") as fh:
            write_ndjson(records, fh)
        report = Path(tmp) / "report.json"
        base = ["scan", str(data), "--snapshot-date", "2019-10-31", "--report", str(report)]

        assert main(base) == 0
        assert json.loads(report.read_text())["anomalies"] == []

        assert main(base + ["--include-merges"]) == 1
        flagged = json.loads(report.read_text())["anomalies"]
        assert len(flagged) == 1 and flagged[0]["commit"] == hex_hash(1)


@criterion(5, "boundary values are never flagged: strict inequalities everywhere")
def test_criterion_05_boundary_contracts():
    cutoff = DEFAULT_OLD_CUTOFF
    cfg = DetectorConfig(future_cutoff=parse_utc("2019-10-31T00:00:00Z"))
    snapshot = cfg.future_cutoff

    at_cutoff = make_record(1, committer_epoch=cutoff)
    below = make_record(2, committer_epoch=cutoff - 1)
    assert detect_old([at_cutoff], cfg) == []
    assert len(detect_old([below], cfg)) == 1

    at_snapshot = make_record(3, committer_epoch=snapshot)
    beyond = make_record(4, committer_epoch=snapshot + 1)
    assert detect_future([at_snapshot], cfg) == []
    assert len(detect_future([beyond], cfg)) == 1

    tied = [
        make_record(5, committer_epoch=1_000_000_000),
        make_record(6, parents=[5], committer_epoch=1_000_000_000),
    ]
    assert detect_out_of_order_linear(tied, cfg) == []
    assert detect_out_of_order_parents(build_graph(tied), cfg) == []


def _random_cleaning_fixture(rng, case):
    records, next_id = [], itertools.count(case * 1000)
    for repo_i in range(rng.randint(2, 4)):
        repo = f"org/r{repo_i}"
        stars = rng.choice([None, 0, 3, 25, 400])
        base = rng.choice([-20, 0, 500, 1_000_000_000])
        prev = None
        for _ in range(rng.randint(1, 10)):
            idx = next(next_id)
            records.append(make_record(
                idx, parents=[] if prev is None else [prev],
                committer_epoch=base + rng.randrange(-30, 300),
                repo=repo, stars=stars,
                message=rng.choice(["update", "merge fix", "rework io"]),
            ))
            prev = idx
    return records


@criterion(6, "every cleaning policy balances its ledger; drop-out-of-order is a fixed point")
def test_criterion_06_filter_ledger_balance():
    rng = random.Random(0xF117E5)
    policy_dicts = [
        {"kind": "MinTimestamp", "min_ts": 1},
        {"kind": "BeforeDate", "cutoff": 200},
        {"kind": "ProjectBlocklist", "blocklist": ["org/r0"]},
        {"kind": "DropOutOfOrder", "scope": "commit"},
        {"kind": "DropOutOfOrder", "scope": "project"},
        {"kind": "MinStars", "min_stars": 4},
        {"kind": "TopKStars", "k": 2},
    ]
    for case in range(30):
        records = _random_cleaning_fixture(rng, case)
        repos = {r.repo_id for r in records}
        for data in policy_dicts:
            policy = filters.policy_from_object(data)
            retained, ledger = filters.apply_policy(records, policy)
            assert ledger.removed_commits + ledger.retained_commits == len(records)
            assert ledger.retained_commits == len(retained)
            survivors = {r.repo_id for r in retained}
            assert ledger.removed_projects == len(repos - survivors)

        cleaned, _ = filters.apply_policy(records, filters.FilterPolicy("DropOutOfOrder", "commit"))
        rescan, _, _ = run_scan(cleaned, DetectorConfig(), enabled=("ooo",))
        assert rescan == []


@criterion(7, "min-timestamp filter removes ~98-99% of flagged-old commits on the reference mix")
def test_criterion_07_min_timestamp_efficacy():
    # Microsecond-resolution values and how often each occurs, mirroring a
    # real mined dataset: almost everything sits at epoch zero, one commit
    # underflows into 1905, and a few dozen land within the first weeks of
    # 1970 or the late 1980s.
    census = [
        (-2044178335000000, 1), (0, 3576), (730000000, 1), (956000000, 1),
        (1585000000, 1), (1601000000, 1), (1627000000, 1), (3495000000, 1),
        (3523000000, 1), (7403000000, 1), (7558000000, 1), (7923000000, 1),
        (88210000000, 1), (88211000000, 2), (88212000000, 3), (88213000000, 2),
        (127771000000, 1), (179895000000, 1), (255447000000, 1),
        (1000000000000, 11), (315772873000000, 1), (566635987000000, 1),
        (589770257000000, 1),
    ]
    ids = itertools.count()
    records = []
    for micros, occurrences in census:
        epoch = normalize_timestamp(micros, "us")
        records.extend(
            make_record(next(ids), committer_epoch=epoch) for _ in range(occurrences)
        )
    records.extend(
        make_record(next(ids), committer_epoch=1_500_000_000) for _ in range(1000)
    )

    cfg = DetectorConfig()
    old_hashes = {a.commit_hash for a in detect_old(records, cfg)}
    assert len(old_hashes) == 3612

    retained, ledger = filters.apply_policy(records, filters.FilterPolicy("MinTimestamp", 1))
    assert ledger.removed_commits + ledger.retained_commits == len(records)
    removed_old = len(old_hashes - {r.hash for r in retained})

    share = 100.0 * removed_old / len(old_hashes)
    assert share >= 98.0
    # The published claim is an integer percentage; hold it to that precision.
    assert abs(round(share) - 98.0) <= 1.0


@criterion(8, "histogram counts always sum; median matches a sort oracle to 1e-9")
def test_criterion_08_histogram_and_median_integrity():
    rng = random.Random(0x5AD)
    for _ in range(1000):
        n = rng.randint(1, 200)
        magnitude = 10 ** rng.randint(1, 9)
        deltas = [rng.randint(1, magnitude) for _ in range(n)]

        histogram = delta_histogram(deltas)
        assert histogram.total == len(deltas)

        ordered = sorted(deltas)
        if n % 2:
            expected_median = float(ordered[n // 2])
        else:
            expected_median = (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
        median = delta_statistics(deltas).p50
        assert abs(median - expected_median) <= 1e-9 * max(1.0, abs(expected_median))


def _determinism_fixture():
    rng = random.Random(0xD373)
    ids = itertools.count()
    records = []
    for repo_i in range(3):
        repo = f"org/repo{repo_i}"
        prev = None
        for _ in range(40):
            idx = next(ids)
            roll = rng.random()
            if roll < 0.08:
                epoch, message, verified = 0, "imported", None
            elif roll < 0.16:
                epoch, message, verified = 1_700_000_000, "time travel", None
            elif roll < 0.24:
                epoch = rng.randrange(900_000_000, 1_000_000_000)
                message, verified = "git-svn-id: https://svn.example.org/trunk@4 ab-cd", None
            else:
                epoch = rng.randrange(900_000_000, 1_000_000_000)
                message, verified = "update", rng.choice([None, True, False])
            records.append(make_record(
                idx, parents=[] if prev is None else [prev],
                committer_epoch=epoch, repo=repo, message=message, verified=verified,
            ))
            prev = idx
    records.extend(records[:7])  # exact duplicates, dedup must not disturb output
    return records


@criterion(9, "scan and stats output identical bytes regardless of input order")
def test_criterion_09_report_determinism():
    records = _determinism_fixture()
    shuffled = list(records)
    random.Random(99).shuffle(shuffled)

    def run_pipeline(tmp, ordering, tag):
        data = Path(tmp) / f"in-{tag}.ndjson"
        with open(data, "w", encoding="utf-8") as fh:
            write_ndjson(ordering, fh)
        scan_path = Path(tmp) / f"scan-{tag}.json"
        stats_path = Path(tmp) / f"stats-{tag}.json"
        assert main(["scan", str(data), "--snapshot-date", "2019-10-31",
                     "--report", str(scan_path)]) == 1
        assert main(["stats", str(scan_path), "--report", str(stats_path)]) == 0
        return [
            [line for line in path.read_text().splitlines()
             if '"generated_at"' not in line]
            for path in (scan_path, stats_path)
        ]

    with tempfile.TemporaryDirectory() as tmp:
        assert run_pipeline(tmp, records, "a") == run_pipeline(tmp, shuffled, "b")


@criterion(10, "deduplication is idempotent and its arithmetic balances")
def test_criterion_10_dedup_idempotence():
    base = [make_record(i, committer_epoch=1_000_000_000 + i) for i in range(20)]
    conflicting_twin = make_record(7, committer_epoch=999_999_999)
    planted = base + [base[5], base[5], conflicting_twin]
    random.Random(10).shuffle(planted)

    unique, report = deduplicate(planted)
    assert report.total_in == len(planted) == 23
    assert report.unique_out == len(unique) == 20
    dropped = sum(count - 1 for _, count in report.duplicate_hashes)
    assert report.total_in == report.unique_out + dropped
    assert [c.hash for c in report.conflicts] == [hex_hash(7)]

    again, second = deduplicate(unique)
    assert again == unique
    assert second.duplicate_hashes == () and second.conflicts == ()


CLEAN_MESSAGE_BASES = (
    "update parser tests", "fix flaky highway benchmark", "refactor io layer",
    "document the highgate deployment", "remove dead code from scheduler",
    "speed up churchgoers example corpus", "handle moebius strip edge case",
    "bump dependency pins", "rename change-id helper variable",
    "add git-svn-id parsing notes without the marker", "merge cleanup follow-up",
    "rework hgweb-style pager", "lowercase reviewed-by prose mention",
    "support rebase source detection docs", "tune cache eviction",
    "polish error messages", "extend smoke coverage", "inline tiny helpers",
    "swap logging backend", "normalize line endings",
)


@criterion(11, "all six tool signatures detected; zero hits on 100 clean messages")
def test_criterion_11_signature_recall_and_precision():
    planted = {
        "git-svn-id": "migrate trunk\n\ngit-svn-id: https://svn.example.org/trunk@991 0a1b-2c3d",
        "Change-Id": "rework auth\n\nChange-Id: I6a51bd07d63a7258588b9b847a53cf2f147e2e71",
        "Reviewed-by": "tidy buffers\n\nReviewed-by: Alice Reviewer <alice@example.org>",
        "rebase_source": "land patch\n\nrebase_source: 9f8e7d6c5b4a39281706f5e4d3c2b1a098765432",
        "hg": "imported from hg revision 7dd51f5d5f3a",
        "MOE": "Sync code with MOE.\n\nMOE_MIGRATED_REVID=98442737",
    }
    records = [
        make_record(i, committer_epoch=1_000_000_000 + i, message=message)
        for i, message in enumerate(planted.values())
    ]
    found = detect_tool_signatures(records)
    assert {signature_name(a) for a in found} == set(planted)
    assert {a.commit_hash for a in found} == {r.hash for r in records}

    clean = [
        make_record(100 + i, committer_epoch=1_000_000_000,
                    message=f"{CLEAN_MESSAGE_BASES[i % len(CLEAN_MESSAGE_BASES)]} (#{i})")
        for i in range(100)
    ]
    assert detect_tool_signatures(clean) == []
