"""Tests for the anomaly detectors."""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolint.detectors import (
    _FOOTER_SIGNATURES,
    _WORD_SIGNATURES,
    DEFAULT_OLD_CUTOFF,
    DetectorConfig,
    MissingSnapshotDate,
    detect_future,
    detect_old,
    detect_out_of_order_linear,
    detect_out_of_order_parents,
    detect_tool_signatures,
    detect_verified_mismatch,
    _may_hold_signature,
    is_merge_message,
    signature_name,
)
from chronolint.graph import build_graph
from chronolint.model import AnomalyKind, parse_utc
from conftest import hex_hash, make_record

CFG = DetectorConfig(future_cutoff=parse_utc("2019-10-31"))


# ---- Old / future cutoffs ----


def test_epoch_zero_is_old():
    (anomaly,) = detect_old([make_record(1, committer_epoch=0)], CFG)
    assert anomaly.kind is AnomalyKind.OLD
    assert anomaly.delta_seconds is None


def test_cutoff_epoch_itself_is_not_old():
    assert detect_old([make_record(1, committer_epoch=658972800)], CFG) == []
    assert DEFAULT_OLD_CUTOFF == 658972800


def test_deep_past_evidence_is_human_readable():
    (anomaly,) = detect_old([make_record(1, committer_epoch=-2044178335)], CFG)
    assert "1905-03-23 12:41:05 UTC" in anomaly.evidence


def test_future_boundary_is_strict():
    cutoff = CFG.future_cutoff
    records = [make_record(1, committer_epoch=cutoff), make_record(2, committer_epoch=cutoff + 1)]
    anomalies = detect_future(records, CFG)
    assert [a.commit_hash for a in anomalies] == [hex_hash(2)]


def test_far_future_years_flagged():
    records = [
        make_record(1, committer_epoch=parse_utc("2025-06-15")),
        make_record(2, committer_epoch=parse_utc("2027-01-01")),
        make_record(3, committer_epoch=parse_utc("2037-12-31")),
        make_record(4, committer_epoch=parse_utc("2019-10-30")),
    ]
    assert len(detect_future(records, CFG)) == 3


def test_future_without_snapshot_raises():
    with pytest.raises(MissingSnapshotDate):
        detect_future([make_record(1)], DetectorConfig())


def test_author_date_field_selected():
    rec = make_record(1, committer_epoch=10**9, author_epoch=0)
    assert detect_old([rec], CFG) == []
    author_cfg = DetectorConfig(future_cutoff=CFG.future_cutoff, date_field="author")
    assert len(detect_old([rec], author_cfg)) == 1


def test_config_rejects_inverted_cutoffs():
    with pytest.raises(ValueError):
        DetectorConfig(old_cutoff=100, future_cutoff=100)


@given(st.lists(st.integers(658972800, parse_utc("2019-10-31")), max_size=30))
def test_no_flags_inside_closed_interval(epochs):
    records = [make_record(i, committer_epoch=e) for i, e in enumerate(epochs)]
    assert detect_old(records, CFG) == []
    assert detect_future(records, CFG) == []


# ---- Merge heuristic ----


@pytest.mark.parametrize(
    "message,expected",
    [
        ("Merge branch 'dev'", True),
        ("fix typo", False),
        ("submerged pump driver", True),  # substring semantics, accepted trade-off
        ("MERGED upstream", True),
    ],
)
def test_is_merge_message(message, expected):
    assert is_merge_message(message) is expected


# ---- Linear out-of-order ----


def seq(dates, messages=None):
    messages = messages or ["update"] * len(dates)
    return [
        make_record(i, committer_epoch=d, message=m)
        for i, (d, m) in enumerate(zip(dates, messages))
    ]


def test_backward_step_flagged():
    (anomaly,) = detect_out_of_order_linear(seq([10, 20, 15]), CFG)
    assert anomaly.commit_hash == hex_hash(2)
    assert anomaly.delta_seconds == 5
    assert anomaly.kind is AnomalyKind.OUT_OF_ORDER_LINEAR


def test_merge_message_suppresses_flag():
    records = seq([10, 20, 15], ["a", "b", "Merge pull request"])
    assert detect_out_of_order_linear(records, CFG) == []
    # ...on the previous side too
    records = seq([10, 20, 15], ["a", "Merge branch", "c"])
    assert detect_out_of_order_linear(records, CFG) == []


def test_include_merges_restores_flag():
    records = seq([10, 20, 15], ["a", "b", "Merge pull request"])
    cfg = DetectorConfig(future_cutoff=CFG.future_cutoff, exclude_merges=False)
    assert len(detect_out_of_order_linear(records, cfg)) == 1


def test_equal_dates_never_flagged():
    assert detect_out_of_order_linear(seq([10, 10, 10]), CFG) == []


def test_baseline_advances_past_flagged_commit():
    # 10 is compared to 30 (flag), then 20 is compared to 10 (no flag).
    anomalies = detect_out_of_order_linear(seq([30, 10, 20]), CFG)
    assert [a.commit_hash for a in anomalies] == [hex_hash(1)]
    assert anomalies[0].delta_seconds == 20


def test_short_sequences_are_clean():
    assert detect_out_of_order_linear([], CFG) == []
    assert detect_out_of_order_linear(seq([5]), CFG) == []


def linear_oracle(records, exclude_merges):
    """Independent step-by-step walk: (hash, delta) of each backward step."""
    out = []
    for prev, rec in zip(records, records[1:]):
        delta = prev.committer_date - rec.committer_date
        if exclude_merges and (is_merge_message(prev.message) or is_merge_message(rec.message)):
            continue
        if delta > 0:
            out.append((rec.hash, delta))
    return out


def test_linear_detector_matches_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(0, 40)
        records = seq(
            [rng.randrange(-100, 100) for _ in range(n)],
            ["Merge branch 'x'" if rng.random() < 0.3 else "update" for _ in range(n)],
        )
        for exclude in (True, False):
            cfg = DetectorConfig(future_cutoff=CFG.future_cutoff, exclude_merges=exclude)
            got = detect_out_of_order_linear(records, cfg)
            assert [(a.commit_hash, a.delta_seconds) for a in got] == linear_oracle(
                records, exclude
            )


# ---- Parent out-of-order ----


def test_newer_parent_flagged_with_delta():
    graph = build_graph(
        [make_record(0, committer_epoch=200), make_record(1, parents=[0], committer_epoch=100)]
    )
    (anomaly,) = detect_out_of_order_parents(graph, CFG)
    assert anomaly.commit_hash == hex_hash(1)
    assert anomaly.delta_seconds == 100
    assert hex_hash(0) in anomaly.evidence


def test_equal_parent_not_flagged():
    graph = build_graph(
        [make_record(0, committer_epoch=100), make_record(1, parents=[0], committer_epoch=100)]
    )
    assert detect_out_of_order_parents(graph, CFG) == []


def test_one_anomaly_per_child_with_max_delta():
    # Child 3 has two parents; only parent 1 (epoch 500) is newer.
    records = [
        make_record(0, committer_epoch=50),
        make_record(1, committer_epoch=500),
        make_record(3, parents=[0, 1], committer_epoch=100),
    ]
    (anomaly,) = detect_out_of_order_parents(build_graph(records), CFG)
    assert anomaly.commit_hash == hex_hash(3)
    assert anomaly.delta_seconds == 400
    assert hex_hash(1) in anomaly.evidence


def test_tied_deltas_name_smallest_parent_hash():
    records = [
        make_record(2, committer_epoch=300),
        make_record(1, committer_epoch=300),
        make_record(3, parents=[2, 1], committer_epoch=100),
    ]
    (anomaly,) = detect_out_of_order_parents(build_graph(records), CFG)
    assert hex_hash(1) in anomaly.evidence


def test_merge_exclusion_applies_per_edge():
    records = [
        make_record(0, committer_epoch=500, message="Merge branch"),
        make_record(1, committer_epoch=400),
        make_record(2, parents=[0, 1], committer_epoch=100),
    ]
    # Edge to parent 0 is excluded (merge), edge to parent 1 still flags.
    (anomaly,) = detect_out_of_order_parents(build_graph(records), CFG)
    assert anomaly.delta_seconds == 300
    assert hex_hash(1) in anomaly.evidence


def test_merge_child_suppresses_all_edges():
    records = [
        make_record(0, committer_epoch=500),
        make_record(1, parents=[0], committer_epoch=100, message="Merge remote branch"),
    ]
    assert detect_out_of_order_parents(build_graph(records), CFG) == []
    cfg = DetectorConfig(future_cutoff=CFG.future_cutoff, exclude_merges=False)
    assert len(detect_out_of_order_parents(build_graph(records), cfg)) == 1


def parents_oracle(records, cfg):
    """Independent pairwise edge scan: child hash -> worst positive delta."""
    by_hash = {r.hash: r for r in records}
    worst = {}
    for child in records:
        for parent_hash in child.parents:
            parent = by_hash.get(parent_hash)
            if parent is None:
                continue
            if cfg.exclude_merges and (
                is_merge_message(child.message) or is_merge_message(parent.message)
            ):
                continue
            delta = parent.date(cfg.date_field) - child.date(cfg.date_field)
            if delta > 0:
                worst[child.hash] = max(worst.get(child.hash, 0), delta)
    return worst


@st.composite
def dag_with_messages(draw, max_nodes: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    records = []
    for i in range(n):
        parents = draw(st.lists(st.integers(0, i - 1), max_size=3, unique=True)) if i else []
        records.append(
            make_record(
                i,
                parents=parents,
                committer_epoch=draw(st.integers(0, 1000)),
                message=draw(st.sampled_from(["update", "fix", "Merge branch 'x'"])),
            )
        )
    return records


@given(dag_with_messages(), st.booleans())
@settings(max_examples=150)
def test_parent_detector_matches_pairwise_oracle(records, exclude_merges):
    cfg = DetectorConfig(future_cutoff=CFG.future_cutoff, exclude_merges=exclude_merges)
    anomalies = detect_out_of_order_parents(build_graph(records), cfg)
    assert {a.commit_hash: a.delta_seconds for a in anomalies} == parents_oracle(records, cfg)
    assert all(a.delta_seconds >= 1 for a in anomalies)


@given(dag_with_messages())
def test_detectors_are_pure(records):
    graph = build_graph(records)
    first = detect_out_of_order_parents(graph, CFG)
    second = detect_out_of_order_parents(graph, CFG)
    assert first == second


def test_monotone_graph_is_clean():
    records = [make_record(i, parents=[i - 1] if i else [], committer_epoch=i * 100)
               for i in range(10)]
    assert detect_out_of_order_parents(build_graph(records), CFG) == []


# ---- Tool signatures ----


@pytest.mark.parametrize(
    "message,name",
    [
        ("git-svn-id: https://svn.example.org/trunk@123 abc", "git-svn-id"),
        ("fix\n\nChange-Id: I8a3f2c94", "Change-Id"),
        ("feature\n\nReviewed-by: J. Dev", "Reviewed-by"),
        ("port patch\n\nrebase_source: 9f8e7d6c", "rebase_source"),
        ("convert hg repository", "hg"),
        ("imported via HG bridge", "hg"),
        ("MOE sync of internal change 12345", "MOE"),
        ("synced by moe", "MOE"),
    ],
)
def test_signature_matches(message, name):
    (anomaly,) = detect_tool_signatures([make_record(1, message=message)])
    assert anomaly.kind is AnomalyKind.TOOL_SIGNATURE
    assert signature_name(anomaly) == name


@pytest.mark.parametrize(
    "message",
    [
        "bugfix",
        "change-id: lowercase is not the tool's spelling",
        "reviewed-by someone",          # footers are case-sensitive and need the colon
        "git-svn-id without a colon",
        "visiting highgate cemetery",   # no word boundary around "hg"
        "Moebius strip renderer",       # no word boundary around "MOE"
        "the churchgoers arrived",
    ],
)
def test_clean_messages_produce_nothing(message):
    assert detect_tool_signatures([make_record(1, message=message)]) == []


def test_one_anomaly_per_signature_pair():
    message = "import\n\ngit-svn-id: svn://x@1 y\nReviewed-by: Z"
    anomalies = detect_tool_signatures([make_record(1, message=message)])
    assert sorted(signature_name(a) for a in anomalies) == ["Reviewed-by", "git-svn-id"]


# Text from the signatures' letters in both cases, their non-ASCII
# neighbours (U+0130 lower-cases to two characters, U+0131 upper-cases to
# "I", U+017F and U+212A match "s" and "k" ignoring case), word breaks,
# colons and the footers themselves.
signature_text = st.lists(
    st.sampled_from(["h", "H", "g", "G", "m", "M", "o", "O", "e", "E", "hg", "Hg", "hG", "HG",
                     "moe", "MoE", "mOE", "MOE", "\u0130", "\u0131", "\u017f", "\u212a", "k",
                     "s", "\u00e9", "\u00df", " ", "_", "-", "\n", ":", *_FOOTER_SIGNATURES]),
    max_size=12,
).map("".join) | st.text(max_size=30)


@given(signature_text)
@settings(max_examples=400)
def test_the_prefilter_passes_every_message_a_signature_matches(message):
    footers = [name for name in _FOOTER_SIGNATURES if f"{name}:" in message]
    words = [name for name, pattern in _WORD_SIGNATURES if pattern.search(message)]
    if footers or words:
        assert _may_hold_signature(message)
    found = detect_tool_signatures([make_record(1, message=message)])
    assert [signature_name(a) for a in found] == footers + words


def test_every_character_a_word_signature_matches_lower_cases_to_its_letter():
    # The prefilter looks for "hg" and "moe" in the lower-cased message, so
    # no character may match one of their letters ignoring case and
    # lower-case to anything else.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for letter in "hgmoe":
        assert {c.lower() for c in re.findall(letter, every, re.IGNORECASE)} == {letter}


# ---- Verified mismatch ----


def test_verified_child_unverified_newer_parent_flagged():
    child_epoch = parse_utc("2019-05-04 17:56:00")
    parent_epoch = parse_utc("2019-05-04 18:39:00")
    records = [
        make_record(0, committer_epoch=parent_epoch, verified=False),
        make_record(1, parents=[0], committer_epoch=child_epoch, verified=True),
    ]
    (anomaly,) = detect_verified_mismatch(build_graph(records))
    assert anomaly.kind is AnomalyKind.VERIFIED_MISMATCH
    assert anomaly.commit_hash == hex_hash(1)


def test_a_childs_verified_mismatches_keep_its_parent_order():
    records = [
        make_record(5, committer_epoch=300, verified=False),
        make_record(3, committer_epoch=200, verified=False),
        make_record(9, parents=[5, 3], committer_epoch=100, verified=True),
    ]
    found = detect_verified_mismatch(build_graph(records))
    assert [a.commit_hash for a in found] == [hex_hash(9)] * 2
    assert [a.evidence.split("parent ")[1].split()[0] for a in found] == [hex_hash(5), hex_hash(3)]


def test_both_verified_not_this_detectors_problem():
    records = [
        make_record(0, committer_epoch=200, verified=True),
        make_record(1, parents=[0], committer_epoch=100, verified=True),
    ]
    graph = build_graph(records)
    assert detect_verified_mismatch(graph) == []
    assert len(detect_out_of_order_parents(graph, CFG)) == 1  # still out of order


def test_unknown_verification_yields_nothing():
    records = [make_record(0, committer_epoch=200), make_record(1, parents=[0], committer_epoch=100)]
    assert detect_verified_mismatch(build_graph(records)) == []


def test_ordered_verified_pair_not_flagged():
    records = [
        make_record(0, committer_epoch=100, verified=False),
        make_record(1, parents=[0], committer_epoch=200, verified=True),
    ]
    assert detect_verified_mismatch(build_graph(records)) == []
