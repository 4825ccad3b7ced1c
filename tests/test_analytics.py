"""Tests for aggregate tables: summaries, delta stats, histograms, tokens."""

import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolint.analytics import (
    HISTOGRAM_BOUNDS,
    HISTOGRAM_LABELS,
    STOPWORDS,
    DeltaStats,
    delta_histogram,
    delta_statistics,
    stem_token,
    summarize,
    token_frequency,
    top_committers,
    top_projects,
)
from chronolint.model import Anomaly, AnomalyKind
from conftest import hex_hash, make_record


OUT_OF_ORDER = (AnomalyKind.OUT_OF_ORDER_LINEAR, AnomalyKind.OUT_OF_ORDER_PARENT)


def anomaly(i: int, kind=AnomalyKind.OLD, repo="example/repo", delta=None):
    if delta is None and kind in OUT_OF_ORDER:
        delta = 1
    return Anomaly(
        kind=kind, commit_hash=hex_hash(i), repo_id=repo,
        evidence="test evidence", delta_seconds=delta,
    )


# ---- Independent oracles ----


def quantile_oracle(values, q):
    """Linear interpolation between closest ranks on the sorted sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q
    lo = math.floor(rank)
    frac = rank - lo
    if lo + 1 == len(ordered):
        return float(ordered[lo])
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def bucket_oracle(value):
    """Index of the first bucket whose bound the value does not exceed."""
    for i, bound in enumerate(HISTOGRAM_BOUNDS):
        if value <= bound:
            return i
    return len(HISTOGRAM_BOUNDS)


# ---- summarize ----


def test_summarize_empty_is_all_zeros():
    table = summarize([])
    assert set(table) == {k.value for k in AnomalyKind} | {"total"}
    assert all(row == {"commits": 0, "projects": 0} for row in table.values())


def test_summarize_counts_commits_and_projects():
    anomalies = [anomaly(1, repo="a/a"), anomaly(2, repo="a/a"), anomaly(3, repo="b/b")]
    table = summarize(anomalies)
    assert table["old"] == {"commits": 3, "projects": 2}
    assert table["total"] == {"commits": 3, "projects": 2}


def test_summarize_matches_group_by_oracle():
    anomalies = [
        anomaly(i, kind=kind, repo=f"repo/{i % 3}")
        for i, kind in enumerate(
            [AnomalyKind.OLD, AnomalyKind.OLD, AnomalyKind.FUTURE,
             AnomalyKind.TOOL_SIGNATURE, AnomalyKind.FUTURE, AnomalyKind.OLD]
        )
    ]
    table = summarize(anomalies)
    for kind in AnomalyKind:
        group = [a for a in anomalies if a.kind is kind]
        assert table[kind.value]["commits"] == len({a.commit_hash for a in group})
        assert table[kind.value]["projects"] == len({a.repo_id for a in group})


def test_summarize_total_dedups_across_kinds():
    anomalies = [anomaly(1, kind=AnomalyKind.OLD), anomaly(1, kind=AnomalyKind.FUTURE)]
    table = summarize(anomalies)
    assert table["total"]["commits"] == 1


@given(st.permutations([anomaly(i, kind=k) for i in range(5) for k in AnomalyKind]))
def test_summarize_is_permutation_invariant(shuffled):
    baseline = summarize(sorted(shuffled, key=lambda a: (a.kind.value, a.commit_hash)))
    assert summarize(shuffled) == baseline


# ---- delta_statistics ----


def test_single_observation():
    stats = delta_statistics([100])
    assert stats.n == 1
    assert stats.mean == 100.0
    assert stats.std == 0.0
    assert stats.min == stats.p25 == stats.p50 == stats.p75 == stats.max == 100


def test_symmetric_four_values():
    stats = delta_statistics([1, 2, 3, 4])
    assert stats.mean == 2.5
    assert stats.p50 == 2.5


def test_empty_deltas_refused():
    with pytest.raises(ValueError, match="no deltas"):
        delta_statistics([])
    with pytest.raises(ValueError, match="no deltas"):
        delta_histogram([])


def test_non_positive_deltas_refused():
    with pytest.raises(ValueError):
        delta_statistics([5, 0])


def test_planted_median_recovered():
    # Median should sit exactly on the planted center of an odd sample.
    sample = [60, 28_418, 200_000]
    assert delta_statistics(sample).p50 == 28_418


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=200))
@settings(max_examples=200)
def test_quantiles_match_sort_oracle(deltas):
    stats = delta_statistics(deltas)
    for q, got in ((0.25, stats.p25), (0.5, stats.p50), (0.75, stats.p75)):
        expected = quantile_oracle(deltas, q)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
    assert stats.min <= stats.p25 <= stats.p50 <= stats.p75 <= stats.max
    mean = sum(deltas) / len(deltas)
    variance = sum((d - mean) ** 2 for d in deltas) / len(deltas)
    assert stats.std == pytest.approx(math.sqrt(variance), rel=1e-9)


def test_stats_invariant_guard():
    with pytest.raises(ValueError):
        DeltaStats(n=2, mean=1.0, std=0.0, min=5, p25=4.0, p50=5.0, p75=5.0, max=5)


# ---- numpy as the reference ----
#
# The statistics reproduce numpy's float64 arithmetic, so they are compared
# with ==, not approximately. The sizes straddle the pairwise sum's 8- and
# 128-element blocks and numpy's 8192-element cast buffer; values reach
# int64's maximum, so the sums pass 2**53 and the floats round.


def assert_matches_numpy(deltas):
    arr = np.asarray(deltas, dtype=np.int64)
    p25, p50, p75 = np.percentile(arr, [25, 50, 75])
    assert delta_statistics(deltas).to_dict() == {
        "n": arr.size, "mean": float(arr.mean()), "std": float(arr.std()),
        "min": int(arr.min()), "p25": float(p25), "p50": float(p50), "p75": float(p75),
        "max": int(arr.max()),
    }
    bounds = np.array(HISTOGRAM_BOUNDS, dtype=np.int64)
    counts = np.bincount(np.searchsorted(bounds, arr, side="left"), minlength=len(bounds) + 1)
    assert [count for _, count in delta_histogram(deltas).buckets] == counts.tolist()


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 8191, 8192, 8193, 20000, 100000])
def test_statistics_equal_numpy_on_a_seeded_sweep(n):
    rng = random.Random(n)
    assert_matches_numpy([rng.randint(1, 2**63 - 1) for _ in range(n)])
    assert_matches_numpy([rng.randint(1, 31_536_001) for _ in range(n)])
    # Magnitudes from 1 to 2**62 in one array round differently at each size.
    assert_matches_numpy([int(2 ** rng.uniform(0, 62)) for _ in range(n)])


@given(st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=200), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_statistics_equal_numpy_on_drawn_arrays(values, repeats):
    # Repeating the drawn values crosses the 8192-element buffer boundary.
    assert_matches_numpy(values * repeats)


@pytest.mark.parametrize("deltas", [[2**62 + 1], [2**53 + 1] * 3, [5, 2**63 - 1]])
def test_quartiles_that_round_pass_the_order_guard(deltas):
    # float(2**62 + 1) is below the int minimum; the guard compares as floats.
    assert_matches_numpy(deltas)


# ---- delta_histogram ----


def test_bound_value_lands_in_its_bucket():
    hist = delta_histogram([30])
    assert hist.buckets[0] == (30, 1)
    assert hist.total == 1


def test_just_past_a_day_is_a_week():
    hist = delta_histogram([86_401])
    label_index = HISTOGRAM_LABELS.index("<=1w")
    assert hist.buckets[label_index][1] == 1


def test_beyond_a_year_is_open_bucket():
    hist = delta_histogram([31_536_001])
    assert hist.buckets[-1] == (None, 1)


def test_geometry():
    hist = delta_histogram([1])
    assert len(hist.buckets) == 11
    bounds = [b for b, _ in hist.buckets[:-1]]
    assert bounds == sorted(bounds)
    assert bounds == list(HISTOGRAM_BOUNDS)
    assert len(HISTOGRAM_LABELS) == 11


@given(st.lists(st.integers(1, 10**8), min_size=1, max_size=300))
@settings(max_examples=200)
def test_histogram_matches_recount_oracle(deltas):
    hist = delta_histogram(deltas)
    expected = Counter(bucket_oracle(d) for d in deltas)
    for i, (_, count) in enumerate(hist.buckets):
        assert count == expected.get(i, 0)
    assert hist.total == len(deltas)


# ---- token pipeline ----


@pytest.mark.parametrize(
    "token,stem",
    [
        ("fixed", "fix"),
        ("fixes", "fix"),
        ("fixing", "fix"),
        ("bugs", "bug"),
        ("added", "add"),
        ("updating", "updat"),
        ("changed", "chang"),
        ("merged", "merg"),
        ("process", "process"),   # "ss" blocks the bare -s rule
        ("passes", "pass"),
        ("apply", "appli"),       # trailing y folds to i
        ("applies", "appli"),
        ("empty", "empti"),
        ("sing", "sing"),         # too short to strip
        ("ing", "ing"),
        ("use", "use"),
    ],
)
def test_stemmer_rules(token, stem):
    assert stem_token(token) == stem


def test_token_frequency_hand_worked_example():
    table = token_frequency(["fixed bug", "fixes bug"])
    assert table == [("bug", 2), ("fix", 2)]


def test_all_stopwords_vanish():
    assert token_frequency(["the of and"]) == []


def test_excluded_term_drops_whole_message():
    messages = ["git-svn-id: svn://x \n update everything"]
    assert token_frequency(messages, exclude_terms={"git-svn-id"}) == []
    # Without the exclusion, the message contributes tokens.
    assert token_frequency(messages) != []


def test_contraction_fragments_are_stopworded():
    assert token_frequency(["don't won't can't"]) == []


def test_sort_order_count_then_token():
    table = token_frequency(["beta beta beta alpha alpha gamma"])
    assert table == [("beta", 3), ("alpha", 2), ("gamma", 1)]
    tied = token_frequency(["zeta kappa zeta kappa"])
    assert tied == [("kappa", 2), ("zeta", 2)]


@given(st.permutations(["fix bug", "bug squash", "release notes", "fix typo"]))
def test_token_frequency_order_invariant(messages):
    baseline = token_frequency(["fix bug", "bug squash", "release notes", "fix typo"])
    assert token_frequency(messages) == baseline


def reference_token_frequency(messages, exclude_terms=frozenset()):
    """The token table with every occurrence stemmed: the oracle for
    token_frequency, which stems each distinct token once."""
    counts = {}
    for message in messages:
        if any(term in message for term in exclude_terms):
            continue
        for token in re.findall(r"[a-z0-9]+", message.lower()):
            if token not in STOPWORDS:
                stem = stem_token(token)
                counts[stem] = counts.get(stem, 0) + 1
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


MESSAGE_WORDS = (
    st.sampled_from(sorted(STOPWORDS))
    | st.builds("{}{}".format, st.text("abdeginpsy019", max_size=4),
                st.sampled_from(["ing", "ed", "es", "ss", "s", "y", ""]))
    | st.text(max_size=4))
MESSAGES = st.lists(
    st.lists(st.tuples(MESSAGE_WORDS, st.sampled_from([str, str.upper, str.title]),
                       st.sampled_from([" ", "-", "'", "\n", ": ", ""])),
             max_size=8)
    .map(lambda words: "".join(case(word) + sep for word, case, sep in words)),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(MESSAGES, st.sets(st.sampled_from(["Fix", "fix", "ed ", "-", "git-svn-id"])
                         | st.text(min_size=1, max_size=2), max_size=2))
def test_token_frequency_matches_stemming_every_occurrence(messages, exclude_terms):
    assert token_frequency(messages) == reference_token_frequency(messages)
    assert (token_frequency(messages, exclude_terms=exclude_terms)
            == reference_token_frequency(messages, exclude_terms))


# ---- top-K attribution ----


def test_single_committer_counted_per_commit():
    records = [make_record(i, committer="alice") for i in range(3)]
    anomalies = [anomaly(i) for i in range(3)]
    assert top_committers(anomalies, {r.hash: r.committer_id for r in records}) == [("alice", 3)]


def test_two_kinds_same_commit_count_once():
    records = [make_record(1, committer="alice")]
    anomalies = [anomaly(1, kind=AnomalyKind.OLD), anomaly(1, kind=AnomalyKind.FUTURE)]
    assert top_committers(anomalies, {r.hash: r.committer_id for r in records}) == [("alice", 1)]


def test_nameless_committers_grouped():
    records = [make_record(1, committer=""), make_record(2, committer="   ")]
    anomalies = [anomaly(1), anomaly(2)]
    assert top_committers(anomalies, {r.hash: r.committer_id for r in records}) == [("(no name)", 2)]


def test_twenty_five_committers_gives_twenty_rows():
    records, anomalies = [], []
    next_id = 0
    for c in range(25):
        for _ in range(c + 1):  # committer c authors c+1 flagged commits
            records.append(make_record(next_id, committer=f"dev{c:02d}"))
            anomalies.append(anomaly(next_id))
            next_id += 1
    rows = top_committers(anomalies, {r.hash: r.committer_id for r in records}, k=20)
    assert len(rows) == 20

    oracle = Counter(f"dev{c:02d}" for c in range(25) for _ in range(c + 1))
    expected = sorted(oracle.items(), key=lambda item: (-item[1], item[0]))[:20]
    assert rows == expected


def test_unknown_hashes_ignored():
    records = [make_record(1)]
    anomalies = [anomaly(1), anomaly(99)]
    assert top_committers(anomalies, {r.hash: r.committer_id for r in records}) == [("alice", 1)]


def test_top_projects_counts_and_ties():
    anomalies = [anomaly(1, repo="b/b"), anomaly(2, repo="b/b"),
                 anomaly(3, repo="a/a"), anomaly(4, repo="a/a"), anomaly(5, repo="c/c")]
    assert top_projects(anomalies) == [("a/a", 2), ("b/b", 2), ("c/c", 1)]


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from(["a/a", "b/b", "c/c", "d/d"])),
        max_size=50,
    ),
    st.integers(1, 4),
)
def test_top_projects_prefix_property(pairs, k):
    anomalies = [anomaly(i, repo=repo) for i, repo in pairs]
    assert top_projects(anomalies, k=k) == top_projects(anomalies, k=k + 1)[:k]
