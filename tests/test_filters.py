"""Tests for cleaning policies and their removal ledgers."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolint.detectors import DetectorConfig, detect_old, detect_out_of_order_parents
from chronolint.filters import (
    _KINDS,
    FilterPolicy,
    apply_policies,
    apply_policy,
    load_policies,
    policy_from_object,
    repo_star_table,
)
from chronolint.graph import build_graph
from chronolint.model import parse_utc
from conftest import hex_hash, make_record, repo_id_spellings

CFG = DetectorConfig(future_cutoff=parse_utc("2019-10-31"))


def assert_balanced(ledger, input_count):
    assert ledger.removed_commits + ledger.retained_commits == input_count
    assert ledger.removed_commits >= 0 and ledger.retained_commits >= 0


# ---- MinTimestamp ----


def test_min_timestamp_boundary():
    records = [make_record(i, committer_epoch=e) for i, e in enumerate([-5, 0, 1, 100])]
    kept, ledger = apply_policy(records, FilterPolicy("MinTimestamp"))
    assert [r.committer_date for r in kept] == [1, 100]
    assert_balanced(ledger, 4)
    assert ledger.policy.value == 1


def test_min_timestamp_identity_when_all_positive():
    records = [make_record(i, committer_epoch=e) for i, e in enumerate([1, 50, 900])]
    kept, ledger = apply_policy(records, FilterPolicy("MinTimestamp"))
    assert kept == records
    assert ledger.removed_commits == 0


def test_min_timestamp_removes_most_old_flagged():
    # 50 commits below the old cutoff, 49 of them at epoch <= 0.
    old = [make_record(i, committer_epoch=-i) for i in range(49)]
    old.append(make_record(49, committer_epoch=10))
    modern = [make_record(100 + i, committer_epoch=1_500_000_000) for i in range(50)]
    records = old + modern

    flagged_before = {a.commit_hash for a in detect_old(records, CFG)}
    assert len(flagged_before) == 50

    kept, _ = apply_policy(records, FilterPolicy("MinTimestamp"))
    flagged_after = {a.commit_hash for a in detect_old(kept, CFG)}
    removed_fraction = 1 - len(flagged_after) / len(flagged_before)
    assert removed_fraction >= 0.98


# ---- BeforeDate ----


def test_before_date_strict_boundary():
    cutoff = parse_utc("2014-01-01")
    records = [
        make_record(1, committer_epoch=parse_utc("2013-12-31")),
        make_record(2, committer_epoch=cutoff),
    ]
    kept, ledger = apply_policy(records, FilterPolicy("BeforeDate", cutoff))
    assert [r.hash for r in kept] == [hex_hash(2)]
    assert_balanced(ledger, 2)


def test_before_date_recount_oracle():
    cutoff = parse_utc("2014-01-01")
    records = [
        make_record(year * 100 + month,
                    committer_epoch=parse_utc(f"{year}-{month:02d}-15"))
        for year in range(2010, 2017)
        for month in range(1, 13)
    ]
    kept, ledger = apply_policy(records, FilterPolicy("BeforeDate", cutoff))
    expected_removed = sum(
        1 for r in records if r.committer_date < cutoff
    )
    assert expected_removed == 4 * 12
    assert ledger.removed_commits == expected_removed
    assert len(kept) == len(records) - expected_removed


def test_before_date_extremes():
    records = [make_record(i, committer_epoch=1000 + i) for i in range(5)]
    kept, _ = apply_policy(records, FilterPolicy("BeforeDate", -(10**15)))
    assert kept == records
    kept, ledger = apply_policy(records, FilterPolicy("BeforeDate", 10**15))
    assert kept == []
    assert ledger.removed_projects == 1


# ---- ProjectBlocklist ----


def test_empty_blocklist_is_identity():
    records = [make_record(1), make_record(2)]
    kept, ledger = apply_policy(records, FilterPolicy("ProjectBlocklist", frozenset()))
    assert kept == records
    assert ledger.removed_projects == 0


def test_blocklist_drops_whole_repo():
    records = [make_record(1, repo="keep/me"), make_record(2, repo="drop/me"),
               make_record(3, repo="drop/me")]
    kept, ledger = apply_policy(records, FilterPolicy("ProjectBlocklist", {"drop/me"}))
    assert [r.repo_id for r in kept] == ["keep/me"]
    assert ledger.removed_commits == 2
    assert ledger.removed_projects == 1


def test_blocklist_ids_are_canonicalized():
    records = [make_record(1, repo="example/repo")]
    kept, _ = apply_policy(records, FilterPolicy("ProjectBlocklist", {"Example/Repo.git"}))
    assert kept == []


def test_blocklist_removal_matches_size_oracle():
    sizes = {"a/a": 5, "b/b": 3, "c/c": 2}
    records = [
        make_record(ord(repo[0]) * 100 + i, repo=repo)
        for repo, n in sizes.items()
        for i in range(n)
    ]
    top_two = {"a/a", "b/b"}
    kept, ledger = apply_policy(records, FilterPolicy("ProjectBlocklist", top_two))
    assert ledger.removed_commits == sizes["a/a"] + sizes["b/b"]
    assert ledger.removed_projects == 2
    assert {r.repo_id for r in kept} == {"c/c"}


# ---- DropOutOfOrder ----


def clean_chain(repo: str, base: int, n: int = 5):
    return [
        make_record(base + i, parents=[base + i - 1] if i else [],
                    committer_epoch=1000 + 100 * i, repo=repo)
        for i in range(n)
    ]


def dirty_chain(repo: str, base: int):
    # Middle commit is dated before its parent.
    records = clean_chain(repo, base, 5)
    bad = make_record(base + 2, parents=[base + 1], committer_epoch=100, repo=repo)
    records[2] = bad
    records[3] = make_record(base + 3, parents=[base + 2], committer_epoch=1300, repo=repo)
    return records


def test_clean_repo_identity_either_scope():
    records = clean_chain("r", 0)
    for scope in ("commit", "project"):
        kept, ledger = apply_policy(records, FilterPolicy("DropOutOfOrder", scope), CFG)
        assert kept == records
        assert ledger.removed_commits == 0


def test_commit_scope_drops_only_flagged():
    records = dirty_chain("r", 0)
    flagged = {a.commit_hash for a in detect_out_of_order_parents(build_graph(records), CFG)}
    assert flagged == {hex_hash(2)}
    kept, ledger = apply_policy(records, FilterPolicy("DropOutOfOrder", "commit"), CFG)
    assert len(kept) == len(records) - 1
    assert hex_hash(2) not in {r.hash for r in kept}
    assert_balanced(ledger, len(records))


def test_project_scope_drops_whole_dirty_repo():
    records = clean_chain("clean/repo", 0) + dirty_chain("dirty/repo", 100)
    kept, ledger = apply_policy(records, FilterPolicy("DropOutOfOrder", "project"), CFG)
    assert {r.repo_id for r in kept} == {"clean/repo"}
    assert len(kept) == 5
    assert ledger.removed_projects == 1
    assert ledger.removed_commits == 5


def test_prebuilt_graph_gives_same_answer():
    # Records of two repos, interleaved: the filter groups them itself.
    dirty, clean = dirty_chain("r", 0), clean_chain("s", 10)
    records = [rec for pair in zip(dirty, clean) for rec in pair]
    flagged = {
        a.commit_hash
        for chain in (dirty, clean)
        for a in detect_out_of_order_parents(build_graph(chain), CFG)
    }
    kept, _ = apply_policy(records, FilterPolicy("DropOutOfOrder"), CFG)
    assert kept == [r for r in records if r.hash not in flagged]
    assert flagged == {hex_hash(2)}


@st.composite
def multi_repo_chains(draw):
    records = []
    base = 0
    for repo in ("one/repo", "two/repo"):
        n = draw(st.integers(min_value=1, max_value=8))
        for i in range(n):
            records.append(
                make_record(
                    base + i,
                    parents=[base + i - 1] if i else [],
                    committer_epoch=draw(st.integers(0, 500)),
                    repo=repo,
                )
            )
        base += n
    return records


@given(multi_repo_chains())
@settings(max_examples=100)
def test_project_scope_subset_of_commit_scope(records):
    commit_kept, _ = apply_policy(records, FilterPolicy("DropOutOfOrder", "commit"), CFG)
    project_kept, _ = apply_policy(records, FilterPolicy("DropOutOfOrder", "project"), CFG)
    assert {r.hash for r in project_kept} <= {r.hash for r in commit_kept}


# ---- Stars ----


def test_min_stars_zero_is_identity():
    records = [make_record(1, stars=5), make_record(2)]  # second has no star data
    kept, _ = apply_policy(records, FilterPolicy("MinStars", 0))
    assert kept == records


def test_exact_star_threshold_is_kept():
    records = [make_record(1, stars=50, repo="fifty/stars"),
               make_record(2, stars=49, repo="fortynine/stars")]
    kept, _ = apply_policy(records, FilterPolicy("MinStars", 50))
    assert [r.repo_id for r in kept] == ["fifty/stars"]


def test_missing_stars_mean_zero():
    records = [make_record(1, repo="unknown/stars")]
    kept, ledger = apply_policy(records, FilterPolicy("MinStars", 1))
    assert kept == []
    assert ledger.removed_projects == 1


def test_star_table_uses_max_per_repo():
    records = [make_record(1, repo="r", stars=None), make_record(2, repo="r", stars=7)]
    assert repo_star_table(records) == {"r": 7}


def test_remaining_bad_fraction_shrinks_with_threshold():
    plan = [("low/repo", 0, 8), ("mid/repo", 10, 4), ("high/repo", 50, 1), ("top/repo", 100, 0)]
    records = []
    i = 0
    for repo, stars, bad in plan:
        for j in range(10):
            epoch = 0 if j < bad else 1_500_000_000  # bad commits sit at epoch 0
            records.append(make_record(i, repo=repo, stars=stars, committer_epoch=epoch))
            i += 1

    fractions = []
    for threshold in (0, 10, 50, 100):
        kept, _ = apply_policy(records, FilterPolicy("MinStars", threshold))
        bad_left = len(detect_old(kept, CFG))
        fractions.append(bad_left / len(kept))
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[-1] == 0.0


def top_k_repos(repos, k):
    """The repos TopKStars keeps, of one record per (repo, stars) pair."""
    records = [make_record(i, repo=repo, stars=stars) for i, (repo, stars) in enumerate(repos)]
    kept, _ = apply_policy(records, FilterPolicy("TopKStars", k))
    return {r.repo_id for r in kept}


def test_top_k_returns_all_when_short():
    assert top_k_repos([("a", 1), ("b", 2), ("c", 3)], k=5) == {"a", "b", "c"}


def test_top_k_picks_highest():
    assert top_k_repos([("a", 10), ("b", 10), ("c", 5)], k=2) == {"a", "b"}


def test_top_k_boundary_tie_prefers_smaller_id():
    repos = [("zebra/repo", 10), ("beta/repo", 5), ("alpha/repo", 5)]
    candidates = [{"zebra/repo", "beta/repo"}, {"zebra/repo", "alpha/repo"}]
    chosen = top_k_repos(repos, k=2)
    assert chosen in candidates
    assert chosen == {"zebra/repo", "alpha/repo"}


def test_top_k_rejects_bad_k():
    with pytest.raises(ValueError):
        FilterPolicy("TopKStars", 0)


def test_top_k_filter_keeps_only_top_repos():
    records = [make_record(1, repo="big/repo", stars=100),
               make_record(2, repo="small/repo", stars=1),
               make_record(3, repo="big/repo", stars=100)]
    kept, ledger = apply_policy(records, FilterPolicy("TopKStars", 1))
    assert {r.repo_id for r in kept} == {"big/repo"}
    assert ledger.removed_commits == 1


# ---- Cross-cutting properties ----

# Candidate policy-file values for each JSON type a kind's field takes.
CANDIDATES = {
    int: [-1, 0, 1, 5, 20],
    str: ["commit", "project", "1970-01-01T00:00:05Z"],
    list: [[], ["Two/Repo.git"]],
}


def every_policy():
    """One policy per kind and candidate value (or none) that the kind
    accepts, so that a new kind, and both DropOutOfOrder scopes, are
    covered without being named here."""
    for kind, spec in sorted(_KINDS.items()):
        types = spec.json_type if isinstance(spec.json_type, tuple) else (spec.json_type,)
        for value in [None, *(v for t in types for v in CANDIDATES[t])]:
            try:
                yield policy_from_object({"kind": kind} if value is None
                                         else {"kind": kind, spec.field: value})
            except ValueError:
                continue


EVERY_POLICY = list(every_policy())
# TopKStars ranks the repos present, so it depends on what ran before it.
INDEPENDENT = [p for p in EVERY_POLICY if p.kind != "TopKStars"]


def test_every_kind_has_a_policy_under_test():
    assert {p.kind for p in EVERY_POLICY} == set(_KINDS)
    assert {p.value for p in EVERY_POLICY if p.kind == "DropOutOfOrder"} == {"commit", "project"}


def two_repo_records(pairs):
    return [make_record(i, committer_epoch=e, repo=repo,
                        stars=10 if repo == "two/repo" else None)
            for i, (e, repo) in enumerate(pairs)]


@given(
    st.lists(
        st.tuples(st.integers(-100, 100), st.sampled_from(["one/repo", "two/repo"])),
        max_size=30,
    ),
    st.sampled_from(INDEPENDENT),
)
def test_independent_filters_commute(pairs, other):
    records = two_repo_records(pairs)
    for policy in INDEPENDENT:
        a, _ = apply_policy(apply_policy(records, policy, CFG)[0], other, CFG)
        b, _ = apply_policy(apply_policy(records, other, CFG)[0], policy, CFG)
        assert a == b


@given(st.lists(st.tuples(st.integers(-50, 50), st.sampled_from(["one/repo", "two/repo"])),
                max_size=25))
def test_every_filter_partitions(pairs):
    records = two_repo_records(pairs)
    input_hashes = {r.hash for r in records}
    for policy in EVERY_POLICY:
        kept, ledger = apply_policy(records, policy, CFG)
        assert ledger.policy is policy
        assert_balanced(ledger, len(records))
        kept_hashes = {r.hash for r in kept}
        assert kept_hashes <= input_hashes
        assert len(kept) == ledger.retained_commits


# ---- Policy files ----


ALL_KINDS_DOC = {
    "policies": [
        {"kind": "MinTimestamp"},
        {"kind": "BeforeDate", "cutoff": "2014-01-01"},
        {"kind": "ProjectBlocklist", "blocklist": ["bad/repo"]},
        {"kind": "DropOutOfOrder", "scope": "project"},
        {"kind": "MinStars", "min_stars": 5},
        {"kind": "TopKStars", "k": 2},
    ]
}


def test_load_policies_all_kinds(tmp_path):
    path = tmp_path / "policies.json"
    path.write_text(json.dumps(ALL_KINDS_DOC))
    policies = load_policies(path)
    assert [p.kind for p in policies] == [d["kind"] for d in ALL_KINDS_DOC["policies"]]
    assert policies[0].value == 1  # default applied
    assert policies[1].value == parse_utc("2014-01-01")
    assert policies[2].value == frozenset({"bad/repo"})
    assert policies[3].value == "project"


def test_load_policies_bare_array(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([{"kind": "MinTimestamp", "min_ts": 10}]))
    (policy,) = load_policies(path)
    assert policy.value == 10


@pytest.mark.parametrize(
    "bad",
    [
        {"kind": "Nonsense"},
        {"kind": "BeforeDate"},                      # missing cutoff
        {"kind": "TopKStars", "k": 0},
        {"kind": "MinStars", "min_stars": -1},
        {"kind": "MinTimestamp", "surprise": True},  # unknown field
        {"kind": "DropOutOfOrder", "scope": "file"},
        {"kind": "BeforeDate", "cutoff": 1.5},
        # Typed fields: bool is not an int, a string is not a list of ids.
        5,
        {"kind": "MinTimestamp", "min_ts": "x"},
        {"kind": "MinTimestamp", "min_ts": True},
        {"kind": "MinTimestamp", "min_ts": 1.5},
        {"kind": "MinStars", "min_stars": "5"},
        {"kind": "MinStars", "min_stars": True},
        {"kind": "TopKStars", "k": 2.5},
        {"kind": "TopKStars", "k": True},
        {"kind": "BeforeDate", "cutoff": True},
        {"kind": "ProjectBlocklist", "blocklist": "abc"},
        {"kind": "ProjectBlocklist", "blocklist": [5]},
        {"kind": "ProjectBlocklist", "blocklist": {"a/b": 1}},
        {"kind": "TopKStars", "k": 3, "min_ts": "x"},
        # A kind takes only its own field; the first two were accepted
        # before that rule. `{"kind": 5}` was refused before too, as an
        # unknown kind (a guard); its message is pinned below.
        {"kind": "TopKStars", "k": 3, "min_ts": 5},
        {"kind": "MinTimestamp", "scope": "project"},
        {"kind": 5},
    ],
)
def test_bad_policy_dicts_rejected(bad):
    with pytest.raises(ValueError):
        policy_from_object(bad)


@pytest.mark.parametrize("bad, reason", [
    ({"kind": "TopKStars", "k": 3, "min_ts": 5}, "TopKStars takes only 'k', got ['min_ts']"),
    ({"kind": "MinTimestamp", "scope": "project"},
     "MinTimestamp takes only 'min_ts', got ['scope']"),
    ({"kind": 5}, "kind must be a string, got int"),
    ({"kind": "TopKStars", "k": True}, "k must be an integer, got bool"),
    ({"kind": "BeforeDate", "cutoff": 1.5}, "cutoff must be an integer or a string, got float"),
    ({"kind": "ProjectBlocklist", "blocklist": [5]}, "a blocklist entry must be a string, got int"),
    ({"kind": "MinStars", "min_stars": -1}, "MinStars needs min_stars >= 0, got -1"),
    ({"kind": "BeforeDate"}, "BeforeDate needs cutoff"),
], ids=["k-with-min_ts", "min_ts-with-scope", "kind-int", "k-bool", "cutoff-float",
        "blocklist-int", "min_stars-negative", "cutoff-missing"])
def test_bad_policy_dict_reason_names_the_field(bad, reason):
    # Each row failed before the one-field rule and the shared JSON type
    # check: the first two were accepted, and the rest had other messages.
    with pytest.raises(ValueError) as raised:
        policy_from_object(bad)
    assert str(raised.value) == reason


def test_a_policy_takes_only_its_own_field_from_python_too():
    assert FilterPolicy("TopKStars", 3).to_dict() == {"kind": "TopKStars", "k": 3}


def test_policy_dict_round_trip():
    samples = [
        FilterPolicy("MinTimestamp", 3),
        FilterPolicy("BeforeDate", 1388534400),
        FilterPolicy("ProjectBlocklist", frozenset({"x/y", "a/b"})),
        FilterPolicy("DropOutOfOrder", "commit"),
        FilterPolicy("MinStars", 0),
        FilterPolicy("TopKStars", 9),
    ]
    for policy in samples:
        assert policy_from_object(policy.to_dict()) == policy


@example(frozenset({"Org/X.git.git", "Org/X .git"}))
@given(st.frozensets(repo_id_spellings, max_size=6))
def test_a_blocklist_policy_round_trips_through_its_file_form(entries):
    # {"Org/X.git.git"} was stored as org/x.git, then read back as org/x.
    policy = FilterPolicy("ProjectBlocklist", entries)
    assert policy_from_object(json.loads(json.dumps(policy.to_dict()))) == policy


def test_a_policy_loads_a_given_value_from_python_too():
    # A date string for BeforeDate raised TypeError in apply_policy before.
    policy = FilterPolicy("BeforeDate", "2014-01-01")
    assert policy == FilterPolicy("BeforeDate", 1388534400)
    records = [make_record(0, committer_epoch=1388534399),
               make_record(1, committer_epoch=1388534400)]
    kept, ledger = apply_policy(records, policy)
    assert [r.hash for r in kept] == [hex_hash(1)] and ledger.removed_commits == 1


def test_apply_policies_chains_ledgers():
    records = (
        [make_record(i, committer_epoch=-5, repo="bad/repo") for i in range(3)]
        + [make_record(10 + i, committer_epoch=1_500_000_000, repo="good/repo", stars=10)
           for i in range(4)]
    )
    policies = [policy_from_object(d) for d in ALL_KINDS_DOC["policies"][:3]]
    kept, ledgers = apply_policies(records, policies, CFG)
    assert len(ledgers) == 3
    # Chain arithmetic: each step consumed the previous step's survivors.
    counts = [len(records)] + [ledger.retained_commits for ledger in ledgers]
    for ledger, input_count in zip(ledgers, counts):
        assert ledger.removed_commits + ledger.retained_commits == input_count
    assert [r.repo_id for r in kept] == ["good/repo"] * 4

