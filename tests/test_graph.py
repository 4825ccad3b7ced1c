"""Tests for repo grouping, commit-graph construction, topological order, and edges."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolint.graph import (
    CommitGraph,
    CycleDetected,
    build_graph,
    group_by_repo,
    topological_order,
)
from chronolint.model import CommitRecord


def h(i: int) -> str:
    return f"{i:040x}"


def record(i: int, parents=(), epoch: int = 0, repo: str = "r") -> CommitRecord:
    return CommitRecord(
        hash=h(i),
        repo_id=repo,
        parents=tuple(h(p) for p in parents),
        author_date=epoch,
        committer_date=epoch,
        author_id="a",
        committer_id="c",
        message=f"commit {i}",
    )


# ---- Independent oracle: exhaustive enumeration of valid orders ----


def all_valid_orders(graph: CommitGraph):
    """Every permutation of nodes in which each parent precedes its child."""
    hashes = sorted(graph.nodes)
    for perm in itertools.permutations(hashes):
        position = {node: i for i, node in enumerate(perm)}
        if all(
            position[parent] < position[child]
            for child, parents in graph.edges.items()
            for parent in parents
        ):
            yield list(perm)


def rule_predicted_order(graph: CommitGraph):
    """The tie-break rule picks the key-lexicographically smallest valid order."""
    def keyed(order):
        return [(graph.nodes[node].committer_date, node) for node in order]

    return min(all_valid_orders(graph), key=keyed)


# ---- Construction ----


def test_chain_shape():
    graph = build_graph([record(0), record(1, [0]), record(2, [1])])
    assert len(graph.nodes) == 3
    assert graph.edge_count == 2
    assert graph.dangling_parents == []


def test_dangling_parent_recorded_not_fatal():
    graph = build_graph([record(1, [99])])
    assert graph.dangling_parents == [(h(1), h(99))]
    assert graph.edges[h(1)] == []


def test_two_cycle_detected():
    a = record(0, [1])
    b = record(1, [0])
    with pytest.raises(CycleDetected) as excinfo:
        build_graph([a, b])
    assert set(excinfo.value.cycle) == {h(0), h(1)}


def test_self_parent_detected():
    with pytest.raises(CycleDetected) as excinfo:
        build_graph([record(0, [0])])
    assert excinfo.value.cycle == [h(0)]


def test_cycle_reported_even_with_healthy_prefix():
    records = [record(0), record(1, [0]), record(2, [3]), record(3, [2])]
    with pytest.raises(CycleDetected) as excinfo:
        build_graph(records)
    assert set(excinfo.value.cycle) == {h(2), h(3)}


def test_duplicate_hashes_rejected():
    with pytest.raises(ValueError):
        build_graph([record(0), record(0)])


def test_mixed_repos_rejected():
    with pytest.raises(ValueError):
        build_graph([record(0, repo="r1"), record(1, repo="r2")])


def test_empty_input_builds_empty_graph():
    graph = build_graph([])
    assert graph.nodes == {}
    assert topological_order(graph) == []
    assert graph.edges == {}
    assert graph.edge_count == 0


# ---- Topological order ----


def test_chain_order():
    graph = build_graph([record(2, [1]), record(0), record(1, [0])])
    assert topological_order(graph) == [h(0), h(1), h(2)]


def test_single_node():
    graph = build_graph([record(7)])
    assert topological_order(graph) == [h(7)]


def test_diamond_tie_break():
    # 0 <- {1, 2} <- 3, committer dates: node1=10, node2=5.
    graph = build_graph(
        [record(0, epoch=1), record(1, [0], epoch=10), record(2, [0], epoch=5),
         record(3, [1, 2], epoch=20)]
    )
    expected = rule_predicted_order(graph)
    assert expected == [h(0), h(2), h(1), h(3)]  # earlier date wins the tie
    got = topological_order(graph)
    assert got in list(all_valid_orders(graph))
    assert got == expected


def test_equal_dates_fall_back_to_hash():
    graph = build_graph([record(0), record(2, [0]), record(1, [0]), record(3, [1, 2])])
    assert topological_order(graph) == [h(0), h(1), h(2), h(3)]


# ---- Edges ----


def edge_deltas(graph):
    """(child, parent, parent epoch - child epoch) for each resolved edge."""
    return sorted(
        (child, parent,
         graph.nodes[parent].committer_date - graph.nodes[child].committer_date)
        for child, parents in graph.edges.items()
        for parent in parents
    )


def test_parent_newer_gives_positive_delta():
    graph = build_graph([record(0, epoch=200), record(1, [0], epoch=100)])
    assert graph.edges == {h(0): [], h(1): [h(0)]}
    assert edge_deltas(graph) == [(h(1), h(0), 100)]


def test_equal_dates_give_zero_delta():
    graph = build_graph([record(0, epoch=100), record(1, [0], epoch=100)])
    assert edge_deltas(graph) == [(h(1), h(0), 0)]


def test_anomalous_edge_count():
    # Five edges; exactly the two into node 0 (epoch 500) point at a newer parent.
    records = [
        record(0, epoch=500),
        record(1, [0], epoch=100),     # parent newer: +400
        record(2, [0, 1], epoch=300),  # parent 0 newer (+200), parent 1 older (-200)
        record(3, [1, 2], epoch=400),  # both parents older
    ]
    expected_positive = sum(
        1
        for rec in records
        for parent in rec.parents
        if next(r for r in records if r.hash == parent).committer_date > rec.committer_date
    )
    assert expected_positive == 2

    graph = build_graph(records)
    assert graph.edge_count == 5
    deltas = edge_deltas(graph)
    assert len(deltas) == 5
    assert sum(1 for _, _, d in deltas if d > 0) == expected_positive


def test_dangling_edges_excluded_from_deltas():
    graph = build_graph([record(0), record(1, [0, 42])])
    assert graph.edges[h(1)] == [h(0)]
    assert graph.edge_count == 1
    assert graph.dangling_parents == [(h(1), h(42))]


# ---- Properties over random DAGs ----


@st.composite
def dag_records(draw, max_nodes: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    records = []
    for i in range(n):
        parents = draw(
            st.lists(st.integers(0, i - 1), max_size=3, unique=True)
        ) if i else []
        epoch = draw(st.integers(min_value=0, max_value=5))
        records.append(record(i, parents, epoch=epoch))
    return records


@given(dag_records(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_order_is_valid_and_permutation_invariant(records, rng):
    graph = build_graph(records)
    order = topological_order(graph)

    assert len(order) == len(graph.nodes)
    position = {node: i for i, node in enumerate(order)}
    for child, parents in graph.edges.items():
        for parent in parents:
            assert position[parent] < position[child]

    shuffled = list(records)
    rng.shuffle(shuffled)
    regraph = build_graph(shuffled)
    assert topological_order(regraph) == order
    assert regraph.edges == graph.edges


@given(dag_records(max_nodes=6))
@settings(max_examples=60)
def test_order_matches_enumeration_oracle(records):
    graph = build_graph(records)
    assert topological_order(graph) == rule_predicted_order(graph)


@given(dag_records())
def test_delta_cardinality(records):
    graph = build_graph(records)
    total_refs = sum(len(r.parents) for r in records)
    assert graph.edge_count == total_refs - len(graph.dangling_parents)
    assert len(edge_deltas(graph)) == graph.edge_count


# ---- Grouping ----


def test_group_by_repo_keeps_input_order_within_each_repo():
    records = [record(0, repo="b"), record(1, repo="a"), record(2, repo="b"), record(3, repo="a")]
    groups = group_by_repo(records)
    assert groups == {"b": [records[0], records[2]], "a": [records[1], records[3]]}
    for group in groups.values():
        assert build_graph(group).repo_id == group[0].repo_id
