"""Tests for repo grouping, commit-graph construction, topological order, and edges."""

import gc
import heapq
import itertools
import logging
import random
import tracemalloc
from collections import defaultdict

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
from chronolint.detectors import (
    DetectorConfig,
    detect_out_of_order_parents,
    detect_verified_mismatch,
    is_merge_message,
)
from chronolint.model import Anomaly, AnomalyKind, CommitRecord, format_utc


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


def hash_view(graph: CommitGraph):
    """(nodes, edges): each hash mapped to its record, and each child hash
    to its resolved parent hashes, read off the graph's rows."""
    records = graph.records
    nodes = {rec.hash: rec for rec in records}
    edges = {rec.hash: [records[parent].hash for parent in graph.parents(row)]
             for row, rec in enumerate(records)}
    return nodes, edges


# ---- Independent oracle: exhaustive enumeration of valid orders ----


def all_valid_orders(graph: CommitGraph):
    """Every permutation of nodes in which each parent precedes its child."""
    nodes, edges = hash_view(graph)
    hashes = sorted(nodes)
    for perm in itertools.permutations(hashes):
        position = {node: i for i, node in enumerate(perm)}
        if all(
            position[parent] < position[child]
            for child, parents in edges.items()
            for parent in parents
        ):
            yield list(perm)


def rule_predicted_order(graph: CommitGraph):
    """The tie-break rule picks the key-lexicographically smallest valid order."""
    nodes, _ = hash_view(graph)

    def keyed(order):
        return [(nodes[node].committer_date, node) for node in order]

    return min(all_valid_orders(graph), key=keyed)


# ---- Construction ----


def test_chain_shape():
    graph = build_graph([record(0), record(1, [0]), record(2, [1])])
    assert len(hash_view(graph)[0]) == 3
    assert graph.edge_count == 2
    assert graph.dangling_parents == []


def test_dangling_parent_recorded_not_fatal():
    graph = build_graph([record(1, [99])])
    assert graph.dangling_parents == [(h(1), h(99))]
    assert hash_view(graph)[1][h(1)] == []


def test_a_dangling_parent_is_logged_at_debug_level_from_build_graph(caplog):
    with caplog.at_level(logging.DEBUG, logger="chronolint.graph"):
        build_graph([record(1, [99]), record(2, [98, 97])])
    assert [(r.name, r.levelname, r.funcName, r.getMessage()) for r in caplog.records] == [
        ("chronolint.graph", "DEBUG", "build_graph", "r: 3 dangling parent reference(s)")]


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
    assert hash_view(graph)[0] == {}
    assert topological_order(graph) == []
    assert hash_view(graph)[1] == {}
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
    nodes, edges = hash_view(graph)
    return sorted(
        (child, parent,
         nodes[parent].committer_date - nodes[child].committer_date)
        for child, parents in edges.items()
        for parent in parents
    )


def test_parent_newer_gives_positive_delta():
    graph = build_graph([record(0, epoch=200), record(1, [0], epoch=100)])
    assert hash_view(graph)[1] == {h(0): [], h(1): [h(0)]}
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
    assert hash_view(graph)[1][h(1)] == [h(0)]
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
    nodes, edges = hash_view(graph)

    assert len(order) == len(nodes)
    position = {node: i for i, node in enumerate(order)}
    for child, parents in edges.items():
        for parent in parents:
            assert position[parent] < position[child]

    shuffled = list(records)
    rng.shuffle(shuffled)
    regraph = build_graph(shuffled)
    assert topological_order(regraph) == order
    assert hash_view(regraph)[1] == edges


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


# ---- Rows against the hash-keyed graph they replaced ----
#
# The oracle is the graph, its topological order and the two graph
# detectors as they stood when every map was keyed by hash: nodes, edges
# and Kahn's pending counts in dicts, children visited in hash order.


def oracle_graph(records):
    """(nodes, edges, dangling) keyed by hash; CycleDetected on a cycle."""
    nodes = {rec.hash: rec for rec in records}
    edges, dangling = {}, []
    for rec in records:
        resolved = []
        for parent in rec.parents:
            if parent in nodes:
                resolved.append(parent)
            else:
                dangling.append((rec.hash, parent))
        edges[rec.hash] = resolved

    pending = {h: len(parents) for h, parents in edges.items()}
    children = defaultdict(list)
    for child, parents in edges.items():
        for parent in parents:
            children[parent].append(child)
    queue = [h for h, n in pending.items() if n == 0]
    done = 0
    while queue:
        node = queue.pop()
        done += 1
        for child in children[node]:
            pending[child] -= 1
            if pending[child] == 0:
                queue.append(child)
    if done < len(nodes):
        remaining = {h for h, n in pending.items() if n > 0}
        node, path, index_of = min(remaining), [], {}
        while node not in index_of:
            index_of[node] = len(path)
            path.append(node)
            node = next(p for p in edges[node] if p in remaining)
        raise CycleDetected(path[index_of[node]:])
    return nodes, edges, dangling


def oracle_topological_order(nodes, edges):
    """Parents first; among the ready, the smallest (committer date, hash)."""
    pending = {h: len(parents) for h, parents in edges.items()}
    children = defaultdict(list)
    for child, parents in edges.items():
        for parent in parents:
            children[parent].append(child)

    def key(h: str):
        return (nodes[h].committer_date, h)

    heap = [key(h) for h, n in pending.items() if n == 0]
    heapq.heapify(heap)

    out: list[str] = []
    while heap:
        _, node = heapq.heappop(heap)
        out.append(node)
        for child in children[node]:
            pending[child] -= 1
            if pending[child] == 0:
                heapq.heappush(heap, key(child))
    return out


def oracle_out_of_order(nodes, edges, cfg):
    field = cfg.date_field

    def excluded(commit_hash):
        return cfg.exclude_merges and is_merge_message(nodes[commit_hash].message)

    out = []
    for child in sorted(nodes):
        rec = nodes[child]
        epoch = rec.date(field)
        worst, delta = None, 0
        for parent in edges[child]:
            gap = nodes[parent].date(field) - epoch
            worse = gap > delta or (gap == delta and worst is not None and parent < worst)
            if worse and not excluded(parent):
                worst, delta = parent, gap
        if worst is None or excluded(child):
            continue
        out.append(Anomaly(
            kind=AnomalyKind.OUT_OF_ORDER_PARENT, commit_hash=child, repo_id=rec.repo_id,
            evidence=(f"parent {worst} is {delta} s newer "
                      f"({format_utc(nodes[worst].date(field))} vs {format_utc(epoch)})"),
            delta_seconds=delta))
    return out


def oracle_verified(nodes, edges):
    out = []
    for child in sorted(nodes):
        child_rec = nodes[child]
        if child_rec.verified is not True:
            continue
        for parent in edges[child]:
            parent_rec = nodes[parent]
            if parent_rec.verified is False and parent_rec.committer_date > child_rec.committer_date:
                out.append(Anomaly(
                    kind=AnomalyKind.VERIFIED_MISMATCH, commit_hash=child,
                    repo_id=child_rec.repo_id,
                    evidence=(f"verified commit ({format_utc(child_rec.committer_date)}) "
                              f"predates unverified parent {parent} "
                              f"({format_utc(parent_rec.committer_date)})")))
    return out


@st.composite
def histories(draw):
    """Records in the order drawn, reversed or shuffled, with hashes in an
    order unrelated to it, dangling and repeated parent references, dates
    from a range small enough for equal gaps, merge messages and every
    verification state. A cyclic draw may name any record as a parent."""
    n = draw(st.integers(min_value=1, max_value=12))
    cyclic = draw(st.booleans())
    hashes = [f"{k:040x}" for k in
              draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n, unique=True))]
    records = []
    for i in range(n):
        parents = []
        for k in draw(st.lists(st.integers(-2, n - 1), max_size=3)):
            if k < 0:
                parents.append(f"{2**20 - k:040x}")  # no record has it
            elif cyclic or k < i:
                parents.append(hashes[k])
        records.append(CommitRecord(
            hash=hashes[i], repo_id="r", parents=tuple(parents),
            author_date=draw(st.integers(0, 3)), committer_date=draw(st.integers(0, 3)),
            author_id="a", committer_id="c",
            message=draw(st.sampled_from(["fix", "Merge branch 'x'", "submerged pump", "tidy"])),
            verified=draw(st.sampled_from([True, False, None]))))
    order = draw(st.sampled_from(["drawn", "reversed", "shuffled"]))
    if order == "reversed":
        records.reverse()
    elif order == "shuffled":
        records = draw(st.permutations(records))
    return records


@given(histories(), st.booleans(), st.sampled_from(["committer", "author"]))
@settings(max_examples=400)
def test_rows_agree_with_the_hash_keyed_oracle(records, exclude_merges, date_field):
    cfg = DetectorConfig(exclude_merges=exclude_merges, date_field=date_field)
    try:
        nodes, edges, dangling = oracle_graph(records)
    except CycleDetected as expected:
        with pytest.raises(CycleDetected) as got:
            build_graph(records)
        assert got.value.cycle == expected.cycle
        return
    graph = build_graph(records)
    assert (*hash_view(graph), graph.dangling_parents) == (nodes, edges, dangling)
    assert detect_out_of_order_parents(graph, cfg) == oracle_out_of_order(nodes, edges, cfg)
    assert detect_verified_mismatch(graph) == oracle_verified(nodes, edges)


@given(histories())
@settings(max_examples=400)
def test_order_agrees_with_the_hash_keyed_reference(records):
    try:
        nodes, edges, _ = oracle_graph(records)
    except CycleDetected:
        return
    assert topological_order(build_graph(records)) == oracle_topological_order(nodes, edges)


def test_cycle_named_from_the_smallest_stuck_hash_below_it():
    # Root 1 sits above the cycle 5 -> 7 -> 6 -> 5 (child to parent);
    # 2 hangs below it, and 3 <-> 4 is a second cycle of its own. The
    # smallest stuck hash is 2, on no cycle: its first stuck parent leads
    # into 6 -> 5 -> 7. Eliminating from the tips would leave 1 stuck
    # instead of 2, and 1 has no parent to walk to.
    records = [record(6, [5]), record(2, [6]), record(4, [3]), record(1),
               record(5, [1, 7]), record(3, [4]), record(7, [6])]
    with pytest.raises(CycleDetected) as excinfo:
        build_graph(records)
    assert excinfo.value.cycle == [h(6), h(5), h(7)]
    assert str(excinfo.value) == f"commit graph has a cycle: {h(6)} -> {h(5)} -> {h(7)}"
    with pytest.raises(CycleDetected) as oracle:
        oracle_graph(records)
    assert oracle.value.cycle == excinfo.value.cycle


def test_build_graph_keeps_and_peaks_at_a_few_words_per_commit():
    # A shuffled chain takes the Kahn check.
    n = 20_000
    records = [record(i, [i - 1] if i else []) for i in range(n)]
    random.Random(7).shuffle(records)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = build_graph(records)
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert graph.edge_count == n - 1
    assert kept <= 32 * n, kept / n
    assert peak <= 128 * n, peak / n
