"""Per-repository commit DAG: grouping, construction, linearization.

The graph is immutable once built, and it is held by row: row ``i`` is
the ``i``-th record given to :func:`build_graph`, and each commit's
resolved parents are rows too, kept in two flat integer arrays rather
than in dicts keyed by hash. The cycle check, the naming of a cycle and
the topological order all walk those rows. Parent references that
point outside the record set (shallow exports, pruned history) are
tolerated and kept aside as ``dangling_parents``; cycles are not
tolerated -- a cyclic "history" is a corrupt export and nothing
downstream may trust it.
"""

from __future__ import annotations

import heapq
from array import array
from typing import NamedTuple

from .model import CommitRecord, log_debug


class CycleDetected(ValueError):
    """The parent references loop back on themselves."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__(f"commit graph has a cycle: {' -> '.join(self.cycle)}")


class CommitGraph(NamedTuple):
    """A validated, acyclic commit DAG for one repository, whose id is
    that of any of its records.

    Row ``i`` is ``records[i]``. The rows of its parents that resolved to
    real nodes, in the order the commit recorded them, are
    ``parent_rows[parent_start[i]:parent_start[i + 1]]``, which
    :meth:`parents` reads: compressed sparse rows, one machine integer
    per commit and per edge. Unresolvable references live in
    ``dangling_parents`` as (child hash, missing parent hash). There is
    no view keyed by hash: a commit's hash is ``records[row].hash``.
    """

    records: list[CommitRecord]
    parent_start: array
    parent_rows: array
    dangling_parents: list[tuple[str, str]]

    def parents(self, row: int) -> array:
        """The rows of ``records[row]``'s resolved parents."""
        return self.parent_rows[self.parent_start[row]:self.parent_start[row + 1]]

    @property
    def edge_count(self) -> int:
        return len(self.parent_rows)


# ---- Construction ----


def group_by_repo(records) -> dict[str, list[CommitRecord]]:
    """Split records into one list per repository, input order kept within
    each: the unit :func:`build_graph` accepts."""
    groups: dict[str, list[CommitRecord]] = {}
    for rec in records:
        groups.setdefault(rec.repo_id, []).append(rec)
    return groups


def build_graph(records: list[CommitRecord]) -> CommitGraph:
    """Assemble records into a commit graph, refusing cyclic input.

    Records must be deduplicated and belong to a single repository;
    both are cheap to check and violating either would silently corrupt
    every downstream number. The graph keeps ``records`` itself, not a
    copy, as its rows; no records make the empty graph.
    """
    repos = {r.repo_id for r in records}
    if len(repos) > 1:
        raise ValueError(f"records span {len(repos)} repos; build one graph per repo")

    row_of = {rec.hash: row for row, rec in enumerate(records)}
    if len(row_of) < len(records):
        seen = set()
        for rec in records:
            if rec.hash in seen:
                raise ValueError(f"duplicate hash {rec.hash!r}; deduplicate before building")
            seen.add(rec.hash)

    get = row_of.get
    starts, rows, dangling = array("l", [0]), array("l"), []
    after = before = 0  # edges whose parent row lies after / before the child's
    for child, rec in enumerate(records):
        for parent in rec.parents:
            row = get(parent)
            if row is None:
                dangling.append((rec.hash, parent))
                continue
            rows.append(row)
            if row > child:
                after += 1
            elif row < child:
                before += 1
        starts.append(len(rows))
    del row_of, get
    graph = CommitGraph(records, starts, rows, dangling)

    # When every parent lies on the same side of its child, as in git
    # log's newest-first order, rows strictly increase (or decrease) along
    # each path, so no path can come back to where it started.
    if len(rows) not in (after, before) and not _acyclic(graph):
        raise CycleDetected(_find_cycle(graph))
    if dangling:
        log_debug(__name__, "%s: %d dangling parent reference(s)",
                  records[0].repo_id, len(dangling))
    return graph


def _acyclic(graph: CommitGraph) -> bool:
    """Kahn elimination from the tips: a row goes once all its children
    have gone, and in a DAG every row goes.

    It counts each row's children instead of listing them, one integer
    per row. ``test_build_graph_keeps_and_peaks_at_a_few_words_per_commit``
    holds the peak of :func:`build_graph` to 128 bytes per commit, and
    child lists would break that. :func:`_roots_first` needs the lists,
    and runs only to name a cycle or to produce an order.
    """
    children = [0] * len(graph.records)
    for parent in graph.parent_rows:
        children[parent] += 1
    ready = [row for row, count in enumerate(children) if not count]
    done = 0
    while ready:
        row = ready.pop()
        done += 1
        for parent in graph.parents(row):
            children[parent] -= 1
            if not children[parent]:
                ready.append(parent)
    return done == len(children)


def _roots_first(graph: CommitGraph) -> list[int]:
    """Kahn elimination from the roots: a row goes once all its parents
    have gone, and among the rows ready to go the smallest
    (committer date, hash) goes first. Rows on a cycle, and every row
    below one, never go and are left out."""
    records = graph.records
    starts = graph.parent_start
    pending = [starts[row + 1] - starts[row] for row in range(len(records))]
    children: list[list[int]] = [[] for _ in records]
    for child in range(len(records)):
        for parent in graph.parents(child):
            children[parent].append(child)

    heap = [(rec.committer_date, rec.hash, row)
            for row, rec in enumerate(records) if not pending[row]]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        row = heapq.heappop(heap)[2]
        order.append(row)
        for child in children[row]:
            pending[child] -= 1
            if not pending[child]:
                rec = records[child]
                heapq.heappush(heap, (rec.committer_date, rec.hash, child))
    return order


def _find_cycle(graph: CommitGraph) -> list[str]:
    """The cycle to name, on a graph known to hold one: from the stuck row
    with the smallest hash, follow each row's first stuck parent until a
    row repeats. A stuck row always has a stuck parent, so the walk
    stays among them."""
    records = graph.records
    stuck = set(range(len(records))).difference(_roots_first(graph))
    row = min(stuck, key=lambda r: records[r].hash)
    path: list[int] = []
    index_of: dict[int, int] = {}
    while row not in index_of:
        index_of[row] = len(path)
        path.append(row)
        row = next(parent for parent in graph.parents(row) if parent in stuck)
    return [records[r].hash for r in path[index_of[row]:]]


# ---- Linearization ----


def topological_order(graph: CommitGraph) -> list[str]:
    """Linearize the DAG: parents first, ties broken deterministically.

    When several commits are simultaneously ready, the one with the
    earliest committer date is emitted first (hash as the final
    tie-break), so the output is a pure function of the graph and never
    of the input record order.
    """
    records = graph.records
    return [records[row].hash for row in _roots_first(graph)]
