"""Per-repository commit DAG: grouping, construction, linearization.

The graph is immutable once built, and it is held by row: row ``i`` is
the ``i``-th record given to :func:`build_graph`, and each commit's
resolved parents are rows too, kept in two flat integer arrays rather
than in dicts keyed by hash. Parent references that point outside the
record set (shallow exports, pruned history) are tolerated and kept
aside as ``dangling_parents``; cycles are not tolerated -- a cyclic
"history" is a corrupt export and nothing downstream may trust it.
"""

from __future__ import annotations

import heapq
import logging
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

from .model import CommitRecord

log = logging.getLogger(__name__)


class CycleDetected(Exception):
    """The parent references loop back on themselves."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__(f"commit graph has a cycle: {' -> '.join(self.cycle)}")


@dataclass(frozen=True)
class CommitGraph:
    """A validated, acyclic commit DAG for one repository.

    Row ``i`` is ``records[i]``. The rows of its parents that resolved to
    real nodes, in the order the commit recorded them, are
    ``parent_rows[parent_start[i]:parent_start[i + 1]]``, which
    :meth:`parents` reads: compressed sparse rows, one machine integer
    per commit and per edge. Unresolvable references live in
    ``dangling_parents`` as (child hash, missing parent hash). ``nodes``
    and ``edges`` give the same graph keyed by hash, built anew on each
    access.
    """

    repo_id: str
    records: list[CommitRecord]
    parent_start: array
    parent_rows: array
    dangling_parents: list[tuple[str, str]] = field(default_factory=list)

    def parents(self, row: int) -> array:
        """The rows of ``records[row]``'s resolved parents."""
        return self.parent_rows[self.parent_start[row]:self.parent_start[row + 1]]

    @property
    def nodes(self) -> dict[str, CommitRecord]:
        return {rec.hash: rec for rec in self.records}

    @property
    def edges(self) -> dict[str, list[str]]:
        """Each child hash mapped to its resolved parent hashes."""
        records = self.records
        return {rec.hash: [records[parent].hash for parent in self.parents(row)]
                for row, rec in enumerate(records)}

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
    copy, as its rows.
    """
    if not records:
        return CommitGraph(repo_id="", records=[], parent_start=array("l", [0]),
                           parent_rows=array("l"))

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
    graph = CommitGraph(repo_id=records[0].repo_id, records=records, parent_start=starts,
                        parent_rows=rows, dangling_parents=dangling)

    # When every parent lies on the same side of its child, as in git
    # log's newest-first order, rows strictly increase (or decrease) along
    # each path, so no path can come back to where it started.
    if len(rows) not in (after, before) and not _acyclic(graph):
        raise CycleDetected(_find_cycle(graph.edges))
    if dangling:
        log.debug("%s: %d dangling parent reference(s)", graph.repo_id, len(dangling))
    return graph


def _acyclic(graph: CommitGraph) -> bool:
    """Kahn elimination from the tips: a row goes once all its children
    have gone, and in a DAG every row goes."""
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


def _find_cycle(edges: dict[str, list[str]]) -> list[str]:
    """The cycle to name, on a graph known to hold one: Kahn elimination
    from the roots, then a walk from the smallest hash it leaves stuck."""
    pending = {h: len(parents) for h, parents in edges.items()}
    children = defaultdict(list)
    for child, parents in edges.items():
        for parent in parents:
            children[parent].append(child)

    queue = [h for h, n in pending.items() if n == 0]
    while queue:
        node = queue.pop()
        for child in children[node]:
            pending[child] -= 1
            if pending[child] == 0:
                queue.append(child)

    remaining = {h for h, n in pending.items() if n > 0}
    return _extract_cycle(remaining, edges)


def _extract_cycle(remaining, edges) -> list[str]:
    """Walk parent links inside the stuck set until a node repeats."""
    start = min(remaining)  # deterministic pick
    path: list[str] = []
    index_of: dict[str, int] = {}
    node = start
    while node not in index_of:
        index_of[node] = len(path)
        path.append(node)
        # any still-stuck parent keeps the walk inside the stuck set
        node = next(p for p in edges[node] if p in remaining)
    return path[index_of[node]:]


# ---- Linearization ----


def topological_order(graph: CommitGraph) -> list[str]:
    """Linearize the DAG: parents first, ties broken deterministically.

    When several commits are simultaneously ready, the one with the
    earliest committer date is emitted first (hash as the final
    tie-break), so the output is a pure function of the graph and never
    of the input record order.
    """
    nodes, edges = graph.nodes, graph.edges
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
