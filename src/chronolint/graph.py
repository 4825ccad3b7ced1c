"""Per-repository commit DAG: grouping, construction, linearization.

The graph is immutable once built. Parent references that point outside
the record set (shallow exports, pruned history) are tolerated and kept
aside as ``dangling_parents``; cycles are not tolerated -- a cyclic
"history" is a corrupt export and nothing downstream may trust it.
"""

from __future__ import annotations

import heapq
import logging
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

    ``edges`` maps each child hash to the parent hashes that resolved to
    real nodes, in the order the commit recorded them. Unresolvable
    references live in ``dangling_parents`` as (child, missing parent).
    """

    repo_id: str
    nodes: dict[str, CommitRecord]
    edges: dict[str, list[str]]
    dangling_parents: list[tuple[str, str]] = field(default_factory=list)

    @property
    def edge_count(self) -> int:
        return sum(len(parents) for parents in self.edges.values())


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
    every downstream number.
    """
    if not records:
        return CommitGraph(repo_id="", nodes={}, edges={})

    repos = {r.repo_id for r in records}
    if len(repos) > 1:
        raise ValueError(f"records span {len(repos)} repos; build one graph per repo")

    nodes: dict[str, CommitRecord] = {}
    for rec in records:
        if rec.hash in nodes:
            raise ValueError(f"duplicate hash {rec.hash!r}; deduplicate before building")
        nodes[rec.hash] = rec

    edges: dict[str, list[str]] = {}
    dangling: list[tuple[str, str]] = []
    for rec in records:
        resolved = []
        for parent in rec.parents:
            if parent in nodes:
                resolved.append(parent)
            else:
                dangling.append((rec.hash, parent))
        edges[rec.hash] = resolved

    _raise_on_cycle(nodes, edges)
    if dangling:
        log.debug("%s: %d dangling parent reference(s)", records[0].repo_id, len(dangling))
    return CommitGraph(
        repo_id=records[0].repo_id, nodes=nodes, edges=edges, dangling_parents=dangling
    )


def _raise_on_cycle(nodes, edges) -> None:
    """Kahn elimination; anything left over holds a cycle worth naming."""
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

    if done == len(nodes):
        return
    remaining = {h for h, n in pending.items() if n > 0}
    raise CycleDetected(_extract_cycle(remaining, edges))


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
    pending = {h: len(parents) for h, parents in graph.edges.items()}
    children = defaultdict(list)
    for child, parents in graph.edges.items():
        for parent in parents:
            children[parent].append(child)

    def key(h: str):
        return (graph.nodes[h].committer_date, h)

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
