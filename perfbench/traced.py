"""Run one chronolint command in-process, with or without layer spans.

    python3 perfbench/traced.py OUT.json RUN_ID {0|1} -- CLI ARGS...

With ``1``, timing wrappers are installed around each layer's entry
points at the place where ``chronolint.cli`` and ``chronolint.filters``
look them up, then ``chronolint.cli.main`` runs in this process. With
``0`` the same call runs bare, which gives the untraced wall time that
``trace.overhead_ratio`` divides by. Spans stay in memory and are
written to OUT.json when the command ends, together with the counts
taken at the same boundaries and the exit code. The process exits with
the command's exit code.

Nothing here imports chronolint at module level, so ``run.py`` can use
the aggregation helpers without loading the package.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, in memory.

    Each thread keeps its own stack of open spans. A span opened on a
    thread whose stack is empty is parented to ``pool_parent``: verify's
    fetches run on pool threads, and the per-thread stack does not cross
    into the pool.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.pool_parent: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.pool_parent
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, count=None):
        """``name`` is a string or a function of the call's arguments;
        ``count(result, *args)`` returns counters to add."""

        def traced(*args, **kwargs):
            with self.span(name if isinstance(name, str) else name(*args)):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, amount in count(result, *args).items():
                    self.add(key, amount)
            return result

        return traced


def _stream_bytes(stream) -> int:
    try:
        return stream.tell()
    except (AttributeError, OSError):
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the four commands reach."""
    from chronolint import analytics, cli, filters, forge

    cli.parse_commit_stream = tracer.wrap(
        "ingest.parse", cli.parse_commit_stream,
        lambda r, stream, *a: {"ingest.records": len(r.records),
                               "ingest.bytes": _stream_bytes(stream)})
    cli.deduplicate = tracer.wrap(
        "ingest.dedup", cli.deduplicate,
        lambda r, *a: {"ingest.duplicates": r[1].total_in - r[1].unique_out})

    def graph_counts(g, *a):
        return {"graph.repos": 1, "graph.edges": g.edge_count,
                "graph.dangling": len(g.dangling_parents)}

    cli.build_graph = tracer.wrap("graph.build", cli.build_graph, graph_counts)
    filters.build_graph = tracer.wrap("graph.build", filters.build_graph, graph_counts)

    for module, attr, short in (
        (cli, "detect_old", "old"),
        (cli, "detect_future", "future"),
        (cli, "detect_out_of_order_parents", "ooo"),
        (filters, "detect_out_of_order_parents", "ooo"),
        (cli, "detect_tool_signatures", "signatures"),
        (cli, "detect_verified_mismatch", "verified"),
    ):
        setattr(module, attr, tracer.wrap(
            f"detectors.{short}", getattr(module, attr),
            lambda r, *a, key=f"detectors.{short}_found": {key: len(r)}))

    filters.apply_policy = tracer.wrap(
        lambda records, policy, *a: f"filters.{policy.kind}", filters.apply_policy,
        lambda r, records, policy, *a: {f"filters.{policy.kind}_removed": r[1].removed_commits})

    for attr, name in (
        ("summarize", "analytics.summarize"),
        ("delta_statistics", "analytics.deltas"),
        ("delta_histogram", "analytics.deltas"),
        ("token_frequency", "analytics.tokens"),
        ("top_committers", "analytics.top"),
        ("top_projects", "analytics.top"),
    ):
        setattr(analytics, attr, tracer.wrap(name, getattr(analytics, attr)))

    verify = cli.verify_anomalies

    def traced_verify(*args, **kwargs):
        with tracer.span("forge.verify") as index:
            tracer.pool_parent = index
            try:
                return verify(*args, **kwargs)
            finally:
                tracer.pool_parent = None

    cli.verify_anomalies = traced_verify
    forge.ForgeClient._fetch_from = tracer.wrap(
        "forge.fetch", forge.ForgeClient._fetch_from, lambda r, *a: {"forge.fetches": 1})
    forge.CacheStore.__init__ = tracer.wrap("forge.cache_load", forge.CacheStore.__init__)
    forge.CacheStore.put = tracer.wrap("forge.cache_put", forge.CacheStore.put)
    forge.CacheStore.get = tracer.wrap(
        "forge.cache_get", forge.CacheStore.get,
        lambda r, *a: {"forge.cache_lookups": 1, "forge.cache_hits": r is not None})


# ---- Aggregation (used by run.py) ----


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, plus ``cli.self_s``: each command span's
    duration minus the part of it that its child spans cover."""
    totals: dict[str, float] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        key = span["name"] + "_s"
        totals[key] = totals.get(key, 0.0) + span["end"] - span["start"]
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals["cli.self_s"] = sum(
        span["end"] - span["start"] - _covered(children.get(i, []))
        for i, span in enumerate(spans) if span["parent"] is None
    )
    return totals


def main(argv: list[str]) -> int:
    out, run_id, traced, sep, *cli_args = argv
    if sep != "--" or traced not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    from chronolint import cli

    tracer = Tracer(run_id)
    if traced == "1":
        install(tracer)
    with tracer.span(f"cli.{run_id.rsplit('/', 1)[-1]}"):
        started = time.perf_counter()
        code = cli.main(cli_args)
        wall = time.perf_counter() - started
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "wall": wall, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
