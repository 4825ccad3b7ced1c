"""End-to-end and per-layer benchmark of the chronolint command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each run writes a seeded corpus with its ground truth
(``corpus.py``), then repeats ``scan`` -> ``filter`` -> ``stats`` ->
``verify`` cold -> ``verify`` warm for ``--seconds``, checking every
output. The last line of stdout is the JSON result: end-to-end metrics
with ``--trace 0``, per-layer metrics (``traced.py``) with ``--trace 1``.
See README.md for the workloads, the checks and each metric. The exit
code is 0 when a result line was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "mined": corpus.Params(records=20_000, repos=500, dup_rate=0.01),
    "monorepo": corpus.Params(records=40_000, repos=1, fmt="gitlog", merge_rate=0.20,
                              skew_rate=0.30, stars=False, verified_rate=0.0),
}
GITLOG_REPO = "acme/monorepo"
VERIFY_WORKERS = 2
# Untraced, every pass starts with this many set-up samples, so that
# setup_s, like the throughputs, spans the whole run and not only its
# first seconds.
SETUP_PER_PASS = 3
MIN_PASSES = 3
# Untraced, each command repeats within a pass until its runs add up to
# this long, so that short commands give as many samples as their time
# allows; the machine's speed swings by a third from one second to the
# next, and only many samples make a median steady.
REPEAT_SECONDS = 1.0
OUTPUTS = ("scan.json", "filtered.ndjson", "ledger.json", "stats.json", "cold.json", "warm.json")

CLI = "import sys; from chronolint.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = "from chronolint.cli import build_parser; build_parser()"

END_TO_END = {
    "setup_s": "s",
    "scan_rec_per_s": "rec/s",
    "scan_rss_mb": "MB",
    "filter_rec_per_s": "rec/s",
    "filter_rss_mb": "MB",
    "stats_anom_per_s": "anom/s",
    "stats_rss_mb": "MB",
    "verify_cold_cand_per_s": "cand/s",
    "verify_warm_cand_per_s": "cand/s",
    "verify_rss_mb": "MB",
}
PER_LAYER_TIMES = (
    "ingest.parse", "ingest.dedup", "graph.build",
    "detectors.old", "detectors.future", "detectors.ooo", "detectors.signatures",
    "detectors.verified", "filters.MinTimestamp", "filters.DropOutOfOrder",
    "filters.TopKStars", "analytics.summarize", "analytics.deltas", "analytics.tokens",
    "analytics.top", "forge.fetch", "forge.cache_put", "forge.cache_load",
    "cli.self", "cli.scan", "cli.filter", "cli.stats", "cli.verify_cold", "cli.verify_warm",
)
PER_LAYER_COUNTS = (
    "ingest.records", "ingest.bytes", "ingest.duplicates",
    "graph.repos", "graph.edges", "graph.dangling",
    "detectors.old_found", "detectors.future_found", "detectors.ooo_found",
    "detectors.signatures_found", "detectors.verified_found",
    "filters.MinTimestamp_removed", "filters.DropOutOfOrder_removed",
    "filters.TopKStars_removed", "forge.fetches", "forge.cache_appends",
    "cli.report_bytes",
)
PER_LAYER_RATIOS = ("forge.cache_hit_ratio", "trace.overhead_ratio")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.wrong.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def same_digest(self, name: str, digest: str) -> bool:
        first = self.digests.setdefault(name, digest)
        return self.check(first == digest, f"{name} bytes differ between runs")


@dataclass
class Child:
    exit: int
    wall: float
    rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """The small process that starts every measured command (launch.py)."""

    def __init__(self):
        self.env = child_env()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path) -> Child:
        """Run to completion; peak RSS comes from this child's own rusage."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log), "env": self.env}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the launcher process died")
        reply = json.loads(reply)
        lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return Child(reply["exit"], reply["wall"], reply["rss_kb"] / 1024.0,
                     lines[-1] if lines else "")

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def digest_document(path: Path) -> tuple[dict, str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    stripped = {k: v for k, v in doc.items() if k != "generated_at"}
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return doc, hashlib.sha256(text.encode()).hexdigest()


def count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, launcher: Launcher):
        self.launcher = launcher
        self.workload = workload
        self.seed = seed
        self.work = work
        self.params = WORKLOADS[workload]
        self.manifest = corpus.write_corpus(self.params, seed, work / "corpus")
        self.truth = self.manifest["truth"]
        self.lookups = {tuple(key) for key in self.truth["verify"]["lookups"]}
        self.tally = Tally()
        fmt = []
        if self.params.fmt == "gitlog":
            fmt = ["--format", "gitlog", "--repo", GITLOG_REPO]
        self.scan_input = [self.manifest["corpus"], *fmt]
        self.filter_input = [self.manifest["unique"], *fmt]
        self.cache = work / "cache.ndjson"
        self.sources = work / "sources.json"
        self.sources.write_text(json.dumps({"workers": VERIFY_WORKERS, "sources": [
            {"kind": "LocalCache", "endpoint": str(self.cache)},
            {"kind": "FileStub", "endpoint": self.manifest["stubs"]},
        ]}), encoding="utf-8")
        self.mode: str | None = None
        self.pass_counts: dict[str, float] = {}
        self.pass_spans: list[dict] = []
        self.pass_wall = 0.0
        self.samples: dict[str, list[float]] = {}

    # -- commands --

    def command(self, label: str, args: list[str], expect: int, tag: str) -> Child | None:
        """Run one command; returns None when it exits other than ``expect``.

        With no mode this is the CLI as a user runs it. Modes "0" and "1"
        run it in-process through traced.py, bare or with layer spans.
        """
        self.tally.attempted += 1
        log = self.work / f"{label}.err"
        if self.mode is None:
            child = self.launcher.run([sys.executable, "-c", CLI, *args], log)
        else:
            out = self.work / f"{label}.trace.json"
            out.unlink(missing_ok=True)
            run_id = f"{self.workload}-{self.seed}/{tag}/{label}"
            child = self.launcher.run([sys.executable, str(HERE / "traced.py"), str(out),
                                       run_id, self.mode, "--", *args], log)
            if out.exists():
                doc = json.loads(out.read_text(encoding="utf-8"))
                self.pass_wall += doc["wall"]
                offset = len(self.pass_spans)  # parents index the child's own list
                for span in doc["spans"]:
                    if span["parent"] is not None:
                        span["parent"] += offset
                self.pass_spans.extend(doc["spans"])
                for key, value in doc["counts"].items():
                    self.pass_counts[key] = self.pass_counts.get(key, 0) + value
        if child.exit != expect:
            self.tally.failed += 1
            print(f"perfbench: {label} exited {child.exit}, expected {expect}: {child.stderr}",
                  file=sys.stderr)
            return None
        return child

    def repeat(self, label: str, args: list[str], expect: int, tag: str, check,
               prepare=None) -> list[Child]:
        """Run a command until its runs in this pass add up to REPEAT_SECONDS
        (once in a traced pass), checking every run; returns the runs that
        passed, and stops at the first that does not."""
        passed: list[Child] = []
        spent = 0.0
        while not passed or (self.mode is None and spent < REPEAT_SECONDS):
            if prepare is not None:
                prepare()
            child = self.command(label, args, expect, tag)
            if child is None:
                break
            if not check():
                self.tally.failed += 1
                break
            passed.append(child)
            spent += child.wall
        return passed

    def sample(self, name: str, values) -> None:
        self.samples.setdefault(name, []).extend(values)

    def one_pass(self, tag: str, mode: str | None) -> dict[str, float]:
        """scan -> filter -> stats -> verify cold -> verify warm.

        Untraced, the end-to-end samples go to ``self.samples``. A bare
        pass returns its in-process time, a traced one its layer metrics.
        """
        t, w = self.truth, self.work
        self.mode = mode
        self.pass_counts = {}
        self.pass_spans = []
        self.pass_wall = 0.0

        scan = self.repeat("scan", ["scan", *self.scan_input, "--snapshot-date",
                                    corpus.SNAPSHOT_DATE, "--report", str(w / "scan.json")],
                           1, tag, lambda: self.check_scan(w / "scan.json"))
        self.sample("scan_rec_per_s", (self.manifest["input_records"] / c.wall for c in scan))
        self.sample("scan_rss_mb", (c.rss_mb for c in scan))

        fil = self.repeat("filter", ["filter", *self.filter_input, "--policy-file",
                                     self.manifest["policies"], "--output",
                                     str(w / "filtered.ndjson"), "--report",
                                     str(w / "ledger.json")],
                          0, tag, lambda: self.check_filter(w / "filtered.ndjson",
                                                            w / "ledger.json"))
        self.sample("filter_rec_per_s", (t["filter"]["input_records"] / c.wall for c in fil))
        self.sample("filter_rss_mb", (c.rss_mb for c in fil))

        if scan:
            stats = self.repeat("stats", ["stats", str(w / "scan.json"), "--report",
                                          str(w / "stats.json")],
                                0, tag, lambda: self.check_stats(w / "stats.json"))
            self.sample("stats_anom_per_s", (t["anomalies"] / c.wall for c in stats))
            self.sample("stats_rss_mb", (c.rss_mb for c in stats))

            verify = ["verify", str(w / "scan.json"), "--sources", str(self.sources)]
            expect = 1 if t["verify"]["confirmed"] else 0
            cold = self.repeat("verify_cold", [*verify, "--report", str(w / "cold.json")],
                               expect, tag, self.check_cold,
                               prepare=lambda: self.cache.unlink(missing_ok=True))
            self.sample("verify_cold_cand_per_s", (t["verify"]["candidates"] / c.wall for c in cold))
            self.sample("verify_cold_rss_mb", (c.rss_mb for c in cold))
            if cold:
                self.pass_counts["forge.cache_appends"] = count_lines(self.cache)
                size = self.cache.stat().st_size
                warm = self.repeat("verify_warm", [*verify, "--report", str(w / "warm.json")],
                                   expect, tag, lambda: self.check_warm(size))
                self.sample("verify_warm_cand_per_s",
                            (t["verify"]["candidates"] / c.wall for c in warm))
                self.sample("verify_warm_rss_mb", (c.rss_mb for c in warm))

        if mode == "1":
            return self.layer_metrics()
        if mode == "0":
            return {"wall": self.pass_wall}
        return {}

    def check_cold(self) -> bool:
        return self.check_verify(self.work / "cold.json") and self.tally.check(
            count_lines(self.cache) == len(self.lookups) and self._cache_keys() == self.lookups,
            "cold verify must append one cache line per distinct lookup")

    def check_warm(self, cache_size: int) -> bool:
        return self.check_verify(self.work / "warm.json") and self.tally.check(
            self.cache.stat().st_size == cache_size, "warm verify appended to the cache")

    def _cache_keys(self) -> set[tuple[str, str]]:
        keys = set()
        with open(self.cache, encoding="utf-8") as fh:
            for line in fh:
                entry = json.loads(line)
                keys.add((entry["repo"], entry["hash"]))
        return keys

    # -- checks --

    def check_scan(self, path: Path) -> bool:
        doc, digest = digest_document(path)
        t, c = self.truth, self.tally.check
        dedup = doc["dataset"]["dedup"]
        return all((
            c(doc["summary"] == t["summary"], "scan summary differs from the ground truth"),
            c(doc["dataset"]["records"] == t["records"]
              and doc["dataset"]["projects"] == t["projects"], "scan dataset counts"),
            c(dedup["total_in"] == t["dedup"]["total_in"]
              and dedup["unique_out"] == t["dedup"]["unique_out"]
              and len(dedup["duplicate_hashes"]) == t["dedup"]["duplicate_hashes"]
              and dedup["conflicts"] == [], "scan dedup accounting"),
            c(len(doc["anomalies"]) == t["anomalies"], "scan anomaly count"),
            self.tally.same_digest("scan", digest),
        ))

    def check_filter(self, output: Path, ledger_path: Path) -> bool:
        doc, digest = digest_document(ledger_path)
        t, c = self.truth["filter"], self.tally.check
        balanced = doc["input_records"] == t["input_records"]
        retained = doc["input_records"]
        for ledger in doc["ledgers"]:
            balanced &= ledger["removed_commits"] + ledger["retained_commits"] == retained
            retained = ledger["retained_commits"]
        balanced &= retained == doc["output_records"]
        data = output.read_bytes()
        return all((
            c(balanced, "filter ledgers do not balance"),
            c(doc["ledgers"] == t["ledgers"], "filter ledgers differ from the ground truth"),
            c(data.count(b"\n") == t["output_records"] == doc["output_records"],
              "filter output record count"),
            self.tally.same_digest("filter.ledger", digest),
            self.tally.same_digest("filter.output", hashlib.sha256(data).hexdigest()),
        ))

    def check_stats(self, path: Path) -> bool:
        doc, digest = digest_document(path)
        stats, c = doc["stats"], self.tally.check
        n = self.truth["summary"]["out_of_order_parent"]["commits"]
        buckets = sum(b["count"] for b in stats["histogram"]["buckets"])
        return all((
            c(stats["deltas"]["n"] == n and buckets == n, "stats delta count"),
            c(doc["summary"] == self.truth["summary"], "stats summary"),
            self.tally.same_digest("stats", digest),
        ))

    def check_verify(self, path: Path) -> bool:
        """Cold and warm documents must agree, so both share one digest."""
        doc, digest = digest_document(path)
        t, c = self.truth["verify"], self.tally.check
        return all((
            c(doc["accounting"] == t["accounting"], "verify accounting"),
            c(len(doc["confirmed"]) == t["confirmed"]
              and len(doc["confirmed"]) + len(doc["dropped"]) == t["candidates"],
              "verify confirmed count"),
            self.tally.same_digest("verify", digest),
        ))

    # -- per-layer metrics --

    def layer_metrics(self) -> dict[str, float]:
        totals = traced.layer_totals(self.pass_spans)
        counts = self.pass_counts
        out = {f"{name}_s": totals.get(f"{name}_s", 0.0) for name in PER_LAYER_TIMES}
        out.update({name: float(counts.get(name, 0)) for name in PER_LAYER_COUNTS})
        out["cli.report_bytes"] = float(sum(
            (self.work / name).stat().st_size for name in OUTPUTS if (self.work / name).exists()))
        lookups = counts.get("forge.cache_lookups", 0)
        out["forge.cache_hit_ratio"] = counts.get("forge.cache_hits", 0) / lookups if lookups else 0.0
        out["wall"] = self.pass_wall
        return out


def breakdown(spans: list[dict]) -> str:
    """Per command: seconds and share of the layer spans one or two levels
    under it (forge spans sit under forge.verify)."""
    lines = []
    roots = {i: s for i, s in enumerate(spans) if s["parent"] is None}
    for index, root in roots.items():
        wall = root["end"] - root["start"]
        parts: dict[str, float] = {}
        for span in spans:
            parent = span["parent"]
            if parent is not None and (parent == index or spans[parent]["parent"] == index) \
                    and span["run"] == root["run"] and span["name"] != "forge.cache_get":
                parts[span["name"]] = parts.get(span["name"], 0.0) + span["end"] - span["start"]
        shares = ", ".join(f"{k} {v:.3f}s {100 * v / wall:.0f}%"
                           for k, v in sorted(parts.items(), key=lambda kv: -kv[1]))
        lines.append(f"  {root['name']} {wall:.3f}s: {shares}")
    return "\n".join(lines)


def median_metrics(passes: list[dict[str, float]], names) -> dict[str, float]:
    out = {}
    for name in names:
        values = [p[name] for p in passes if name in p]
        if values:
            out[name] = statistics.median(values)
    return out


def check_import() -> None:
    """Import the CLI once from ``src/``; this also fills the bytecode cache."""
    probe = subprocess.run(
        [sys.executable, "-c", "import chronolint.cli as c; print(c.__file__)"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, check=False)
    if probe.returncode != 0 or not probe.stdout.strip().startswith(str(SRC)):
        raise SystemExit(f"perfbench: cannot import chronolint from {SRC}: "
                         f"{probe.stderr.strip() or probe.stdout.strip()}")


def measure_setup(launcher: Launcher, work: Path) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and building its
    parser."""
    samples = []
    for _ in range(SETUP_PER_PASS):
        child = launcher.run([sys.executable, "-c", SETUP], work / "setup.err")
        if child.exit != 0:
            raise SystemExit(f"perfbench: importing chronolint.cli failed: {child.stderr}")
        samples.append(child.wall)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "chronolint" / "cli.py").is_file():
        print(f"perfbench: no chronolint sources under {SRC}", file=sys.stderr)
        return 2

    # A terminated run still stops its launcher and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        return bench(args, work, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def bench(args, work: Path, launcher: Launcher) -> int:
    check_import()
    setup: list[float] = []
    bench = Bench(args.workload, args.seed, work, launcher)
    print(f"perfbench: {args.workload} seed {args.seed} params "
          f"{json.dumps(bench.manifest['params'])}", file=sys.stderr)

    passes: list[dict[str, float]] = []
    started = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= args.seconds):
        mode = ("1" if len(passes) % 2 else "0") if args.trace else None
        if mode is None:
            setup.extend(measure_setup(launcher, work))
        passes.append(bench.one_pass(f"p{len(passes)}", mode))
        if mode == "1" and len(passes) == 2:
            first_traced = list(bench.pass_spans)
    measured = time.perf_counter() - started

    if args.trace:
        names = [f"{n}_s" for n in PER_LAYER_TIMES] + list(PER_LAYER_COUNTS) + list(PER_LAYER_RATIOS)
        traced_passes, bare_passes = passes[1::2], passes[0::2]
        values = median_metrics(traced_passes, names)
        bare_wall = statistics.median(p["wall"] for p in bare_passes)
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall"] for p in traced_passes) / bare_wall)
        units = {n: "s" for n in names if n.endswith("_s")}
        units.update({n: "count" for n in PER_LAYER_COUNTS})
        units.update({"ingest.bytes": "bytes", "cli.report_bytes": "bytes"})
        units.update({n: "ratio" for n in PER_LAYER_RATIOS})
        trace_file = SCRATCH / "traces" / f"{args.workload}-{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps(first_traced), encoding="utf-8")
        print(f"perfbench: first traced pass by command (spans in {trace_file}):\n"
              f"{breakdown(first_traced)}", file=sys.stderr)
    else:
        # A command's input is the same in every run, so the harmonic mean
        # of its throughputs is its total input over its total wall time.
        # Across seeds it was steadier than their median: the machine's
        # speed swings for seconds at a time, and every sample should count.
        values = {name: (statistics.harmonic_mean if name.endswith("_per_s")
                         else statistics.median)(samples)
                  for name, samples in bench.samples.items() if samples}
        if "verify_cold_rss_mb" in values and "verify_warm_rss_mb" in values:
            values["verify_rss_mb"] = max(values["verify_cold_rss_mb"], values["verify_warm_rss_mb"])
        values["setup_s"] = statistics.median(setup)
        print(f"perfbench: samples {json.dumps(bench.samples)}", file=sys.stderr)
        units = END_TO_END
    tally = bench.tally
    print(f"perfbench: {len(passes)} passes in {measured:.1f}s; "
          f"{tally.failed} of {tally.attempted} command runs failed", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
