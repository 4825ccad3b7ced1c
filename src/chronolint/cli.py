"""Command-line audit pipeline: parse, graph, detect, clean, report.

Four subcommands cover the workflow end to end:

* ``scan``    — run timestamp detectors over a commit export, emit a report
* ``filter``  — apply cleaning policies, emit the surviving records + ledger
* ``stats``   — turn a scan report into distribution tables (JSON/CSV)
* ``verify``  — re-check out-of-order findings against forge metadata

Exit codes: 0 means a clean run with no findings, 1 means findings were
reported, and 2 means the inputs or the configuration were unusable.
Reports never read the wall clock except for the ``generated_at`` header,
so fixed inputs and flags always reproduce the same bytes elsewhere.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from . import analytics
from .detectors import (
    DEFAULT_OLD_CUTOFF,
    DetectorConfig,
    MissingSnapshotDate,
    detect_future,
    detect_old,
    detect_out_of_order_parents,
    detect_tool_signatures,
    detect_verified_mismatch,
)
from .filters import FilterPolicy, apply_policies, load_policies, policy_from_dict
from .forge import load_sources, verify_anomalies
from .graph import CycleDetected, build_graph, group_by_repo
from .ingest import deduplicate, parse_commit_stream
from .model import (
    Anomaly,
    AnomalyKind,
    CommitRecord,
    DatasetManifest,
    Timestamp,
    format_utc,
    parse_utc,
)

SCHEMA_VERSION = 1
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

DETECTOR_NAMES = ("old", "future", "ooo", "signatures", "verified")
OUT_OF_ORDER_KINDS = (AnomalyKind.OUT_OF_ORDER_LINEAR, AnomalyKind.OUT_OF_ORDER_PARENT)


class CommandError(Exception):
    """Unusable input or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class AuditRun:
    """Everything that determines a run's output, except the input bytes.

    Serialized into every report's ``config`` section, so a report states
    how to reproduce itself; ``from_dict`` turns that section back into a
    runnable configuration. Output *locations* are deliberately not part
    of the serialized form — they say where bytes go, not what they are —
    which keeps reports byte-comparable across working directories.
    """

    detector_config: DetectorConfig
    detectors: tuple[str, ...] = DETECTOR_NAMES
    policies: tuple[FilterPolicy, ...] = ()
    manifest: DatasetManifest | None = None

    def to_dict(self) -> dict:
        cfg = self.detector_config
        return {
            "detectors": list(self.detectors),
            "old_cutoff": format_utc(cfg.old_cutoff),
            "snapshot_date": format_utc(cfg.future_cutoff) if cfg.future_cutoff else None,
            "date_field": cfg.date_field,
            "exclude_merges": cfg.exclude_merges,
            "policies": [policy.to_dict() for policy in self.policies],
            "manifest": None if self.manifest is None else {
                "name": self.manifest.name,
                "snapshot_date": format_utc(self.manifest.snapshot_date),
                "repos": list(self.manifest.repos),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuditRun":
        cfg = DetectorConfig(
            old_cutoff=parse_utc(data["old_cutoff"]),
            future_cutoff=(
                parse_utc(data["snapshot_date"]) if data.get("snapshot_date") else None
            ),
            exclude_merges=data.get("exclude_merges", True),
            date_field=data.get("date_field", "committer"),
        )
        raw_manifest = data.get("manifest")
        manifest = None if raw_manifest is None else DatasetManifest(
            name=raw_manifest["name"],
            snapshot_date=parse_utc(raw_manifest["snapshot_date"]),
            repos=tuple(raw_manifest.get("repos", ())),
        )
        return cls(
            detector_config=cfg,
            detectors=tuple(data.get("detectors", DETECTOR_NAMES)),
            policies=tuple(policy_from_dict(p) for p in data.get("policies", ())),
            manifest=manifest,
        )


# ---- Serialization ----


def record_to_object(rec: CommitRecord) -> dict:
    """Canonical NDJSON shape for a record; parses back to the same record.

    The committer timezone is the one carried over the wire; a differing
    author timezone is display metadata and is not preserved (the epoch
    instants always are).
    """
    obj = {
        "hash": rec.hash,
        "repo": rec.repo_id,
        "parents": list(rec.parents),
        "author_date": rec.author_date.epoch_seconds,
        "committer_date": rec.committer_date.epoch_seconds,
        "author": rec.author_id,
        "committer": rec.committer_id,
        "message": rec.message,
    }
    if rec.committer_date.tz_offset_minutes:
        obj["tz_offset_min"] = rec.committer_date.tz_offset_minutes
    if rec.verified is not None:
        obj["verified"] = rec.verified
    if rec.stars is not None:
        obj["stars"] = rec.stars
    return obj


# One encoder for every record: json.dumps with these options builds a new
# JSONEncoder per call. The encoder holds no state between calls.
_NDJSON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_ndjson(records, fh) -> None:
    encode = _NDJSON_ENCODER.encode
    for rec in records:
        fh.write(encode(record_to_object(rec)))
        fh.write("\n")


def anomaly_to_object(anomaly: Anomaly) -> dict:
    obj = {
        "kind": anomaly.kind.value,
        "commit": anomaly.commit_hash,
        "repo": anomaly.repo_id,
        "evidence": anomaly.evidence,
    }
    if anomaly.delta_seconds is not None:
        obj["delta_seconds"] = anomaly.delta_seconds
    return obj


def anomaly_from_object(obj: dict, index: int) -> Anomaly:
    """Rebuild entry ``index`` of a report's anomaly list, checking its types."""
    where = f"unreadable anomaly entry {index}"
    if not isinstance(obj, dict):
        raise CommandError(f"{where}: not an object")
    for field in ("commit", "repo", "evidence"):
        if not isinstance(obj.get(field, ""), str):
            raise CommandError(f"{where}: {field} must be a string")
    delta = obj.get("delta_seconds")
    # type(), not isinstance(): a JSON true is a bool, and bool subclasses int.
    if delta is not None and (type(delta) is not int or delta < 1):
        raise CommandError(f"{where}: delta_seconds must be a positive integer")
    try:
        return Anomaly(
            kind=AnomalyKind(obj["kind"]),
            commit_hash=obj["commit"],
            repo_id=obj["repo"],
            evidence=obj.get("evidence", ""),
            delta_seconds=delta,
        )
    except (KeyError, ValueError) as exc:
        raise CommandError(f"{where}: {exc}") from exc


def _now_utc() -> str:
    return format_utc(Timestamp(int(time.time())))


def _dump_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit_document(doc: dict, path: str | None) -> None:
    text = _dump_document(doc)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CommandError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise CommandError(f"{path} is not a schema v{SCHEMA_VERSION} report")
    return doc


def _load_scan_report(path: str) -> dict:
    doc = _load_document(path)
    if not isinstance(doc.get("anomalies"), list) or not isinstance(doc.get("summary"), dict):
        raise CommandError(f"{path} lacks the anomalies/summary sections of a scan report")
    return doc


def _report_anomalies(report: dict) -> list[Anomaly]:
    return [anomaly_from_object(obj, i) for i, obj in enumerate(report["anomalies"])]


# ---- Input handling ----


def _read_records(paths, fmt: str, repo_id: str) -> list[CommitRecord]:
    """Parse every input path ('-' = stdin); any malformed record is fatal."""
    if fmt == "gitlog" and not repo_id:
        raise CommandError("--repo is required with --format gitlog")
    records: list[CommitRecord] = []
    broken: list[str] = []
    for path in paths or ["-"]:
        if path == "-":
            result = parse_commit_stream(sys.stdin.buffer, format=fmt, repo_id=repo_id)
        else:
            try:
                with open(path, "rb") as fh:
                    result = parse_commit_stream(fh, format=fmt, repo_id=repo_id)
            except OSError as exc:
                raise CommandError(f"cannot read {path}: {exc}") from exc
        records.extend(result.records)
        broken.extend(f"{path}:{m.line_number}: {m.reason}" for m in result.malformed)
    if broken:
        for line in broken:
            print(f"chronolint: malformed record at {line}", file=sys.stderr)
        raise CommandError(f"{len(broken)} malformed record(s); fix or pre-filter the input")
    return records


def _detector_config(args) -> DetectorConfig:
    try:
        old_cutoff = parse_utc(args.old_cutoff)
        future_cutoff = parse_utc(args.snapshot_date) if args.snapshot_date else None
        return DetectorConfig(
            old_cutoff=old_cutoff,
            future_cutoff=future_cutoff,
            exclude_merges=not args.include_merges,
            date_field=args.date_field,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from exc


def _parse_detector_list(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    unknown = [name for name in names if name not in DETECTOR_NAMES]
    if unknown or not names:
        raise CommandError(
            f"--detectors takes a comma list from {', '.join(DETECTOR_NAMES)}"
        )
    return names


# ---- scan ----


def _scan_one_repo(records, cfg: DetectorConfig, enabled) -> list[Anomaly]:
    found: list[Anomaly] = []
    if "old" in enabled:
        found.extend(detect_old(records, cfg))
    if "future" in enabled:
        found.extend(detect_future(records, cfg))
    if "ooo" in enabled or "verified" in enabled:
        graph = build_graph(records)
        if "ooo" in enabled:
            found.extend(detect_out_of_order_parents(graph, cfg))
        if "verified" in enabled:
            found.extend(detect_verified_mismatch(graph))
    if "signatures" in enabled:
        found.extend(detect_tool_signatures(records))
    return found


def run_scan(records, cfg: DetectorConfig, enabled=DETECTOR_NAMES):
    """Dedup, then run the enabled detectors per repository.

    Returns (anomalies sorted by repo/commit/kind, deduped records,
    dedup report).
    """
    records, dedup = deduplicate(records)
    anomalies = [
        a for repo in group_by_repo(records).values()
        for a in _scan_one_repo(repo, cfg, enabled)
    ]
    anomalies.sort(key=lambda a: (a.repo_id, a.commit_hash, a.kind.value, a.evidence))
    return anomalies, records, dedup


def _dedup_to_object(dedup) -> dict:
    return {
        "total_in": dedup.total_in,
        "unique_out": dedup.unique_out,
        "duplicate_hashes": {h: count for h, count in dedup.duplicate_hashes},
        "conflicts": [
            {
                "hash": c.hash,
                "kept_committer_date": c.kept.epoch_seconds,
                "dropped_committer_date": c.dropped.epoch_seconds,
            }
            for c in sorted(dedup.conflicts, key=lambda c: c.hash)
        ],
    }


def _scan_csv(directory: str, anomalies, summary: dict) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "anomalies.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "repo", "commit", "delta_seconds", "evidence"])
        for a in anomalies:
            writer.writerow([
                a.kind.value, a.repo_id, a.commit_hash,
                "" if a.delta_seconds is None else a.delta_seconds, a.evidence,
            ])
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "commits", "projects"])
        for kind in sorted(summary):
            writer.writerow([kind, summary[kind]["commits"], summary[kind]["projects"]])


def cmd_scan(args) -> int:
    enabled = _parse_detector_list(args.detectors)
    cfg = _detector_config(args)
    if "future" in enabled and cfg.future_cutoff is None:
        raise CommandError(
            "--snapshot-date is required while the 'future' detector is enabled "
            "(pass it, or narrow --detectors)"
        )
    records = _read_records(args.inputs, args.format, args.repo)
    try:
        anomalies, records, dedup = run_scan(records, cfg, enabled)
    except CycleDetected as exc:
        raise CommandError(f"commit graph has a cycle: {' -> '.join(exc.cycle)}") from exc
    except (MissingSnapshotDate, ValueError) as exc:
        raise CommandError(str(exc)) from exc

    summary = analytics.summarize(anomalies)
    by_hash = {rec.hash: rec for rec in records}
    flagged = sorted({a.commit_hash for a in anomalies})
    report = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": _now_utc(),
        "config": AuditRun(detector_config=cfg, detectors=enabled).to_dict(),
        "dataset": {
            "records": len(records),
            "projects": len({rec.repo_id for rec in records}),
            "dedup": _dedup_to_object(dedup),
        },
        "summary": summary,
        "anomalies": [anomaly_to_object(a) for a in anomalies],
        "commits": {
            h: {
                "repo": by_hash[h].repo_id,
                "committer": by_hash[h].committer_id,
                "message": by_hash[h].message,
            }
            for h in flagged
            if h in by_hash
        },
        "ledgers": [],
        "stats": {},
    }
    _emit_document(report, args.report)
    if args.csv_dir:
        _scan_csv(args.csv_dir, anomalies, summary)
    total = summary["total"]["commits"]
    print(f"chronolint: {total} flagged commit(s) across "
          f"{summary['total']['projects']} project(s)", file=sys.stderr)
    return EXIT_FINDINGS if anomalies else EXIT_CLEAN


# ---- filter ----


def cmd_filter(args) -> int:
    try:
        policies = load_policies(args.policy_file)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise CommandError(f"bad policy file: {exc}") from exc
    cfg = _detector_config(args)
    records = _read_records(args.inputs, args.format, args.repo)
    unique, dedup = deduplicate(records)
    try:
        retained, ledgers = apply_policies(unique, policies, cfg)
    except (CycleDetected, ValueError) as exc:
        raise CommandError(str(exc)) from exc

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_ndjson(retained, fh)
    else:
        write_ndjson(retained, sys.stdout)

    run = AuditRun(detector_config=cfg, detectors=(), policies=tuple(policies))
    document = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": _now_utc(),
        "config": run.to_dict(),
        "input_records": len(records),
        "dedup": _dedup_to_object(dedup),
        "output_records": len(retained),
        "ledgers": [ledger.to_dict() for ledger in ledgers],
    }
    text = _dump_document(document)
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stderr.write(text)
    return EXIT_CLEAN


# ---- stats ----


def _stats_tables(report: dict, exclude_terms) -> dict:
    anomalies = _report_anomalies(report)
    commits = report.get("commits", {})

    deltas = [a.delta_seconds for a in anomalies if a.delta_seconds is not None]
    if deltas:
        stats = analytics.delta_statistics(deltas).to_dict()
        histogram = analytics.delta_histogram(deltas).to_dict()
    else:
        stats = None
        histogram = None

    messages = [entry.get("message", "") for entry in commits.values()]
    tokens = analytics.token_frequency(messages, exclude_terms=frozenset(exclude_terms))

    # The report's commit section carries enough identity for ranking.
    pseudo_records = [
        SimpleNamespace(hash=h, committer_id=entry.get("committer", ""))
        for h, entry in commits.items()
    ]
    return {
        "deltas": stats,
        "histogram": histogram,
        "tokens": tokens.to_dict(),
        "top_committers": [
            {"committer": who, "commits": n}
            for who, n in analytics.top_committers(anomalies, pseudo_records)
        ],
        "top_projects": [
            {"project": repo, "commits": n}
            for repo, n in analytics.top_projects(anomalies)
        ],
    }


def _stats_csv(directory: str, tables: dict) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)

    def table(name: str, header, rows):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    if tables["deltas"]:
        table("deltas.csv", ["stat", "value"], sorted(tables["deltas"].items()))
    if tables["histogram"]:
        table(
            "histogram.csv", ["bucket", "count"],
            [(b["label"], b["count"]) for b in tables["histogram"]["buckets"]],
        )
    table("tokens.csv", ["token", "count"],
          [(r["token"], r["count"]) for r in tables["tokens"]["rows"]])
    table("top_committers.csv", ["committer", "commits"],
          [(r["committer"], r["commits"]) for r in tables["top_committers"]])
    table("top_projects.csv", ["project", "commits"],
          [(r["project"], r["commits"]) for r in tables["top_projects"]])


def cmd_stats(args) -> int:
    report = _load_scan_report(args.scan_report)
    tables = _stats_tables(report, args.exclude_term)
    document = dict(report)
    document["stats"] = tables
    document["generated_at"] = _now_utc()
    _emit_document(document, args.report)
    if args.csv_dir:
        _stats_csv(args.csv_dir, tables)
    return EXIT_CLEAN


# ---- verify ----


def cmd_verify(args) -> int:
    report = _load_scan_report(args.scan_report)
    candidates = [a for a in _report_anomalies(report) if a.kind in OUT_OF_ORDER_KINDS]
    try:
        sources, workers = load_sources(args.sources)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise CommandError(f"bad sources config: {exc}") from exc
    try:
        confirmed, dropped, accounting = verify_anomalies(candidates, sources, workers=workers)
    except (OSError, ValueError) as exc:
        raise CommandError(str(exc)) from exc

    total = len(candidates)
    for status in sorted(accounting):
        count = accounting[status]
        share = (100.0 * count / total) if total else 0.0
        print(f"chronolint: {status}: {count} ({share:.2f}%)", file=sys.stderr)
    print(f"chronolint: confirmed {len(confirmed)}, dropped {len(dropped)} "
          f"of {total} candidate(s)", file=sys.stderr)

    document = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": _now_utc(),
        "accounting": accounting,
        "confirmed": [anomaly_to_object(a) for a in confirmed],
        "dropped": [anomaly_to_object(a) for a in dropped],
    }
    _emit_document(document, args.report)

    if total and accounting.get("unverifiable", 0) == total:
        raise CommandError("no metadata source could resolve any candidate")
    return EXIT_FINDINGS if confirmed else EXIT_CLEAN


# ---- argument wiring ----


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("inputs", nargs="*", metavar="PATH",
                        help="commit export file(s); '-' or empty reads stdin")
    parser.add_argument("--format", choices=("ndjson", "gitlog"), default="ndjson",
                        help="input wire format (default: ndjson)")
    parser.add_argument("--repo", default="",
                        help="repository id for gitlog input, which carries none")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--snapshot-date", default=None, metavar="ISO8601",
                        help="dataset freeze instant; anything after it is 'future'")
    parser.add_argument("--old-cutoff", default=format_utc(DEFAULT_OLD_CUTOFF), metavar="ISO8601",
                        help="dates before this are 'old' (default: %(default)s)")
    parser.add_argument("--date-field", choices=("committer", "author"), default="committer",
                        help="which timestamp to audit (default: %(default)s)")
    parser.add_argument("--include-merges", action="store_true",
                        help="flag out-of-order pairs even when a message mentions a merge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronolint",
        description="Audit commit timestamps for anachronisms and clean them up.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run detectors and write an anomaly report")
    _add_input_arguments(scan)
    _add_config_arguments(scan)
    scan.add_argument("--detectors", default=",".join(DETECTOR_NAMES),
                      help=f"comma list from: {', '.join(DETECTOR_NAMES)} (default: all)")
    scan.add_argument("--report", metavar="PATH", help="write the JSON report here (default: stdout)")
    scan.add_argument("--csv-dir", metavar="DIR", help="also write anomalies.csv and summary.csv")
    scan.set_defaults(func=cmd_scan)

    fil = sub.add_parser("filter", help="apply cleaning policies, emit survivors + ledger")
    _add_input_arguments(fil)
    _add_config_arguments(fil)
    fil.add_argument("--policy-file", required=True, metavar="PATH",
                     help="JSON list of policies, applied in order")
    fil.add_argument("--output", metavar="PATH",
                     help="write surviving records here as NDJSON (default: stdout)")
    fil.add_argument("--report", metavar="PATH",
                     help="write the removal-ledger document here (default: stderr)")
    fil.set_defaults(func=cmd_filter)

    stats = sub.add_parser("stats", help="derive distribution tables from a scan report")
    stats.add_argument("scan_report", metavar="REPORT", help="report produced by 'scan'")
    stats.add_argument("--exclude-term", action="append", default=[], metavar="TEXT",
                       help="drop messages containing this exact text before tokenizing "
                            "(repeatable)")
    stats.add_argument("--report", metavar="PATH", help="write the JSON document here (default: stdout)")
    stats.add_argument("--csv-dir", metavar="DIR", help="also write one CSV per table")
    stats.set_defaults(func=cmd_stats)

    verify = sub.add_parser("verify", help="re-check out-of-order findings against sources")
    verify.add_argument("scan_report", metavar="REPORT", help="report produced by 'scan'")
    verify.add_argument("--sources", required=True, metavar="PATH",
                        help="JSON config listing metadata sources in priority order "
                             "and the number of concurrent fetches")
    verify.add_argument("--report", metavar="PATH",
                        help="write the verification document here (default: stdout)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"chronolint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
