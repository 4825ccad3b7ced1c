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

Only :mod:`~chronolint.model` is imported with this module; each command
imports the stages it runs, so ``stats`` loads ``analytics`` alone. The
stages that ``perfbench/traced.py`` times by wrapping a global of this
module stay such globals, bound on first use (``_bind``) from the
package's own table of names.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from importlib import import_module
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import NoneType

from . import _NAMES
from .model import (
    _HEX_HASH,
    _SVN_HASH,
    DEFAULT_OLD_CUTOFF,
    OUT_OF_ORDER_KINDS,
    Anomaly,
    AnomalyKind,
    CommitRecord,
    decode_json,
    format_utc,
    parse_utc,
    typed,
)


def __getattr__(name: str):
    """Bind the package's public name ``name`` as a global, unless something,
    such as the benchmark's tracer, has bound it first."""
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(__package__), name))


def _bind(*names: str) -> None:
    for name in names:
        __getattr__(name)


SCHEMA_VERSION = 1
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

DETECTOR_NAMES = ("old", "future", "ooo", "signatures", "verified")


class CommandError(Exception):
    """Unusable input or configuration; maps to exit code 2."""


def _run_config(cfg: DetectorConfig, detectors, policies) -> dict:
    """Everything that determines a run's output, except the input bytes.

    Written into every report's ``config`` section, so a report states
    how it was made. Output *locations* are deliberately not part of it —
    they say where bytes go, not what they are — which keeps reports
    byte-comparable across working directories.
    """
    return {
        "detectors": list(detectors),
        "old_cutoff": format_utc(cfg.old_cutoff),
        "snapshot_date": None if cfg.future_cutoff is None else format_utc(cfg.future_cutoff),
        "date_field": cfg.date_field,
        "exclude_merges": cfg.exclude_merges,
        "policies": [policy.to_dict() for policy in policies],
        "manifest": None,  # kept so that schema v1 reports keep their bytes
    }


# ---- Serialization ----


def write_ndjson(records, fh) -> None:
    """Write each record as one line of canonical NDJSON; it parses back to
    the same record.

    The bytes are those of ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))``, written field by field in sorted key order.
    A record carries one timezone offset, the committer's, and writes it
    as ``tz_offset_min`` when it is not zero; ``stars`` and ``verified``
    are left out when unknown. gitlog's author offset is checked on input
    but not kept.
    """
    enc = encode_basestring_ascii
    write = fh.write
    for rec in records:
        tail = ""
        if rec.stars is not None:
            tail += f',"stars":{rec.stars!r}'
        if rec.tz_offset_min:
            tail += f',"tz_offset_min":{rec.tz_offset_min!r}'
        if rec.verified is not None:
            tail += ',"verified":true' if rec.verified else ',"verified":false'
        write(f'{{"author":{enc(rec.author_id)},"author_date":{rec.author_date!r},'
              f'"committer":{enc(rec.committer_id)},"committer_date":{rec.committer_date!r},'
              f'"hash":{enc(rec.hash)},"message":{enc(rec.message)},'
              f'"parents":[{",".join(map(enc, rec.parents))}],"repo":{enc(rec.repo_id)}'
              f'{tail}}}\n')


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
    try:
        delta = typed(typed(obj, dict, "the entry").get("delta_seconds"), (int, NoneType),
                      "delta_seconds")
        # Two int64 epochs differ by less than 2**64.
        if delta is not None and not 1 <= delta < 2**64:
            raise ValueError("delta_seconds must be a positive integer below 2**64")
        commit = typed(obj["commit"], str, "commit")
        # A report writes ids as ingest accepts them; only such an id may reach a source.
        if not (_HEX_HASH.fullmatch(commit) or _SVN_HASH.fullmatch(commit)):
            raise ValueError(f"commit {commit!r} is neither 40-char hex nor r<N>@<repo>")
        return Anomaly(
            kind=AnomalyKind(typed(obj["kind"], str, "kind")),
            commit_hash=commit,
            repo_id=typed(obj["repo"], str, "repo"),
            evidence=typed(obj.get("evidence", ""), str, "evidence"),
            delta_seconds=delta,
        )
    except KeyError as exc:
        raise CommandError(f"unreadable anomaly entry {index}: missing {exc}") from exc
    except ValueError as exc:
        raise CommandError(f"unreadable anomaly entry {index}: {exc}") from exc


@contextmanager
def _writing(path):
    """Turn an ``OSError`` from writing ``path`` into unusable output (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}") from exc


# The indented form has no C encoder: encoding a report yields a few
# hundred thousand small pieces. Writing them in batches holds one batch
# at a time, not the whole text, and keeps the number of writes small.
_DOCUMENT_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
_PIECES_PER_WRITE = 8192


def _write_document(doc: dict, fh) -> None:
    pieces = _DOCUMENT_ENCODER.iterencode(doc)
    while batch := list(islice(pieces, _PIECES_PER_WRITE)):
        fh.write("".join(batch))
    fh.write("\n")


def _emit_document(doc: dict, path: str | None, stream=None) -> None:
    """Write ``doc`` under the schema version and the time of writing, as
    indented JSON, to ``path``, else to ``stream`` (default stdout)."""
    doc = {**doc, "schema_version": SCHEMA_VERSION, "generated_at": format_utc(int(time.time()))}
    if path:
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            _write_document(doc, fh)
    else:
        _write_document(doc, stream or sys.stdout)


def _write_csv(directory: str, name: str, header, rows) -> None:
    """Write one table to ``directory/name``, making the directory as needed."""
    with _writing(directory):
        Path(directory).mkdir(parents=True, exist_ok=True)
    path = Path(directory) / name
    with _writing(path), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_scan_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # -sig: one head BOM is dropped
            doc = decode_json(fh.read())
    except (OSError, ValueError) as exc:  # ValueError: JSON, UTF-8 or int() digit limit
        raise CommandError(f"cannot read report {path}: {exc}") from exc
    try:
        version = typed(typed(doc, dict, "the document").get("schema_version"), int,
                        "schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema_version is {version}")
        typed(doc.get("anomalies"), list, "anomalies")
        typed(doc.get("summary"), dict, "summary")
    except ValueError as exc:
        raise CommandError(f"{path} is not a schema v{SCHEMA_VERSION} scan report: {exc}") from exc
    _check_commits(doc)
    return doc


def _report_anomalies(report: dict) -> list[Anomaly]:
    return [anomaly_from_object(obj, i) for i, obj in enumerate(report["anomalies"])]


def _check_commits(report: dict) -> None:
    where = "unreadable commits section"
    try:
        commits = typed(report.get("commits", {}), dict, "commits")
        for commit_hash, entry in commits.items():
            where = f"unreadable commits entry {commit_hash!r}"
            typed(typed(entry, dict, "the entry").get("committer", ""), str, "committer")
            typed(entry.get("message", ""), str, "message")
    except ValueError as exc:
        raise CommandError(f"{where}: {exc}") from exc


# ---- Input handling ----


def _read_records(paths, fmt: str, repo_id: str) -> list[CommitRecord]:
    """Parse every input path ('-' = stdin); any malformed record is fatal."""
    if fmt == "gitlog" and not repo_id:
        raise CommandError("--repo is required with --format gitlog")
    _bind("parse_commit_stream")
    records: list[CommitRecord] = []
    broken: list[str] = []
    for path in paths or ["-"]:
        try:
            if path != "-":
                with open(path, "rb") as fh:
                    result = parse_commit_stream(fh, format=fmt, repo_id=repo_id)
            elif sys.stdin is None:  # started with descriptor 0 closed
                raise OSError("it is closed")
            else:
                result = parse_commit_stream(sys.stdin.buffer, format=fmt, repo_id=repo_id)
        except OSError as exc:
            raise CommandError(f"cannot read {'stdin' if path == '-' else path}: {exc}") from exc
        records.extend(result.records)
        broken.extend(f"{path}:{m.line_number}: {m.reason}" for m in result.malformed)
        del result  # its records are in the combined list now
    if broken:
        for line in broken:
            print(f"chronolint: malformed record at {line}", file=sys.stderr)
        raise CommandError(f"{len(broken)} malformed record(s); fix or pre-filter the input")
    return records


def _detector_config(args) -> DetectorConfig:
    from .detectors import DetectorConfig

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
    from .graph import group_by_repo

    _bind("deduplicate", "build_graph", "detect_old", "detect_future",
          "detect_out_of_order_parents", "detect_tool_signatures", "detect_verified_mismatch")
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
                "kept_committer_date": c.kept,
                "dropped_committer_date": c.dropped,
            }
            for c in sorted(dedup.conflicts, key=lambda c: c.hash)
        ],
    }


def _scan_csv(directory: str, anomalies, summary: dict) -> None:
    _write_csv(directory, "anomalies.csv",
               ["kind", "repo", "commit", "delta_seconds", "evidence"],
               ([a.kind.value, a.repo_id, a.commit_hash,
                 "" if a.delta_seconds is None else a.delta_seconds, a.evidence]
                for a in anomalies))
    _write_csv(directory, "summary.csv", ["kind", "commits", "projects"],
               ([kind, summary[kind]["commits"], summary[kind]["projects"]]
                for kind in sorted(summary)))


def cmd_scan(args) -> int:
    from . import analytics

    enabled = _parse_detector_list(args.detectors)
    cfg = _detector_config(args)
    if "future" in enabled and cfg.future_cutoff is None:
        raise CommandError(
            "--snapshot-date is required while the 'future' detector is enabled "
            "(pass it, or narrow --detectors)"
        )
    try:
        # Passed on, not held: the parsed list is freed once run_scan dedups it.
        anomalies, records, dedup = run_scan(
            _read_records(args.inputs, args.format, args.repo), cfg, enabled)
    except ValueError as exc:  # a cycle too
        raise CommandError(str(exc)) from exc

    flagged = {a.commit_hash for a in anomalies}
    dataset = {
        "records": len(records),
        "projects": len({rec.repo_id for rec in records}),
        "dedup": _dedup_to_object(dedup),
    }
    commits = {
        rec.hash: {"repo": rec.repo_id, "committer": rec.committer_id, "message": rec.message}
        for rec in records
        if rec.hash in flagged
    }
    # An anomaly holds only the hash and repo strings the records share, so
    # the records are freed before the report is built and encoded.
    del records, flagged
    summary = analytics.summarize(anomalies)
    report = {
        "config": _run_config(cfg, enabled, ()),
        "dataset": dataset,
        "summary": summary,
        "anomalies": [anomaly_to_object(a) for a in anomalies],
        "commits": commits,
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
    from .filters import apply_policies, load_policies

    _bind("deduplicate")
    try:
        policies = load_policies(args.policy_file)
    except (OSError, ValueError) as exc:
        raise CommandError(f"bad policy file: {exc}") from exc
    cfg = _detector_config(args)
    # The parsed list, duplicates and all, is freed once deduplicated.
    unique, dedup = deduplicate(_read_records(args.inputs, args.format, args.repo))
    try:
        retained, ledgers = apply_policies(unique, policies, cfg)
    except ValueError as exc:  # a cycle too
        raise CommandError(str(exc)) from exc

    if args.output:
        with _writing(args.output), open(args.output, "w", encoding="utf-8") as fh:
            write_ndjson(retained, fh)
    else:
        write_ndjson(retained, sys.stdout)

    document = {
        "config": _run_config(cfg, (), policies),
        "input_records": dedup.total_in,
        "dedup": _dedup_to_object(dedup),
        "output_records": len(retained),
        "ledgers": [ledger.to_dict() for ledger in ledgers],
    }
    _emit_document(document, args.report, sys.stderr)
    return EXIT_CLEAN


# ---- stats ----


def _stats_tables(report: dict, exclude_terms) -> dict:
    from . import analytics

    anomalies = _report_anomalies(report)
    commits = report.get("commits", {})

    deltas = [a.delta_seconds for a in anomalies if a.delta_seconds is not None]
    stats = analytics.delta_statistics(deltas).to_dict() if deltas else None
    histogram = analytics.delta_histogram(deltas).to_dict() if deltas else None

    messages = [entry.get("message", "") for entry in commits.values()]
    tokens = analytics.token_frequency(messages, exclude_terms=frozenset(exclude_terms))

    # The report's commit section names the committer of each flagged commit.
    committers = {h: entry.get("committer", "") for h, entry in commits.items()}
    return {
        "deltas": stats,
        "histogram": histogram,
        "tokens": tokens.to_dict(),
        "top_committers": [
            {"committer": who, "commits": n}
            for who, n in analytics.top_committers(anomalies, committers)
        ],
        "top_projects": [
            {"project": repo, "commits": n}
            for repo, n in analytics.top_projects(anomalies)
        ],
    }


def _stats_csv(directory: str, tables: dict) -> None:
    if tables["deltas"]:
        _write_csv(directory, "deltas.csv", ["stat", "value"], sorted(tables["deltas"].items()))
    if tables["histogram"]:
        _write_csv(directory, "histogram.csv", ["bucket", "count"],
                   [(b["label"], b["count"]) for b in tables["histogram"]["buckets"]])
    _write_csv(directory, "tokens.csv", ["token", "count"],
               [(r["token"], r["count"]) for r in tables["tokens"]["rows"]])
    _write_csv(directory, "top_committers.csv", ["committer", "commits"],
               [(r["committer"], r["commits"]) for r in tables["top_committers"]])
    _write_csv(directory, "top_projects.csv", ["project", "commits"],
               [(r["project"], r["commits"]) for r in tables["top_projects"]])


def cmd_stats(args) -> int:
    if "" in args.exclude_term:  # every message contains it
        raise CommandError("--exclude-term must not be empty")
    report = _load_scan_report(args.scan_report)
    tables = _stats_tables(report, args.exclude_term)
    _emit_document({**report, "stats": tables}, args.report)
    if args.csv_dir:
        _stats_csv(args.csv_dir, tables)
    return EXIT_CLEAN


# ---- verify ----


def cmd_verify(args) -> int:
    from .forge import load_sources

    _bind("verify_anomalies")
    # The report itself is not kept: only its candidates are needed.
    candidates = [a for a in _report_anomalies(_load_scan_report(args.scan_report))
                  if a.kind in OUT_OF_ORDER_KINDS]
    try:
        sources = load_sources(args.sources)
    except (OSError, ValueError) as exc:
        raise CommandError(f"bad sources config: {exc}") from exc
    try:
        confirmed, dropped, accounting = verify_anomalies(candidates, sources)
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
    scan.add_argument("--snapshot-date", default=None, metavar="ISO8601",
                      help="dataset freeze instant; anything after it is 'future'")
    scan.add_argument("--old-cutoff", default=format_utc(DEFAULT_OLD_CUTOFF), metavar="ISO8601",
                      help="dates before this are 'old' (default: %(default)s)")
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
    # No policy reads a cutoff: the ledger's config states the defaults.
    fil.set_defaults(func=cmd_filter, snapshot_date=None,
                     old_cutoff=format_utc(DEFAULT_OLD_CUTOFF))

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
                        help="JSON config listing metadata sources in priority order")
    verify.add_argument("--report", metavar="PATH",
                        help="write the verification document here (default: stdout)")
    verify.set_defaults(func=cmd_verify)

    return parser


def _discard(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so that the
    interpreter's last flush of what is still buffered cannot fail again."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return  # an in-memory stream, as under a test's capture
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CommandError as exc:
        message = str(exc)
    except OSError as exc:
        # Every other OSError is a CommandError by now: this one is from a
        # standard stream. Its reader went away, as in `chronolint filter ... |
        # head -1`, or its device is full; if it is stderr, the message below
        # cannot be written either.
        message = f"cannot write stdout: {exc}"
    # A stream that failed gets nothing more, and the exit stays 2.
    try:
        print(f"chronolint: error: {message}", file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)
    try:
        sys.stdout.flush()
    except OSError:
        _discard(sys.stdout)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
