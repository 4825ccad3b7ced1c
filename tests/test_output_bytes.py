"""Every command's output bytes, pinned on two seeded benchmark corpora.

The report bytes are part of chronolint's contract: fixed inputs and flags
give the same bytes, apart from each document's ``generated_at``. This
runs ``scan``, ``filter`` (on the raw and on the deduplicated corpus),
``stats`` and a cold then a warm ``verify`` in-process on a small corpus
of each benchmark workload's shape, and compares a sha256 of each output
with the digest pinned below. It also checks the counts against the
corpus's brute-force ground truth, so that the pinned bytes are known to
be right and not only unchanged.

A digest may be re-pinned only for a declared output change. The corpus
digests are pinned as well, so that a change to ``perfbench/corpus.py``
shows up as one and not as an output change.
"""

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from chronolint.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
GITLOG_REPO = "acme/monorepo"


def _import_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up by name
    spec.loader.exec_module(module)
    return module


corpus = _import_corpus()

# The shapes of perfbench/run.py's workloads, at 3,000 records each.
SHAPES = {
    "mined": corpus.Params(records=3_000, repos=60, dup_rate=0.01),
    "monorepo": corpus.Params(records=3_000, repos=1, fmt="gitlog", merge_rate=0.20,
                              skew_rate=0.30, stars=False, verified_rate=0.0),
}

# sha256 of each output; documents with their generated_at value blanked.
PINNED = {
    "mined": {
        "corpus": "05aa9e8edf7162a83aeb61fdfa075c8ffb0824121196205854b92b317d59c1af",
        "scan exit": 1,
        "scan streams": "0f0f0dc18c143cc75f7e0df4d48cd5759b2e3b55c4b5f8af96dfd4beffc3fc06",
        "filter raw exit": 0,
        "filter raw streams": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "filter unique exit": 0,
        "filter unique streams": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "stats exit": 0,
        "stats streams": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "verify cold exit": 1,
        "verify cold streams": "b8706c53da46cf0d7a0256a025450decddb2a9583f14bd0cf8ae539b67a34ff6",
        "verify warm exit": 1,
        "verify warm streams": "b8706c53da46cf0d7a0256a025450decddb2a9583f14bd0cf8ae539b67a34ff6",
        "cache.ndjson": "8f81f48abcda3646f8021b858456a7ff658c2781a650d9ac0eb7464cb433bbe1",
        "cold.json": "a80b0d2e430d39412b807905a9165924549139dcbd634834361f4585117bb0de",
        "raw.ndjson": "76a51de2b01a1b6d3ea480743b8743b9ef02e037b042a1abc87300e6697a825b",
        "raw_ledger.json": "a63e573f8ae32cb6a63784aee1a2f5cb16c61699cc7bc7a5a5a5da64be6db020",
        "scan.json": "d76260e1a8411db3b0f8a3ce13bf66bac02e8513db12eacb6658c58761ab683b",
        "scan_csv/anomalies.csv": "61494c440a517d4964f9508bc3bfa850ae1d8518a86511e693d4c6bd283eeedc",
        "scan_csv/summary.csv": "b02d74ef052f0d23f2c49c22c77f0fa32035d1b84f706fa559f5ea50752e2ca2",
        "stats.json": "c8447df5c4f7221edc8c3a6d2c9833fe8241fb4e2cac8016992d2d0fef931e79",
        "stats_csv/deltas.csv": "d01015be89a40d7ec6ec26bd044bb1c3d96ca2870480a9b7a7b585cd09723220",
        "stats_csv/histogram.csv": "5feeb35f64903005e75c5d70efe25568c753cb9dd4ed55415cfe80503144231e",
        "stats_csv/tokens.csv": "d87cd6142fb6dcf0fc0f43afdd360cec74e6e259581f3ac10bdaa0c7ff48bdfd",
        "stats_csv/top_committers.csv": "6c7ad577c8082ef07580dcc3aadd843fb651b29f33a829b0ac895389efaecb5f",
        "stats_csv/top_projects.csv": "494bfd1d7d4aad7fa99b93f58d4a77a0f994b576022d62ff4c3ff62ffc3aaa2d",
        "unique.ndjson": "76a51de2b01a1b6d3ea480743b8743b9ef02e037b042a1abc87300e6697a825b",
        "unique_ledger.json": "0fbac6084f44f3a0a89948a0a0352fab6846a2f4bf0d5b57dbadcb048ac49703",
        "warm.json": "a80b0d2e430d39412b807905a9165924549139dcbd634834361f4585117bb0de",
    },
    "monorepo": {
        "corpus": "09d351bb518af27cc8d9b9f49798306c6c6387205f6891a95bc047377270cb1a",
        "scan exit": 1,
        "scan streams": "f3320a5229fe829ebd7f044b6301f275c3744c32076516bd2c95c93f413786d1",
        "filter raw exit": 0,
        "filter raw streams": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "filter unique exit": 0,
        "filter unique streams": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "stats exit": 0,
        "stats streams": "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "verify cold exit": 1,
        "verify cold streams": "5128ddfdd6ab7f25fa5ed97027dcf8e900915ef3399098e2b956cd2a9e1b4990",
        "verify warm exit": 1,
        "verify warm streams": "5128ddfdd6ab7f25fa5ed97027dcf8e900915ef3399098e2b956cd2a9e1b4990",
        "cache.ndjson": "439b13d6443fab33e651ebd6fe916d33395e234c095b92659c2c69d71eaaf7b5",
        "cold.json": "696a1bc09f5eabe83be46b3715c25889fb85716ac35eff6aa0597be52ae238d5",
        "raw.ndjson": "d120705579f528ea0cb5da153f5077155a4d5d9f8e30ba45f429a78660efa2df",
        "raw_ledger.json": "fe1b707165109f3c928917856aa694e4966fa71103d15639581c371cc87ca75b",
        "scan.json": "1b3466078e0feeec974569cedb84bf1d0e21d415b786d5d7ab213976ad56e596",
        "scan_csv/anomalies.csv": "c1a60a07d587c0362c68eea7b04d253e1ea687c88c3f1232a525a3329f08a173",
        "scan_csv/summary.csv": "cc8f2fd6f4ac9958880407061856b30c026e9f5742fefeb80ae65dfe35b7a1f9",
        "stats.json": "97f0e2530757245e31bfcf37dfb6a2135ac229165d052b566d3351af61ac1c0c",
        "stats_csv/deltas.csv": "cdbc83c149b437372ea9b56456d0d0b142735ff7100afbfb3eb486dbd0fca5d7",
        "stats_csv/histogram.csv": "feac9b8cee0141e960b28ca1167795785be2e048dcad6b537fde284fa2b2c614",
        "stats_csv/tokens.csv": "dc88855dc3a795e858cc2ceb3813ac1a556a785db2a34ebab7ab5fedfea7647e",
        "stats_csv/top_committers.csv": "34ddab48cde4ad12414dbc5f39039497d9a3bd458ee52112e65709259a4157ca",
        "stats_csv/top_projects.csv": "666914b5cb64936d2b07c2a8d51adca8a4ae72af2c4d1d8486a9ff971134a8a8",
        "unique.ndjson": "d120705579f528ea0cb5da153f5077155a4d5d9f8e30ba45f429a78660efa2df",
        "unique_ledger.json": "fe1b707165109f3c928917856aa694e4966fa71103d15639581c371cc87ca75b",
        "warm.json": "696a1bc09f5eabe83be46b3715c25889fb85716ac35eff6aa0597be52ae238d5",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def document_digest(path: Path) -> str:
    data, count = re.subn(rb'^  "generated_at": "[^"]*"', b'  "generated_at": ""',
                          path.read_bytes(), flags=re.MULTILINE)
    assert count == 1, f"{path.name} has {count} generated_at lines"
    return sha256(data)


def corpus_digest(directory: Path, manifest: dict) -> str:
    """The input files, the stub documents and the ground truth, without
    the manifest's paths."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "ground_truth.json":
            h.update(f"{path.relative_to(directory).as_posix()}\0".encode())
            h.update(path.read_bytes())
    h.update(json.dumps(manifest["truth"], sort_keys=True).encode())
    return h.hexdigest()


def run(capsys, argv) -> tuple[int, str]:
    """Exit code and the sha256 of what the command wrote to stdout and stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, sha256(f"{captured.out}\0{captured.err}".encode())


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_every_output_keeps_its_pinned_bytes_and_matches_the_ground_truth(
        tmp_path, capsys, workload):
    manifest = corpus.write_corpus(SHAPES[workload], SEED, tmp_path / "corpus")
    truth = manifest["truth"]
    fmt = ["--format", "gitlog", "--repo", GITLOG_REPO] if SHAPES[workload].fmt == "gitlog" else []
    out = tmp_path / "out"
    out.mkdir()
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps({"sources": [
        {"kind": "LocalCache", "endpoint": str(out / "cache.ndjson")},
        {"kind": "FileStub", "endpoint": manifest["stubs"]},
    ]}), encoding="utf-8")
    verify = ["verify", str(out / "scan.json"), "--sources", str(sources)]
    commands = {
        "scan": ["scan", manifest["corpus"], *fmt, "--snapshot-date", corpus.SNAPSHOT_DATE,
                 "--report", str(out / "scan.json"), "--csv-dir", str(out / "scan_csv")],
        "filter raw": ["filter", manifest["corpus"], *fmt, "--policy-file",
                       manifest["policies"], "--output", str(out / "raw.ndjson"),
                       "--report", str(out / "raw_ledger.json")],
        "filter unique": ["filter", manifest["unique"], *fmt, "--policy-file",
                          manifest["policies"], "--output", str(out / "unique.ndjson"),
                          "--report", str(out / "unique_ledger.json")],
        "stats": ["stats", str(out / "scan.json"), "--report", str(out / "stats.json"),
                  "--csv-dir", str(out / "stats_csv")],
        "verify cold": [*verify, "--report", str(out / "cold.json")],
        "verify warm": [*verify, "--report", str(out / "warm.json")],
    }
    digests = {"corpus": corpus_digest(tmp_path / "corpus", manifest)}
    cache_sizes = []
    for name, argv in commands.items():
        code, streams = run(capsys, argv)
        digests[f"{name} exit"] = code
        digests[f"{name} streams"] = streams
        if name.startswith("verify"):
            cache_sizes.append((out / "cache.ndjson").stat().st_size)
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.suffix == ".json":
            digests[name] = document_digest(path)
        elif name == "cache.ndjson":  # lines in the order they were fetched
            digests[name] = sha256(b"".join(sorted(path.read_bytes().splitlines(True))))
        elif path.is_file():
            digests[name] = sha256(path.read_bytes())

    # The meaning of the bytes: the counts of the brute-force ground truth.
    scan = json.loads((out / "scan.json").read_text(encoding="utf-8"))
    assert scan["summary"] == truth["summary"]
    assert len(scan["anomalies"]) == truth["anomalies"]
    assert (scan["dataset"]["records"], scan["dataset"]["projects"]) == (
        truth["records"], truth["projects"])
    dedup = scan["dataset"]["dedup"]
    assert (dedup["total_in"], dedup["unique_out"], len(dedup["duplicate_hashes"]),
            dedup["conflicts"]) == (truth["dedup"]["total_in"], truth["dedup"]["unique_out"],
                                    truth["dedup"]["duplicate_hashes"], [])
    for ledger_name, input_records in (("raw_ledger.json", truth["dedup"]["total_in"]),
                                       ("unique_ledger.json", truth["records"])):
        ledger = json.loads((out / ledger_name).read_text(encoding="utf-8"))
        assert ledger["input_records"] == input_records
        assert ledger["ledgers"] == truth["filter"]["ledgers"]
        assert ledger["output_records"] == truth["filter"]["output_records"]
    # Dedup keeps each first occurrence in order: the same survivors either way.
    assert digests["raw.ndjson"] == digests["unique.ndjson"]
    assert (out / "raw.ndjson").read_bytes().count(b"\n") == truth["filter"]["output_records"]
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))["stats"]
    ooo = truth["summary"]["out_of_order_parent"]["commits"]
    assert stats["deltas"]["n"] == sum(b["count"] for b in stats["histogram"]["buckets"]) == ooo
    cold = json.loads((out / "cold.json").read_text(encoding="utf-8"))
    assert cold["accounting"] == truth["verify"]["accounting"]
    assert len(cold["confirmed"]) == truth["verify"]["confirmed"]
    assert len(cold["confirmed"]) + len(cold["dropped"]) == truth["verify"]["candidates"]
    assert digests["cold.json"] == digests["warm.json"]
    with open(out / "cache.ndjson", encoding="utf-8") as fh:
        lookups = sorted((entry["repo"], entry["hash"]) for entry in map(json.loads, fh))
    assert lookups == truth["verify"]["lookups"]
    assert cache_sizes[0] == cache_sizes[1], "the warm verify appended to the cache"
    assert [digests[f"{name} exit"] for name in commands] == [
        1, 0, 0, 0, int(truth["verify"]["confirmed"] > 0), int(truth["verify"]["confirmed"] > 0)]

    assert digests == PINNED[workload]
