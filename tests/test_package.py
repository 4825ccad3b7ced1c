"""The package's public names and the hygiene of its modules."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import chronolint
from chronolint.cli import record_to_object, write_ndjson
from conftest import make_record

PACKAGE = Path(chronolint.__file__).parent


def test_every_exported_name_resolves():
    assert [name for name in chronolint.__all__ if not hasattr(chronolint, name)] == []
    assert len(set(chronolint.__all__)) == len(chronolint.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them, so it is left out.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


# Runs each command in order in one fresh interpreter and prints, after the
# import and after each command, its exit code and which heavy modules are
# loaded by then.
PROBE = """
import json, sys
HEAVY = ("numpy", "requests", "urllib3")
loaded = lambda: [m for m in HEAVY if m in sys.modules]
from chronolint.cli import main
steps = [["import", None, loaded()]]
for name, argv in json.loads(sys.argv[1]):
    steps.append([name, main(argv), loaded()])
print(json.dumps(steps))
"""


def test_only_stats_loads_numpy_and_no_local_command_loads_requests(tmp_path):
    records = [
        make_record(0, committer_epoch=1_000_000_600),
        make_record(1, parents=[0], committer_epoch=1_000_000_000),  # out of order
        make_record(2, parents=[1], committer_epoch=1_000_000_900),
    ]
    commits = tmp_path / "in.ndjson"
    with open(commits, "w", encoding="utf-8") as fh:
        write_ndjson(records, fh)
    stub = tmp_path / "stub"
    stub.mkdir()
    for rec in records:
        (stub / f"{rec.hash}.json").write_text(json.dumps(record_to_object(rec)))
    sources = tmp_path / "sources.json"
    sources.write_text(json.dumps({"sources": [
        {"kind": "LocalCache", "endpoint": str(tmp_path / "cache.ndjson")},
        {"kind": "FileStub", "endpoint": str(stub)},
    ]}))
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps([{"kind": "DropOutOfOrder", "scope": "commit"}]))
    report = str(tmp_path / "report.json")
    verify = ["verify", report, "--sources", str(sources),
              "--report", str(tmp_path / "verified.json")]
    commands = [
        ["scan", ["scan", str(commits), "--snapshot-date", "2019-10-31T00:00:00Z",
                  "--report", report]],
        ["filter", ["filter", str(commits), "--policy-file", str(policies),
                    "--output", str(tmp_path / "out.ndjson"),
                    "--report", str(tmp_path / "ledger.json")]],
        ["verify cold", verify],
        ["verify warm", verify],
        ["stats", ["stats", report, "--report", str(tmp_path / "stats.json")]],
    ]
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        ["import", None, []],
        ["scan", 1, []],
        ["filter", 0, []],
        ["verify cold", 1, []],
        ["verify warm", 1, []],
        ["stats", 0, ["numpy"]],
    ]
    assert (tmp_path / "cache.ndjson").read_text().count("\n") == 2
