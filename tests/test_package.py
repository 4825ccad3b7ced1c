"""The package's public names and the hygiene of its modules."""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import chronolint
from chronolint.cli import write_ndjson
from conftest import hex_hash, make_record, record_to_object

PACKAGE = Path(chronolint.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def test_every_exported_name_resolves():
    assert [name for name in chronolint.__all__ if not hasattr(chronolint, name)] == []
    assert len(set(chronolint.__all__)) == len(chronolint.__all__)


def test_every_exported_refusal_is_a_value_error():
    errors = [name for name in chronolint.__all__
              if isinstance(getattr(chronolint, name), type)
              and issubclass(getattr(chronolint, name), BaseException)]
    assert errors == ["CycleDetected", "MissingSnapshotDate"]
    assert all(issubclass(getattr(chronolint, name), ValueError) for name in errors)


def test_the_package_exports_exactly_all_and_each_name_from_its_defining_module():
    namespace = {}
    exec("from chronolint import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(chronolint.__all__)
    assert dir(chronolint) == sorted(chronolint.__all__)
    defined = {}  # top-level name -> the modules that define it, not import it
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, []).append(path.stem)
    for name in chronolint.__all__:
        [module] = defined[name]
        owner = chronolint if module == "__init__" else import_module(f"chronolint.{module}")
        assert getattr(chronolint, name) is getattr(owner, name), name
    assert chronolint.DEFAULT_OLD_CUTOFF is chronolint.detectors.DEFAULT_OLD_CUTOFF


def test_every_exported_name_is_used_by_the_package_or_the_acceptance_tests():
    # A name that only __init__.py and the unit tests mention is library-only
    # surface that no command reaches. topological_order gives the ordering
    # that detect_out_of_order_linear walks.
    exempt = {"__version__", "topological_order"}
    used = set()
    for path in [*PACKAGE.glob("*.py"), Path(__file__).parent / "test_acceptance.py"]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert [name for name in chronolint.__all__ if name not in used | exempt] == []


def test_the_benchmark_tracer_finds_every_function_it_wraps():
    # perfbench/traced.py wraps package functions by name, private ones
    # included; without this a rename shows only when the benchmark runs.
    done = subprocess.run(
        [sys.executable, "-c", "import traced; traced.install(traced.Tracer('probe'))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), str(PERFBENCH)])},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_parses_as_python_3_10(path):
    # pyproject's requires-python is ">=3.10"; the tests themselves need 3.11.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_json_type_rule_lives_only_in_model():
    # A `type(x) is int` check in a reader is a copy of model.typed; ingest's
    # parse keeps its inline checks as a fast path, and is not scanned.
    copies = []
    for name in ("cli.py", "filters.py", "forge.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            calls_type = any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
                             and o.func.id == "type" for o in operands)
            names_json = any(isinstance(o, ast.Name)
                             and o.id in ("int", "str", "bool", "list", "dict") for o in operands)
            if calls_type and names_json and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                copies.append(f"{name}:{node.lineno}")
    assert copies == []


def test_runtime_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"chronolint"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


# Runs each command in order in one fresh interpreter and prints, after the
# import and after each command, its exit code and which of the watched
# modules are loaded by then.
PROBE = """
import json, sys
WATCHED = ("numpy", "requests", "urllib3", "urllib.request", "concurrent.futures")
loaded = lambda: [m for m in WATCHED if m in sys.modules]
from chronolint.cli import main
steps = [["import", None, loaded()]]
for name, argv in json.loads(sys.argv[1]):
    steps.append([name, main(argv), loaded()])
print(json.dumps(steps))
"""


def tiny_commands(tmp_path, policy_list):
    """scan, filter, cold and warm verify, then stats, over three commits of
    which one is out of order; verify reads a cache, then a stub."""
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
    policies.write_text(json.dumps(policy_list))
    report = str(tmp_path / "report.json")
    verify = ["verify", report, "--sources", str(sources),
              "--report", str(tmp_path / "verified.json")]
    return [
        ["scan", ["scan", str(commits), "--snapshot-date", "2019-10-31T00:00:00Z",
                  "--report", report]],
        ["filter", ["filter", str(commits), "--policy-file", str(policies),
                    "--output", str(tmp_path / "out.ndjson"),
                    "--report", str(tmp_path / "ledger.json")]],
        ["verify cold", verify],
        ["verify warm", verify],
        ["stats", ["stats", report, "--report", str(tmp_path / "stats.json")]],
    ]


def test_no_command_loads_numpy_or_requests_and_no_local_one_urllib(tmp_path):
    commands = tiny_commands(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}])
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
        ["stats", 0, []],
    ]
    assert (tmp_path / "cache.ndjson").read_text().count("\n") == 2


# Installs the benchmark's tracer, runs each command in order in one fresh
# interpreter, and prints each command's exit code and the span names it left.
SPAN_PROBE = """
import json, sys
import traced
from chronolint.cli import main
tracer = traced.Tracer("probe")
traced.install(tracer)
steps = []
for name, argv in json.loads(sys.argv[1]):
    start = len(tracer.spans)
    code = main(argv)
    steps.append([name, code, sorted({span["name"] for span in tracer.spans[start:]})])
print(json.dumps(steps))
"""

POLICIES = [{"kind": "MinTimestamp", "min_ts": 1}, {"kind": "BeforeDate", "cutoff": 1},
            {"kind": "ProjectBlocklist", "blocklist": []},
            {"kind": "DropOutOfOrder", "scope": "commit"},
            {"kind": "MinStars", "min_stars": 0}, {"kind": "TopKStars", "k": 5}]

# A command that stops calling a layer through the module global the tracer
# wraps loses that layer's span, and its benchmark metric reads zero.
SPANS = {
    "scan": {"ingest.parse", "ingest.dedup", "graph.build", "detectors.old",
             "detectors.future", "detectors.ooo", "detectors.signatures",
             "detectors.verified", "analytics.summarize"},
    "filter": {"ingest.parse", "ingest.dedup", "graph.build", "detectors.ooo",
               *(f"filters.{policy['kind']}" for policy in POLICIES)},
    "verify cold": {"forge.cache_load", "forge.verify", "forge.cache_get", "forge.fetch",
                    "forge.cache_put"},
    "verify warm": {"forge.cache_load", "forge.verify", "forge.cache_get"},
    "stats": {"analytics.deltas", "analytics.tokens", "analytics.top"},
}


def test_every_command_records_the_spans_of_the_layers_it_reaches(tmp_path):
    commands = tiny_commands(tmp_path, POLICIES)
    done = subprocess.run(
        [sys.executable, "-c", SPAN_PROBE, json.dumps(commands)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), str(PERFBENCH)])},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout)
    assert [(name, code) for name, code, _ in steps] == [
        ("scan", 1), ("filter", 0), ("verify cold", 1), ("verify warm", 1), ("stats", 0)]
    assert {name: sorted(SPANS[name] - set(spans)) for name, _, spans in steps} == {
        name: [] for name in SPANS}


# Prints the exit code of one step in a fresh interpreter, and the package's
# modules loaded by then: the package import, the command-line parser, or
# one command.
IMPORT_PROBE = """
import json, sys
step = json.loads(sys.argv[1])
code = None
if step == "import":
    import chronolint
elif step == "parser":
    from chronolint.cli import build_parser
    build_parser()
else:
    from chronolint.cli import main
    code = main(step)
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "chronolint")]))
"""

# Each step's exit code and the submodules it loads: only the stages it runs.
LOADS = {
    "import": [None, []],
    "parser": [None, ["cli", "model"]],
    "scan": [1, ["analytics", "cli", "detectors", "graph", "ingest", "model"]],
    "filter": [0, ["cli", "detectors", "filters", "graph", "ingest", "model"]],
    "verify cold": [1, ["cli", "forge", "ingest", "model"]],
    "verify warm": [1, ["cli", "forge", "model"]],
    "stats": [0, ["analytics", "cli", "model"]],
}


def test_each_command_loads_only_the_modules_of_the_stages_it_runs(tmp_path):
    steps = [["import", "import"], ["parser", "parser"],
             *tiny_commands(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}])]
    loaded = {}
    for name, step in steps:  # in order: scan writes the report the later ones read
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, json.dumps(step)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded[name] = json.loads(done.stdout)
    assert loaded == {name: [code, ["chronolint", *(f"chronolint.{m}" for m in modules)]]
                      for name, (code, modules) in LOADS.items()}


# Reads, in a fresh interpreter, each stage the benchmark's tracer rebinds
# through cli, then two names cli must not resolve, then runs scan and
# filter on a cycle; prints whether each read stage is its defining
# module's object, the names that raised AttributeError, and each
# command's exit code and stderr.
NAME_PROBE = """
import contextlib, io, json, sys
from importlib import import_module
from chronolint import cli
stages, argvs = json.loads(sys.argv[1])
same = {name: getattr(cli, name) is getattr(import_module(f"chronolint.{module}"), name)
        for name, module in stages.items()}
refused = []
for name in ("no_such_stage", "__all__"):
    try:
        getattr(cli, name)
    except AttributeError:
        refused.append(name)
runs = []
for argv in argvs:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        runs.append([cli.main(argv), err.getvalue()])
print(json.dumps([same, refused, runs]))
"""

# The stages perfbench/traced.py wraps as globals of cli, by defining module.
TRACED = {
    "parse_commit_stream": "ingest", "deduplicate": "ingest", "build_graph": "graph",
    "detect_old": "detectors", "detect_future": "detectors",
    "detect_out_of_order_parents": "detectors", "detect_tool_signatures": "detectors",
    "detect_verified_mismatch": "detectors", "verify_anomalies": "forge",
}


def test_cli_reads_each_stage_from_the_package_table_and_a_cycle_is_a_value_error(tmp_path):
    assert issubclass(chronolint.CycleDetected, ValueError)
    path = tmp_path / "cycle.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        write_ndjson([make_record(1, parents=[2]), make_record(2, parents=[1])], fh)
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps([{"kind": "DropOutOfOrder", "scope": "commit"}]))
    argvs = [["scan", str(path), "--snapshot-date", "2019-10-31T00:00:00Z"],
             ["filter", str(path), "--policy-file", str(policies)]]
    done = subprocess.run(
        [sys.executable, "-c", NAME_PROBE, json.dumps([TRACED, argvs])],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    same, refused, runs = json.loads(done.stdout)
    assert same == {name: True for name in TRACED}
    assert refused == ["no_such_stage", "__all__"]
    cycle = f"chronolint: error: commit graph has a cycle: {hex_hash(1)} -> {hex_hash(2)}\n"
    assert runs == [[2, cycle], [2, cycle]]


def test_readme_python_examples_run_in_order_with_warnings_as_errors(tmp_path):
    # Each block goes on from the one before it. The export holds two
    # repositories and a repeated commit, which one graph cannot.
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    records = [make_record(0, repo="org/a", committer_epoch=1_000_000_600),
               make_record(1, parents=[0], repo="org/a"),
               make_record(2, repo="org/b", stars=5)]
    records.append(records[0])
    with open(tmp_path / "commits.ndjson", "w", encoding="utf-8") as fh:
        write_ndjson(records, fh)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", "\n".join(blocks)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert len(blocks) == 2
    assert done.stdout.splitlines()[0].startswith(f"{hex_hash(1)} 600 ")
    assert "'retained_commits': 3" in done.stdout


# IMPORT_PROBE, then which of the standard modules the package keeps off
# its start path are loaded by the end of the step.
START_PROBE = IMPORT_PROBE + """
print(json.dumps(sorted(m for m in ("dataclasses", "inspect", "logging") if m in sys.modules)))
"""


def test_no_step_loads_dataclasses_and_a_run_that_logs_nothing_loads_no_logging(tmp_path):
    # The last scan's commit names a parent outside the export, which
    # build_graph logs at debug level only.
    dangling = tmp_path / "dangling.ndjson"
    with open(dangling, "w", encoding="utf-8") as fh:
        write_ndjson([make_record(1, parents=[2])], fh)
    steps = [["import", "import"], ["parser", "parser"],
             *tiny_commands(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}]),
             ["scan dangling", ["scan", str(dangling), "--snapshot-date", "2019-10-31",
                                "--report", str(tmp_path / "dangling.json")]]]
    loaded = {}
    for name, step in steps:  # in order: scan writes the report the later ones read
        done = subprocess.run(
            [sys.executable, "-c", START_PROBE, json.dumps(step)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded[name] = json.loads(done.stdout.splitlines()[1])
    assert loaded == {name: [] for name, _ in steps}


# IMPORT_PROBE, then whether csv is loaded by the end of the step.
CSV_PROBE = IMPORT_PROBE + """
print(json.dumps("csv" in sys.modules))
"""


def test_only_a_step_that_writes_a_csv_table_loads_csv(tmp_path):
    steps = tiny_commands(tmp_path, [{"kind": "DropOutOfOrder", "scope": "commit"}])
    report = steps[0][1][-1]
    steps.append(["stats csv", ["stats", report, "--report", str(tmp_path / "stats.json"),
                                "--csv-dir", str(tmp_path / "tables")]])
    loaded = {}
    for name, step in steps:  # in order: scan writes the report the later ones read
        done = subprocess.run(
            [sys.executable, "-c", CSV_PROBE, json.dumps(step)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        loaded[name] = json.loads(done.stdout.splitlines()[1])
    assert loaded == {"scan": False, "filter": False, "verify cold": False,
                      "verify warm": False, "stats": False, "stats csv": True}

    # A run that logs loads logging then, and its warning still reaches
    # stderr through logging's last-resort handler.
    cache = tmp_path / "cache.ndjson"
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write('{"repo": "r", "hash": "ab')  # a crash mid-append
    done = subprocess.run(
        [sys.executable, "-m", "chronolint.cli", *dict(steps)["verify warm"]],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr.splitlines()[0]) == (
        1, f"{cache}: skipping torn last line 3")


def _value_types():
    """(class, the fields of a valid value, whether they hash, and each bad
    set of fields with the ValueError text its check raises) for every
    value type of the package."""
    from chronolint.analytics import HISTOGRAM_BOUNDS, DeltaHistogram, DeltaStats
    from chronolint.detectors import DetectorConfig
    from chronolint.filters import FilterPolicy, RemovalLedger
    from chronolint.forge import MetadataSource, VerificationOutcome, VerificationStatus
    from chronolint.graph import CommitGraph, build_graph
    from chronolint.ingest import DedupReport, DuplicateHashConflict, MalformedRecord, ParseResult
    from chronolint.model import Anomaly, AnomalyKind, CommitRecord

    rec = make_record(1)
    graph = build_graph([rec])
    old, ooo = AnomalyKind.OLD, AnomalyKind.OUT_OF_ORDER_PARENT
    forge, stub = VerificationStatus.CONFIRMED_ON_FORGE, "FileStub"
    buckets = tuple(zip((*HISTOGRAM_BOUNDS, None), [1] + [0] * 10))
    return [
        (CommitRecord, (rec.hash, "r", (), 1, 2, "a", "c", "m", None, 5, 60), True, []),
        (Anomaly, (old, rec.hash, "r", "e"), True, [
            ((old, rec.hash, "r", "e", 5),
             "delta_seconds must be set exactly for out-of-order anomalies"),
            ((ooo, rec.hash, "r", "e"),
             "delta_seconds must be set exactly for out-of-order anomalies")]),
        (MetadataSource, (stub, "stub"), True, [
            (("Mirror", "stub"), "unknown source kind 'Mirror'"),
            ((stub, ""), "source 'FileStub' needs an endpoint"),
            ((stub, 1), "source 'FileStub': endpoint must be a string, got int"),
            ((stub, "stub", 1), "source 'FileStub': auth must be a string or null, got int"),
            (("PrimaryForge", "ftp://x/{hash}"), "source 'PrimaryForge': endpoint must be an "
             "http:// or https:// URL template"),
            (("PrimaryForge", "https://x/{hash"), "source 'PrimaryForge': bad endpoint "
             "template: expected '}' before end of string"),
            (("PrimaryForge", "https://x/{hash!r}"), "source 'PrimaryForge': endpoint field "
             "'hash' must be a bare {repo} or {hash}, with no format spec or conversion")]),
        # A list of parents is held as a tuple, so the outcome hashes.
        (VerificationOutcome, (rec.hash, forge, True, [rec.hash], 5), True, [
            ((rec.hash, forge, True, None, 5),
             "resolved outcomes need parents and a committer date"),
            ((rec.hash, forge, True, (), None),
             "resolved outcomes need parents and a committer date")]),
        (MalformedRecord, (3, "bad"), True, []),
        (ParseResult, ([rec], []), False, []),
        (DuplicateHashConflict, (rec.hash, 1, 2), True, []),
        (DedupReport, (3, 2, ((rec.hash, 2),)), True, [
            ((3, 3, ((rec.hash, 2),)), "dedup accounting broken: 3 in != 3 unique + 1 dropped")]),
        (DetectorConfig, (0, 10), True, [
            ((0, None, True, "commit"), "date_field must be committer or author, got 'commit'"),
            ((10, 10), "old_cutoff must lie before future_cutoff")]),
        (CommitGraph, (graph.records, graph.parent_start, graph.parent_rows, []), False, []),
        (FilterPolicy, ("TopKStars", 5), True, [
            (("TopK", 5), "unknown policy kind 'TopK'"),
            (("TopKStars",), "TopKStars needs k"),
            (("TopKStars", 0), "TopKStars needs k >= 1, got 0")]),
        (RemovalLedger, (FilterPolicy("TopKStars", 5), 1, 0, 2), True, []),
        (DeltaStats, (1, 5.0, 0.0, 5, 5.0, 5.0, 5.0, 5), True, [
            ((0, 5.0, 0.0, 5, 5.0, 5.0, 5.0, 5), "stats need at least one observation"),
            ((2, 5.0, 0.0, 5, 6.0, 5.0, 5.0, 5), "quantiles out of order")]),
        (DeltaHistogram, (buckets,), True, [
            ((buckets[1:],), "expected 11 buckets"),
            (((buckets[1],) + buckets[1:],), "bounds must increase strictly and end open"),
            ((buckets[:-1] + ((10**9, 0),),), "bounds must increase strictly and end open")]),
    ]


VALUE_TYPES = _value_types()


@pytest.mark.parametrize("cls, fields, hashable, refusals", VALUE_TYPES,
                         ids=[cls.__name__ for cls, *_ in VALUE_TYPES])
def test_a_value_type_is_immutable_hashes_by_value_and_keeps_its_checks(
        cls, fields, hashable, refusals):
    value, again = cls(*fields), cls(*fields)
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == again
    if hashable:
        assert hash(value) == hash(again)
    assert repr(value).startswith(f"{cls.__name__}(")
    # One class, no private fields tuple under it.
    assert cls.__mro__ == (cls, tuple, object)
    for bad, message in refusals:
        with pytest.raises(ValueError) as refused:
            cls(*bad)
        assert str(refused.value) == message
        # _replace skips the check, as _make does: a check that calls it
        # does not recurse.
        value._replace(**dict(zip(cls._fields, bad)))

