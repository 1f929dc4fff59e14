"""Repository hygiene: git tracks no ignored file; the benchmark's gate trips;
the scripts under benchmarks/ run; every public name has a caller or a stated
reason to stay; the stage sequence is written only in pipeline.py."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_no_ignored_file_is_tracked():
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--ignored", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert listed == ""


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="needs the perfbench directory")
def test_benchmark_selftest_passes():
    # the benchmark's correctness gate must still catch its planted faults
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


BENCH_SCRIPTS = sorted(p.name for p in (ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.skipif(not (ROOT / "benchmarks").is_dir(), reason="needs the benchmarks directory")
@pytest.mark.parametrize("script", BENCH_SCRIPTS)
def test_benchmark_script_runs_and_records_both_sides(script, tmp_path):
    # this checkout stands in for the parent: the figures must be there, not differ
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, f"benchmarks/{script}", "--parent", "src", "--sizes", "300",
         "--repeats", "1", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [row["entries"] for row in rows] == [300]
    for row in rows:
        sides = [side for side in row if side == "parent" or side.startswith("change")]
        assert "parent" in sides and len(sides) >= 2, sorted(row)
        for side in sides:
            timings = [v for k, v in row[side].items() if k.endswith("_s")]
            assert timings and all(t["median"] > 0 for t in timings), row[side]
            assert row[side]["hashes"] > 0


#: For each script, a one-line fault to plant in a copy of src, and the field it must trip.
LEAF_COUNT = ("_kernels.py", "def hash_leaf(data: bytes) -> bytes:\n    global _ops\n    _ops += 1",
              "def hash_leaf(data: bytes) -> bytes:\n    global _ops\n    _ops += 2", "hashes")
PLANTED = {
    "bench_admission.py": ("manifest.py", "_kernels.sha256(manifest._encoded)",
                           "_kernels.sha256(manifest._encoded + b' ')", "digests"),
}


def key_paths(obj, prefix=()):
    """Every path of dict keys in ``obj``, a list standing for each of its items."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for value in obj:
            yield from key_paths(value, prefix + ("[]",))


@pytest.mark.skipif(not (ROOT / "benchmarks").is_dir(), reason="needs the benchmarks directory")
@pytest.mark.parametrize("script", BENCH_SCRIPTS)
def test_benchmark_script_exits_1_when_the_trees_differ(script, tmp_path):
    # a parent tree with a planted fault: the run fails, names the field and
    # still writes every key of the committed BENCH layout
    module, before, after, field = PLANTED.get(script, LEAF_COUNT)
    parent = tmp_path / "src"
    shutil.copytree(ROOT / "src", parent, ignore=shutil.ignore_patterns("__pycache__"))
    path = parent / "manifestd" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(before) == 1
    path.write_text(text.replace(before, after), encoding="utf-8")
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, f"benchmarks/{script}", "--parent", str(parent), "--sizes", "300",
         "--repeats", "1", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(out.read_text(encoding="utf-8"))
    assert any(f"the {field} differ" in line for line in result["mismatches"]), result
    committed = ROOT / f"BENCH_{script.removeprefix('bench_').removesuffix('.py')}.json"
    missing = set(key_paths(json.loads(committed.read_text(encoding="utf-8"))))
    assert missing - set(key_paths(result)) == set()


#: Public names with no caller in the package, each with why it stays.
ALLOWED = {
    "reset_ops": "the test-side half of the ops counter",
    "EvidenceTuple.from_json_line": "reads the evidence.ndjson that `audit` and `bench` write",
    "undetected_probability": "criterion 09",
    "redact_for_user": "the paper's isolation claim (ROADMAP item 8)",
    "recheck_evidence": "perfbench sign-pipeline; ROADMAP item 7 gives it a CLI caller",
    "LogEntry.to_record": "perfbench sign-pipeline and log-audit hash the record it returns",
    "TransparencyLog.prove_consistency": "perfbench log-audit; ROADMAP item 7 (log-consistency)",
    "verify_inclusion": "perfbench log-audit; ROADMAP item 7 (receipt-verify)",
    "verify_consistency": "perfbench log-audit; ROADMAP item 7 (log-consistency)",
}


def gated_definitions(tree):
    """(qualified name, node) of each module-level function, private ones
    included, and of each public class and each public method of a public
    class; dunders are not gated."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_in_the_package():
    # a reference is a name, an attribute or an imported name in any module
    # but __init__.py, outside the definition it refers to; a method is
    # referred to only by an attribute, so a local variable of the same name
    # is no caller; a module-level private helper left without a caller
    # fails here too
    package = ROOT / "src" / "manifestd"
    references = {}
    definitions = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += [(path.name, qualified, node) for qualified, node in gated_definitions(tree)]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            attribute = isinstance(node, ast.Attribute)
            for name in names:
                references.setdefault(name, []).append((path.name, node.lineno, attribute))
    uncalled = {
        qualified
        for module, qualified, node in definitions
        if not any(
            (where != module or not node.lineno <= line <= node.end_lineno)
            and (attribute or "." not in qualified)
            for where, line, attribute in references.get(node.name, ())
        )
    }
    unexplained = sorted(uncalled - ALLOWED.keys())
    assert not unexplained, f"no caller in the package and not in ALLOWED: {unexplained}"
    # an allowance outlives its name only by mistake
    stale = sorted(ALLOWED.keys() - {qualified for _, qualified, _ in definitions})
    assert not stale, f"ALLOWED names what the package no longer defines: {stale}"


def test_only_the_pipeline_verifies_and_appends():
    # verify-then-append is written once, in pipeline.accept; a log append
    # (an .append with more than list.append's one argument) or a .verify call
    # anywhere else would spell the sequence out again
    package = ROOT / "src" / "manifestd"
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "pipeline.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            method = node.func.attr if isinstance(node.func, ast.Attribute) else None
            appends = method == "append" and len(node.args) + len(node.keywords) > 1
            # the keystore's own calls into its signature schemes
            verifies = method == "verify" and not (
                path.name == "keystore.py"
                and ast.unparse(node.func.value) in ("public_key", "self._scheme")
            )
            if appends or verifies:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}")
    assert found == []
