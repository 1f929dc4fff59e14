#!/usr/bin/env python3
"""Reopen benchmark: time, hash count and traced memory of reopening a log.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) and
reopens it with two source trees: this checkout, and a checkout of the commit
to compare against (``--parent``, the ``src`` directory of any checkout, for
example one made with ``git archive``).  Each tree reopens the log with its
complete ``log.leaves`` index ("warm index") and with the index deleted
first ("no index", which also pays for writing the index back).  Every
reopen runs in a fresh interpreter that imports only the source tree it
measures, and the four sides take turns, one reopen each per repeat, in
reverse order every other repeat, so all see the same phases of a shared
host.

For each size and side it records the reopen wall time (median, quartiles and
every run), the tree-hash operations one reopen costs (``_kernels.ops()``),
the root it restores, and the peak of Python allocations during one more
reopen under ``tracemalloc``.  The two trees' hash counts are also put side
by side for each index state, with the change's ratio to the parent and the
pairs it won.  The script exits 1 if the roots differ between any two
reopens, or the hash counts between the two trees.  The output,
``BENCH_reopen.json`` by default, also records the seed, kernel backend,
Python and ``cryptography`` versions and the machine.
Run from the root of a checkout:

    python3 benchmarks/bench_reopen.py --parent ../parent/src

The records and checkpoints a log is built from depend only on the seed and
size, and both trees write them byte for byte alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Child program: reopen the log once, timed, or once under tracemalloc.
_CHILD = r"""
import json, sys, time, tracemalloc
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from manifestd import _kernels
from manifestd.translog import TransparencyLog
log_dir, drop_index, traced = Path(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
index = log_dir / "log.leaves"
if drop_index and index.exists():
    index.unlink()
if traced:
    tracemalloc.start()
before = _kernels.ops()
start = time.perf_counter()
log = TransparencyLog(log_dir)
elapsed = time.perf_counter() - start
hashes = _kernels.ops() - before
peak = tracemalloc.get_traced_memory()[1] if traced else None
root = log.current_root().hex
log.close()
print(json.dumps({"seconds": elapsed, "hashes": hashes, "traced_peak_bytes": peak,
                  "root": root}))
"""

def build_log(src: Path, log_dir: Path, entries: int, seed: int) -> None:
    """Append ``entries`` seeded synthetic entries with the tree at ``src``."""
    code = (
        "import random, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from manifestd.manifest import ManifestDigest\n"
        "from manifestd.translog import TransparencyLog\n"
        "rng = random.Random(int(sys.argv[4]))\n"
        "with TransparencyLog(sys.argv[2]) as log:\n"
        "    for i in range(int(sys.argv[3])):\n"
        "        log.append(ManifestDigest(rng.randbytes(32)), rng.randbytes(71),\n"
        "                   f'key-{i % 4}', appended_at=1_700_000_000_000 + i)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(src), str(log_dir), str(entries), str(seed)], check=True
    )


#: Each index state: the side of this checkout and the parent's side it is compared with.
AGAINST = {
    "warm_index": ("change_warm_index", "parent"),
    "no_index": ("change_no_index", "parent_no_index"),
}


def reopen_once(src: Path, drop_index: bool, log_dir: Path, traced: bool) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(log_dir), str(int(drop_index)),
         str(int(traced))],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(done.stdout)


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "runs": values}


def measure(sides: dict[str, tuple[Path, bool]], log_dir: Path,
            repeats: int) -> tuple[dict, list[str]]:
    """Alternating timed reopens by each side, then one traced each; the row and any mismatches."""
    samples: dict[str, list[dict]] = {side: [] for side in sides}
    order = list(sides)
    for pair in range(repeats):
        for side in order if pair % 2 == 0 else order[::-1]:
            samples[side].append(reopen_once(*sides[side], log_dir, traced=False))
    traced = {side: reopen_once(*sides[side], log_dir, traced=True) for side in sides}
    mismatches = []
    roots = {s["root"] for side in sides for s in samples[side] + [traced[side]]}
    if len(roots) != 1:
        mismatches.append(f"{log_dir.name}: the reopened roots differ: {sorted(roots)}")
    row = {}
    for side in sides:
        hashes = {s["hashes"] for s in samples[side] + [traced[side]]}
        if len(hashes) != 1:
            mismatches.append(f"{log_dir.name}: {side} hash counts differ: {sorted(hashes)}")
        row[side] = {
            "reopen_s": spread([s["seconds"] for s in samples[side]]),
            "hashes": min(hashes),
            "traced_peak_bytes": traced[side]["traced_peak_bytes"],
            "root": traced[side]["root"],
        }
    for state, (change, parent) in AGAINST.items():
        hashes = {"parent": row[parent]["hashes"], "change": row[change]["hashes"]}
        if hashes["parent"] != hashes["change"]:
            mismatches.append(f"{log_dir.name}: the {state} hash counts differ: {hashes}")
        row[f"{state}_hashes"] = hashes
        change_s, parent_s = ([s["seconds"] for s in samples[side]] for side in (change, parent))
        row[change]["ratio_to_parent"] = (
            row[change]["reopen_s"]["median"] / row[parent]["reopen_s"]["median"]
        )
        row[change]["pairs_won"] = sum(c < p for c, p in zip(change_s, parent_s))
    return row, mismatches


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "platform": platform.platform()}


def git_commit(path: Path) -> str | None:
    """HEAD of the checkout at ``path``, with ``-dirty`` if its sources differ from it.

    ``path`` is the root of a checkout or its ``src`` directory.
    """
    sources = "src" if (path / "src").is_dir() else "."
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path,
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", sources], cwd=path,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--parent-rev", help="label or commit of that checkout, for the record")
    parser.add_argument("--sizes", default="10000,100000,1000000")
    parser.add_argument("--repeats", type=int, default=10,
                        help="timed reopens per size and side, taking turns")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_reopen.json")
    args = parser.parse_args()
    change_src = ROOT / "src"
    sys.path.insert(0, str(change_src))
    from manifestd import kernel_backend

    try:
        from cryptography import __version__ as cryptography_version
    except ImportError:
        cryptography_version = None

    rows, mismatches = [], []
    # each side's checkout, and whether it deletes the index before each reopen
    sides = {
        "parent": (args.parent, False),
        "parent_no_index": (args.parent, True),
        "change_warm_index": (change_src, False),
        "change_no_index": (change_src, True),
    }
    workdir = Path(tempfile.mkdtemp(prefix="bench-reopen-"))
    try:
        for entries in (int(s) for s in args.sizes.split(",")):
            log_dir = workdir / f"log-{entries}"
            start = time.perf_counter()
            build_log(change_src, log_dir, entries, args.seed)
            built_s = time.perf_counter() - start
            files = {p.name: p.stat().st_size for p in log_dir.iterdir()}
            row = {"entries": entries, "build_s": built_s, "file_bytes": files}
            measured, differ = measure(sides, log_dir, args.repeats)
            row.update(measured)
            rows.append(row)
            mismatches += differ
            print(json.dumps({k: row[k] for k in ("entries", "file_bytes")}), file=sys.stderr)
            for side in sides:
                m = row[side]
                print(f"  {side:18} {m['reopen_s']['median']:8.3f} s  {m['hashes']:9d} hashes  "
                      f"{m['traced_peak_bytes'] / 2**20:8.1f} MiB traced", file=sys.stderr)
            shutil.rmtree(log_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "benchmark": "reopen",
        "sizes": args.sizes,
        "what": "wall time of TransparencyLog(dir) on an existing, closed log, each in a "
                "fresh interpreter, the sides taking turns; hashes are _kernels.ops() per "
                "reopen; traced peak is tracemalloc's",
        "seed": args.seed,
        "repeats": args.repeats,
        "entry": "32-byte digest, 71-byte signature, key id key-{i % 4}",
        "kernel_backend": kernel_backend,
        "python": platform.python_version(),
        "cryptography": cryptography_version,
        "machine": machine(),
        "commits": {
            "change": git_commit(ROOT),
            "parent": args.parent_rev or git_commit(args.parent),
        },
        "mismatches": mismatches,
        "rows": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for line in mismatches:
        print(line, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
