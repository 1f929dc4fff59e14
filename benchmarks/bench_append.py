#!/usr/bin/env python3
"""Append benchmark: time per append, build time and hash count of building a log.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries),
the entries of ``bench_reopen.build_log``, with two source trees: this
checkout, and a checkout of the commit to compare against (``--parent``, the
``src`` directory of any checkout, for example one made with ``git
archive``).  Every build runs in a fresh interpreter that imports only the
source tree it measures, and the two trees take turns, each going first in
every other pair, so both see the same phases of a shared host.

For each size and side it records the build's wall time (median, quartiles
and every run), the median and mean time of one ``append`` call in µs (each
the median over the builds), and the tree-hash operations a build costs
(``_kernels.ops()``) in all and per append.  Every build must write the
same three files, byte for byte, and cost the same hashes: the script
exits 1 if the SHA-256 of any file or the hash count differs between
builds or sides.  The output, ``BENCH_append.json`` by default, also
records the pairs the change won, the seed, kernel backend, Python and
``cryptography`` versions and the machine.  Run from the root of a checkout:

    python3 benchmarks/bench_append.py --parent ../parent/src
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_reopen import git_commit, machine

ROOT = Path(__file__).resolve().parent.parent

#: Child program: build the log, timing every append, then digest its files.
_CHILD = r"""
import hashlib, json, random, statistics, sys, time
from array import array
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from manifestd import _kernels
from manifestd.manifest import ManifestDigest
from manifestd.translog import TransparencyLog
log_dir, entries, seed = Path(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
rng = random.Random(seed)
clock = time.perf_counter_ns
append_ns = array("q")
before = _kernels.ops()
start = time.perf_counter()
with TransparencyLog(log_dir) as log:
    append = log.append
    for i in range(entries):
        dig, sig = ManifestDigest(rng.randbytes(32)), rng.randbytes(71)
        t = clock()
        append(dig, sig, f"key-{i % 4}", appended_at=1_700_000_000_000 + i)
        append_ns.append(clock() - t)
build_s = time.perf_counter() - start
hashes = _kernels.ops() - before
files = {}
for path in sorted(log_dir.iterdir()):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    files[path.name] = digest.hexdigest()
print(json.dumps({"build_s": build_s, "hashes": hashes, "files": files,
                  "append_p50_us": statistics.median(append_ns) / 1e3,
                  "append_mean_us": sum(append_ns) / len(append_ns) / 1e3}))
"""


def build_once(src: Path, log_dir: Path, entries: int, seed: int) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(src), str(log_dir), str(entries), str(seed)],
            check=True,
            capture_output=True,
            text=True,
        )
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    return json.loads(done.stdout)


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "runs": values}


def summary(samples: list[dict], entries: int) -> dict:
    return {
        "build_s": spread([s["build_s"] for s in samples]),
        "append_us": {
            "p50": statistics.median(s["append_p50_us"] for s in samples),
            "mean": statistics.median(s["append_mean_us"] for s in samples),
            "p50_runs": [s["append_p50_us"] for s in samples],
            "mean_runs": [s["append_mean_us"] for s in samples],
        },
        "hashes": samples[0]["hashes"],
        "ops_per_append": samples[0]["hashes"] / entries,
    }


def measure(sides: dict[str, Path], workdir: Path, entries: int, seed: int,
            repeats: int) -> tuple[dict, list[str]]:
    """Alternating builds of the log by each side; the row and any mismatches."""
    samples: dict[str, list[dict]] = {side: [] for side in sides}
    order = list(sides)
    for pair in range(repeats):
        for side in order if pair % 2 == 0 else order[::-1]:
            log_dir = workdir / f"log-{entries}-{side}"
            samples[side].append(build_once(sides[side], log_dir, entries, seed))
    mismatches = []
    files = {json.dumps(s["files"], sort_keys=True) for side in sides for s in samples[side]}
    if len(files) != 1:
        mismatches.append(f"{entries} entries: the log files differ: {sorted(files)}")
    hashes = {s["hashes"] for side in sides for s in samples[side]}
    if len(hashes) != 1:
        mismatches.append(f"{entries} entries: the hash counts differ: {sorted(hashes)}")
    row = {side: summary(samples[side], entries) for side in sides}
    row["file_sha256"] = samples[order[0]][0]["files"]
    parent, change = row["parent"], row["change"]
    change["ratio_to_parent"] = {
        "build_s": change["build_s"]["median"] / parent["build_s"]["median"],
        "append_p50_us": change["append_us"]["p50"] / parent["append_us"]["p50"],
        "append_mean_us": change["append_us"]["mean"] / parent["append_us"]["mean"],
    }
    change["pairs_won"] = sum(
        c["build_s"] < p["build_s"] for c, p in zip(samples["change"], samples["parent"])
    )
    return row, mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--parent-rev", help="label or commit of that checkout, for the record")
    parser.add_argument("--sizes", default="10000,100000,1000000")
    parser.add_argument("--repeats", type=int, default=3, help="build pairs per size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_append.json")
    args = parser.parse_args()
    change_src = ROOT / "src"
    sys.path.insert(0, str(change_src))
    from manifestd import kernel_backend

    try:
        from cryptography import __version__ as cryptography_version
    except ImportError:
        cryptography_version = None

    rows, mismatches = [], []
    workdir = Path(tempfile.mkdtemp(prefix="bench-append-"))
    try:
        for entries in (int(s) for s in args.sizes.split(",")):
            sides = {"parent": args.parent, "change": change_src}
            row, differ = measure(sides, workdir, entries, args.seed, args.repeats)
            rows.append({"entries": entries, **row})
            mismatches += differ
            print(f"{entries} entries", file=sys.stderr)
            for side in sides:
                m = row[side]
                print(f"  {side:8} {m['build_s']['median']:8.3f} s  "
                      f"{m['append_us']['p50']:6.2f} us p50  {m['append_us']['mean']:6.2f} us mean"
                      f"  {m['ops_per_append']:6.3f} hashes/append", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "benchmark": "append",
        "sizes": args.sizes,
        "what": "TransparencyLog.append building a fresh log, each build in a fresh interpreter, "
                "parent and change alternating; append_us times each append call alone, "
                "build_s the whole build with its input generation and close; hashes are "
                "_kernels.ops() per build",
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
