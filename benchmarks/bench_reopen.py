#!/usr/bin/env python3
"""Reopen benchmark: time, hash count and traced memory of reopening a log.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) and
reopens it with two source trees: this checkout, and a checkout of the commit
to compare against (``--parent``, the ``src`` directory of any checkout, for
example one made with ``git archive`` or ``git worktree``).  This checkout is
measured twice: with a complete ``log.leaves`` index ("warm index") and with
the index deleted before every reopen ("no index", which also pays for
writing the index back).  Every reopen runs in a fresh interpreter that
imports only the source tree it measures.

For each size and side it records the reopen wall time (median, quartiles and
every run), the tree-hash operations one reopen costs (``_kernels.ops()``),
and the peak of Python allocations during one more reopen under
``tracemalloc``.  The output, ``BENCH_reopen.json`` by default, also records
the seed, kernel backend, Python and ``cryptography`` versions and the
machine.  Run from the root of a checkout:

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

#: Child program: reopen the log ``repeats`` times, then once under tracemalloc.
_CHILD = r"""
import json, sys, time, tracemalloc
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from manifestd import _kernels
from manifestd.translog import TransparencyLog
log_dir, repeats, drop_index = Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
index = log_dir / "log.leaves"
times, hashes = [], []
for traced in [False] * repeats + [True]:
    if drop_index and index.exists():
        index.unlink()
    if traced:
        tracemalloc.start()
    before = _kernels.ops()
    start = time.perf_counter()
    log = TransparencyLog(log_dir)
    elapsed = time.perf_counter() - start
    ops = _kernels.ops() - before
    if traced:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    else:
        times.append(elapsed)
        hashes.append(ops)
    root = log.current_root().hex
    log.close()
    del log
print(json.dumps({"times": times, "hashes": hashes, "traced_peak_bytes": peak, "root": root}))
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


def measure(src: Path, log_dir: Path, repeats: int, drop_index: bool) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(log_dir), str(repeats), str(int(drop_index))],
        check=True,
        capture_output=True,
        text=True,
    )
    raw = json.loads(done.stdout)
    times = raw["times"]
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    if len(set(raw["hashes"])) != 1:
        raise RuntimeError(f"hash count differs between reopens: {raw['hashes']}")
    return {
        "reopen_s": {
            "median": statistics.median(times),
            "q1": quartiles[0],
            "q3": quartiles[2],
            "runs": times,
        },
        "hashes": raw["hashes"][0],
        "traced_peak_bytes": raw["traced_peak_bytes"],
        "root": raw["root"],
    }


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
    parser.add_argument("--repeats", type=int, default=5, help="timed reopens per size and side")
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

    rows = []
    workdir = Path(tempfile.mkdtemp(prefix="bench-reopen-"))
    try:
        for entries in (int(s) for s in args.sizes.split(",")):
            log_dir = workdir / f"log-{entries}"
            start = time.perf_counter()
            build_log(change_src, log_dir, entries, args.seed)
            built_s = time.perf_counter() - start
            files = {p.name: p.stat().st_size for p in log_dir.iterdir()}
            row = {
                "entries": entries,
                "build_s": built_s,
                "file_bytes": files,
                "parent": measure(args.parent, log_dir, args.repeats, drop_index=False),
                "change_warm_index": measure(change_src, log_dir, args.repeats, drop_index=False),
                "change_no_index": measure(change_src, log_dir, args.repeats, drop_index=True),
            }
            roots = {row[side].pop("root") for side in
                     ("parent", "change_warm_index", "change_no_index")}
            if len(roots) != 1:
                raise RuntimeError(f"{entries} entries: the reopened roots differ: {roots}")
            parent_s = row["parent"]["reopen_s"]["median"]
            for side in ("change_warm_index", "change_no_index"):
                row[side]["ratio_to_parent"] = row[side]["reopen_s"]["median"] / parent_s
            rows.append(row)
            print(json.dumps({k: row[k] for k in ("entries", "file_bytes")}), file=sys.stderr)
            for side in ("parent", "change_warm_index", "change_no_index"):
                m = row[side]
                print(f"  {side:18} {m['reopen_s']['median']:8.3f} s  {m['hashes']:9d} hashes  "
                      f"{m['traced_peak_bytes'] / 2**20:8.1f} MiB traced", file=sys.stderr)
            shutil.rmtree(log_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "benchmark": "reopen",
        "sizes": args.sizes,
        "what": "wall time of TransparencyLog(dir) on an existing, closed log; "
                "hashes are _kernels.ops() per reopen; traced peak is tracemalloc's",
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
        "rows": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
