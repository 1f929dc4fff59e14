#!/usr/bin/env python3
"""Integrity-check benchmark: time, hash count and traced memory of ``check_integrity``.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) with
``bench_reopen.build_log`` and checks it with two source trees: this
checkout, and a checkout of the commit to compare against (``--parent``, the
``src`` directory of any checkout, for example one made with ``git
archive``).  Every check runs in a fresh interpreter that imports only the
source tree it measures, and the two trees take turns, each going first in
every other pair, so both see the same phases of a shared host.

For each size and side it records the check's wall time (median, quartiles
and every run), the tree-hash operations one check costs (``_kernels.ops()``),
and the peak of Python allocations during one more check under
``tracemalloc``; both sides must return the same report.  The output,
``BENCH_integrity.json`` by default, also records the pairs the change won,
the seed, kernel backend, Python and ``cryptography`` versions and the
machine.  Run from the root of a checkout:

    python3 benchmarks/bench_integrity.py --parent ../parent/src
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
import time
from pathlib import Path

from bench_reopen import build_log, git_commit, machine

ROOT = Path(__file__).resolve().parent.parent

#: Child program: check the log once, timed, or once under tracemalloc.
_CHILD = r"""
import json, sys, time, tracemalloc
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from manifestd import _kernels
from manifestd.translog import check_integrity
log_dir, traced = Path(sys.argv[2]), sys.argv[3] == "1"
if traced:
    tracemalloc.start()
before = _kernels.ops()
start = time.perf_counter()
report = check_integrity(log_dir)
elapsed = time.perf_counter() - start
hashes = _kernels.ops() - before
peak = tracemalloc.get_traced_memory()[1] if traced else None
print(json.dumps({"seconds": elapsed, "hashes": hashes, "traced_peak_bytes": peak,
                  "report": [report.ok, report.tampered_at, report.detail]}))
"""


def check_once(src: Path, log_dir: Path, traced: bool) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(log_dir), str(int(traced))],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(done.stdout)


def summary(samples: list[dict], traced: dict) -> dict:
    times = [s["seconds"] for s in samples]
    hashes = {s["hashes"] for s in samples} | {traced["hashes"]}
    if len(hashes) != 1:
        raise RuntimeError(f"hash count differs between checks: {sorted(hashes)}")
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    return {
        "integrity_s": {
            "median": statistics.median(times),
            "q1": quartiles[0],
            "q3": quartiles[2],
            "runs": times,
        },
        "hashes": hashes.pop(),
        "traced_peak_bytes": traced["traced_peak_bytes"],
    }


def measure(sides: dict[str, Path], log_dir: Path, repeats: int) -> dict:
    """Alternating timed checks of ``log_dir`` by each side, then one traced check each."""
    samples: dict[str, list[dict]] = {side: [] for side in sides}
    order = list(sides)
    for pair in range(repeats):
        for side in order if pair % 2 == 0 else order[::-1]:
            samples[side].append(check_once(sides[side], log_dir, traced=False))
    traced = {side: check_once(src, log_dir, traced=True) for side, src in sides.items()}
    reports = {tuple(s["report"]) for side in sides for s in samples[side] + [traced[side]]}
    if len(reports) != 1:
        raise RuntimeError(f"{log_dir}: the integrity reports differ: {sorted(reports)}")
    row = {side: summary(samples[side], traced[side]) for side in sides}
    row["report"] = list(reports.pop())
    parent, change = ([s["seconds"] for s in samples[side]] for side in ("parent", "change"))
    row["change"]["ratio_to_parent"] = (
        row["change"]["integrity_s"]["median"] / row["parent"]["integrity_s"]["median"]
    )
    row["change"]["pairs_won"] = sum(c < p for c, p in zip(change, parent))
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--parent-rev", help="label or commit of that checkout, for the record")
    parser.add_argument("--sizes", default="10000,100000,1000000")
    parser.add_argument("--repeats", type=int, default=5, help="timed check pairs per size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_integrity.json")
    args = parser.parse_args()
    change_src = ROOT / "src"
    sys.path.insert(0, str(change_src))
    from manifestd import kernel_backend

    try:
        from cryptography import __version__ as cryptography_version
    except ImportError:
        cryptography_version = None

    rows = []
    workdir = Path(tempfile.mkdtemp(prefix="bench-integrity-"))
    try:
        for entries in (int(s) for s in args.sizes.split(",")):
            log_dir = workdir / f"log-{entries}"
            start = time.perf_counter()
            build_log(change_src, log_dir, entries, args.seed)
            built_s = time.perf_counter() - start
            files = {p.name: p.stat().st_size for p in log_dir.iterdir()}
            row = {"entries": entries, "build_s": built_s, "file_bytes": files}
            sides = {"parent": args.parent, "change": change_src}
            row.update(measure(sides, log_dir, args.repeats))
            rows.append(row)
            print(json.dumps({k: row[k] for k in ("entries", "file_bytes", "report")}),
                  file=sys.stderr)
            for side in ("parent", "change"):
                m = row[side]
                print(f"  {side:8} {m['integrity_s']['median']:8.3f} s  {m['hashes']:10d} hashes  "
                      f"{m['traced_peak_bytes'] / 2**10:8.1f} KiB traced", file=sys.stderr)
            shutil.rmtree(log_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "benchmark": "integrity",
        "sizes": args.sizes,
        "what": "wall time of check_integrity(dir) on a closed, undamaged log, each in a fresh "
                "interpreter, parent and change alternating; hashes are _kernels.ops() per "
                "check; traced peak is tracemalloc's",
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
