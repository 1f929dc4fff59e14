#!/usr/bin/env python3
"""Append benchmark: time per append, build time and hash count of building a log.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) from
the entries of ``_compare.build_log``, in a fresh temporary directory, parent
against change through ``_compare``.  It records the build's wall time, the
median and mean time of one ``append`` call in µs (each the median over the
builds), and the tree-hash operations a build costs (``_kernels.ops()``) in
all and per append.

Every build must write the same records, checkpoints and index, byte for
byte (compared by SHA-256), and cost the same hashes; ``log.offsets``, which
trees older than it do not write, is left out of the comparison.  ``BENCH_append.json`` also records the
pairs the change won on the build time.
"""

import statistics

from _compare import ENTRY, main, spread, won

#: Child program: build the log, timing every append, then digest its files.
_CHILD = r"""
import hashlib, json, random, statistics, tempfile, time
from array import array
from pathlib import Path
from manifestd import _kernels
from manifestd.manifest import ManifestDigest
from manifestd.translog import TransparencyLog
scratch = tempfile.TemporaryDirectory(prefix="bench-append-")
log_dir, entries = Path(scratch.name), given["size"]
rng = random.Random(given["seed"])
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
for path in (log_dir / name for name in ("log.checkpoints", "log.leaves", "log.records")):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    files[path.name] = digest.hexdigest()
scratch.cleanup()
print(json.dumps({"build_s": build_s, "hashes": hashes, "ops_per_append": hashes / entries,
                  "files": files,
                  "append_p50_us": statistics.median(append_ns) / 1e3,
                  "append_mean_us": sum(append_ns) / len(append_ns) / 1e3}))
"""


def summarize(runs: dict[str, list[dict]], _traced: dict) -> dict:
    row = {
        side: {
            "build_s": spread([s["build_s"] for s in samples]),
            "append_us": {
                "p50": statistics.median(s["append_p50_us"] for s in samples),
                "mean": statistics.median(s["append_mean_us"] for s in samples),
                "p50_runs": [s["append_p50_us"] for s in samples],
                "mean_runs": [s["append_mean_us"] for s in samples],
            },
            "hashes": samples[0]["hashes"],
            "ops_per_append": samples[0]["ops_per_append"],
        }
        for side, samples in runs.items()
    }
    row["file_sha256"] = runs["parent"][0]["files"]
    parent, change = row["parent"], row["change"]
    change["ratio_to_parent"] = {
        "build_s": change["build_s"]["median"] / parent["build_s"]["median"],
        "append_p50_us": change["append_us"]["p50"] / parent["append_us"]["p50"],
        "append_mean_us": change["append_us"]["mean"] / parent["append_us"]["mean"],
    }
    change["pairs_won"] = won(change["build_s"], parent["build_s"])
    return row


if __name__ == "__main__":
    main(
        "append", __doc__, _CHILD, summarize, sizes="10000,100000,1000000", repeats=7,
        same=("files", "hashes"),
        params={"entry": ENTRY},
    )
