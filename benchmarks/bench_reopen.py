#!/usr/bin/env python3
"""Reopen benchmark: time, hash count and traced memory of reopening a log.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) with
``_compare.build_log`` and reopens it, parent against change through
``_compare``.  Each tree reopens the log with its complete ``log.leaves``
index ("warm index") and with the index moved aside for the reopen and put
back after ``close`` ("no index"), so four sides take turns on one log.
Reopening writes no file; a parent tree older than that rule also writes
the index back on its "no index" side.  It records the reopen wall time,
the tree-hash operations one reopen costs (``_kernels.ops()``), the root it
restores, and the peak of Python allocations during one more reopen per
side under ``tracemalloc``.  That traced run then closes its handle and,
still holding it, reopens the log again, as a restarting auditor does; the
peak of that restart is recorded too.  The two
trees' hash counts are also put side by side for each index state, with the
change's ratio to the parent and the pairs it won.

Every reopen must restore the same root, and every reopen in the same index
state must cost the same hashes.
"""

from _compare import ENTRY, main, spread, won

#: Child program: reopen the log once, timed, or under tracemalloc once and
#: then once more while the closed first handle is still referenced.
_CHILD = r"""
import json, time, tracemalloc
from pathlib import Path
from manifestd import _kernels
from manifestd.translog import TransparencyLog
log_dir, drop_index, traced = Path(given["log"]), given["drop_index"], given["traced"]
index = log_dir / "log.leaves"
aside = log_dir / "log.leaves.aside"
if drop_index:
    index.replace(aside)
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
restart_peak = None
if traced:
    tracemalloc.reset_peak()
    TransparencyLog(log_dir).close()
    restart_peak = tracemalloc.get_traced_memory()[1]
if drop_index:
    aside.replace(index)
print(json.dumps({"seconds": elapsed, "hashes": hashes, "traced_peak_bytes": peak,
                  "traced_restart_peak_bytes": restart_peak, "root": root}))
"""

#: Each side's tree and whether it deletes the index before each reopen.
SIDES = {
    "parent": ("parent", {"drop_index": False}),
    "parent_no_index": ("parent", {"drop_index": True}),
    "change_warm_index": ("change", {"drop_index": False}),
    "change_no_index": ("change", {"drop_index": True}),
}

#: Each index state: the side of this checkout and the parent's side it is compared with.
AGAINST = {
    "warm_index": ("change_warm_index", "parent"),
    "no_index": ("change_no_index", "parent_no_index"),
}


def summarize(runs: dict[str, list[dict]], traced: dict) -> dict:
    row = {
        side: {
            "reopen_s": spread([s["seconds"] for s in samples]),
            "hashes": traced[side]["hashes"],
            "traced_peak_bytes": traced[side]["traced_peak_bytes"],
            "traced_restart_peak_bytes": traced[side]["traced_restart_peak_bytes"],
            "root": traced[side]["root"],
        }
        for side, samples in runs.items()
    }
    for state, (change, parent) in AGAINST.items():
        row[f"{state}_hashes"] = {"parent": row[parent]["hashes"], "change": row[change]["hashes"]}
        row[change]["ratio_to_parent"] = (
            row[change]["reopen_s"]["median"] / row[parent]["reopen_s"]["median"]
        )
        row[change]["pairs_won"] = won(row[change]["reopen_s"], row[parent]["reopen_s"])
    return row


if __name__ == "__main__":
    main(
        "reopen", __doc__, _CHILD, summarize, sizes="10000,100000,1000000", repeats=10,
        same=("root",),
        same_in_state=("hashes",),
        sides=SIDES,
        params={"entry": ENTRY},
        build=True,
        traced=True,
    )
