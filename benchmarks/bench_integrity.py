#!/usr/bin/env python3
"""Integrity-check benchmark: time, hash count and traced memory of ``check_integrity``.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) with
``_compare.build_log`` and checks it, parent against change through
``_compare``.  It records the check's wall time, the tree-hash operations one
check costs (``_kernels.ops()``), and the peak of Python allocations during
one more check per side under ``tracemalloc``.

Every check must return the same report and cost the same hashes.
``BENCH_integrity.json`` also records the pairs the change won.
"""

from _compare import ENTRY, main, spread, won

#: Child program: check the log once, timed, or once under tracemalloc.
_CHILD = r"""
import json, time, tracemalloc
from manifestd import _kernels
from manifestd.translog import check_integrity
log_dir, traced = given["log"], given["traced"]
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


def summarize(runs: dict[str, list[dict]], traced: dict) -> dict:
    row = {
        side: {
            "integrity_s": spread([s["seconds"] for s in samples]),
            "hashes": traced[side]["hashes"],
            "traced_peak_bytes": traced[side]["traced_peak_bytes"],
        }
        for side, samples in runs.items()
    }
    row["report"] = traced["parent"]["report"]
    row["change"]["ratio_to_parent"] = (
        row["change"]["integrity_s"]["median"] / row["parent"]["integrity_s"]["median"]
    )
    row["change"]["pairs_won"] = won(row["change"]["integrity_s"], row["parent"]["integrity_s"])
    return row


if __name__ == "__main__":
    main(
        "integrity", __doc__, _CHILD, summarize, sizes="10000,100000,1000000", repeats=5,
        same=("report", "hashes"),
        params={"entry": ENTRY},
        build=True,
        traced=True,
    )
