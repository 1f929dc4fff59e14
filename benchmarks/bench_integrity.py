#!/usr/bin/env python3
"""Integrity-check benchmark: time, hash count and traced memory of ``check_integrity``.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) with
``_compare.build_log`` and checks it, parent against change through
``_compare``.  It records the check's wall time, the tree-hash operations one
check costs (``_kernels.ops()``), and the peak of Python allocations during
one more check per side under ``tracemalloc``.  Each run then checks the
same unchanged log a second time in the same interpreter and records that
re-check's wall time and hashes (``recheck_s``, ``recheck_hashes``).

Every first check must return the same report and cost the same hashes, and
every re-check the same report; the re-check's cost may differ between the
sides.  ``BENCH_integrity.json`` also records the pairs the change won.
"""

from _compare import ENTRY, main, spread, won

#: Child program: check the log, timed or under tracemalloc, then check it again.
_CHILD = r"""
import json, time, tracemalloc
from manifestd import _kernels
from manifestd.translog import check_integrity
log_dir, traced = given["log"], given["traced"]
if traced:
    tracemalloc.start()


def timed_check():
    before = _kernels.ops()
    start = time.perf_counter()
    report = check_integrity(log_dir)
    return (time.perf_counter() - start, _kernels.ops() - before,
            [report.ok, report.tampered_at, report.detail])


elapsed, hashes, report = timed_check()
peak = tracemalloc.get_traced_memory()[1] if traced else None
tracemalloc.stop()
recheck_s, recheck_hashes, recheck_report = timed_check()
print(json.dumps({"seconds": elapsed, "hashes": hashes, "traced_peak_bytes": peak,
                  "report": report, "recheck_s": recheck_s, "recheck_hashes": recheck_hashes,
                  "recheck_report": recheck_report}))
"""


def summarize(runs: dict[str, list[dict]], traced: dict) -> dict:
    row = {
        side: {
            "integrity_s": spread([s["seconds"] for s in samples]),
            "hashes": traced[side]["hashes"],
            "traced_peak_bytes": traced[side]["traced_peak_bytes"],
            "recheck_s": spread([s["recheck_s"] for s in samples]),
            "recheck_hashes": samples[0]["recheck_hashes"],
        }
        for side, samples in runs.items()
    }
    row["report"] = traced["parent"]["report"]
    parent, change = row["parent"], row["change"]
    change["ratio_to_parent"] = {
        key: change[key]["median"] / parent[key]["median"] for key in ("integrity_s", "recheck_s")
    }
    change["pairs_won"] = {
        key: won(change[key], parent[key]) for key in ("integrity_s", "recheck_s")
    }
    return row


if __name__ == "__main__":
    main(
        "integrity", __doc__, _CHILD, summarize, sizes="10000,100000,1000000", repeats=5,
        same=("report", "hashes", "recheck_report"),
        params={"entry": ENTRY},
        build=True,
        traced=True,
    )
