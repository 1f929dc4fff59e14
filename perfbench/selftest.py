#!/usr/bin/env python3
"""Self-test: the benchmark's correctness gate must report planted faults.

Runs each workload at a tiny size, once clean and, where a fault is planted,
once with it: one byte of ``log.records`` flipped before the log is reopened,
and one request's expected outcome changed.  A clean run must report no
failed check and a faulty run at least one.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run

SEED = 11


def flip_middle_byte(log_dir: Path) -> None:
    path = log_dir / "log.records"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def main() -> int:
    run.import_manifestd()
    import spans
    import workloads

    def changed_expectation(round_no, request):
        if round_no == 0 and request.index == 0:
            return frozenset({"an outcome no request has"})
        return workloads.expected_outcomes(round_no, request)

    tiny = {"entries": 300, "pool_requests": 200}
    cases = [
        ("sign-pipeline clean", False, workloads.sign_pipeline,
         {"round_requests": 300}),
        ("sign-pipeline with one expected outcome changed", True, workloads.sign_pipeline,
         {"round_requests": 300, "expected": changed_expectation}),
        ("log-audit clean", False, workloads.log_audit, tiny),
        ("log-restart clean", False, workloads.log_restart, tiny),
        ("log-restart with a byte of log.records flipped", True, workloads.log_restart,
         {**tiny, "before_reopen": flip_middle_byte}),
    ]
    run.WORK_DIR.mkdir(exist_ok=True)
    ok = True
    try:
        for name, faulty, fn, kwargs in cases:
            workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR))
            try:
                m = fn(SEED, 0.05, workdir, spans.NoTrace(), **kwargs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            passed = (m.failed > 0) if faulty else (m.failed == 0)
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {name}: "
                  f"{m.failed} of {m.attempted} checks failed")
            for what in m.failures[:3]:
                print(f"     {what}")
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
