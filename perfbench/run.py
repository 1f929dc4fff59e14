#!/usr/bin/env python3
"""manifestd benchmark: secure-pass throughput and transparency-log costs.

Run from the root of a manifestd checkout; the package is imported from
``src/`` of that checkout and nowhere else:

    python3 perfbench/run.py --workload sign-pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload in turn
    python3 perfbench/selftest.py                            # the gate must trip

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` the workload runs twice on the same seed, untraced and then
traced, and the metrics are the per-layer ones, the tracing overhead included;
the spans are written to ``.perfbench-out/``.  The line before the result is
the run's provenance.  A run in which any check failed exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sign-pipeline", "log-audit", "log-restart")
# Highest percentile with at least ten samples beyond it in a run (detail only).
TAIL_QUANTILE = {"sign-pipeline": 0.99, "log-audit": 0.90, "log-restart": 0.99}


def import_manifestd():
    """Import manifestd from this checkout's src/, refusing any other copy."""
    package = ROOT / "src" / "manifestd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no manifestd sources at {package}; "
                         "run from the root of a manifestd checkout")
    sys.path.insert(0, str(package.parent))
    import manifestd

    if Path(manifestd.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported manifestd from {manifestd.__file__}, not {package}")
    return manifestd


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read BENCHMARK.json: {exc}")


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(manifestd, workloads, args, workload: str) -> dict:
    import cryptography
    import numpy

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": manifestd.kernel_backend,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "scheme": workloads.SCHEME,
        "round_requests": workloads.ROUND_REQUESTS,
        "pool_requests": workloads.POOL_REQUESTS,
        "log_entries": workloads.LOG_ENTRIES,
        "setup_repeats": workloads.SETUP_REPEATS,
        "tail_quantile": TAIL_QUANTILE[workload],
        "callers": 1,
        "loop": "closed",
    }


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an already sorted sequence."""
    return sorted_values[min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))]


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(m) -> dict:
    """The bounded metrics, in times scaled to the host's quiet speed.

    Every raw time is multiplied by ``nominal / reference``, the reference
    task timed around it (see ``calibrate``): other tenants of the host slow
    this code by up to 2x in phases as long as a run, and the scaling takes
    that out.  Operation statistics are per window (a round, 2000 appends, 8
    queries) and the run reports their median over windows; set-up, reopen
    and integrity times report the median of their samples.
    """
    nominal = m.reference.nominal_ns
    windows = m.windows() if m.window_refs else []
    scales = [nominal / ((before + after) / 2) for before, after in m.window_refs]

    def scaled(kind: str):
        samples = [t * nominal / ref for t, ref in zip(getattr(m, f"{kind}_s"), m.refs[kind])]
        return _median(samples)

    return {
        "ops_per_s": _median([len(w) / (sum(w) * f / 1e9) for w, f in zip(windows, scales)]),
        "op_p50_us": _median([statistics.median(w) * f / 1e3 for w, f in zip(windows, scales)]),
        "reopen_s": scaled("reopen"),
        "integrity_s": scaled("integrity"),
        "log_bytes_per_entry": m.log_bytes / m.log_entries if m.log_entries else None,
        "setup_s": scaled("setup"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def detail(m, workloads, workload: str) -> dict:
    """Whole-run figures, printed for reading but not bounded: they spread
    more from run to run than the bounded ones (see ``end_to_end``)."""
    ops = sorted(m.op_ns)
    tail = TAIL_QUANTILE[workload]
    refs = [(before + after) / 2 for before, after in m.window_refs]
    out = {
        "ops": len(ops),
        "windows": len(m.windows()),
        "reference": m.reference.kind,
        "reference_nominal_ns": m.reference.nominal_ns,
        "reference_median_ns": _median(refs),
        "reference_max_over_min": max(refs) / min(refs) if refs else None,
        "run_setup_median_s": _median(m.setup_s),
        "run_ops_per_s": len(ops) / (sum(ops) / 1e9) if ops else None,
        "run_op_p50_us": _quantile(ops, 0.5) / 1e3 if ops else None,
        f"run_op_p{round(tail * 100)}_us": _quantile(ops, tail) / 1e3 if ops else None,
        "reopen_samples": len(m.reopen_s),
        "reopen_median_s": _median(m.reopen_s),
        "integrity_samples": len(m.integrity_s),
        "integrity_median_s": _median(m.integrity_s),
        "setup_samples": len(m.setup_s),
        "counts": dict(m.counts),
    }
    if workload == "log-audit":
        every = workloads.CONSISTENCY_EVERY
        for name, pick in (("inclusion", lambda i: i % every != every - 1),
                           ("consistency", lambda i: i % every == every - 1)):
            times = sorted(t for i, t in enumerate(m.op_ns) if pick(i))
            out[f"{name}_query_p50_ms"] = _quantile(times, 0.5) / 1e6 if times else None
    return out


def per_layer(recorder, m, workloads, untraced: dict, traced: dict, hash_ops: int) -> dict:
    spans = recorder.self_times()

    def self_time(name: str, scale_ns: float) -> float:
        agg = spans.get(name)
        return agg["self_ns"] / agg["calls"] / scale_ns if agg else 0.0

    def ops_per_call(name: str) -> float:
        agg = spans.get(name)
        return agg["self_ops"] / agg["calls"] if agg else 0.0

    def overhead(name: str):
        if traced[name] is None or untraced[name] is None:
            return None
        return traced[name] - untraced[name]

    evaluated = spans.get("policy.evaluate", {}).get("calls", 0)
    blocked = m.counts[workloads.EXPIRED] + m.counts[workloads.BLOCKED]
    us, ms, s = 1e3, 1e6, 1e9
    return {
        "keystore.verify_us": self_time("keystore.verify", us),
        "keystore.sign_us": self_time("keystore.sign", us),
        "keystore.select_key_us": self_time("keystore.select_key", us),
        "keystore.rejects.signature_invalid": m.counts[workloads.SIGNATURE_INVALID],
        "keystore.rejects.key_revoked": m.counts[workloads.KEY_REVOKED],
        "manifest.construct_us": self_time("manifest.construct", us),
        "manifest.digest_us": self_time("manifest.digest", us),
        "manifest.encoding_errors": m.counts[workloads.ENCODING_ERROR],
        "policy.evaluate_us": self_time("policy.evaluate", us),
        "policy.block_ratio": blocked / evaluated if evaluated else 0.0,
        "translog.append_us": self_time("translog.append", us),
        "translog.append_hash_ops": ops_per_call("translog.append"),
        "translog.bytes_per_append": m.log_bytes / m.log_entries if m.log_entries else 0.0,
        "translog.entry_us": self_time("translog.entry", us),
        "translog.prove_inclusion_ms": self_time("translog.prove_inclusion", ms),
        "translog.prove_inclusion_hash_ops": ops_per_call("translog.prove_inclusion"),
        "translog.verify_inclusion_us": self_time("translog.verify_inclusion", us),
        "translog.root_at_ms": self_time("translog.root_at", ms),
        "translog.root_at_hash_ops": ops_per_call("translog.root_at"),
        "translog.prove_consistency_ms": self_time("translog.prove_consistency", ms),
        "translog.prove_consistency_hash_ops": ops_per_call("translog.prove_consistency"),
        "translog.verify_consistency_us": self_time("translog.verify_consistency", us),
        "translog.reopen_s": self_time("translog.reopen", s),
        "translog.check_integrity_s": self_time("translog.check_integrity", s),
        "audit.build_evidence_us": self_time("audit.build_evidence", us),
        "audit.recheck_evidence_us": self_time("audit.recheck_evidence", us),
        "audit.evidence_count": m.counts["evidence"],
        "kernels.hash_leaf_us": self_time("_kernels.hash_leaf", us),
        "kernels.hash_ops": hash_ops,
        "trace.spans": len(recorder),
        "trace.overhead.ops_per_s": overhead("ops_per_s"),
        "trace.overhead.op_p50_us": overhead("op_p50_us"),
    }


def run_workload(workload: str, args, spec: dict, manifestd, workloads, spans) -> dict:
    fn = workloads.WORKLOADS[workload]
    workdir = WORK_DIR / f"{workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        # A traced run spends half its time untraced and half traced, on the same seed.
        seconds = args.seconds / 2 if args.trace else args.seconds
        m = fn(args.seed, seconds, workdir / "untraced", spans.NoTrace())
        attempted, failed, failures = m.attempted, m.failed, list(m.failures)
        values = end_to_end(m)
        info = detail(m, workloads, workload)
        declared = spec["end_to_end"]
        if args.trace:
            recorder = spans.SpanRecorder(manifestd._kernels.ops)
            ops_before = manifestd._kernels.ops()
            mt = fn(args.seed, seconds, workdir / "traced", recorder)
            hash_ops = manifestd._kernels.ops() - ops_before
            attempted += mt.attempted
            failed += mt.failed
            failures += mt.failures
            values = per_layer(recorder, mt, workloads, values, end_to_end(mt), hash_ops)
            info = {"untraced": info, "traced": detail(mt, workloads, workload)}
            declared = spec["per_layer"]
            OUT_DIR.mkdir(exist_ok=True)
            stem = OUT_DIR / f"{workload}-seed{args.seed}"
            recorder.write_csv_gz(stem.with_suffix(".spans.csv.gz"))
            stem.with_suffix(".self_time.json").write_text(
                json.dumps(recorder.self_times(), indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    units = {d["name"]: d["unit"] for d in declared}
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    for what in failures:
        print(f"check failed: {what}", file=sys.stderr)
    print("detail " + json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0 and None not in values.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    manifestd = import_manifestd()
    import spans
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        t0 = time.perf_counter()
        result = run_workload(workload, args, spec, manifestd, workloads, spans)
        prov = provenance(manifestd, workloads, args, workload)
        prov["wall_s"] = time.perf_counter() - t0
        print("provenance " + json.dumps(prov, sort_keys=True))
        results[workload] = result
    if len(results) == 1:
        final = result
    else:
        for workload, result in results.items():
            print(f"result {workload} " + json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": v for w, r in results.items()
                        for name, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
