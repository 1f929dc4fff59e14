#!/usr/bin/env python3
"""Admission benchmark: µs per manifest of each secure-pass stage before the log.

Times ``Manifest()``, ``digest``, ``evaluate``, ``select_key``, ``sign`` and
``verify`` over the well-formed manifests of one harness batch
(``generate_batch`` with ``--seed``, one batch per size in ``--sizes``, in
requests, and the default policy, rotation and keys), with two source trees: this checkout, and a
checkout of the commit to compare against (``--parent``, the ``src``
directory of any checkout, for example one made with ``git archive``).
Every measurement runs in a fresh interpreter that imports only the source
tree it measures, and the two trees take turns, each going first in every
other pair, so both see the same phases of a shared host.

Each interpreter times every stage as one loop over all the manifests, five
times, and keeps the best loop; a side's figure is the median of its
interpreters' figures (``--repeats`` of them), with the quartiles and every
run.  ``admission`` is one more such loop that builds each manifest from its
fields, digests it and evaluates it: the construction and ``pipeline.admit``
work of the secure pass.  ``admission_s`` is the best of these passes over the
whole batch, and ``hashes`` the SHA-256 digests one pass makes, one per
manifest.

Both trees must produce the same digests, the same compliance reports and,
from the same RNG stream, the same key choices: the script exits 1 if the
SHA-256 over any of these differs between runs or sides.  The output,
``BENCH_admission.json`` by default, also records the pairs the change won
on ``admission_s``, the seed, loop count, signature scheme (the harness
default), kernel backend, Python and ``cryptography`` versions and the
machine.  Run from the root of a checkout:

    python3 benchmarks/bench_admission.py --parent ../parent/src
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from bench_reopen import git_commit, machine

ROOT = Path(__file__).resolve().parent.parent

STAGES = ("construct", "digest", "evaluate", "admission", "select_key", "sign", "verify")

#: Timed loops per stage and interpreter; the best is kept.
LOOPS = 5

#: Child program: build the batch, time each stage's loop, fingerprint the outputs.
_CHILD = r"""
import hashlib, json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
from manifestd.errors import EncodingError
from manifestd.harness import WorkloadConfig, _Streams, default_policy_set, generate_batch
from manifestd.keystore import Keystore, RotationPolicy
from manifestd.manifest import Manifest, digest
from manifestd.policy import evaluate
seed, requests, loops = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
cfg = WorkloadConfig(sizes=(requests,), seed=seed)
batch = generate_batch(cfg, requests, _Streams(seed, requests).fresh()["gen"])
good = []
for r in batch:
    try:
        r.manifest()
    except EncodingError:
        continue
    good.append(r)
fields = [(r.user_fields, r.model_fields, r.timestamp, r.tool_id) for r in good]
nows = [int(r.scheduled_ms) for r in good]
policy = default_policy_set(cfg)
keystore = Keystore(cfg.scheme)
for key_id in cfg.key_ids:
    keystore.keygen(key_id, created_at=cfg.base_time_ms)
rotation = RotationPolicy.uniform(cfg.key_ids)
manifests = [Manifest(*f) for f in fields]
digests = [digest(m) for m in manifests]
key_ids = [cfg.key_ids[i % len(cfg.key_ids)] for i in range(len(good))]
signatures = [keystore.sign(d, k) for d, k in zip(digests, key_ids)]
out = {}
def stage(name, body):
    best = None
    for _ in range(loops):
        start = time.perf_counter_ns()
        result = body()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    out[name] = best / len(good) / 1e3
    return result
stage("construct", lambda: [Manifest(*f) for f in fields])
stage("digest", lambda: [digest(m) for m in manifests])
reports = stage("evaluate", lambda: [evaluate(m, policy, n) for m, n in zip(manifests, nows)])
def admit_all():
    admitted = []
    for f, n in zip(fields, nows):
        m = Manifest(*f)
        admitted.append((digest(m), evaluate(m, policy, n)))
    return admitted
admitted = stage("admission", admit_all)
if [d for d, _ in admitted] != digests or [r for _, r in admitted] != reports:
    sys.exit("the admission pass disagrees with the separate stages")
def draw():
    rng = np.random.Generator(np.random.Philox(seed))
    return [keystore.select_key(rotation, rng) for _ in good]
picks = stage("select_key", draw)
stage("sign", lambda: [keystore.sign(d, k) for d, k in zip(digests, key_ids)])
verdicts = stage("verify", lambda: [keystore.verify(d, s, k).accepted
                                    for d, s, k in zip(digests, signatures, key_ids)])
if not all(verdicts):
    sys.exit("a signature made in this run failed to verify")
def fingerprint(items):
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()
print(json.dumps({
    "us": out,
    "manifests": len(good),
    "digests": hashlib.sha256(b"".join(d.value for d in digests)).hexdigest(),
    "reports": fingerprint(
        f"{r.passed} {r.severity.value} " + ",".join(f"{i}:{s.value}" for i, s in r.failed_rules)
        for r in reports
    ),
    "picks": fingerprint(picks),
}))
"""


def run_once(src: Path, seed: int, requests: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(seed), str(requests), str(LOOPS)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(done.stdout)


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "runs": values}


def admission_s(sample: dict) -> float:
    """Seconds of the best timed admission pass over the batch: construct, digest, evaluate."""
    return sample["us"]["admission"] * sample["manifests"] / 1e6


def summary(samples: list[dict]) -> dict:
    return {
        "admission_s": spread([admission_s(s) for s in samples]),
        "us_per_manifest": {name: spread([s["us"][name] for s in samples]) for name in STAGES},
        # the admission pass digests each well-formed manifest once
        "hashes": samples[0]["manifests"],
    }


def measure(sides: dict[str, Path], requests: int, args) -> tuple[dict, list[str]]:
    """Alternating runs of each side on one batch size; the row and any mismatches."""
    samples: dict[str, list[dict]] = {side: [] for side in sides}
    order = list(sides)
    for pair in range(args.repeats):
        for side in order if pair % 2 == 0 else order[::-1]:
            samples[side].append(run_once(sides[side], args.seed, requests))
    mismatches = []
    for key in ("manifests", "digests", "reports", "picks"):
        seen = {str(s[key]) for side in sides for s in samples[side]}
        if len(seen) != 1:
            mismatches.append(f"{requests} requests: the {key} differ: {sorted(seen)}")
    row = {side: summary(samples[side]) for side in sides}
    row["manifests"] = samples["parent"][0]["manifests"]
    first = samples["parent"][0]
    row["fingerprints"] = {key: first[key] for key in ("digests", "reports", "picks")}
    parent, change = row["parent"], row["change"]
    change["ratio_to_parent"] = {
        name: change["us_per_manifest"][name]["median"] / parent["us_per_manifest"][name]["median"]
        for name in parent["us_per_manifest"]
    }
    change["pairs_won"] = sum(
        admission_s(c) < admission_s(p) for c, p in zip(samples["change"], samples["parent"])
    )
    return row, mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--parent-rev", help="label or commit of that checkout, for the record")
    parser.add_argument("--sizes", default="2000", help="requests per batch, comma-separated")
    parser.add_argument("--repeats", type=int, default=10, help="interpreter pairs per size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_admission.json")
    args = parser.parse_args()
    change_src = ROOT / "src"
    sys.path.insert(0, str(change_src))
    from manifestd import kernel_backend
    from manifestd.harness import WorkloadConfig

    try:
        from cryptography import __version__ as cryptography_version
    except ImportError:
        cryptography_version = None

    rows, mismatches = [], []
    sides = {"parent": args.parent, "change": change_src}
    for requests in (int(s) for s in args.sizes.split(",")):
        row, differ = measure(sides, requests, args)
        rows.append({"entries": requests, **row})
        mismatches += differ
        print(f"{requests} requests, {row['manifests']} manifests", file=sys.stderr)
        for name in STAGES:
            p, c = (row[side]["us_per_manifest"][name]["median"] for side in sides)
            print(f"  {name:11} parent {p:8.2f} us  change {c:8.2f} us  x{c / p:.2f}",
                  file=sys.stderr)

    result = {
        "benchmark": "admission",
        "sizes": args.sizes,
        "what": "us per well-formed manifest of one generate_batch batch (entries = requests), "
                "each stage timed as one loop over the batch, best of `loops` loops per fresh "
                "interpreter, parent and change alternating; admission = one timed loop that "
                "constructs, digests and evaluates each manifest, admission_s = that loop over "
                "the whole batch; hashes = SHA-256 digests of one admission pass",
        "seed": args.seed,
        "repeats": args.repeats,
        "loops": LOOPS,
        "scheme": WorkloadConfig.scheme,
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
