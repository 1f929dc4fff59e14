#!/usr/bin/env python3
"""Auditor benchmark: µs per call of each step of an auditor query on a log.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries, with
``bench_reopen.build_log``) and queries it with two source trees: this
checkout, and a checkout of the commit to compare against (``--parent``, the
``src`` directory of any checkout, for example one made with ``git
archive``).  Every measurement runs in a fresh interpreter that opens the
log with the source tree it measures, and the two trees take turns, each
going first in every other pair, so both see the same phases of a shared
host.

An inclusion query reads ``entry(i)``, hashes its record, proves its
inclusion in the current tree and verifies the proof; a consistency query
takes ``root_at(m)`` of an older size, proves the current tree consistent
with it and verifies that.  These are the two queries of perfbench's
``log-audit``.  Each interpreter draws ``QUERIES`` of each from the seed,
times every step (``entry``, ``prove_inclusion``, ``verify_inclusion``,
``root_at``, ``prove_consistency``, ``verify_consistency``) and each whole
query as one loop over all of them, ``LOOPS`` times in turn, and keeps each
one's best loop; a side's figure is the median of its interpreters' figures
(``--repeats`` of them), with the quartiles and every run.
``inclusion_s`` and ``consistency_s`` are the best whole-query loops, and
``hashes`` the tree hashes one loop of each query makes.

Both trees must read the same entries, prove with the same nodes, verify
every proof and make the same hashes: the script exits 1 if the SHA-256
over the entries, proofs and roots, or the hash counts, differ between runs
or sides.  The output, ``BENCH_audit.json`` by default, also records the
pairs the change won on each whole query, the seed, kernel backend, Python
and ``cryptography`` versions and the machine.  Run from the root of a
checkout:

    python3 benchmarks/bench_audit.py --parent ../parent/src
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_reopen import build_log, git_commit, machine, spread

ROOT = Path(__file__).resolve().parent.parent

STEPS = (
    "entry",
    "prove_inclusion",
    "verify_inclusion",
    "inclusion",
    "root_at",
    "prove_consistency",
    "verify_consistency",
    "consistency",
)

#: Queries of each kind per interpreter.
QUERIES = 2000

#: Timed loops per step and interpreter; the best is kept.
LOOPS = 5

#: Child program: open the log, draw the queries, time each step's loop, fingerprint.
_CHILD = r"""
import hashlib, json, random, sys, time
sys.path.insert(0, sys.argv[1])
from manifestd import _kernels
from manifestd.translog import TransparencyLog, verify_consistency, verify_inclusion
log_dir, seed, queries, loops = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
log = TransparencyLog(log_dir)
n = log.size
rng = random.Random(seed)
indices = [rng.randrange(n) for _ in range(queries)]
olds = [rng.randrange(1, n) for _ in range(queries)]
current = log.current_root()
hash_leaf = _kernels.hash_leaf
entry, prove_inclusion, root_at, prove_consistency = (
    log.entry, log.prove_inclusion, log.root_at, log.prove_consistency
)

def inclusion():
    ok = True
    for i in indices:
        leaf = hash_leaf(entry(i).to_record())
        ok &= verify_inclusion(leaf, prove_inclusion(i), current)
    return ok

def consistency():
    ok = True
    for m in olds:
        ok &= verify_consistency(root_at(m), current, prove_consistency(m, n))
    return ok

before = _kernels.ops()
if not inclusion():
    sys.exit("an inclusion proof failed to verify")
inclusion_hashes = _kernels.ops() - before
before = _kernels.ops()
if not consistency():
    sys.exit("a consistency proof failed to verify")
consistency_hashes = _kernels.ops() - before

records = [entry(i).to_record() for i in indices]
leaves = [hash_leaf(r) for r in records]
proofs = [prove_inclusion(i) for i in indices]
roots = [root_at(m) for m in olds]
links = [prove_consistency(m, n) for m in olds]
fingerprint = hashlib.sha256(current.value)
for record, proof in zip(records, proofs):
    fingerprint.update(record)
    for sibling, side in proof.path:
        fingerprint.update(sibling + bytes([side]))
for root, link in zip(roots, links):
    fingerprint.update(root.value + b"".join(link))

def looped(call, args):
    def body():
        for a in args:
            call(*a)
    return body

bodies = {
    "entry": looped(entry, [(i,) for i in indices]),
    "prove_inclusion": looped(prove_inclusion, [(i,) for i in indices]),
    "verify_inclusion": looped(verify_inclusion, [(l, p, current)
                                                  for l, p in zip(leaves, proofs)]),
    "inclusion": inclusion,
    "root_at": looped(root_at, [(m,) for m in olds]),
    "prove_consistency": looped(prove_consistency, [(m, n) for m in olds]),
    "verify_consistency": looped(verify_consistency, [(r, current, p)
                                                      for r, p in zip(roots, links)]),
    "consistency": consistency,
}
# round-robin over the steps, so each step's loops spread over the whole run
best = {}
for _ in range(loops):
    for name, body in bodies.items():
        start = time.perf_counter_ns()
        body()
        elapsed = time.perf_counter_ns() - start
        best[name] = min(best.get(name, elapsed), elapsed)
us = {name: elapsed / queries / 1e3 for name, elapsed in best.items()}
log.close()
print(json.dumps({
    "us": us,
    "entries": n,
    "hashes": {"inclusion": inclusion_hashes, "consistency": consistency_hashes},
    "fingerprint": fingerprint.hexdigest(),
}))
"""


def run_once(src: Path, log_dir: Path, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), str(log_dir), str(seed), str(QUERIES),
         str(LOOPS)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(done.stdout)


def query_s(sample: dict, query: str) -> float:
    """Seconds of the best timed loop of all ``QUERIES`` queries of one kind."""
    return sample["us"][query] * QUERIES / 1e6


def summary(samples: list[dict]) -> dict:
    return {
        "inclusion_s": spread([query_s(s, "inclusion") for s in samples]),
        "consistency_s": spread([query_s(s, "consistency") for s in samples]),
        "us_per_call": {name: spread([s["us"][name] for s in samples]) for name in STEPS},
        "hashes": sum(samples[0]["hashes"].values()),
        "hashes_per_query": {
            query: count / QUERIES for query, count in samples[0]["hashes"].items()
        },
    }


def measure(sides: dict[str, Path], log_dir: Path, args) -> tuple[dict, list[str]]:
    """Alternating runs of each side on one log; the row and any mismatches."""
    samples: dict[str, list[dict]] = {side: [] for side in sides}
    order = list(sides)
    for pair in range(args.repeats):
        for side in order if pair % 2 == 0 else order[::-1]:
            samples[side].append(run_once(sides[side], log_dir, args.seed))
    mismatches = []
    for key in ("entries", "hashes", "fingerprint"):
        seen = {json.dumps(s[key], sort_keys=True) for side in sides for s in samples[side]}
        if len(seen) != 1:
            mismatches.append(f"{log_dir.name}: the {key} differ: {sorted(seen)}")
    row = {side: summary(samples[side]) for side in sides}
    row["fingerprint"] = samples["parent"][0]["fingerprint"]
    parent, change = row["parent"], row["change"]
    change["ratio_to_parent"] = {
        name: change["us_per_call"][name]["median"] / parent["us_per_call"][name]["median"]
        for name in STEPS
    }
    change["pairs_won"] = {
        query: sum(
            query_s(c, query) < query_s(p, query)
            for c, p in zip(samples["change"], samples["parent"])
        )
        for query in ("inclusion", "consistency")
    }
    return row, mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--parent-rev", help="label or commit of that checkout, for the record")
    parser.add_argument("--sizes", default="10000,100000,1000000")
    parser.add_argument("--repeats", type=int, default=10, help="interpreter pairs per size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_audit.json")
    args = parser.parse_args()
    change_src = ROOT / "src"
    sys.path.insert(0, str(change_src))
    from manifestd import kernel_backend

    try:
        from cryptography import __version__ as cryptography_version
    except ImportError:
        cryptography_version = None

    rows, mismatches = [], []
    sides = {"parent": args.parent, "change": change_src}
    workdir = Path(tempfile.mkdtemp(prefix="bench-audit-"))
    try:
        for entries in (int(s) for s in args.sizes.split(",")):
            log_dir = workdir / f"log-{entries}"
            start = time.perf_counter()
            build_log(change_src, log_dir, entries, args.seed)
            built_s = time.perf_counter() - start
            row, differ = measure(sides, log_dir, args)
            rows.append({"entries": entries, "build_s": built_s, **row})
            mismatches += differ
            print(f"{entries} entries", file=sys.stderr)
            for name in STEPS:
                p, c = (row[side]["us_per_call"][name]["median"] for side in sides)
                print(f"  {name:18} parent {p:8.2f} us  change {c:8.2f} us  x{c / p:.2f}",
                      file=sys.stderr)
            shutil.rmtree(log_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "benchmark": "audit",
        "sizes": args.sizes,
        "what": "us per call of each auditor step and whole query on a log of `entries` "
                "entries, each timed as one loop over `queries` seeded queries, best of "
                "`loops` loops per fresh interpreter, parent and change alternating; "
                "inclusion = entry, hash_leaf of its record, prove_inclusion and "
                "verify_inclusion at the current size; consistency = root_at of an older "
                "size, prove_consistency to the current size and verify_consistency; "
                "inclusion_s and consistency_s = the best loop of all queries of that kind; "
                "hashes = tree hashes of one loop of each kind",
        "seed": args.seed,
        "repeats": args.repeats,
        "queries": QUERIES,
        "loops": LOOPS,
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
