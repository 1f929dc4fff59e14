#!/usr/bin/env python3
"""Auditor benchmark: µs per call of each step of an auditor query on a log.

Builds one synthetic log per size (default 10^4, 10^5 and 10^6 entries) with
``_compare.build_log`` and queries it, parent against change through
``_compare``.  An inclusion query reads ``entry(i)``, hashes its record,
proves its inclusion in the current tree and verifies the proof; a
consistency query takes ``root_at(m)`` of an older size, proves the current
tree consistent with it and verifies that.  These are the two queries of
perfbench's ``log-audit``.  Each interpreter draws ``QUERIES`` of each from
the seed, times every step and each whole query as one loop over all of
them, ``LOOPS`` times in turn, and keeps each one's best loop.
``inclusion_s`` and ``consistency_s`` are the best whole-query loops, and
``hashes`` the tree hashes one loop of each query makes.

Both trees must read the same entries, prove with the same nodes (compared
as one SHA-256 over the entries, proofs and roots), verify every proof and
make the same hashes.  ``BENCH_audit.json`` also records the pairs the
change won on each whole query.
"""

from _compare import ENTRY, main, spread, won

#: Queries of each kind per interpreter.
QUERIES = 2000

#: Timed loops per step and interpreter; the best is kept.
LOOPS = 5

#: Child program: open the log, draw the queries, time each step's loop, fingerprint.
_CHILD = r"""
import hashlib, json, random, sys, time
from manifestd import _kernels
from manifestd.translog import TransparencyLog, verify_consistency, verify_inclusion
log_dir, seed, queries, loops = given["log"], given["seed"], given["queries"], given["loops"]
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
    # the sibling hashes only: trees that still pair each with its side agree too
    for step in proof.path:
        fingerprint.update(step if isinstance(step, bytes) else step[0])
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
    "inclusion_s": us["inclusion"] * queries / 1e6,
    "consistency_s": us["consistency"] * queries / 1e6,
    "entries": n,
    "hashes": {"inclusion": inclusion_hashes, "consistency": consistency_hashes},
    "fingerprint": fingerprint.hexdigest(),
}))
"""


def summarize(runs: dict[str, list[dict]], _traced: dict) -> dict:
    row = {
        side: {
            "inclusion_s": spread([s["inclusion_s"] for s in samples]),
            "consistency_s": spread([s["consistency_s"] for s in samples]),
            "us_per_call": {name: spread([s["us"][name] for s in samples])
                            for name in samples[0]["us"]},
            "hashes": sum(samples[0]["hashes"].values()),
            "hashes_per_query": {
                query: count / QUERIES for query, count in samples[0]["hashes"].items()
            },
        }
        for side, samples in runs.items()
    }
    row["fingerprint"] = runs["parent"][0]["fingerprint"]
    parent, change = row["parent"], row["change"]
    change["ratio_to_parent"] = {
        name: change["us_per_call"][name]["median"] / parent["us_per_call"][name]["median"]
        for name in parent["us_per_call"]
    }
    change["pairs_won"] = {
        query: won(change[f"{query}_s"], parent[f"{query}_s"])
        for query in ("inclusion", "consistency")
    }
    return row


if __name__ == "__main__":
    main(
        "audit", __doc__, _CHILD, summarize, sizes="10000,100000,1000000", repeats=10,
        same=("entries", "hashes", "fingerprint"),
        params={"queries": QUERIES, "loops": LOOPS, "entry": ENTRY},
        build=True,
    )
