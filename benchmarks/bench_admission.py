#!/usr/bin/env python3
"""Admission benchmark: µs per manifest of each secure-pass stage before the log.

Times ``Manifest()``, ``digest``, ``evaluate``, ``select_key``, ``sign`` and
``verify`` over the well-formed manifests of one harness batch
(``generate_batch`` with ``--seed``, one batch per size in ``--sizes``, in
requests, and the default policy, rotation and keys), parent against change
through ``_compare``.  Each interpreter times every stage as one loop over
all the manifests, ``LOOPS`` times, and keeps the best loop.  ``admission``
is one more such loop that builds each manifest from its fields, digests it
and evaluates it: the construction and ``pipeline.admit`` work of the secure
pass.  ``admission_s`` is that loop over the whole batch, and ``hashes`` the
SHA-256 digests it makes, one per manifest.

Both trees must produce the same digests, the same compliance reports and,
from the same RNG stream, the same key choices (each compared as a SHA-256).
``BENCH_admission.json`` also records the pairs the change won on
``admission_s`` and the signature scheme (the harness default).
"""

from _compare import main, spread, won

#: Timed loops per stage and interpreter; the best is kept.
LOOPS = 5

#: Child program: build the batch, time each stage's loop, fingerprint the outputs.
_CHILD = r"""
import hashlib, json, sys, time
import numpy as np
from manifestd.errors import EncodingError
from manifestd.harness import WorkloadConfig, _Streams, default_policy_set, generate_batch
from manifestd.keystore import Keystore, RotationPolicy
from manifestd.manifest import Manifest, digest
from manifestd.policy import evaluate
seed, requests, loops = given["seed"], given["size"], given["loops"]
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
    "admission_s": out["admission"] * len(good) / 1e6,
    "manifests": len(good),
    "digests": hashlib.sha256(b"".join(d.value for d in digests)).hexdigest(),
    "reports": fingerprint(
        f"{r.passed} {r.severity.value} " + ",".join(f"{i}:{s.value}" for i, s in r.failed_rules)
        for r in reports
    ),
    "picks": fingerprint(picks),
}))
"""


def summarize(runs: dict[str, list[dict]], _traced: dict) -> dict:
    row = {
        side: {
            "admission_s": spread([s["admission_s"] for s in samples]),
            "us_per_manifest": {name: spread([s["us"][name] for s in samples])
                                for name in samples[0]["us"]},
            # the admission pass digests each well-formed manifest once
            "hashes": samples[0]["manifests"],
        }
        for side, samples in runs.items()
    }
    first = runs["parent"][0]
    row["manifests"] = first["manifests"]
    row["fingerprints"] = {key: first[key] for key in ("digests", "reports", "picks")}
    parent, change = row["parent"], row["change"]
    change["ratio_to_parent"] = {
        name: change["us_per_manifest"][name]["median"] / parent["us_per_manifest"][name]["median"]
        for name in parent["us_per_manifest"]
    }
    change["pairs_won"] = won(change["admission_s"], parent["admission_s"])
    return row


if __name__ == "__main__":
    from manifestd.harness import WorkloadConfig

    main(
        "admission", __doc__, _CHILD, summarize, sizes="2000", repeats=10,
        same=("manifests", "digests", "reports", "picks"),
        params={"loops": LOOPS, "scheme": WorkloadConfig.scheme},
    )
