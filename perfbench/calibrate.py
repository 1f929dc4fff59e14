"""Host-speed reference timed next to every measurement.

The host this benchmark was tuned on runs other tenants' work on the same
cores: in phases of seconds to tens of seconds the same code runs up to 2x
slower, and a run may fall wholly in one phase or mix both in any share, so
raw times of one run say as much about the phase as about the code.  A fixed
reference task is therefore timed right before and right after each window
of operations and each reopen, integrity check and set-up, and every raw time
is scaled by ``nominal_ns / reference_ns``: the time the operation would
have taken at the speed the reference runs at when the host is quiet.

Interpreter-bound code (hashing loops, JSON, list building) slows about as
much as a SHA-256 chain driven from Python; OpenSSL's ECDSA slows less.  So
the log workloads use the hashing chain alone, and sign-pipeline, where
signing and verifying are about half the pass, a chain plus ECDSA sign and
verify.
"""

from __future__ import annotations

import hashlib
import time

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

_CHAIN_STEPS = 1500
_ECDSA_ROUNDS = 3
_SAMPLE_RUNS = 3
# Reference times on a quiet 2-vCPU Intel Xeon host (Python 3.11, OpenSSL
# through cryptography 48): the minimum of 200 runs of each task.
_NOMINAL_NS = {"interpreter": 790_000, "interpreter+ecdsa": 1_240_000}


def _chain() -> None:
    h = bytes(32)
    for _ in range(_CHAIN_STEPS):
        h = hashlib.sha256(h + b"x").digest()


class Reference:
    """A fixed task whose time tracks the host's current speed."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_ns = _NOMINAL_NS[kind]
        if kind == "interpreter+ecdsa":
            key = ec.generate_private_key(ec.SECP256R1())
            public, algorithm = key.public_key(), ec.ECDSA(hashes.SHA256())

            def task() -> None:
                _chain()
                for _ in range(_ECDSA_ROUNDS):
                    public.verify(key.sign(b"reference", algorithm), b"reference", algorithm)

            self._task = task
        else:
            self._task = _chain

    def sample(self) -> int:
        """Shortest of a few runs of the task, in ns: a spike does not count."""
        best = None
        for _ in range(_SAMPLE_RUNS):
            start = time.perf_counter_ns()
            self._task()
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best
