"""The parent-vs-change comparison that every ``bench_*.py`` script runs through.

For each size in ``--sizes``, a script's child program runs ``--repeats``
times per side, each run in a fresh interpreter that imports only the tree it
measures: this checkout's ``src``, or that of the checkout to compare against
(``--parent``, for example one made with ``git archive``).  The sides take
turns, in reverse order every other repeat, so a phase of a shared host
cannot favour one of them.  A side's timing is the median of its runs, with
the quartiles and every run.  If a field that must agree differs between
runs, the script lists it under ``mismatches`` and exits 1.  The output,
``BENCH_<name>.json`` by default, also records the seed, kernel backend,
Python and ``cryptography`` versions, both commits and the machine, whose
``parallel_speedup`` (a fixed pure-CPU task's throughput in two processes at
once over that in one) must exceed 1.5 for a parallel claim.  Run a script
from the root of a checkout: ``python3 benchmarks/bench_reopen.py --parent
../parent/src``.

A child program sees its tree first on ``sys.path`` and ``given``: the
``size``, ``seed``, ``traced``, ``log`` (the log built for this size, or None)
and the script's and side's own parameters.  It prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHANGE = ROOT / "src"
# a script reads its header figures (kernel backend, defaults) from this tree
sys.path.insert(0, str(CHANGE))

#: The entries of ``build_log``; ``bench_append`` builds its logs from the same ones.
ENTRY = "32-byte digest, 71-byte signature, key id key-{i % 4}"

#: Put before every child program.
_PREAMBLE = "import json, sys\nsys.path.insert(0, sys.argv[1])\ngiven = json.loads(sys.argv[2])\n"

#: A fixed pure-CPU task of about 0.15 s, for ``parallel_speedup``.
_SPIN = "import hashlib\nh = b''\nfor _ in range(200_000):\n    h = hashlib.sha256(h).digest()\n"


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "runs": values}


def won(change: dict, parent: dict) -> int:
    """Pairs of runs of two ``spread``s, taken in turn order, in which the change took less."""
    return sum(c < p for c, p in zip(change["runs"], parent["runs"]))


def parallel_speedup() -> float:
    """Throughput of ``_SPIN`` in two processes at once over that in one, best of two each."""
    best = {1: float("inf"), 2: float("inf")}
    for count in (1, 2, 1, 2):
        start = time.perf_counter()
        children = [subprocess.Popen([sys.executable, "-c", _SPIN]) for _ in range(count)]
        if any([child.wait() for child in children]):
            raise RuntimeError("the parallel_speedup task failed")
        best[count] = min(best[count], time.perf_counter() - start)
    return round(2 * best[1] / best[2], 3)


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "platform": platform.platform(),
            "parallel_speedup": parallel_speedup()}


def git_commit(path: Path) -> str | None:
    """HEAD of the checkout at ``path``, with ``-dirty`` if its sources differ from it.

    ``path`` is the root of a checkout or its ``src`` directory.
    """
    sources = "src" if (path / "src").is_dir() else "."
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path,
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", sources], cwd=path,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def build_log(src: Path, log_dir: Path, entries: int, seed: int) -> None:
    """Append ``entries`` seeded synthetic entries with the tree at ``src``.

    The records and checkpoints depend only on the seed and size, and both
    trees write them byte for byte alike.
    """
    code = _PREAMBLE + """
import random
from manifestd.manifest import ManifestDigest
from manifestd.translog import TransparencyLog
rng = random.Random(given["seed"])
with TransparencyLog(given["log"]) as log:
    for i in range(given["size"]):
        log.append(ManifestDigest(rng.randbytes(32)), rng.randbytes(71),
                   f'key-{i % 4}', appended_at=1_700_000_000_000 + i)
"""
    given = {"log": str(log_dir), "size": entries, "seed": seed}
    subprocess.run([sys.executable, "-c", code, str(src), json.dumps(given)], check=True)


def main(name: str, doc: str, child: str, summarize, *, sizes: str, repeats: int,
         same: tuple[str, ...], same_in_state: tuple[str, ...] = (), sides: dict | None = None,
         params: dict | None = None, build: bool = False, traced: bool = False) -> None:
    """Parse the flags, measure every size, write the result and exit, 1 on any mismatch.

    ``doc`` (the script's docstring) gives the ``what``: its first two
    paragraphs.  ``summarize(runs, traced_runs)`` makes a row's sides and
    extra fields from the child outputs (side: timed runs, in turn order;
    side: traced run).  ``same`` names the fields all runs must agree on,
    ``same_in_state`` those the runs of sides with equal own parameters must.
    ``sides`` maps each side to its tree and own parameters (default: the
    trees alone); ``params`` go to every run and into the header.  With
    ``build`` all runs read one log per size built by this tree; with
    ``traced`` each side runs once more, traced, after the timed runs.
    """
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--parent-rev", help="label or commit of that checkout, for the record")
    parser.add_argument("--sizes", default=sizes, help="sizes to measure, comma-separated")
    parser.add_argument("--repeats", type=int, default=repeats,
                        help="timed runs per size and side, the sides taking turns")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / f"BENCH_{name}.json")
    args = parser.parse_args()
    params = params or {}
    sides = sides or {"parent": ("parent", {}), "change": ("change", {})}
    trees = {"parent": args.parent, "change": CHANGE}

    rows, mismatches = [], []
    with tempfile.TemporaryDirectory(prefix=f"bench-{name}-") as workdir:
        for size in (int(s) for s in args.sizes.split(",")):
            row: dict = {"entries": size}
            log = Path(workdir) / f"log-{size}"
            if build:
                start = time.perf_counter()
                build_log(CHANGE, log, size, args.seed)
                row["build_s"] = time.perf_counter() - start
                row["file_bytes"] = {p.name: p.stat().st_size for p in log.iterdir()}

            def run(side: str, traced_run: bool) -> dict:
                tree, own = sides[side]
                given = {**params, **own, "size": size, "seed": args.seed,
                         "log": str(log) if build else None, "traced": traced_run}
                done = subprocess.run(
                    [sys.executable, "-c", _PREAMBLE + child, str(trees[tree]), json.dumps(given)],
                    check=True, stdout=subprocess.PIPE, text=True,
                )
                return json.loads(done.stdout)

            runs: dict[str, list[dict]] = {side: [] for side in sides}
            order = list(sides)
            for pair in range(args.repeats):
                for side in order if pair % 2 == 0 else order[::-1]:
                    runs[side].append(run(side, False))
            traced_runs = {side: run(side, True) for side in sides} if traced else {}
            every = {side: runs[side] + ([traced_runs[side]] if traced else []) for side in sides}
            for field in same + same_in_state:
                # pair each value with its state, the side's own parameters (one state for
                # `same`): every state must have one value
                seen = {(json.dumps(own) if field in same_in_state else "",
                         json.dumps(r[field], sort_keys=True))
                        for side, (_, own) in sides.items() for r in every[side]}
                if len(seen) != len({state for state, _ in seen}):
                    mismatches.append(f"{size} entries: the {field} differ: "
                                      f"{sorted(f'{s} {v}'.strip() for s, v in seen)}")
            row.update(summarize(runs, traced_runs))
            rows.append(row)
            shutil.rmtree(log, ignore_errors=True)
            print(size, {side: {key: value["median"] for key, value in row[side].items()
                                if key.endswith("_s")} for side in sides}, file=sys.stderr)

    from manifestd import kernel_backend

    try:
        from cryptography import __version__ as cryptography_version
    except ImportError:
        cryptography_version = None

    result = {
        "benchmark": name,
        "sizes": args.sizes,
        "what": " ".join(" ".join(doc.split("\n\n")[:2]).split()),
        "seed": args.seed,
        "repeats": args.repeats,
        **params,
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
    sys.exit(1 if mismatches else 0)
