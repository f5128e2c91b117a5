"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

Runs ``run.py --trace 1`` three times per workload: twice with
``PYTHONHASHSEED=0`` and once with ``PYTHONHASHSEED=1``.  Every traced run
also runs at least one untraced pass in the same process.  The check
passes when

- every deterministic per-layer value (each metric not in seconds: call
  counts, ``gsbasis.*``/``opi.*``/``rewrite.*`` counts and ratios) is
  identical across the three runs, and
- every pass of every run, traced or not, has the same output digest.

Prints one line per workload and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = (("0", "first"), ("0", "repeat"), ("1", "other hash seed"))


def traced_run(workload: str, seed: int, hash_seed: str) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    choices=("gs_scaled", "family_audit", "quotient_table"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for workload in args.workload or ("quotient_table", "family_audit", "gs_scaled"):
        runs = [(label, *traced_run(workload, args.seed, hs)) for hs, label in RUNS]
        problems = []
        counts = []
        digests = set()
        for label, meta, result in runs:
            counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"})
            digests.update(meta["digests"])
            if not result["correct"]:
                problems.append(f"{label} run failed its known answers")
        for (label, _, _), c in zip(runs[1:], counts[1:]):
            diff = sorted(k for k in counts[0] if counts[0][k] != c.get(k))
            if diff:
                problems.append(f"{label}: counts differ: {', '.join(diff)}")
        if len(digests) != 1:
            problems.append(f"{len(digests)} distinct output digests")
        overheads = [r["metrics"]["trace.overhead_s"]["value"] for _, _, r in runs]
        status = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{workload}: {len(counts[0])} deterministic values, digest "
              f"{next(iter(digests))[:16]}, tracing overhead "
              f"{', '.join(f'{o:.2f}' for o in overheads)} s: {status}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
